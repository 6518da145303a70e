"""Benchmark corpus and reference values, built from numpy alone.

The graph generators here complement the named families of
``polyvol.graphs``: an icosahedron literal and seeded stacked
triangulations (repeated 1-to-3 splits of a random face, which keep the
graph 3-connected).  The references are computed without any code of
``polyvol``: a Lobachevsky function by Gauss-Legendre quadrature, the
antiprism closed form, and the one-dimensional Schlafli integral for
regular tetrahedra.
"""

from __future__ import annotations

import math

import numpy as np

#: Volume of the regular ideal tetrahedron, 3 * Lobachevsky(pi / 3).
IDEAL_REGULAR_TETRAHEDRON = 1.0149416064096536

ICOSAHEDRON_FACES = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 6, 2), (2, 7, 3), (3, 8, 4), (4, 9, 5), (5, 10, 1),
    (6, 7, 2), (7, 8, 3), (8, 9, 4), (9, 10, 5), (10, 6, 1),
    (11, 7, 6), (11, 8, 7), (11, 9, 8), (11, 10, 9), (11, 6, 10),
)


def stacked_triangulation_faces(n_vertices: int, rng) -> tuple:
    """Faces of a random stacked triangulation with ``n_vertices`` vertices.

    Starts from the tetrahedron and splits a uniformly chosen face into
    three around each new vertex, keeping the face orientation.
    """
    if n_vertices < 4:
        raise ValueError("a stacked triangulation needs at least 4 vertices")
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    for v in range(4, n_vertices):
        a, b, c = faces.pop(int(rng.integers(len(faces))))
        faces += [(a, b, v), (b, c, v), (c, a, v)]
    return tuple(faces)


def random_rotation(rng) -> np.ndarray:
    """Uniform rotation of R^3 as a 4x4 Lorentz matrix fixing the time axis."""
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    L = np.eye(4)
    L[1:, 1:] = Q
    return L


_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def _gauss(f, a: float, b: float) -> float:
    x = 0.5 * (b - a) * _GL_X + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.sum(_GL_W * f(x)))


def lobachevsky(x: float) -> float:
    """Lobachevsky function -int_0^x log|2 sin t| dt, by quadrature.

    Reduced to [0, pi/2] by periodicity and oddness; there the integrand
    is split as log(2t) (integrated exactly) plus the smooth log(sin t / t).
    """
    x = math.remainder(x, math.pi)
    sign = -1.0 if x < 0 else 1.0
    x = abs(x)
    if x > math.pi / 2:
        return -sign * lobachevsky(math.pi - x)
    if x == 0.0:
        return 0.0
    smooth = _gauss(lambda t: np.log(np.sinc(t / math.pi)), 0.0, x)
    return sign * (x - x * math.log(2.0 * x) - smooth)


def antiprism_volume(n: int) -> float:
    """Rectification volume of the n-gonal pyramid (an ideal antiprism)."""
    return 2 * n * (lobachevsky(math.pi / 4 + math.pi / (2 * n))
                    + lobachevsky(math.pi / 4 - math.pi / (2 * n)))


def regular_tetrahedron_dihedral(radius: float) -> float:
    """Dihedral angle of the regular tetrahedron with vertices at chart radius r.

    Its faces are the planes n_i . x = r/3 with unit normals meeting at
    n_i . n_j = -1/3, so their Minkowski product gives the angle directly.
    """
    c2 = (radius / 3.0) ** 2
    return math.acos((c2 + 1.0 / 3.0) / (1.0 - c2))


def _regular_edge_length(beta):
    """Edge length of the regular tetrahedron with dihedral angle beta."""
    cos_a = np.cos(beta) / (1.0 - np.cos(beta))
    return np.arccosh(cos_a / (1.0 - cos_a))


def regular_tetrahedron_volume(radius: float) -> float:
    """Schlafli reference for the compact regular tetrahedron (radius < 1).

    V(alpha) = 3 Lambda(pi/3) - 3 int_{pi/3}^{alpha} l(beta) d beta, with the
    substitution beta = pi/3 + s^2 removing the logarithmic singularity
    of the edge length at the ideal end.
    """
    if radius == 1.0:
        return IDEAL_REGULAR_TETRAHEDRON
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1]")
    alpha = regular_tetrahedron_dihedral(radius)
    top = math.sqrt(alpha - math.pi / 3.0)
    # Graded panels towards s = 0, where the integrand behaves like s log s.
    edges = [0.0] + [top * 0.5 ** k for k in range(12, -1, -1)]
    integral = sum(
        _gauss(lambda s: 2.0 * s * _regular_edge_length(math.pi / 3.0 + s * s), a, b)
        for a, b in zip(edges, edges[1:]))
    return IDEAL_REGULAR_TETRAHEDRON - 3.0 * integral
