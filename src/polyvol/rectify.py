"""Rectifications: the edge-tangent realization of a 3-connected planar graph.

For any such graph g there is a projective polyhedron with skeleton g
whose edges are all tangent to the unit sphere, unique up to
sphere-preserving projective maps (the midsphere / Koebe realization).
Its truncation is the ideal right-angled polyhedron Q with skeleton
``medial_graph(g)``, whose ideal vertices are the tangency points.

Q comes from Rivin's volume maximization (Annals 139 (1994); Annals 143
(1996)): cone Q from one ideal vertex and fan-triangulate the faces
without it.  The sum of Lobachevsky functions of the tetrahedron angles
is strictly concave over the angle structures, and its unique maximizer
is the geometric one, so one convex solve with no seed finds Q.  Its
maximum is the volume of Q, and so the rectification volume.  With
the cone vertex at infinity the tetrahedra are plane triangles; laying
them out gives the tangency points, then the face planes and the
vertices.  The gauge is fixed by a Mobius centering and a rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _unit_rows,
    boost_to_origin,
    lift,
    mdot,
    rotation_about_z,
    rotation_to_z,
    row_norms,
)
from .errors import NotPolyhedral, SolverDiverged
from .graphs import PlanarGraph, _norm_edge, medial_graph
from .polyhedron import Polyhedron, build_polyhedron
from .volume import VolumeMethod, VolumeResult, cone_triangles, ideal_tetrahedra_volume

#: Residual required of the angle-structure Newton solve.
SOLVE_TOL = 1e-12
#: Newton iterations allowed per angle-structure solve.
NEWTON_ITERATIONS = 100
#: Newton steps allowed for the Mobius centering.
CENTERING_ITERATIONS = 50

# Columns i + 1 and i + 2 (mod 3): np.roll(x, -1, axis=1) and np.roll(x, 1, axis=1).
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]
_PAIR_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])  # a Laplacian pair's Schur entries ii, jj, ij, ji


@dataclass(frozen=True)
class MidspherePacking:
    """A midsphere realization: per-face and per-vertex circles on S^2.

    Face circles are the intersections of the face planes with the unit
    sphere (a circle packing with tangency graph the dual); vertex
    circles are the tangency circles of the cones from the (hyperideal)
    vertices, i.e. the sphere sections of their polar planes.
    """

    graph: PlanarGraph
    face_normals: np.ndarray      # (F, 4) unit spacelike, outward
    vertex_lifts: np.ndarray      # (V, 4), chart-normalized poles
    tangency_points: np.ndarray   # (E, 3), unit vectors, ordered as graph.edges
    residuals: dict
    volume: VolumeResult          # of the truncation, by Rivin's maximum


def _cone_equations(m: PlanarGraph):
    """The angle structures of the right-angled ideal polyhedron with skeleton m.

    Returns ``(tris, side, side_target, vertex_target)``.  ``tris`` are the fan
    triangles of the faces without vertex 0; angle (t, i) sits at segment
    0-``tris[t][i]`` and at the opposite side ``side[t, i]``.  A tetrahedron's
    angles sum to pi; those at a side or at 0-w (``vertex_target[w]``) to pi/2
    on an edge of m, pi inside a face, 2 pi otherwise.
    """
    tris = cone_triangles(m.faces, 0)
    sides = {}
    side = np.array([[sides.setdefault(_norm_edge(a, b), len(sides))
                      for a, b in ((q, w), (w, p), (p, q))] for p, q, w in tris])
    around = [cyc for cyc in m.faces if 0 in cyc]
    on_face = {w for cyc in around for w in cyc}
    near = {cyc[cyc.index(0) - 1] for cyc in around}  # each edge w-0 is entered by one face
    vertex_target = [0.5 * math.pi if w in near else math.pi if w in on_face
                     else 2.0 * math.pi for w in range(m.n_vertices)]
    side_target = [0.5 * math.pi if s in m.edge_index else math.pi for s in sides]
    return tris, side, np.array(side_target), np.array(vertex_target)


def _max_volume_angles(m: PlanarGraph):
    """Rivin's maximizer of the sum of Lobachevsky functions over angle structures.

    Returns ``(tris, angles (T, 3), residual)``.  Infeasible-start Newton
    (Boyd & Vandenberghe, *Convex Optimization*, 10.3) from all angles pi/3,
    in two free angles per tetrahedron.  Each Hessian block has determinant
    1; its inverse seen from the sides is the triangle's cotangent Laplacian,
    so a step is one solve with the Schur complement on the side rows.  Left
    out as implied, and checked at the end with the rest: the rows 0-w (the
    tetrahedron rows at w sum to it and the side rows at w) and the last
    side row (all side rows sum to all tetrahedron rows).
    """
    tris, side, side_target, vertex_target = _cone_equations(m)
    n = len(side_target)
    # Sides i and i + 1 of a triangle meet at angle i + 2: the Laplacian's pairs.
    ends = np.stack([side, side[:, _NEXT]], axis=-1)
    at = (ends[..., [0, 1, 0, 1]] * n + ends[..., [0, 1, 1, 0]]).ravel()

    def side_sums(q):
        return np.bincount(side.ravel(), weights=q.ravel(), minlength=n)

    def residual(x, nu):
        u = np.log(2.0 * np.sin(x)) + nu[side]
        primal = (side_sums(x) - side_target)[:-1]
        return u, np.concatenate([(u[:, :2] - u[:, 2:]).ravel(), primal])

    def laplacian(w, q):  # each tetrahedron's Hessian inverse, on its three angles
        flux = w * (q - q[:, _NEXT])
        return flux - flux[:, _PREV]

    def line_search(dx, dnu):  # stay inside (0, pi) and decrease the residual
        s = 1.0
        while s > 1e-10:
            x_try = x + s * dx
            x_try[:, 2] = math.pi - x_try[:, 0] - x_try[:, 1]
            if np.all((x_try > 0.0) & (x_try < math.pi)):
                u_try, r_try = residual(x_try, nu + s * dnu)
                if math.sqrt(r_try @ r_try) <= (1.0 - 0.01 * s) * norm:
                    return x_try, nu + s * dnu, u_try, r_try
            s *= 0.5
        return None

    x, nu = np.full(side.shape, math.pi / 3.0), np.zeros(n)  # nu[-1] stays 0
    u, r = residual(x, nu)
    for _ in range(NEWTON_ITERATIONS):
        norm = math.sqrt(r @ r)
        if norm < SOLVE_TOL:
            break
        w = (1.0 / np.tan(x))[:, _PREV]
        schur = np.bincount(at, weights=(w[..., None] * _PAIR_SIGNS).ravel(),
                            minlength=n * n).reshape(n, n)[:-1, :-1]
        # S dnu = r_primal - B H^-1 r_dual, dx = -H^-1 (r_dual + B^T dnu); where rounding
        # stalls that, the step with r_dual = 0: near angles 0 and pi large cotangents carry
        # the rounding of r_dual into the primal rows, and this step has small values only.
        primal = r[2 * len(tris):]
        steps = np.linalg.solve(schur, np.column_stack(
            [primal - side_sums(laplacian(w, u))[:-1], primal]))
        tried = (line_search(-laplacian(w, q + dnu[side]), dnu)
                 for dnu, q in zip(np.vstack([steps, [0.0, 0.0]]).T, (u, 0.0)))
        state = next((found for found in tried if found is not None), None)
        if state is None:
            break
        x, nu, u, r = state
    norm = math.sqrt(r @ r)
    at_vertex = np.bincount(np.ravel(tris), weights=x.ravel(), minlength=m.n_vertices)
    gap = float(np.max(np.abs(np.concatenate([side_sums(x) - side_target, x.sum(axis=1) - math.pi,
                                              (at_vertex - vertex_target)[1:]]))))
    if norm >= SOLVE_TOL or gap > 1e-10:
        raise SolverDiverged(
            f"angle structure solve stalled (residual {norm:.3g}, equations {gap:.3g})")
    return tris, x, norm


def _develop(m: PlanarGraph, tris, angles):
    """Ideal vertices of the cone decomposition on S^2, vertex 0 at the north pole.

    With vertex 0 at infinity each tetrahedron is a plane triangle with
    its angles.  The triangles are laid out breadth first across shared
    sides (which neighbours traverse in opposite directions), then mapped
    back by inverse stereographic projection.
    """
    owner = {(tri[i], tri[(i + 1) % 3]): (t, i) for t, tri in enumerate(tris) for i in range(3)}
    # Vertex i + 2 of a triangle from its side (i, i + 1): z_i + (z_{i+1} - z_i) * shape[i].
    sines = np.sin(angles)
    shape = (sines[:, _NEXT] / sines[:, _PREV] * np.exp(-1j * angles)).tolist()
    z = [0j] * m.n_vertices
    z[tris[0][1]] = 1.0
    order, seen = [(0, 0)], {0}
    for t, i in order:  # grows while it is walked: breadth first
        p, q, w = (tris[t][(i + k) % 3] for k in range(3))
        z[w] = z[p] + (z[q] - z[p]) * shape[t][i]
        for k in range(3):
            t2, j = owner.get((tris[t][(k + 1) % 3], tris[t][k]), (None, None))
            if t2 is not None and t2 not in seen:
                seen.add(t2)
                order.append((t2, j))
    z = np.array(z[1:]) - np.mean(z[1:])
    z /= math.sqrt(float(np.mean(np.abs(z) ** 2)))
    r2 = np.abs(z) ** 2
    sphere = np.column_stack([2.0 * z.real, 2.0 * z.imag, r2 - 1.0]) / (r2 + 1.0)[:, None]
    return np.vstack([[0.0, 0.0, 1.0], sphere])


def _center_tangencies(points):
    """Mobius-center ideal points: boost them until their unit vectors sum to zero.

    Newton on ``f(x) = sum_e log(1 - x . t_e) - E/2 log(1 - |x|^2)``,
    minimal at the hyperbolic center of mass, taken at the origin after
    each boost, where the Hessian is ``E I - sum_e t_e t_e^T``.  Steps are
    cut to chart length 0.5, so every boost center lies inside the ball.
    """
    t = points / row_norms(points)[:, None]
    s = t.sum(axis=0)
    total = math.sqrt(s @ s)
    for _ in range(CENTERING_ITERATIONS):
        x = np.linalg.solve(len(t) * np.eye(3) - t.T @ t, s)
        size = math.sqrt(x @ x)
        if size > 0.5:
            x *= 0.5 / size
        boosted = lift(t) @ boost_to_origin(x).T
        t_new = boosted[:, 1:] / row_norms(boosted[:, 1:])[:, None]
        s_new = t_new.sum(axis=0)
        new_total = math.sqrt(s_new @ s_new)
        if new_total >= total:
            break
        t, s, total = t_new, s_new, new_total
    return t


def _circle_normals(m: PlanarGraph, points):
    """Unit normals of the planes through each face's points (on a circle of S^2)."""
    normals = np.empty((len(m.faces), 4))
    for ids, cycles in m.faces_by_size:
        rows = np.concatenate([-np.ones(cycles.shape + (1,)), points[cycles]], axis=2)
        n = np.linalg.svd(rows)[2][:, -1]
        normals[ids] = n / np.sqrt(mdot(n, n))[:, None]
    return normals


def solve_midsphere(g: PlanarGraph) -> MidspherePacking:
    """Compute the midsphere packing realizing the rectification of g.

    The tangency points are the ideal vertices of Rivin's maximal angle
    structure on ``medial_graph(g)``, developed onto the sphere and
    Mobius-centered.  Each face plane passes through the tangency points
    of its edges; each vertex is the pole of the circle through the
    tangency points of its edges.  The output is gauge normalized:
    tangency barycenter at the sphere center, first face normal along
    +z, first tangency point in the xz-plane.  Chirality is fixed too:
    every face cycle of g is counterclockwise seen from outside.
    """
    if not g.is_polyhedral():
        raise NotPolyhedral("rectification needs a 3-connected polyhedral graph")
    m = medial_graph(g)   # medial vertex i is g.edges[i]
    tris, angles, solve_residual = _max_volume_angles(m)
    tang = _center_tangencies(_develop(m, tris, angles))
    normals = _circle_normals(m, tang)
    normals, lifts = normals[:len(g.faces)], normals[len(g.faces):]
    # Outward: the tangency points off a face lie inside its half-space.
    normals *= -np.sign(mdot(normals[:, None], lift(tang)).sum(axis=1))[:, None]

    # Gauge: first face normal to +z, then first tangency point into the xz-plane.
    R = rotation_to_z(normals[0, 1:])
    t0 = R[1:, 1:] @ tang[0]
    R = rotation_about_z(-math.atan2(t0[1], t0[0])) @ R
    normals, lifts, tang = normals @ R.T, lifts @ R.T, tang @ R[1:, 1:].T
    lifts = lifts / lifts[:, :1]

    u, v = np.array(g.edges).T
    a, d = lifts[u, 1:], lifts[v, 1:] - lifts[u, 1:]
    feet = a - (np.sum(a * d, axis=1) / np.sum(d * d, axis=1))[:, None] * d
    f1, f2 = g.edge_face_array.T
    residuals = {
        "solve": solve_residual,
        "tangency": float(np.max(np.abs(row_norms(feet) - 1.0))),
        "gram": float(np.max(np.abs(mdot(normals[f1], normals[f2]) + 1.0))),
        "centering": float(np.linalg.norm(tang.sum(axis=0))),
    }
    if residuals["tangency"] > 1e-8:
        raise SolverDiverged(f"tangency residual {residuals['tangency']:.3g}")
    volume = VolumeResult(ideal_tetrahedra_volume(angles), VolumeMethod.IDEAL_DECOMPOSITION,
                          1e-12 * max(1, len(tris)))
    return MidspherePacking(graph=g, face_normals=normals, vertex_lifts=lifts,
                            tangency_points=tang, residuals=residuals, volume=volume)


def rectification_and_volume(g: PlanarGraph) -> tuple[Polyhedron, VolumeResult]:
    """The rectification of g and its volume (Rivin's maximum), from one solve.

    The polyhedron is flagged ``rectified``: no edge meets the open ball,
    so only truncation and volume consume it downstream.
    """
    packing = solve_midsphere(g)
    return build_polyhedron(_unit_rows(packing.face_normals), g, rectified=True), packing.volume


def rectification(g: PlanarGraph) -> Polyhedron:
    """The projective polyhedron with skeleton g and all edges tangent to S^2."""
    return rectification_and_volume(g)[0]


def rectification_volume(g: PlanarGraph) -> VolumeResult:
    """Volume of the rectification: Rivin's maximum over the angle structures."""
    return rectification_and_volume(g)[1]
