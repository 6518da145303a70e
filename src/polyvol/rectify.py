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
is the geometric one, so one convex solve with no seed finds Q.  With
the cone vertex at infinity the tetrahedra are plane triangles; laying
them out gives the tangency points, then the face planes and the
vertices.  The gauge is fixed by a Mobius centering and a rotation.
The volume is assembled exactly from ideal tetrahedra of the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    OrientedPlane,
    boost_to_origin,
    lift,
    mdot,
    rotation_about_z,
    rotation_to_z,
)
from .errors import NotPolyhedral, SolverDiverged
from .graphs import PlanarGraph, _norm_edge, medial_graph
from .polyhedron import Polyhedron, build_polyhedron
from .volume import VolumeResult, polyhedron_volume

#: Residual required of the angle-structure Newton solve.
SOLVE_TOL = 1e-12
#: Newton iterations allowed per angle-structure solve.
NEWTON_ITERATIONS = 100
#: Newton steps allowed for the Mobius centering.
CENTERING_ITERATIONS = 50


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


def _cone_equations(m: PlanarGraph):
    """The angle structures of the right-angled ideal polyhedron with skeleton m.

    Returns ``(tris, A, b)``.  ``tris`` are the fan triangles (a, b, c) of
    the faces without vertex 0, in face order; the angle in column
    ``3 t + i`` sits at vertex ``tris[t][i]`` and at the opposite side.
    ``A x = b`` holds the segment sums (pi/2 on an edge of m, pi on a
    segment inside a face, 2 pi otherwise), then the tetrahedron sums (pi).
    """
    tris = [(cyc[0], cyc[i], cyc[i + 1]) for cyc in m.faces if 0 not in cyc
            for i in range(1, len(cyc) - 1)]
    on_face = {w for cyc in m.faces if 0 in cyc for w in cyc}
    rows = {}   # segment -> (target, columns); a vertex w stands for the segment 0-w
    for t, tri in enumerate(tris):
        for i, w in enumerate(tri):
            side = _norm_edge(tri[(i + 1) % 3], tri[(i + 2) % 3])
            rows.setdefault(side, (0.5 * math.pi if side in m.edge_index else math.pi, []))
            rows.setdefault(w, (0.5 * math.pi if w in m.adjacency[0]
                                else math.pi if w in on_face else 2.0 * math.pi, []))
            rows[side][1].append(3 * t + i)
            rows[w][1].append(3 * t + i)
    A = np.zeros((len(rows) + len(tris), 3 * len(tris)))
    for r, (_, cols) in enumerate(rows.values()):
        A[r, cols] = 1.0
    A[len(rows):] = np.kron(np.eye(len(tris)), np.ones(3))
    b = [target for target, _ in rows.values()] + [math.pi] * len(tris)
    return tris, A, np.array(b)


def _max_volume_angles(m: PlanarGraph):
    """Rivin's maximizer of the sum of Lobachevsky functions over angle structures.

    Infeasible-start Newton on the KKT system (Boyd & Vandenberghe,
    *Convex Optimization*, 10.3) from all angles pi/3, with the redundant
    equations dropped by one SVD.  Returns ``(tris, angles (T, 3), residual)``.
    """
    tris, A, b = _cone_equations(m)
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(S > 1e-9 * S[0]))
    C, d = Vt[:rank], (U[:, :rank].T @ b) / S[:rank]

    def residual(x, nu):
        return np.concatenate([np.log(2.0 * np.sin(x)) + C.T @ nu, C @ x - d])

    n = A.shape[1]
    x = np.full(n, math.pi / 3.0)
    nu = -C @ np.log(2.0 * np.sin(x))
    r = residual(x, nu)
    K = np.zeros((n + rank, n + rank))
    K[:n, n:], K[n:, :n] = C.T, C
    for _ in range(NEWTON_ITERATIONS):
        norm = float(np.linalg.norm(r))
        if norm < SOLVE_TOL:
            break
        K[range(n), range(n)] = 1.0 / np.tan(x)
        step = np.linalg.solve(K, -r)
        s = 1.0
        while s > 1e-10:  # stay inside (0, pi) and decrease the residual
            x_try, nu_try = x + s * step[:n], nu + s * step[n:]
            if np.all((x_try > 0.0) & (x_try < math.pi)):
                r_try = residual(x_try, nu_try)
                if np.linalg.norm(r_try) <= (1.0 - 0.01 * s) * norm:
                    break
            s *= 0.5
        else:
            break
        x, nu, r = x_try, nu_try, r_try
    norm = float(np.linalg.norm(r))
    gap = float(np.max(np.abs(A @ x - b)))
    if norm >= SOLVE_TOL or gap > 1e-10:
        raise SolverDiverged(
            f"angle structure solve stalled (residual {norm:.3g}, equations {gap:.3g})")
    return tris, x.reshape(-1, 3), norm


def _develop(m: PlanarGraph, tris, angles):
    """Ideal vertices of the cone decomposition on S^2, vertex 0 at the north pole.

    With vertex 0 at infinity each tetrahedron is a plane triangle with
    its angles.  The triangles are laid out breadth first across shared
    sides (which neighbours traverse in opposite directions), then mapped
    back by inverse stereographic projection.
    """
    owner = {(tri[i], tri[(i + 1) % 3]): (t, i) for t, tri in enumerate(tris) for i in range(3)}
    z = np.zeros(m.n_vertices, dtype=complex)
    z[tris[0][1]] = 1.0

    def place(t, i):  # the third vertex, from the placed side (tri[i], tri[i + 1])
        (p, q, w), ang = np.roll(tris[t], -i), np.roll(angles[t], -i)
        z[w] = z[p] + (z[q] - z[p]) * math.sin(ang[1]) / math.sin(ang[2]) * np.exp(-1j * ang[0])

    place(0, 0)
    queue, seen = [0], {0}
    while queue:
        tri = tris[queue.pop(0)]
        for i in range(3):
            t, j = owner.get((tri[(i + 1) % 3], tri[i]), (None, None))
            if t is not None and t not in seen:
                seen.add(t)
                place(t, j)
                queue.append(t)
    z = z[1:] - z[1:].mean()
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
    t = points / np.linalg.norm(points, axis=1, keepdims=True)
    total = float(np.linalg.norm(t.sum(axis=0)))
    for _ in range(CENTERING_ITERATIONS):
        x = np.linalg.solve(len(t) * np.eye(3) - t.T @ t, t.sum(axis=0))
        size = float(np.linalg.norm(x))
        if size > 0.5:
            x *= 0.5 / size
        boosted = lift(t) @ boost_to_origin(x).T
        t_new = boosted[:, 1:] / np.linalg.norm(boosted[:, 1:], axis=1, keepdims=True)
        new_total = float(np.linalg.norm(t_new.sum(axis=0)))
        if new_total >= total:
            break
        t, total = t_new, new_total
    return t


def _circle_normal(points):
    """Unit Minkowski normal of the plane through points of a circle on S^2."""
    n = np.linalg.svd(np.column_stack([-np.ones(len(points)), points]))[2][-1]
    return n / math.sqrt(float(mdot(n, n)))


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
    normals = np.array([_circle_normal(tang[list(cyc)]) for cyc in m.faces[:len(g.faces)]])
    # Outward: the tangency points off a face lie inside its half-space.
    normals *= -np.sign(mdot(normals[:, None], lift(tang)).sum(axis=1))[:, None]
    lifts = np.array([_circle_normal(tang[list(cyc)]) for cyc in m.faces[len(g.faces):]])

    # Gauge: first face normal to +z, then first tangency point into the xz-plane.
    R = rotation_to_z(normals[0, 1:])
    t0 = R[1:, 1:] @ tang[0]
    R = rotation_about_z(-math.atan2(t0[1], t0[0])) @ R
    normals, lifts, tang = normals @ R.T, lifts @ R.T, tang @ R[1:, 1:].T
    lifts = lifts / lifts[:, :1]

    u, v = np.array(g.edges).T
    a, d = lifts[u, 1:], lifts[v, 1:] - lifts[u, 1:]
    feet = a - (np.sum(a * d, axis=1) / np.sum(d * d, axis=1))[:, None] * d
    f1, f2 = np.array([g.edge_faces[e] for e in g.edges]).T
    residuals = {
        "solve": solve_residual,
        "tangency": float(np.max(np.abs(np.linalg.norm(feet, axis=1) - 1.0))),
        "gram": float(np.max(np.abs(mdot(normals[f1], normals[f2]) + 1.0))),
        "centering": float(np.linalg.norm(tang.sum(axis=0))),
    }
    if residuals["tangency"] > 1e-8:
        raise SolverDiverged(f"tangency residual {residuals['tangency']:.3g}")
    return MidspherePacking(graph=g, face_normals=normals, vertex_lifts=lifts,
                            tangency_points=tang, residuals=residuals)


def rectification(g: PlanarGraph) -> Polyhedron:
    """The projective polyhedron with skeleton g and all edges tangent to S^2.

    Not a generalized hyperbolic polyhedron (no edge meets the open
    ball); the result is flagged ``rectified`` and only truncation and
    volume consume it downstream.
    """
    packing = solve_midsphere(g)
    planes = tuple(OrientedPlane(normal=packing.face_normals[f])
                   for f in range(len(g.faces)))
    return build_polyhedron(planes, g, rectified=True)


def rectification_volume(g: PlanarGraph) -> VolumeResult:
    """Volume of the rectification: its truncation is ideal and right-angled."""
    P = rectification(g)
    return polyhedron_volume(P)
