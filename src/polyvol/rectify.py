"""Rectifications: the edge-tangent realization of a 3-connected planar graph.

For any such graph there is a projective polyhedron with that skeleton
whose edges are all tangent to the unit sphere, unique up to
sphere-preserving projective maps (the midsphere / Koebe realization; a
primal-dual circle packing on the sphere, face circles packing with
tangency graph the dual).  It is found here by a Gauss-Newton solve on
the face planes and vertices with Gram targets <n_f, n_g> = -1 at every
edge, seeded from a Maxwell-Cremona convex realization, then gauge fixed
by a Mobius centering (tangency points summing to zero) and a rotation.

Truncating the rectification yields an ideal right-angled polyhedron
whose skeleton is the medial graph; its volume is assembled exactly from
ideal tetrahedra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._realize import solve_plane_system
from ._steinitz import convex_realization, midscribe_normalize
from .core import (
    OrientedPlane,
    boost_to_origin,
    lift,
    rotation_about_z,
    rotation_to_z,
)
from .errors import NotPolyhedral, SolverDiverged
from .graphs import PlanarGraph
from .polyhedron import Polyhedron, build_polyhedron
from .volume import VolumeResult, polyhedron_volume

#: Residual required of the tangency solve.
SOLVE_TOL = 1e-12
#: Gauss-Newton iterations allowed per tangency solve.
NEWTON_ITERATIONS = 500


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


def _initial_guess(g: PlanarGraph):
    pts = convex_realization(g)
    pts = midscribe_normalize(pts, g.edges)
    center = pts.mean(axis=0)
    normals = np.zeros((len(g.faces), 4))
    for f, cyc in enumerate(g.faces):
        P = pts[list(cyc)]
        centroid = P.mean(axis=0)
        U, S, Vt = np.linalg.svd(P - centroid)
        n = Vt[-1]
        if float(n @ (centroid - center)) < 0:
            n = -n
        c = float(n @ centroid)
        normals[f] = np.concatenate([[c], n])
        sq = -c * c + 1.0
        if sq <= 0:
            # plane misses the ball in the seed; nudge the offset inward
            normals[f, 0] = math.copysign(0.9, c)
    # normalize to unit spacelike where possible
    for f in range(len(normals)):
        n = normals[f]
        sq = -n[0] ** 2 + float(n[1:] @ n[1:])
        if sq > 1e-12:
            normals[f] = n / math.sqrt(sq)
    return normals, pts


def _edge_tangency_points(g: PlanarGraph, verts):
    pts = np.zeros((len(g.edges), 3))
    for i, (u, v) in enumerate(g.edges):
        a = verts[u]
        d = verts[v] - verts[u]
        s = -float(a @ d) / float(d @ d)
        pts[i] = a + s * d
    return pts


def _reject_collapsed_edges(g: PlanarGraph, verts, residual):
    """A solution with a zero-length edge has no tangency point on it.

    An edge shorter than the solve's residual tolerance (relative to its
    endpoints) is numerically zero.
    """
    u, v = np.array(g.edges).T
    lengths = np.linalg.norm(verts[v] - verts[u], axis=1)
    size = np.maximum(1.0, np.maximum(np.linalg.norm(verts[u], axis=1),
                                      np.linalg.norm(verts[v], axis=1)))
    i = int(np.argmin(lengths / size))
    if lengths[i] <= SOLVE_TOL * size[i]:
        raise SolverDiverged(
            f"midsphere solve collapsed edge {g.edges[i]} (length {lengths[i]:.3g})",
            residual=residual)


def _center_tangencies(points, tol=1e-13, max_iter=100):
    """Hyperbolic center of mass of ideal points: Newton on the ball.

    Minimizes ``sum_e log((1 - x . t_e) / sqrt(1 - |x|^2))``; at the
    minimum the boosted points sum to zero.
    """
    t = points / np.linalg.norm(points, axis=1, keepdims=True)
    E = len(t)
    x = np.zeros(3)

    def fgh(x):
        s = 1.0 - t @ x
        q = 1.0 - float(x @ x)
        f = float(np.sum(np.log(s))) - 0.5 * E * math.log(q)
        grad = -np.sum(t / s[:, None], axis=0) + E * x / q
        H = np.einsum("ei,ej,e->ij", t, t, 1.0 / (s * s))
        H += E * (np.eye(3) / q + 2.0 * np.outer(x, x) / (q * q))
        return f, grad, H

    f, grad, H = fgh(x)
    for _ in range(max_iter):
        if np.linalg.norm(grad) < tol:
            break
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        alpha = 1.0
        while alpha > 1e-8:
            x_try = x + alpha * step
            if float(x_try @ x_try) < 0.999999:
                f_try, g_try, H_try = fgh(x_try)
                if f_try < f:
                    x, f, grad, H = x_try, f_try, g_try, H_try
                    break
            alpha *= 0.5
        else:
            break
    return x


def solve_midsphere(g: PlanarGraph) -> MidspherePacking:
    """Compute the midsphere packing realizing the rectification of g.

    Newton iterations drive every edge's Gram value to -1 (tangency);
    on failure a continuation ladder through equal-angle hyperideal
    polyhedra (all angles eps, eps -> 0) is attempted.  The output is
    gauge normalized: tangency barycenter at the sphere center, first
    face normal along +z, first tangency point in the xz-plane.
    """
    if not g.is_polyhedral():
        raise NotPolyhedral("rectification needs a 3-connected polyhedral graph")
    normals0, verts0 = _initial_guess(g)

    targets = {e: -1.0 for e in g.edges}
    normals, verts, report = solve_plane_system(
        g, targets, normals0, verts0, tol=SOLVE_TOL, max_iter=NEWTON_ITERATIONS)
    if not report.ok:
        # Continuation: equal-angle hyperideal polyhedra with eps -> 0.
        normals, verts = normals0, verts0
        ok = False
        for eps in (0.6, 0.4, 0.25, 0.15, 0.08, 0.04, 0.02, 0.01, 0.0):
            targets = {e: -math.cos(eps) for e in g.edges}
            normals, verts, report = solve_plane_system(
                g, targets, normals, verts, tol=SOLVE_TOL, max_iter=NEWTON_ITERATIONS)
            if not report.ok and eps > 0:
                continue
            ok = report.ok
        if not ok:
            raise SolverDiverged(
                f"midsphere solve stalled (residual {report.residual:.3g})",
                residual=report.residual)
    _reject_collapsed_edges(g, verts, report.residual)

    # Gauge: Mobius centering, then rotations.
    tang = _edge_tangency_points(g, verts)
    center = _center_tangencies(tang)
    B = boost_to_origin(center)
    normals = normals @ B.T
    lifts = lift(verts) @ B.T
    lifts = lifts / lifts[:, :1]
    norm0 = normals[0, 1:]
    R1 = rotation_to_z(norm0)
    normals = normals @ R1.T
    lifts = lifts @ R1.T
    tang = _edge_tangency_points(g, lifts[:, 1:])
    t0 = tang[0]
    R2 = rotation_about_z(-math.atan2(t0[1], t0[0]))
    normals = normals @ R2.T
    lifts = lifts @ R2.T
    tang = _edge_tangency_points(g, lifts[:, 1:])

    # Re-normalize spacelike normals after the gauge maps.
    for f in range(len(normals)):
        sq = -normals[f, 0] ** 2 + float(normals[f, 1:] @ normals[f, 1:])
        normals[f] /= math.sqrt(sq)

    tang_resid = float(np.max(np.abs(np.linalg.norm(tang, axis=1) - 1.0)))
    gram = np.array([
        -normals[f1, 0] * normals[f2, 0] + normals[f1, 1:] @ normals[f2, 1:]
        for (f1, f2) in (g.edge_faces[e] for e in g.edges)])
    residuals = {
        "solve": report.residual,
        "tangency": tang_resid,
        "gram": float(np.max(np.abs(gram + 1.0))),
        "centering": float(np.linalg.norm(np.sum(
            tang / np.linalg.norm(tang, axis=1, keepdims=True), axis=0))),
    }
    if residuals["tangency"] > 1e-8:
        raise SolverDiverged(f"tangency residual {tang_resid:.3g}", residual=tang_resid)
    return MidspherePacking(
        graph=g,
        face_normals=normals,
        vertex_lifts=lifts,
        tangency_points=tang / np.linalg.norm(tang, axis=1, keepdims=True),
        residuals=residuals,
    )


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
