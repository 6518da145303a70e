"""Concrete polyhedron constructions used as flow seeds and test fixtures."""

from __future__ import annotations

import math

import numpy as np

from ._steinitz import convex_realization
from .core import _unit_rows, random_isometry
from .errors import NewtonDiverged, SkeletonChanged
from .graphs import PlanarGraph, tetrahedron_graph
from .polyhedron import Polyhedron, build_polyhedron, dihedral_angles

_TETRA_DIRS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                       dtype=float) / math.sqrt(3)
#: Range of the chart radius of a jittered compact seed.
JITTER_SCALES = (0.35, 0.75)
#: Range of the sampled angles of a random hyperideal seed, below pi / 3.
HYPERIDEAL_ANGLES = (0.1, 0.75)


def regular_tetrahedron(radius: float, rectified: bool = False) -> Polyhedron:
    """Regular tetrahedron with vertices at the given chart radius.

    Edges meet the open ball iff radius < sqrt(3); radius sqrt(3) is the
    rectification of the tetrahedral graph.
    """
    g = tetrahedron_graph()
    opp = [next(v for v in range(4) if v not in cyc) for cyc in g.faces]
    normals = _unit_rows(np.column_stack([np.full(4, radius / 3.0), -_TETRA_DIRS[opp]]))
    return build_polyhedron(normals, g, rectified=rectified)


def planes_from_vertices(points: np.ndarray, g: PlanarGraph) -> np.ndarray:
    """Unit normals of the outward face planes of a convex vertex realization of g."""
    center = points.mean(axis=0)
    rows = []
    for cyc in g.faces:
        P = points[list(cyc)]
        centroid = P.mean(axis=0)
        _, _, Vt = np.linalg.svd(P - centroid)
        n = Vt[-1]
        if float(n @ (centroid - center)) < 0:
            n = -n
        rows.append([float(n @ centroid), *n])  # the plane {n . x = n . centroid}
    return _unit_rows(np.array(rows))


def compact_realization(g: PlanarGraph, scale: float = 0.6) -> Polyhedron:
    """A compact (hence proper) polyhedron with skeleton g inside the ball."""
    pts = convex_realization(g)
    pts = pts - pts.mean(axis=0)
    pts = pts / np.linalg.norm(pts, axis=1).max() * scale
    return build_polyhedron(planes_from_vertices(pts, g), g)


def jittered_compact(g: PlanarGraph, rng) -> Polyhedron:
    """Random proper seed: a compact realization, randomly scaled and moved."""
    scale = float(rng.uniform(*JITTER_SCALES))
    P = compact_realization(g, scale=scale)
    L = random_isometry(rng)
    # Stacked one-column products round as each plane's L @ n; P.normals @ L.T does not.
    return build_polyhedron(_unit_rows((L @ P.normals[:, :, None])[..., 0]), g)


def realize_continuation(g: PlanarGraph, target: dict, P: Polyhedron) -> Polyhedron:
    """Realize ``target`` angles by adaptive continuation from P's angles."""
    from .flow import realize_from_angles

    start = dihedral_angles(P)
    lam, dlam = 0.0, 0.5
    while lam < 1.0:
        lam2 = min(1.0, lam + dlam)
        th = {e: (1 - lam2) * start[e] + lam2 * target[e] for e in g.edges}
        try:
            P = realize_from_angles(g, th, P)
        except (NewtonDiverged, SkeletonChanged):
            dlam *= 0.5
            if dlam < 1e-3:
                raise
            continue
        lam = lam2
        dlam = min(dlam * 1.6, 0.5)
    return P


def equiangular_hyperideal(g: PlanarGraph, angle: float) -> Polyhedron:
    """Hyperideal polyhedron with every dihedral angle equal.

    Exists for any angle below pi / max-degree; realized from the
    rectification (the zero-angle limit) by continuation.
    """
    from .rectify import rectification

    seed = rectification(g)
    return realize_continuation(g, {e: angle for e in g.edges}, seed)


def random_hyperideal(g: PlanarGraph, rng) -> Polyhedron:
    """Random proper seed with all vertices hyperideal.

    Draws one angle per edge from ``HYPERIDEAL_ANGLES`` and realizes them
    by continuation through the (convex) admissible region from a
    small-equal-angle polyhedron.  Each draw is admissible, every angle
    being below 0.75 < pi / 3: a closed curve crosses h >= 3 edges and
    0.75 h < (h - 2) pi, an arc h >= 2 and 0.75 h < (h - 1) pi, and an arc
    across one edge is exempt from the Bao-Bonahon inequalities.
    """
    kmax = max(g.degree(v) for v in range(g.n_vertices))
    eps = min(0.3, 0.8 * math.pi / kmax)
    base = equiangular_hyperideal(g, eps)
    th = {e: float(rng.uniform(*HYPERIDEAL_ANGLES)) for e in g.edges}
    return realize_continuation(g, th, base)
