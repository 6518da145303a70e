"""Convex Euclidean realizations of 3-connected planar graphs.

Tutte's spring embedding with a triangular outer face carries an
equilibrium stress, whose Maxwell-Cremona lift is a convex polyhedron
with the prescribed skeleton.  Graphs without a triangular face are
realized through the polar dual (one of the two always has a triangle,
by Euler counting).  Used only for the compact seeds of
``shapes.compact_realization``; rectifications need no seed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverDiverged
from .graphs import PlanarGraph, _norm_edge, dual_graph


def _tutte_positions(g: PlanarGraph, outer: int):
    cyc = g.faces[outer]
    n = g.n_vertices
    pos = np.zeros((n, 2))
    pinned = np.zeros(n, dtype=bool)
    k = len(cyc)
    for i, v in enumerate(cyc):
        ang = 2 * math.pi * i / k
        pos[v] = (math.cos(ang), math.sin(ang))
        pinned[v] = True
    free = [v for v in range(n) if not pinned[v]]
    if free:
        index = {v: i for i, v in enumerate(free)}
        A = np.zeros((len(free), len(free)))
        b = np.zeros((len(free), 2))
        for v in free:
            nbrs = [w for e in g.vertex_edges[v] for w in e if w != v]
            A[index[v], index[v]] = len(nbrs)
            for w in nbrs:
                if pinned[w]:
                    b[index[v]] += pos[w]
                else:
                    A[index[v], index[w]] -= 1.0
        sol = np.linalg.solve(A, b)
        for v in free:
            pos[v] = sol[index[v]]
    return pos


def _boundary_stresses(g: PlanarGraph, outer: int, pos):
    """Extend the all-ones interior stress to equilibrium at outer vertices."""
    cyc = g.faces[outer]
    boundary_edges = [_norm_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
    be_index = {e: i for i, e in enumerate(boundary_edges)}
    A = np.zeros((2 * len(cyc), len(boundary_edges)))
    b = np.zeros(2 * len(cyc))
    # two scalar equilibrium equations per boundary vertex
    for i, v in enumerate(cyc):
        force = np.zeros(2)
        for e in g.vertex_edges[v]:
            w = e[0] if e[1] == v else e[1]
            if e in be_index:
                A[2 * i, be_index[e]] += pos[w][0] - pos[v][0]
                A[2 * i + 1, be_index[e]] += pos[w][1] - pos[v][1]
            else:
                force += pos[w] - pos[v]
        b[2 * i] = -force[0]
        b[2 * i + 1] = -force[1]
    sol, res, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.linalg.norm(A @ sol - b))
    if resid > 1e-8:
        raise SolverDiverged(f"stress extension residual {resid:.3g}")
    return {e: sol[i] for e, i in be_index.items()}


def _lift(g: PlanarGraph, outer: int, pos, stresses):
    """Maxwell-Cremona lift: affine height per face, folded across edges."""
    nF = len(g.faces)
    h = [None] * nF  # (a, b, c): height = a x + b y + c
    h[outer] = np.zeros(3)
    # BFS over faces through shared edges.
    queue = [outer]
    while queue:
        f = queue.pop()
        cyc = g.faces[f]
        for i in range(len(cyc)):
            u, v = cyc[i], cyc[(i + 1) % len(cyc)]
            e = _norm_edge(u, v)
            a, b = g.edge_faces[e]
            other = a if b == f else b
            if h[other] is not None:
                continue
            w = stresses.get(e, 1.0)
            # linear form vanishing on the edge line, sign from the directed
            # edge as traversed in face f
            d = pos[v] - pos[u]
            form = np.array([-d[1], d[0], d[1] * pos[u][0] - d[0] * pos[u][1]])
            h[other] = h[f] + w * form
            queue.append(other)
    heights = np.zeros(g.n_vertices)
    for vtx in range(g.n_vertices):
        vals = []
        for f in g.vertex_faces[vtx]:
            a, b, c = h[f]
            vals.append(a * pos[vtx][0] + b * pos[vtx][1] + c)
        if max(vals) - min(vals) > 1e-7 * max(1.0, max(abs(x) for x in vals)):
            raise SolverDiverged(f"inconsistent lift at vertex {vtx}")
        heights[vtx] = sum(vals) / len(vals)
    pts = np.column_stack([pos, heights])
    # Orient convex-side-up: interior vertices should lift above the outer plane.
    if np.max(heights) <= 1e-12:
        pts[:, 2] = -pts[:, 2]
    return pts


def _triangle_face(g: PlanarGraph):
    for i, cyc in enumerate(g.faces):
        if len(cyc) == 3:
            return i
    return None


def _whiten(pts: np.ndarray) -> np.ndarray:
    """Affine-normalize a vertex cloud to isotropic spread.

    Invertible linear maps preserve convexity and the skeleton; this
    undoes the flatness typical of Maxwell-Cremona lifts.
    """
    centered = pts - pts.mean(axis=0)
    U, S, Vt = np.linalg.svd(centered, full_matrices=False)
    S = np.maximum(S, 1e-9 * S[0])
    return (centered @ Vt.T) / S * np.mean(S)


def convex_realization(g: PlanarGraph) -> np.ndarray:
    """Vertex coordinates of a convex Euclidean polyhedron with skeleton g."""
    tri = _triangle_face(g)
    if tri is not None:
        pos = _tutte_positions(g, tri)
        stresses = _boundary_stresses(g, tri, pos)
        return _whiten(_lift(g, tri, pos, stresses))
    # No triangular face: realize the dual and polarize.
    d = dual_graph(g)
    dual_pts = convex_realization(d)
    dual_pts = dual_pts - dual_pts.mean(axis=0)
    # Polyhedron vertices = poles of the dual's face planes; dual face j is
    # primal vertex j.
    pts = np.zeros((g.n_vertices, 3))
    for v in range(g.n_vertices):
        cyc = d.faces[v]
        P = dual_pts[list(cyc)]
        centroid = P.mean(axis=0)
        # best-fit plane n.x = c through the dual face
        U, S, Vt = np.linalg.svd(P - centroid)
        n = Vt[-1]
        c = float(n @ centroid)
        if abs(c) < 1e-12:
            raise SolverDiverged("dual polarization hit a plane through the origin")
        pts[v] = n / c
    return pts

