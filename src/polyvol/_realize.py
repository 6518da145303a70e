"""Gauss-Newton engine for face-normal realizations with prescribed angles.

Unknowns are the Minkowski face normals (4 per face) and the chart
coordinates of the vertices (3 per vertex).  Equations: unit spacelike
normals, vertex-on-plane incidences, prescribed values of <n_f, n_g>
per edge (cosine targets), and optional held incidences pinning a
vertex onto the polar plane of another.

The flat indices of the Jacobian's nonzeros depend on the graph
(``PlanarGraph.jacobian_layout``, computed once per graph), the edges
with a target and the held incidences (``_layout``, cached).  The
residual is evaluated at every trial point, the Jacobian once per Newton
step, at the accepted iterate, by scattering one concatenated value
array into those indices.  The isometry group of H^3 leaves the system
invariant, so J has a 6-dimensional kernel at solutions.  Each step is
the minimal-norm, Marquardt-damped correction
d = -J^T (J J^T + lambda I)^{-1} r, the least-squares solution of J
over sqrt(lambda) I, by one solve in the row space; it keeps the
iterate close to its seed.  A singular J J^T at lambda = 0 fails the
attempt, which raises lambda.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import MINKOWSKI_SIGNS
from .graphs import PlanarGraph

#: Residual required of each realization.
REALIZE_TOL = 1e-11
#: Gauss-Newton iterations allowed per realization.
MAX_ITERATIONS = 80


@dataclass
class SolveReport:
    ok: bool
    residual: float
    iterations: int
    message: str = ""


@functools.lru_cache(maxsize=16)
def _layout(g: PlanarGraph, edges: tuple, held: tuple):
    """Index arrays of the plane system with Gram rows for ``edges`` (indices).

    They depend on the graph, the held incidences and which edges have
    targets alone, so one flow stratum builds them once.
    """
    inc, flat, gram_cols = g.jacobian_layout
    nF, n_cols = len(g.faces), 4 * len(g.faces) + 3 * g.n_vertices
    edges = np.array(edges, dtype=int)
    held_w, held_u = np.array(held, dtype=int).reshape(-1, 2).T
    gram_rows = n_cols * (nF + len(inc) + np.arange(len(edges)))[:, None]
    held_rows = n_cols * (nF + len(inc) + len(edges) + np.arange(len(held)))[:, None]
    flat = np.concatenate([
        flat, gram_rows + gram_cols[edges, :4], gram_rows + gram_cols[edges, 4:],
        held_rows + 4 * nF + 3 * held_w[:, None] + np.arange(3),
        held_rows + 4 * nF + 3 * held_u[:, None] + np.arange(3)], axis=None)
    return (*inc.T, np.full(len(inc), -1.0), gram_cols[edges, 0] // 4,
            gram_cols[edges, 4] // 4, held_w, held_u,
            (nF + len(inc) + len(edges) + len(held), n_cols), flat)


class _PlaneSystem:
    """Residual and Jacobian for fixed targets and held incidences."""

    def __init__(self, g: PlanarGraph, gram_targets: dict, held):
        active = [(g.edge_index[e], t) for e, t in gram_targets.items() if t is not None]
        self.targets = np.array([t for _, t in active])
        (self.inc_f, self.inc_v, self.minus_ones, self.f1, self.f2, self.held_w, self.held_u,
         self.shape, self.flat) = _layout(g, tuple(i for i, _ in active),
                                          tuple(tuple(h) for h in held))

    def __call__(self, normals, verts):
        """``(r, jacobian)``: the residual, and a callable that scatters J at the same point."""
        dot = np.add.reduce  # what ndarray.sum calls
        eta_n = normals * MINKOWSKI_SIGNS
        n_inc, v_inc = normals[self.inc_f], verts[self.inc_v]
        parts = [0.5 * (dot(normals * eta_n, axis=1) - 1.0),
                 dot(n_inc[:, 1:] * v_inc, axis=1) - n_inc[:, 0],
                 dot(eta_n[self.f1] * normals[self.f2], axis=1) - self.targets]
        held = ()  # the held rows' vertex charts, gathered only when some are held
        if len(self.held_w):
            held = (verts[self.held_u], verts[self.held_w])
            parts.append(dot(held[0] * held[1], axis=1) - 1.0)

        def jacobian():
            J = np.zeros(self.shape)
            J.ravel()[self.flat] = np.concatenate(
                [eta_n, self.minus_ones, v_inc, n_inc[:, 1:], eta_n[self.f2], eta_n[self.f1],
                 *held], axis=None)
            return J

        return np.concatenate(parts), jacobian


def _step(J, r, lm):
    """Minimal-norm step -J^T (J J^T + lm I)^{-1} r; None when singular."""
    JJt = J @ J.T
    if lm > 0.0:  # the diagonal holds sums of squares, which += 0.0 leaves as they are
        JJt.flat[::len(r) + 1] += lm
    try:
        return -(J.T @ np.linalg.solve(JJt, r))
    except np.linalg.LinAlgError:
        return None


def solve_plane_system(g: PlanarGraph, gram_targets: dict, normals0, verts0, *,
                       held=()):
    """Solve for normals and vertices matching the prescribed Gram values.

    ``gram_targets`` maps each edge to the desired <n_f, n_g> (use
    ``-cos(theta)`` for interior dihedral angle theta, so -1 means
    tangency); a ``None`` value drops that edge's equation.  Returns
    ``(normals, verts, report)``.
    """
    normals = np.array(normals0, dtype=float)
    verts = np.array(verts0, dtype=float)
    nF = len(normals)
    system = _PlaneSystem(g, gram_targets, held)
    r, jacobian = system(normals, verts)
    best = float(np.abs(r).max())
    lm = 0.0
    for it in range(MAX_ITERATIONS):
        if best < REALIZE_TOL:
            return normals, verts, SolveReport(True, best, it)
        J = jacobian()  # once per Newton step, at the accepted iterate
        norm0 = math.sqrt(r @ r)
        stepped = False
        for _ in range(8):
            d = _step(J, r, lm)
            alpha = 1.0
            while d is not None and alpha > 1e-4:
                n_try = normals + alpha * d[:4 * nF].reshape(nF, 4)
                v_try = verts + alpha * d[4 * nF:].reshape(-1, 3)
                r_try, jac_try = system(n_try, v_try)
                norm_try = math.sqrt(r_try @ r_try)  # nan fails both tests
                if norm_try < norm0 * (1.0 - 1e-4 * alpha) or norm_try < REALIZE_TOL:
                    normals, verts, r, jacobian = n_try, v_try, r_try, jac_try
                    stepped = True
                    break
                alpha *= 0.5
            if stepped:
                lm = 0.0 if lm < 1e-13 else lm * 0.1
                break
            # Marquardt damping against stiff or rank-deficient steps.
            lm = max(lm * 100.0, 1e-10)
        if not stepped:
            return normals, verts, SolveReport(False, best, it, "line search stalled")
        best = float(np.abs(r).max())
        if not math.isfinite(best) or np.abs(verts).max() > 1e8:
            return normals, verts, SolveReport(False, best, it, "iterate blew up")
    ok = best < REALIZE_TOL
    return normals, verts, SolveReport(ok, best, MAX_ITERATIONS,
                                       "" if ok else "max iterations reached")
