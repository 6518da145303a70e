"""Gauss-Newton engine for face-normal realizations with prescribed angles.

Unknowns are the Minkowski face normals (4 per face) and the chart
coordinates of the vertices (3 per vertex).  Equations: unit spacelike
normals, vertex-on-plane incidences, held incidences pinning a vertex
onto the polar plane of another, and a prescribed <n_f, n_g> (a cosine
target) at every edge that no held pair joins (``target_edges``).

What depends only on the graph and the held incidences is built once per
flow stratum, a skeleton with its held incidences, and cached
(``_layout``).  It holds the edges of the Gram rows, for each residual row
the slots of the factors of its five terms, and the flat index and slot
of each nonzero of the Jacobian.  A slot indexes one gathered vector: the
normals, their Minkowski duals, the charts and the constants 1, -1, -0
and each negated target.  A row sums its terms left to right, which
rounds as summing its products and then subtracting its constant; -0,
which leaves any sum as it is, pads the rows of four terms.  What a solve
still computes is its target vector; each residual evaluation gathers the
state, multiplies the factors and sums the rows, at every trial point,
and the Jacobian is one gather scattered into its indices, once per
Newton step, at the accepted iterate.

The isometry group of H^3 leaves the system invariant, so J has a
6-dimensional kernel at solutions.  Each step is the minimal-norm,
Marquardt-damped correction d = -J^T (J J^T + lambda I)^{-1} r, the
least-squares solution of J over sqrt(lambda) I, by one solve in the row
space; it keeps the iterate close to its seed.  A singular J J^T at
lambda = 0 fails the attempt, which raises lambda.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import MINKOWSKI_SIGNS
from .graphs import PlanarGraph, _norm_edge

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


class _Layout(NamedTuple):
    edges: tuple  # the edges of the Gram rows, in row order
    n_faces: int
    left: np.ndarray  # (rows, 5) slots of the first factor of each term
    right: np.ndarray  # (rows, 5) slots of the second factor
    flat: np.ndarray  # flat index of each nonzero of J
    src: np.ndarray  # slot of each nonzero's value
    shape: tuple


@functools.lru_cache(maxsize=16)
def _layout(g: PlanarGraph, held: tuple) -> _Layout:
    """The plane system's index arrays, with a Gram row per edge that no pair of ``held`` joins.

    Rows: a normalization per face, an incidence per (face, vertex) in cycle
    order, the Gram rows in ``g.edges`` order, then a row per held pair.
    Columns: 4 normal coordinates per face, then 3 chart coordinates per
    vertex.
    """
    joined = {_norm_edge(w, u) for w, u in held}
    edges = [i for i, e in enumerate(g.edges) if e not in joined]
    nF, nV = len(g.faces), g.n_vertices
    normal = np.arange(4 * nF).reshape(nF, 4)
    eta = normal + 4 * nF
    chart = 8 * nF + np.arange(3 * nV).reshape(nV, 3)
    one, minus_one, minus_zero = 8 * nF + 3 * nV + np.arange(3)
    inc_f, inc_v = np.array([(f, v) for f, cyc in enumerate(g.faces) for v in cyc]).T
    f1, f2 = g.edge_face_array[edges].reshape(-1, 2).T
    held_w, held_u = np.array(held, dtype=int).reshape(-1, 2).T
    m, k, h = len(inc_f), len(edges), len(held_w)
    slot = lambda n, s: np.full((n, 1), s)
    # Terms: n.eta_n - 1; n_f[1:].v - n_f[0] (+ -0); eta_n1.n2 - target; u.w - 1 (+ -0).
    left = np.vstack([
        np.hstack([normal, slot(nF, one)]),
        np.hstack([normal[inc_f, 1:], eta[inc_f, :1], slot(m, minus_zero)]),
        np.hstack([eta[f1], one + 3 + np.arange(k)[:, None]]),
        np.hstack([chart[held_u], slot(h, minus_one), slot(h, minus_zero)])])
    right = np.vstack([
        np.hstack([eta, slot(nF, minus_one)]),
        np.hstack([chart[inc_v], slot(m, one), slot(m, one)]),
        np.hstack([normal[f2], slot(k, one)]),
        np.hstack([chart[held_w], slot(h, one), slot(h, one)])])
    n_cols = 4 * nF + 3 * nV
    rows = lambda start, n: n_cols * (start + np.arange(n))[:, None]
    cols_n = lambda fs: 4 * fs[:, None] + np.arange(4)
    cols_v = lambda vs: 4 * nF + 3 * vs[:, None] + np.arange(3)
    inc_rows, gram_rows, held_rows = rows(nF, m), rows(nF + m, k), rows(nF + m + k, h)
    blocks = [  # (flat indices, slots of their values)
        (rows(0, nF) + cols_n(np.arange(nF)), eta),
        (inc_rows + 4 * inc_f[:, None], slot(m, minus_one)),
        (inc_rows + cols_n(inc_f)[:, 1:], chart[inc_v]),
        (inc_rows + cols_v(inc_v), normal[inc_f, 1:]),
        (gram_rows + cols_n(f1), eta[f2]),
        (gram_rows + cols_n(f2), eta[f1]),
        (held_rows + cols_v(held_w), chart[held_u]),
        (held_rows + cols_v(held_u), chart[held_w])]
    flat, src = (np.concatenate(part, axis=None) for part in zip(*blocks))
    return _Layout(tuple(g.edges[i] for i in edges), nF, left, right, flat, src,
                   (nF + m + k + h, n_cols))


def target_edges(g: PlanarGraph, held) -> tuple:
    """The edges given a target in the stratum of g holding ``held``: every
    edge no held pair joins, in ``g.edges`` order."""
    return _layout(g, tuple(map(tuple, held))).edges


class _PlaneSystem:
    """Residual and Jacobian for fixed targets and held incidences."""

    def __init__(self, g: PlanarGraph, gram_targets, held):
        self.layout = _layout(g, tuple(map(tuple, held)))
        self.constants = np.concatenate([(1.0, -1.0, -0.0), np.negative(gram_targets)])

    def __call__(self, normals, verts):
        """``(r, jacobian)``: the residual, and a callable that scatters J at the same point."""
        lay = self.layout
        x = np.concatenate((normals, normals * MINKOWSKI_SIGNS, verts, self.constants),
                           axis=None)
        r = np.add.reduce(x[lay.left] * x[lay.right], axis=1)
        r[:lay.n_faces] *= 0.5

        def jacobian():
            J = np.zeros(lay.shape)
            J.ravel()[lay.flat] = x[lay.src]
            return J

        return r, jacobian


def _step(J, r, lm):
    """Minimal-norm step -J^T (J J^T + lm I)^{-1} r; None when singular."""
    JJt = J @ J.T
    if lm > 0.0:  # the diagonal holds sums of squares, which += 0.0 leaves as they are
        JJt.flat[::len(r) + 1] += lm
    try:
        return -(J.T @ np.linalg.solve(JJt, r))
    except np.linalg.LinAlgError:
        return None


def solve_plane_system(g: PlanarGraph, gram_targets, normals0, verts0, *, held=()):
    """Solve for normals and vertices matching the prescribed Gram values.

    ``gram_targets`` is an array of the desired <n_f, n_g> at the edges
    ``target_edges(g, held)``, in that order (use ``-cos(theta)`` for
    interior dihedral angle theta, so -1 means tangency).  Returns
    ``(normals, verts, report)``.
    """
    system = _PlaneSystem(g, gram_targets, held)
    x = np.concatenate((normals0, verts0), axis=None, dtype=float)
    cut = 4 * len(g.faces)
    split = lambda y: (y[:cut].reshape(-1, 4), y[cut:].reshape(-1, 3))
    r, jacobian = system(*split(x))
    best = float(np.maximum.reduce(np.abs(r)))
    lm = 0.0
    for it in range(MAX_ITERATIONS):
        if best < REALIZE_TOL:
            return *split(x), SolveReport(True, best, it)
        J = jacobian()  # once per Newton step, at the accepted iterate
        norm0 = math.sqrt(r @ r)
        stepped = False
        for _ in range(8):
            d = _step(J, r, lm)
            alpha = 1.0
            while d is not None and alpha > 1e-4:
                x_try = x + alpha * d
                r_try, jac_try = system(*split(x_try))
                norm_try = math.sqrt(r_try @ r_try)  # nan fails both tests
                if norm_try < norm0 * (1.0 - 1e-4 * alpha) or norm_try < REALIZE_TOL:
                    x, r, jacobian = x_try, r_try, jac_try
                    stepped = True
                    break
                alpha *= 0.5
            if stepped:
                lm = 0.0 if lm < 1e-13 else lm * 0.1
                break
            # Marquardt damping against stiff or rank-deficient steps.
            lm = max(lm * 100.0, 1e-10)
        if not stepped:
            return *split(x), SolveReport(False, best, it, "line search stalled")
        best = float(np.maximum.reduce(np.abs(r)))
        if not math.isfinite(best) or np.maximum.reduce(np.abs(x[cut:])) > 1e8:
            return *split(x), SolveReport(False, best, it, "iterate blew up")
    ok = best < REALIZE_TOL
    return *split(x), SolveReport(ok, best, MAX_ITERATIONS,
                                  "" if ok else "max iterations reached")
