"""Gauss-Newton engine for plane-tuple realizations with prescribed angles.

Unknowns are the Minkowski face normals (4 per face) and the chart
coordinates of the vertices (3 per vertex).  Equations: unit spacelike
normals, vertex-on-plane incidences, prescribed values of <n_f, n_g>
per edge (cosine targets), and optional held incidences pinning a
vertex onto the polar plane of another.

The isometry group of H^3 leaves the system invariant, so the Jacobian
has a 6-dimensional kernel at solutions; least-squares steps pick the
minimal-norm correction, which keeps the iterate close to its seed.
"""

from __future__ import annotations

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


def _residual_and_jacobian(g: PlanarGraph, normals, verts, gram_targets, held):
    Filt = [(e, t) for e, t in gram_targets.items() if t is not None]
    nF = len(normals)
    nV = len(verts)
    n_rows = nF + sum(len(cyc) for cyc in g.faces) + len(Filt) + len(held)
    n_cols = 4 * nF + 3 * nV
    r = np.zeros(n_rows)
    J = np.zeros((n_rows, n_cols))
    eta = MINKOWSKI_SIGNS
    row = 0
    for f in range(nF):
        n = normals[f]
        r[row] = 0.5 * (float(np.sum(n * n * eta)) - 1.0)
        J[row, 4 * f:4 * f + 4] = eta * n
        row += 1
    for f, cyc in enumerate(g.faces):
        n = normals[f]
        for v in cyc:
            r[row] = -n[0] + float(n[1:] @ verts[v])
            J[row, 4 * f] = -1.0
            J[row, 4 * f + 1:4 * f + 4] = verts[v]
            J[row, 4 * nF + 3 * v:4 * nF + 3 * v + 3] = n[1:]
            row += 1
    for e, target in Filt:
        f1, f2 = g.edge_faces[e]
        n1, n2 = normals[f1], normals[f2]
        r[row] = float(np.sum(n1 * n2 * eta)) - target
        J[row, 4 * f1:4 * f1 + 4] = eta * n2
        J[row, 4 * f2:4 * f2 + 4] = eta * n1
        row += 1
    for (w, u) in held:
        r[row] = float(verts[u] @ verts[w]) - 1.0
        J[row, 4 * nF + 3 * w:4 * nF + 3 * w + 3] = verts[u]
        J[row, 4 * nF + 3 * u:4 * nF + 3 * u + 3] = verts[w]
        row += 1
    return r, J


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
    n_cols = 4 * nF + 3 * len(verts)
    r, J = _residual_and_jacobian(g, normals, verts, gram_targets, held)
    best = float(np.max(np.abs(r)))
    lm = 0.0
    for it in range(MAX_ITERATIONS):
        if best < REALIZE_TOL:
            return normals, verts, SolveReport(True, best, it)
        stepped = False
        for _ in range(8):
            if lm > 0.0:
                J_aug = np.vstack([J, math.sqrt(lm) * np.eye(n_cols)])
                r_aug = np.concatenate([r, np.zeros(n_cols)])
            else:
                J_aug, r_aug = J, r
            d, *_ = np.linalg.lstsq(J_aug, -r_aug, rcond=None)
            alpha = 1.0
            norm0 = float(np.linalg.norm(r))
            while alpha > 1e-4:
                n_try = normals + alpha * d[:4 * nF].reshape(nF, 4)
                v_try = verts + alpha * d[4 * nF:].reshape(-1, 3)
                r_try, J_try = _residual_and_jacobian(g, n_try, v_try, gram_targets, held)
                norm_try = float(np.linalg.norm(r_try)) if np.all(np.isfinite(r_try)) \
                    else math.inf
                if norm_try < norm0 * (1.0 - 1e-4 * alpha) or norm_try < REALIZE_TOL:
                    normals, verts, r, J = n_try, v_try, r_try, J_try
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
        best = float(np.max(np.abs(r)))
        if not np.isfinite(best) or np.max(np.abs(verts)) > 1e8:
            return normals, verts, SolveReport(False, best, it, "iterate blew up")
    ok = best < REALIZE_TOL
    return normals, verts, SolveReport(ok, best, MAX_ITERATIONS,
                                       "" if ok else "max iterations reached")
