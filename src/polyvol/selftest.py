"""Acceptance corpus: one callable per criterion, shared by CLI and tests.

Each criterion function returns a :class:`CriterionResult`; ``run_all``
executes a selection and reports PASS/FAIL lines through the caller.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import _unit_rows
from .errors import PolyvolError
from .flow import FlowOptions, realize_from_angles, run_flow
from .graphs import (
    check_hyperideal_angles,
    cube_graph,
    dual_graph,
    edge_collapse,
    isomorphism_code,
    octahedron_graph,
    prism_graph,
    pyramid_graph,
    tetrahedron_graph,
)
from .polyhedron import (
    PointKind,
    build_polyhedron,
    classify_vertex_by_angles,
    classify_vertices,
    dihedral_angles,
    strip_truncation,
    truncate,
)
from .rectify import rectification_volume
from .shapes import (
    _TETRA_DIRS,
    jittered_compact,
    random_hyperideal,
    regular_tetrahedron,
)
from .volume import lobachevsky, schlafli_residual

OCTAHEDRON_VOLUME = 8.0 * lobachevsky(math.pi / 4.0)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _antiprism_volume(n: int) -> float:
    return 2 * n * (lobachevsky(math.pi / 4 + math.pi / (2 * n))
                    + lobachevsky(math.pi / 4 - math.pi / (2 * n)))


def _random_tetrahedron(rng, radius_range):
    """Random tetrahedral polyhedron from jittered regular planes."""
    g = tetrahedron_graph()
    r = float(rng.uniform(*radius_range))
    opp = [next(v for v in range(4) if v not in cyc) for cyc in g.faces]
    rows = []
    for o in opp:
        d = -_TETRA_DIRS[o] + rng.uniform(-0.15, 0.15, size=3)
        d /= np.linalg.norm(d)
        rows.append([r / 3.0 * (1 + rng.uniform(-0.2, 0.2)), *d])  # the plane {d . x = offset}
    return build_polyhedron(_unit_rows(np.array(rows)), g)


def _random_proper_corpus(rng, count, require_hyperideal=False):
    """Random proper polyhedra: jittered tetrahedra plus realized jitters."""
    out = []
    g_pyr = pyramid_graph(4)
    g_prism = prism_graph(3)
    seeds = {}
    attempts = 0
    while len(out) < count and attempts < 60 * count:
        attempts += 1
        mode = attempts % 4
        try:
            if mode in (0, 1):
                radius = (1.02, 1.5) if (require_hyperideal or mode == 0) else (0.35, 0.85)
                P = _random_tetrahedron(rng, radius)
            else:
                g = g_pyr if mode == 2 else g_prism
                if require_hyperideal:
                    P = random_hyperideal(g, rng)
                else:
                    if g not in seeds:
                        seeds[g] = jittered_compact(g, rng)
                    base = seeds[g]
                    th = dihedral_angles(base)
                    th = {e: a * (1 + rng.uniform(-0.03, 0.03)) for e, a in th.items()}
                    P = realize_from_angles(g, th, base)
        except (PolyvolError, ValueError):
            continue
        rep = P.report
        if rep.is_improper():
            continue
        if require_hyperideal and not any(k == PointKind.HYPERIDEAL for k in rep.kinds):
            continue
        if any(k == PointKind.IDEAL for k in rep.kinds):
            continue
        out.append(P)
    if len(out) < count:
        raise RuntimeError(f"could not generate {count} random polyhedra")
    return out


# --- criteria ----------------------------------------------------------------


def criterion_1(seed=0) -> CriterionResult:
    """Octahedron value: rectification volume of the tetrahedral graph."""
    t0 = time.time()
    res = rectification_volume(tetrahedron_graph())
    err = abs(res.value - OCTAHEDRON_VOLUME)
    elapsed = time.time() - t0
    passed = err < 1e-6 and str(res.method) == "IdealDecomposition" and elapsed < 5.0
    return CriterionResult(1, "octahedron value", passed,
                           f"vol={res.value:.12f} err={err:.2e} method={res.method}",
                           elapsed)


def criterion_2(seed=0) -> CriterionResult:
    """Antiprism family: pyramid rectifications against the closed form."""
    t0 = time.time()
    worst = 0.0
    for n in range(3, 9):
        res = rectification_volume(pyramid_graph(n))
        worst = max(worst, abs(res.value - _antiprism_volume(n)))
    elapsed = time.time() - t0
    return CriterionResult(2, "antiprism family", worst < 1e-6 and elapsed < 30.0,
                           f"worst err={worst:.2e}", elapsed)


def criterion_3(seed=0) -> CriterionResult:
    """Duality: rectification volume equals the dual's."""
    t0 = time.time()
    corpus = [tetrahedron_graph(), cube_graph(), octahedron_graph(),
              pyramid_graph(3), pyramid_graph(4), pyramid_graph(5), pyramid_graph(6),
              prism_graph(3)]
    worst = 0.0
    for g in corpus:
        v1 = rectification_volume(g).value
        v2 = rectification_volume(dual_graph(g)).value
        worst = max(worst, abs(v1 - v2))
    elapsed = time.time() - t0
    return CriterionResult(3, "duality", worst < 1e-8, f"worst gap={worst:.2e}", elapsed)


def schlafli_families(seed=0):
    """Criterion 4's paths: angle segments between two jitters of a regular tetrahedron."""
    rng = np.random.default_rng(seed + 4)
    g = tetrahedron_graph()
    for base_radius, count in ((0.5, 20), (1.3, 10)):
        base = regular_tetrahedron(base_radius)
        th0 = dihedral_angles(base)
        for _ in range(count):
            ja = {e: a * (1 + rng.uniform(-0.05, 0.05)) for e, a in th0.items()}
            jb = {e: a * (1 + rng.uniform(-0.05, 0.05)) for e, a in th0.items()}
            mid = realize_from_angles(
                g, {e: 0.5 * (ja[e] + jb[e]) for e in g.edges}, base)

            def path(t, _ja=ja, _jb=jb, _mid=mid):
                th = {e: (1 - t) * _ja[e] + t * _jb[e] for e in g.edges}
                return realize_from_angles(g, th, _mid)

            yield path


def criterion_4(seed=0) -> CriterionResult:
    """Schlafli residual on random tetrahedron families."""
    t0 = time.time()
    worst = max(schlafli_residual(path, 0.5, 1e-4) for path in schlafli_families(seed))
    elapsed = time.time() - t0
    return CriterionResult(4, "Schlafli residual", worst < 1e-3 and elapsed < 120.0,
                           f"worst residual={worst:.2e}", elapsed)


def criterion_5(seed=0) -> CriterionResult:
    """Flow convergence: sup volume matches the rectification within 1%."""
    t0 = time.time()
    rng = np.random.default_rng(seed + 5)
    jobs = [
        (tetrahedron_graph(), "compact"),
        (pyramid_graph(4), "compact"),
        (prism_graph(3), "hyperideal"),
    ]
    worst_rel = 0.0
    mono_ok = True
    runs = 0
    for g, mode in jobs:
        target = rectification_volume(g).value
        for i in range(5):
            P0 = (jittered_compact(g, rng) if mode == "compact"
                  else random_hyperideal(g, rng))
            trace = run_flow(P0, FlowOptions(seed=seed * 100 + runs))
            rel = abs(trace.sup_estimate - target) / target
            worst_rel = max(worst_rel, rel)
            mono_ok = mono_ok and trace.volumes_nondecreasing()
            runs += 1
    elapsed = time.time() - t0
    passed = worst_rel < 0.01 and mono_ok and elapsed < 600.0
    return CriterionResult(5, "flow convergence", passed,
                           f"worst rel={worst_rel:.2e} monotone={mono_ok} runs={runs}",
                           elapsed)


def criterion_6(seed=0) -> CriterionResult:
    """Collapse monotonicity of rectification volumes."""
    t0 = time.time()
    corpus = [pyramid_graph(n) for n in (4, 5, 6, 7, 8)] + \
             [prism_graph(3), prism_graph(5), cube_graph(), octahedron_graph()]
    # One collapse per graph first, then further edges of the same graphs.
    # A collapse counts once up to isomorphism of the graph and of its result.
    instances = {}
    for per_graph in (1, None):
        for g in corpus:
            added = 0
            for e in g.edges:
                if len(instances) >= 10 or added == per_graph:
                    break
                try:
                    res = edge_collapse(g, e)
                except PolyvolError:
                    continue
                if not res.graph.is_polyhedral():
                    continue
                key = (isomorphism_code(g), isomorphism_code(res.graph))
                if key not in instances:
                    instances[key] = (g, res.graph)
                    added += 1
    ok = len(instances) >= 10
    worst = -math.inf
    for g, g2 in instances.values():
        v1 = rectification_volume(g).value
        v2 = rectification_volume(g2).value
        worst = max(worst, v2 - v1)
        ok = ok and (v2 <= v1 + 1e-8)
    elapsed = time.time() - t0
    return CriterionResult(6, "collapse monotonicity", ok,
                           f"instances={len(instances)} worst gap={worst:.2e}",
                           elapsed)


def criterion_7(seed=0) -> CriterionResult:
    """Angle-sum classification agrees with geometric classification."""
    t0 = time.time()
    rng = np.random.default_rng(seed + 7)
    polys = _random_proper_corpus(rng, 200)
    mismatches = 0
    checked = 0
    for P in polys:
        th = dihedral_angles(P)
        rep = classify_vertices(P, tol=1e-6)
        for v in range(P.skeleton.n_vertices):
            inc = [th[e] for e in P.skeleton.vertex_edges[v]]
            if classify_vertex_by_angles(inc, tol=1e-6) != rep.kinds[v]:
                mismatches += 1
            checked += 1
    elapsed = time.time() - t0
    return CriterionResult(7, "classification consistency", mismatches == 0,
                           f"{checked} vertices over {len(polys)} polyhedra, "
                           f"{mismatches} mismatches", elapsed)


def _sample_admissible(g, rng):
    """A uniform draw of angles in (0.08, 1.6) that passes the exhaustive check.

    The range reaches past pi/3, below which every angle vector is
    admissible, so the check rejects many draws and a midpoint of two
    admitted ones can test convexity.
    """
    for _ in range(4000):
        th = {e: float(rng.uniform(0.08, 1.6)) for e in g.edges}
        if check_hyperideal_angles(g, th).admissible:
            return th
    raise RuntimeError("no admissible sample found")


def criterion_8(seed=0) -> CriterionResult:
    """Admissibility convexity probe and witness verifiability."""
    t0 = time.time()
    rng = np.random.default_rng(seed + 8)
    ok = True
    for g in (tetrahedron_graph(), cube_graph()):
        for _ in range(50):
            a = _sample_admissible(g, rng)
            b = _sample_admissible(g, rng)
            mid = {e: 0.5 * (a[e] + b[e]) for e in g.edges}
            if not check_hyperideal_angles(g, mid).admissible:
                ok = False
        produced = 0
        while produced < 50:
            th = {e: float(np.clip(rng.uniform(0.6, 2.9), 1e-3, math.pi - 1e-6))
                  for e in g.edges}
            rep = check_hyperideal_angles(g, th)
            if rep.admissible:
                continue
            produced += 1
            w = rep.witness
            total = sum(th[e] for e in w.crossed_edges)
            if len(set(w.crossed_edges)) != len(w.crossed_edges):
                ok = False
            if total < w.bound - 1e-9:
                ok = False
    elapsed = time.time() - t0
    return CriterionResult(8, "admissibility probe", ok, "100 pairs + 100 witnesses",
                           elapsed)


def criterion_9(seed=0) -> CriterionResult:
    """Truncate-then-strip returns the original normals bit-identically."""
    t0 = time.time()
    rng = np.random.default_rng(seed + 9)
    polys = _random_proper_corpus(rng, 50, require_hyperideal=True)
    ok = True
    for P in polys:
        T = truncate(P)
        Q = strip_truncation(T)
        ok = ok and np.array_equal(Q.normals, P.normals)
    elapsed = time.time() - t0
    return CriterionResult(9, "truncation round-trip", ok, f"{len(polys)} polyhedra",
                           elapsed)


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9,
}


def run_all(seed: int = 0, criteria=None):
    """The results of the criteria numbered in ``criteria`` (a list of ints), or of all of them."""
    results = []
    for n in sorted(CRITERIA) if criteria is None else criteria:
        fn = CRITERIA[n]
        try:
            results.append(fn(seed=seed))
        except (PolyvolError, ValueError) as exc:  # pragma: no cover - diagnostic path
            results.append(CriterionResult(n, fn.__doc__.splitlines()[0], False,
                                           f"{type(exc).__name__}: {exc}", 0.0))
    return results
