"""The benchmark's workloads: fixed op lists built from a seed, with checks.

An op is one top-level library call, the one a ``polyvol`` CLI command
makes.  Building a plan is the benchmark's set-up: it makes the inputs
from the seed, validates the corpus graphs and computes the reference
values.  The library receives only the generated inputs.

Each op's check returns ``None`` or the name of the check that rejected
the result.  ``Op.known`` names the failure the program gives on that
input at the time the benchmark was written (a ROADMAP target); such an
op still counts towards ``fail_frac``, while any other failure makes the
run incorrect.  A known failure that goes away is checked like any op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import polyvol as pv
from polyvol import shapes
from polyvol.core import apply_lorentz

import corpus

#: ``polyvol volume`` defaults (``--quad-tol`` and ``--quad-budget``).
VOLUME_TOL = 1e-5
VOLUME_BUDGET = 10_000_000


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    known: str | None = None


@dataclass
class Plan:
    ops: list
    #: (op a, op b, tolerance, check name): the two volumes must agree.
    pairs: list = field(default_factory=list)


def _late(name: str, *args, **kwargs):
    """Call ``polyvol.<name>`` looked up at call time, so tracing can rebind it."""
    return lambda: getattr(pv, name)(*args, **kwargs)


def _polyhedral(label: str, g):
    if not g.is_polyhedral():
        raise ValueError(f"corpus graph {label} is not polyhedral")
    return g


def _rotated(P, rng):
    L = corpus.random_rotation(rng)
    planes = tuple(apply_lorentz(L, plane) for plane in P.planes)
    return pv.build_polyhedron(planes, P.skeleton, rectified=P.rectified)


# --- flow ---------------------------------------------------------------------


def _flow_check(target: float):
    def check(trace):
        if not trace.volumes_nondecreasing():
            return "volumes_nondecreasing"
        if abs(trace.sup_estimate - target) > 0.01 * target:
            return "sup_vs_rectification"
        return None
    return check


def build_flow(seed: int, small: bool = False) -> Plan:
    """``polyvol flow``: run_flow from jittered compact and hyperideal seeds."""
    rng = np.random.default_rng(seed)
    jobs = [("tetrahedron", pv.tetrahedron_graph(), "compact"),
            ("pyramid4", pv.pyramid_graph(4), "compact"),
            ("cube", pv.cube_graph(), "compact"),
            ("prism3", pv.prism_graph(3), "hyperideal")]
    if small:
        jobs = jobs[:1]
    ops = []
    for label, g, mode in jobs:
        target = pv.rectification_volume(g).value
        if mode == "compact":
            P0 = shapes.jittered_compact(g, rng)
        else:
            P0 = shapes.random_hyperideal(g, rng)
        ops.append(Op(f"{label}/{mode}", _late("run_flow", P0, pv.FlowOptions(seed=seed)),
                      _flow_check(target)))
    return Plan(ops)


def flow_digest(trace):
    return (trace.sup_estimate.hex(), trace.sup_error.hex(),
            tuple(s.volume.value.hex() for s in trace.samples),
            tuple(str(e.kind) for e in trace.events))


# --- rectify ------------------------------------------------------------------


def rectify_check(reference: float | None, tol: float = 1e-6):
    def check(res):
        if res.method != pv.VolumeMethod.IDEAL_DECOMPOSITION:
            return "method"
        if reference is not None and abs(res.value - reference) > tol:
            return "closed_form"
        return None
    return check


def build_rectify(seed: int, small: bool = False) -> Plan:
    """``polyvol rectify``: rectification_volume over the named graph families."""
    rng = np.random.default_rng(seed)
    octahedron_value = 8.0 * corpus.lobachevsky(math.pi / 4.0)
    entries = []   # (label, graph, reference, known failure)
    for n in range(3, 13):
        reference = corpus.antiprism_volume(n)
        if n == 3 and abs(reference - octahedron_value) > 1e-12:
            raise ValueError("antiprism(3) disagrees with 8 Lobachevsky(pi/4)")
        entries.append((f"pyramid{n}", pv.pyramid_graph(n), reference, None))
    for n in range(3, 9):
        known = "SolverDiverged" if n in (7, 8) else None
        entries.append((f"prism{n}", pv.prism_graph(n), None, known))
    # The hexagonal bipyramid is left out: it fails only after about 9 s.
    for n in range(3, 6):
        entries.append((f"bipyramid{n}", pv.dual_graph(pv.prism_graph(n)), None, None))
    entries += [
        ("cube", pv.cube_graph(), None, None),
        ("octahedron", pv.octahedron_graph(), None, None),
        ("icosahedron", pv.PlanarGraph(12, corpus.ICOSAHEDRON_FACES), None, "SolverDiverged"),
        ("pyramid16", pv.pyramid_graph(16), corpus.antiprism_volume(16), "SolverDiverged"),
    ]
    if small:
        keep = {"pyramid3", "pyramid4", "pyramid5", "prism3", "bipyramid3", "prism8"}
        entries = [entry for entry in entries if entry[0] in keep]
    ops = [Op(label, _late("rectification_volume", _polyhedral(label, g)),
              rectify_check(reference), known)
           for label, g, reference, known in entries]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    names = {op.name for op in ops}
    pairs = [(f"prism{n}", f"bipyramid{n}", 1e-8, "duality") for n in range(3, 6)]
    pairs.append(("cube", "octahedron", 1e-8, "duality"))
    return Plan(ops, [p for p in pairs if p[0] in names and p[1] in names])


def volume_digest(res):
    return (res.value.hex(), res.error_estimate.hex(), res.evaluations,
            res.budget_exceeded, str(res.method))


# --- volume -------------------------------------------------------------------


def volume_check(reference: float | None):
    def check(res):
        if res.budget_exceeded:
            return "budget_exceeded"
        if res.error_estimate > VOLUME_TOL:
            return "tolerance"
        if reference is not None and abs(res.value - reference) > VOLUME_TOL + res.error_estimate:
            return "reference"
        return None
    return check


def build_volume(seed: int, small: bool = False) -> Plan:
    """``polyvol volume`` at the CLI defaults, on shapes in seeded poses.

    Regular tetrahedra have Schlafli references; the compact pyramid and
    prism are compact realizations at a fixed scale.  The seed rotates
    every shape about the origin, which changes the input planes but not
    the volume or the quadrature work.
    """
    rng = np.random.default_rng(seed)
    inputs = []   # (label, polyhedron, reference, known failure)
    radii = (0.3, 0.5, 1.0) if small else (0.3, 0.5, 0.6, 0.7, 1.0)
    for r in radii:
        inputs.append((f"regular{r}", _rotated(shapes.regular_tetrahedron(r), rng),
                       corpus.regular_tetrahedron_volume(r), None))
    if not small:
        for label, g in (("pyramid5", pv.pyramid_graph(5)), ("prism4", pv.prism_graph(4))):
            P = _rotated(shapes.compact_realization(g, scale=0.6), rng)
            inputs.append((f"{label}/compact", P, None, None))
        inputs.append(("tetrahedron/hyperideal",
                       shapes.random_hyperideal(pv.tetrahedron_graph(), rng),
                       None, "budget_exceeded"))
    ops = [Op(label, _late("polyhedron_volume", P, tol=VOLUME_TOL, budget=VOLUME_BUDGET),
              volume_check(reference), known)
           for label, P, reference, known in inputs]
    return Plan(ops)


# --- angles -------------------------------------------------------------------


def _angles_check(g, th, must_admit: str | None):
    """Check a verdict; ``must_admit`` names the oracle that requires admissibility.

    Every angle below 0.95 < pi/3 satisfies each Bao-Bonahon inequality
    strictly (a curve crossing h >= 3 edges sums below 0.95 h < (h-2) pi;
    an arc crossing h >= 2 edges, below (h-1) pi), so such vectors and
    their midpoints must be admitted.  Any other vector is drawn with a
    vertex link above its bound, so it must be rejected.
    """
    def check(rep):
        if rep.admissible:
            return None if must_admit else "link_oracle"
        if must_admit:
            return must_admit
        w = rep.witness
        if len(set(w.crossed_edges)) != len(w.crossed_edges):
            return "witness_distinct"
        if any(e not in g.edge_index for e in w.crossed_edges):
            return "witness_edges"
        if sum(th[e] for e in w.crossed_edges) < w.bound - 1e-9:
            return "witness_bound"
        return None
    return check


def _draw(rng, g, lo: float, hi: float) -> dict:
    return {e: float(rng.uniform(lo, hi)) for e in g.edges}


def _link_violated(g, th) -> bool:
    """Whether the curve around some vertex sums above (degree - 2) pi."""
    sums, degrees = [0.0] * g.n_vertices, [0] * g.n_vertices
    for e in g.edges:
        for v in e:
            sums[v] += th[e]
            degrees[v] += 1
    return any(total > (d - 2) * math.pi for total, d in zip(sums, degrees))


def _draw_inadmissible(rng, g, lo: float, hi: float) -> dict:
    """A draw from (lo, hi) conditioned on a vertex link above its bound.

    Unconditioned, about one icosahedron draw in seven from (0.6, 2.9) is
    admissible and runs the full enumeration (0.8 s instead of 0.05 s),
    which would make the pass time depend on the seed's luck.
    """
    while True:
        th = _draw(rng, g, lo, hi)
        if _link_violated(g, th):
            return th


def build_angles(seed: int, small: bool = False) -> Plan:
    """``polyvol angles-check`` on admissible-range and wide-range vectors."""
    rng = np.random.default_rng(seed)
    graphs = [("tetrahedron", pv.tetrahedron_graph()),
              ("cube", pv.cube_graph()),
              ("octahedron", pv.octahedron_graph()),
              ("prism5", pv.prism_graph(5)),
              ("prism6", pv.prism_graph(6)),
              ("pyramid8", pv.pyramid_graph(8)),
              ("icosahedron", pv.PlanarGraph(12, corpus.ICOSAHEDRON_FACES)),
              ("stacked8", pv.PlanarGraph(8, corpus.stacked_triangulation_faces(8, rng))),
              ("stacked10", pv.PlanarGraph(10, corpus.stacked_triangulation_faces(10, rng)))]
    if small:
        graphs = [graphs[0], graphs[1], graphs[7]]
    ops = []
    for label, g in graphs:
        _polyhedral(label, g)
        a, b = _draw(rng, g, 0.08, 0.95), _draw(rng, g, 0.08, 0.95)
        mid = {e: 0.5 * (a[e] + b[e]) for e in g.edges}
        vectors = [("low-a", a, "range_oracle"), ("low-b", b, "range_oracle"),
                   ("midpoint", mid, "midpoint_convexity"),
                   ("wide-a", _draw_inadmissible(rng, g, 0.6, 2.9), None),
                   ("wide-b", _draw_inadmissible(rng, g, 0.6, 2.9), None)]
        for tag, th, must_admit in vectors:
            ops.append(Op(f"{label}/{tag}", _late("check_hyperideal_angles", g, th),
                          _angles_check(g, th, must_admit)))
    return Plan(ops)


def angles_digest(rep):
    w = rep.witness
    return (rep.status, None if w is None else (w.crossed_edges, w.angle_sum.hex()))


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], Plan]
    digest: Callable[[Any], Any]


WORKLOADS = {w.name: w for w in (
    Workload("flow", build_flow, flow_digest),
    Workload("rectify", build_rectify, volume_digest),
    Workload("volume", build_volume, volume_digest),
    Workload("angles", build_angles, angles_digest),
)}
