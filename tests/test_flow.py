import math

import numpy as np
import pytest

from conftest import stacked_triangulation
from polyvol.core import AffineDeformation
from polyvol.errors import (
    AngleOutOfRange,
    CollapseMakesDegenerate,
    EdgeMissesBall,
    ImproperInput,
    NewtonDiverged,
    NoIdealVertices,
    NoSeparatingPlane,
    PlanesEqual,
    PropernessLost,
    SkeletonChanged,
    SkeletonMismatch,
    StallDetected,
)
from polyvol.flow import (
    FlowEventKind,
    FlowOptions,
    _hyperideal_only,
    _scan_signals,
    escape_deformation,
    nudge_ideal_vertices,
    realize_from_angles,
    run_flow,
    sup_volume,
    trace_to_csv,
)
from polyvol.graphs import (
    PlanarGraph,
    check_hyperideal_angles,
    cube_graph,
    edge_collapse,
    face_collapse,
    prism_graph,
    pyramid_graph,
    tetrahedron_graph,
)
from polyvol.polyhedron import (
    PointKind,
    VertexStatus,
    build_polyhedron,
    classify_vertices,
    dihedral_angles,
    truncate,
)
from polyvol.rectify import rectification_volume
from polyvol.shapes import (
    compact_realization,
    jittered_compact,
    planes_from_vertices,
    random_hyperideal,
    regular_tetrahedron,
)
from polyvol.volume import (
    _orthoscheme_decomposition,
    _truncation_region,
    lobachevsky,
    polyhedron_volume,
)

V8 = 8 * lobachevsky(math.pi / 4)


def replay(g, events):
    """The skeleton left after applying the trace's collapse events to g."""
    for e in events:
        if e.kind == FlowEventKind.EDGE_COLLAPSED:
            g = edge_collapse(g, e.data["edge"]).graph
        elif e.kind == FlowEventKind.FACE_COLLAPSED:
            g = face_collapse(g, e.data["face"], e.data["split"]).graph
    return g


@pytest.fixture(scope="module")
def prism_collapse_trace():
    # the spring-embedded compact prism; one flow shared by the tests below
    g = prism_graph(3)
    rng = np.random.default_rng(5)
    P0 = jittered_compact(g, rng)
    return g, run_flow(P0, FlowOptions(seed=1000))


# --- realize_from_angles ---------------------------------------------------------

def test_realize_fixed_point(hyperideal_tetra):
    th = dihedral_angles(hyperideal_tetra)
    P2 = realize_from_angles(tetrahedron_graph(), th, hyperideal_tetra)
    np.testing.assert_allclose(P2.vertex_charts, hyperideal_tetra.vertex_charts,
                               atol=1e-9)


def test_realize_prescribed_angles_and_monotonicity(hyperideal_tetra):
    g = tetrahedron_graph()
    P1 = realize_from_angles(g, {e: 0.6 for e in g.edges}, hyperideal_tetra)
    P2 = realize_from_angles(g, {e: 0.4 for e in g.edges}, P1)
    for P, val in ((P1, 0.6), (P2, 0.4)):
        th = dihedral_angles(P)
        assert max(abs(a - val) for a in th.values()) < 1e-8
    v1 = polyhedron_volume(P1).value
    v2 = polyhedron_volume(P2).value
    assert v2 > v1  # smaller angles, larger volume


def test_realize_inadmissible_target_fails(hyperideal_tetra):
    g = tetrahedron_graph()
    # all angles pi/2 violate the vertex-linking inequality in the
    # hyperideal regime; realization must not silently succeed
    target = {e: math.pi / 2 for e in g.edges}
    assert not check_hyperideal_angles(g, target).admissible
    P = realize_from_angles(g, {e: 0.5 for e in g.edges}, hyperideal_tetra)
    with pytest.raises((NewtonDiverged, SkeletonChanged)):
        out = realize_from_angles(g, target, P)
        # if Newton converged it must not be a hyperideal realization
        kinds = classify_vertices(out).kinds
        if all(k == PointKind.HYPERIDEAL for k in kinds):
            raise AssertionError("inadmissible angles realized hyperideally")


def test_realize_seed_skeleton_checked(compact_tetra):
    g5 = pyramid_graph(4)
    with pytest.raises(SkeletonChanged):
        realize_from_angles(g5, {e: 1.0 for e in g5.edges}, compact_tetra)


@pytest.mark.parametrize("bad", [0.0, -0.1, math.pi, 3.5])
def test_realize_target_outside_open_interval_is_an_angle_error(hyperideal_tetra, bad):
    # An input error, not a failed solve that a caller retries with a shorter step.
    g = tetrahedron_graph()
    angles = dict(dihedral_angles(hyperideal_tetra))
    angles[g.edges[2]] = bad
    with pytest.raises(AngleOutOfRange, match=r"outside \(0, pi\)"):
        realize_from_angles(g, angles, hyperideal_tetra)


# --- nudge -----------------------------------------------------------------------

def test_nudge_ideal_tetrahedron():
    P = regular_tetrahedron(1.0)
    v0 = polyhedron_volume(P).value
    Q = nudge_ideal_vertices(P, delta=1e-4)
    kinds = classify_vertices(Q).kinds
    assert all(k == PointKind.HYPERIDEAL for k in kinds)
    v1 = polyhedron_volume(Q).value
    assert abs(v1 - v0) < 1e-2


def test_nudge_requires_ideal():
    with pytest.raises(NoIdealVertices):
        nudge_ideal_vertices(regular_tetrahedron(0.5))


def test_nudge_adaptive_delta():
    # a large requested delta must be halved into an admissible one
    P = regular_tetrahedron(1.0)
    Q = nudge_ideal_vertices(P, delta=0.5)
    rep = classify_vertices(Q)
    assert not rep.is_improper()
    assert all(k == PointKind.HYPERIDEAL for k in rep.kinds)


# --- escape deformation ------------------------------------------------------------

def test_escape_pushes_near_ideal_vertex_out():
    g = tetrahedron_graph()
    verts = np.array([[0.0, 0.0, 0.9999], [0.8, 0.0, -0.4],
                      [-0.4, 0.7, -0.4], [-0.4, -0.7, -0.4]])
    P = build_polyhedron(planes_from_vertices(verts, g), g)
    Q = escape_deformation(P, 0)
    rep = classify_vertices(Q)
    assert rep.kinds[0] == PointKind.HYPERIDEAL
    assert [str(k) for k in rep.kinds[1:]] == ["Real", "Real", "Real"]
    assert not rep.is_improper()


def test_escape_zero_translation_is_identity():
    # translation magnitude scales with the distance to the sphere; a
    # vertex already on the working band moves by an amount of that order
    g = tetrahedron_graph()
    verts = np.array([[0.0, 0.0, 0.99999], [0.8, 0.0, -0.4],
                      [-0.4, 0.7, -0.4], [-0.4, -0.7, -0.4]])
    P = build_polyhedron(planes_from_vertices(verts, g), g)
    Q = escape_deformation(P, 0, delta=1e-6)
    move = np.max(np.abs(Q.vertex_charts - P.vertex_charts))
    assert move < 1e-3


def test_escape_case_3b_frees_incidence():
    g = tetrahedron_graph()
    w = np.array([1.5, 0.0, 0.0])
    x = 1 / 1.5
    v = np.array([x, 0.0, math.sqrt(1 - x * x) - 2e-4])
    a = np.array([-0.5, 0.55, -0.3])
    b = np.array([-0.5, -0.55, -0.3])
    P = build_polyhedron(planes_from_vertices(np.array([v, w, a, b]), g), g)
    rep = classify_vertices(P)
    assert rep.statuses[0] == VertexStatus.ALMOST_PROPER
    Q = escape_deformation(P, 0, almost_pole=1)
    rep2 = classify_vertices(Q)
    assert rep2.overall == VertexStatus.PROPER


# --- run_flow -----------------------------------------------------------------------

def test_flow_hyperideal_tetrahedron_no_events(hyperideal_tetra):
    trace = run_flow(hyperideal_tetra, FlowOptions(seed=11))
    assert not [e for e in trace.events
                if e.kind != FlowEventKind.BECAME_HYPERIDEAL_ONLY]
    assert abs(trace.sup_estimate - V8) / V8 < 0.01
    assert trace.volumes_nondecreasing()
    vols = [s.volume.value for s in trace.samples]
    assert vols[-1] > vols[0]


def test_flow_compact_tetrahedron_events_and_value(compact_tetra):
    th = dihedral_angles(compact_tetra)
    assert abs(list(th.values())[0] - 1.18) < 0.1  # near-Euclidean regime
    trace = run_flow(compact_tetra, FlowOptions(seed=12))
    kinds = [e.kind for e in trace.events]
    assert kinds.count(FlowEventKind.VERTEX_BECAME_IDEAL) == 4
    assert FlowEventKind.BECAME_HYPERIDEAL_ONLY in kinds
    assert abs(trace.sup_estimate - V8) / V8 < 0.01
    assert trace.volumes_nondecreasing()


def test_flow_classifies_each_state_once(compact_tetra, monkeypatch):
    # No Polyhedron is classified twice, in any module: the kinds live on
    # the state (Polyhedron.report).  Once the flow is all-hyperideal it
    # scans no steps, so it classifies a state only to sample its volume
    # or to evaluate the stopping bound (edge_lengths) there.
    import polyvol.flow as flow
    import polyvol.polyhedron as polyhedron

    classified = []  # (polyhedron, in the endgame, inside a sample or bound)
    state = {"endgame": False, "depth": 0}
    classify = polyhedron.classify_vertices

    def classify_once(P, *args, **kwargs):
        assert not any(Q is P for Q, _, _ in classified)
        classified.append((P, state["endgame"], state["depth"] > 0))
        return classify(P, *args, **kwargs)

    def evaluation(fn, starts_endgame=False):
        def wrapper(*args, **kwargs):
            state["endgame"] |= starts_endgame
            state["depth"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                state["depth"] -= 1
        return wrapper

    monkeypatch.setattr(polyhedron, "classify_vertices", classify_once)
    monkeypatch.setattr(flow, "edge_lengths", evaluation(flow.edge_lengths, True))
    monkeypatch.setattr(flow, "polyhedron_volume", evaluation(flow.polyhedron_volume))
    trace = run_flow(compact_tetra, FlowOptions(seed=12))
    kinds = [e.kind for e in trace.events]
    assert FlowEventKind.BECAME_HYPERIDEAL_ONLY in kinds
    assert kinds.count(FlowEventKind.VERTEX_BECAME_IDEAL) == 4
    endgame = [inside for _, in_endgame, inside in classified if in_endgame]
    assert endgame and all(endgame)


def test_flow_event_localization_matches_angle_sum():
    # at a VertexBecameIdeal event the angle sum at the vertex crosses
    # (k-2) pi together with the geometric classification
    P = regular_tetrahedron(0.55)
    trace = run_flow(P, FlowOptions(seed=13))
    ev = next(e for e in trace.events if e.kind == FlowEventKind.VERTEX_BECAME_IDEAL)
    sample = min((s for s in trace.samples if s.event == "VertexBecameIdeal"),
                 key=lambda s: abs(s.t - ev.t_value))
    v = ev.data["vertex"]
    inc = [sample.angles[e] for e in sample.polyhedron.skeleton.vertex_edges[v]]
    k = len(inc)
    assert abs(sum(inc) - (k - 2) * math.pi) < 1e-3


def test_flow_pyramid_with_hyperideal_apex():
    g = pyramid_graph(4)
    P = compact_realization(g, scale=0.55)
    # push the apex out: homothety centered at the base's vertex centroid
    factor = 1.35 / np.linalg.norm(P.vertex_charts[0])
    H = AffineDeformation.homothety(P.vertex_charts[1:].mean(axis=0), factor)
    P2 = build_polyhedron(H.apply_planes(P.normals), g)
    rep = classify_vertices(P2)
    assert rep.kinds[0] == PointKind.HYPERIDEAL
    assert rep.overall == VertexStatus.PROPER
    trace = run_flow(P2, FlowOptions(seed=14))
    target = rectification_volume(g).value
    assert abs(trace.sup_estimate - target) / target < 0.01
    rep_final = classify_vertices(trace.samples[-1].polyhedron)
    assert all(k == PointKind.HYPERIDEAL for k in rep_final.kinds)


def test_flow_prism_collapse_path(prism_collapse_trace):
    # the spring-embedded compact prism degenerates along the scaled-angle
    # path: the top triangle shrinks to a vertex, the skeleton rewrites to
    # the tetrahedron, and the flow continues to the collapsed target
    _, trace = prism_collapse_trace
    kinds = [e.kind for e in trace.events]
    assert (FlowEventKind.FACE_COLLAPSED in kinds
            or FlowEventKind.EDGE_COLLAPSED in kinds)
    assert trace.final_skeleton.n_vertices == 4
    assert abs(trace.sup_estimate - V8) / V8 < 0.01
    assert trace.volumes_nondecreasing()


def test_flow_prism_hyperideal_reaches_prism_rectification():
    g = prism_graph(3)
    rng = np.random.default_rng(6)
    P0 = random_hyperideal(g, rng)
    target = rectification_volume(g).value
    trace = run_flow(P0, FlowOptions(seed=15))
    assert abs(trace.sup_estimate - target) / target < 0.01
    assert trace.final_skeleton.faces == g.faces


def test_flow_skeleton_rewrites_replay(prism_collapse_trace):
    g, trace = prism_collapse_trace
    current = replay(g, trace.events)
    assert current.faces == trace.final_skeleton.faces


def test_flow_stacked_triangulation_reaches_collapsed_rectification():
    # A stacked triangulation with 10 vertices: from this compact seed a
    # face collapses, and the flow reaches the rectification volume of the
    # skeleton left after the collapse, below the bound rect(G).
    g = PlanarGraph(10, ((0, 2, 3), (1, 3, 4), (0, 1, 5), (1, 2, 5), (2, 0, 5), (0, 3, 6),
                         (3, 1, 6), (1, 0, 6), (3, 2, 7), (2, 4, 7), (4, 3, 7), (1, 4, 8),
                         (4, 2, 8), (2, 1, 9), (1, 8, 9), (8, 2, 9)))
    trace = run_flow(jittered_compact(g, np.random.default_rng(17)), FlowOptions(seed=17))
    assert any(e.kind in (FlowEventKind.EDGE_COLLAPSED, FlowEventKind.FACE_COLLAPSED)
               for e in trace.events)
    assert trace.volumes_nondecreasing()
    final = rectification_volume(trace.final_skeleton).value
    assert abs(trace.sup_estimate - final) / final < 0.01
    assert final <= rectification_volume(g).value
    assert (replay(g, trace.events).canonical_hash()
            == trace.final_skeleton.canonical_hash())


def test_flow_endgame_stays_admissible(hyperideal_tetra):
    trace = run_flow(hyperideal_tetra, FlowOptions(seed=16))
    g = trace.final_skeleton
    for s in trace.samples[-3:]:
        rep = check_hyperideal_angles(g, s.angles)
        assert rep.admissible


def test_flow_degenerate_collapse_stalls_with_trace(compact_tetra, monkeypatch):
    # collapsing an edge of K4 leaves no polyhedral skeleton
    import polyvol.flow as flow

    monkeypatch.setattr(flow, "_scan_signals", lambda *args, **kwargs: (
        [(FlowEventKind.EDGE_COLLAPSED, (0, 1), 0.0)], {}))
    with pytest.raises(StallDetected) as info:
        run_flow(compact_tetra, FlowOptions(seed=20))
    assert info.value.trace.samples
    assert isinstance(info.value.__cause__, CollapseMakesDegenerate)


def test_flow_stall_escape_into_hyperideal_stratum_is_an_event(monkeypatch):
    # One real vertex inside the relaxed ideal band, three hyperideal ones.
    # Every step after the first realization fails, so the flow stalls, the
    # relaxed scan finds the near-ideal vertex, and its escape leaves every
    # vertex hyperideal: that transition must be an event as on a signal.
    import polyvol.flow as flow

    g = tetrahedron_graph()
    verts = regular_tetrahedron(1.3).vertex_charts.copy()
    verts[0] *= 0.9995 / 1.3
    P = build_polyhedron(planes_from_vertices(verts, g), g)
    realize = flow.realize_from_angles
    calls = []

    def first_realization_only(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1:
            raise NewtonDiverged("forced")
        return realize(*args, **kwargs)

    monkeypatch.setattr(flow, "realize_from_angles", first_realization_only)
    with pytest.raises(StallDetected) as info:
        run_flow(P, FlowOptions(seed=3))
    events = info.value.trace.events
    assert [e.kind for e in events] == [FlowEventKind.VERTEX_BECAME_IDEAL,
                                        FlowEventKind.BECAME_HYPERIDEAL_ONLY]
    assert events[0].data == {"vertex": 0}
    assert events[1].t_value == events[0].t_value


def test_flow_locates_a_linear_gap_on_the_dt_min_grid(compact_tetra, monkeypatch):
    # A synthetic edge-collapse gap, linear in t, crosses zero at T_CROSS.  The
    # first step signals; the secant then places every trial a whole number of
    # DT_MIN below the current t, and the event fires after a signaled step of
    # DT_MIN from an accepted, unsignaled state, within 3 trials.  Collapsing an
    # edge of K4 leaves no polyhedral skeleton, so the flow stalls right there.
    import polyvol.flow as flow

    T_CROSS, RATE, signal = 0.99371234567, 3.0, (FlowEventKind.EDGE_COLLAPSED, (0, 1))
    trials, t_of = [], {}
    realize, scaled = flow.realize_from_angles, flow._scaled

    def realize_at(*args, **kwargs):
        P = realize(*args, **kwargs)
        t_of[id(P)] = trials[-1]
        return P

    def linear_gap(P, prev, held, relaxed=False):
        gap = RATE * (T_CROSS - t_of[id(P)])
        return [(*signal, 0.0)] if gap > 0 and not relaxed else [], {signal: gap}

    monkeypatch.setattr(flow, "_scaled", lambda theta, t: trials.append(t) or scaled(theta, t))
    monkeypatch.setattr(flow, "realize_from_angles", realize_at)
    monkeypatch.setattr(flow, "_scan_signals", linear_gap)
    with pytest.raises(StallDetected) as info:
        run_flow(compact_tetra, FlowOptions(seed=21))
    first = next(i for i, t in enumerate(trials) if t < T_CROSS)
    assert first == 1 and trials[0] == 1.0
    located = trials[first + 1:]
    assert 1 <= len(located) <= 3
    current = max(t for t in trials[:first] if t >= T_CROSS)
    for t in located:
        steps = (current - t) / flow.DT_MIN
        assert round(steps) >= 1 and abs(steps - round(steps)) < 1e-6
        if t >= T_CROSS:
            current = t
    assert current - located[-1] <= flow.DT_MIN * (1 + 1e-6)
    assert located[-1] < T_CROSS <= current
    event = info.value.trace.samples[-1]
    assert (event.event, event.t) == (FlowEventKind.EDGE_COLLAPSED, located[-1])


def test_flow_steps_dt_min_at_once_when_the_accepted_state_signals(compact_tetra, monkeypatch):
    # The linear gap above, crossing zero above t = 1: the accepted state at
    # t = 1 already signals, as a state does after an escape that leaves
    # another vertex inside the ideal band.  No secant can be placed and a
    # bisection would signal on every trial, so the first signaled step is
    # followed by exactly one trial, DT_MIN below t = 1, where the event fires.
    import polyvol.flow as flow

    T_CROSS, RATE, signal = 1.003, 3.0, (FlowEventKind.EDGE_COLLAPSED, (0, 1))
    trials, t_of = [], {}
    realize, scaled = flow.realize_from_angles, flow._scaled

    def realize_at(*args, **kwargs):
        P = realize(*args, **kwargs)
        t_of[id(P)] = trials[-1]
        return P

    def linear_gap(P, prev, held, relaxed=False):
        gap = RATE * (T_CROSS - t_of[id(P)])
        return [(*signal, 0.0)] if gap > 0 and not relaxed else [], {signal: gap}

    monkeypatch.setattr(flow, "_scaled", lambda theta, t: trials.append(t) or scaled(theta, t))
    monkeypatch.setattr(flow, "realize_from_angles", realize_at)
    monkeypatch.setattr(flow, "_scan_signals", linear_gap)
    with pytest.raises(StallDetected) as info:
        run_flow(compact_tetra, FlowOptions(seed=21))
    assert trials == [1.0, 1.0 - flow.DT_INIT, 1.0 - flow.DT_MIN]
    event = info.value.trace.samples[-1]
    assert (event.event, event.t) == (FlowEventKind.EDGE_COLLAPSED, trials[-1])


# The flow from jittered_compact(pyramid_graph(4), default_rng(951)) with seed
# 951, measured when a bracket whose accepted end signaled bisected from DT_INIT
# down to DT_MIN: (kind, data, t_value.hex(), volume_at_event.hex()) of its
# events, the hex volume of each sample, sup_estimate.hex() and the number of
# plane-system solves.
PYRAMID4_951_EVENTS = [
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 0}, "0x1.e51cd522dca3ep-1", "0x1.40f21d5d483b9p-1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 1}, "0x1.cd63b4047eeadp-1", "0x1.3c13fd001bc30p+0"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 2}, "0x1.cd6341eeb7d94p-1", "0x1.3c27e6e76b4d2p+0"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 4}, "0x1.712b6bbe94fbbp-1", "0x1.9e6d8ce6755e1p+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 3}, "0x1.712b686396a86p-1", "0x1.9e770d4a4c90cp+1"),
    (FlowEventKind.BECAME_HYPERIDEAL_ONLY, {}, "0x1.712b686396a86p-1", "0x1.9e770d4a4c90cp+1"),
]
PYRAMID4_951_SAMPLES = [
    "0x1.3e363d56a4aaap-3", "0x1.40f21d5d483b9p-1", "0x1.c4bc7ee4786c4p-1",
    "0x1.3c13fd001bc30p+0", "0x1.3c27e6e76b4d2p+0", "0x1.61c4828cfba00p+0",
    "0x1.366cbc9fa6134p+1", "0x1.9e6d8ce6755e1p+1", "0x1.9e770d4a4c90cp+1",
    "0x1.b211e62d48fc4p+1", "0x1.817750dd9dde0p+2",
]
PYRAMID4_951_SUP, PYRAMID4_951_BISECTING_SOLVES = "0x1.817996056bcf1p+2", 79


def test_flow_degenerate_bracket_keeps_the_trace_with_fewer_solves(monkeypatch):
    # Here an escape leaves another vertex inside the ideal band; stepping
    # DT_MIN at once from that state gives the same trace, bit for bit, with
    # the 15 signaled bisection trials before that step left out.
    import polyvol.flow as flow

    solve, solves = flow.solve_plane_system, []
    monkeypatch.setattr(flow, "solve_plane_system",
                        lambda *args, **kwargs: solves.append(None) or solve(*args, **kwargs))
    trace = run_flow(jittered_compact(pyramid_graph(4), np.random.default_rng(951)),
                     FlowOptions(seed=951))
    assert [(e.kind, e.data, e.t_value.hex(), e.volume_at_event.hex())
            for e in trace.events] == PYRAMID4_951_EVENTS
    assert [s.volume.value.hex() for s in trace.samples] == PYRAMID4_951_SAMPLES
    assert trace.sup_estimate.hex() == PYRAMID4_951_SUP
    assert len(solves) <= PYRAMID4_951_BISECTING_SOLVES - 15


# The flow from jittered_compact(cube_graph(), default_rng(951)) with seed 951,
# the slowest op of the bench's flow workload, measured before a realization
# built its Jacobians only where a Newton step uses them: (kind, data,
# t_value.hex(), volume_at_event.hex()) of its events, the hex volume of each
# sample and sup_estimate.hex(), the same with 1, 2 and 4 OpenBLAS threads.
CUBE_951_EVENTS = [
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 1}, "0x1.b52f463ea8b23p-1", "0x1.09a0303773672p+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 3}, "0x1.b52e2c6335598p-1", "0x1.09b1388d6b6b1p+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 4}, "0x1.b52ccf6be37dfp-1", "0x1.09be329273b44p+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 0}, "0x1.aa7d566cf41f2p-1", "0x1.45ac5942d2c40p+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 2}, "0x1.48142c06ef078p-1", "0x1.83a157af469c8p+2"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 5}, "0x1.4813d82418e40p-1", "0x1.83a9e382c56d9p+2"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 7}, "0x1.4810e8858ff77p-1", "0x1.83c031f0a62c3p+2"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 6}, "0x1.b045712358ca9p-2", "0x1.33a055b3518c5p+3"),
    (FlowEventKind.BECAME_HYPERIDEAL_ONLY, {}, "0x1.b045712358ca9p-2", "0x1.33a055b3518c5p+3"),
]
CUBE_951_SAMPLES = [
    "0x1.15e7f9fa72f53p-2", "0x1.42a947ebe8f3ep+0", "0x1.09a0303773672p+1",
    "0x1.09b111ed7bd73p+1", "0x1.09b1388d6b6b1p+1", "0x1.09be329273b44p+1",
    "0x1.45ac5942d2c40p+1", "0x1.a366806cfd408p+1", "0x1.3c843f1d9e130p+2",
    "0x1.83a157af469c8p+2", "0x1.83aa097a73420p+2", "0x1.83a9e382c56d9p+2",
    "0x1.83c031f0a62c3p+2", "0x1.dc72e3eee1b32p+2", "0x1.1c7b10412bfeap+3",
    "0x1.33a055b3518c5p+3", "0x1.4b4d6767157b8p+3", "0x1.815a780440574p+3",
]
CUBE_951_SUP = "0x1.817997ae1b22dp+3"


def test_flow_cube_951_is_pinned_bit_for_bit():
    trace = run_flow(jittered_compact(cube_graph(), np.random.default_rng(951)),
                     FlowOptions(seed=951))
    assert [(e.kind, e.data, e.t_value.hex(), e.volume_at_event.hex())
            for e in trace.events] == CUBE_951_EVENTS
    assert [s.volume.value.hex() for s in trace.samples] == CUBE_951_SAMPLES
    assert trace.sup_estimate.hex() == CUBE_951_SUP


# (kind, data) of the events, sup_estimate and plane-system solves of the flows
# from jittered_compact(g, default_rng(951)) with seed 951, measured when every
# signaled step halved dt down to DT_MIN.
HALVING_FLOWS = {
    "tetrahedron": (tetrahedron_graph, (3, 0, 1, 2), 3.6638631734618587, 191),
    "cube": (cube_graph, (1, 3, 4, 0, 2, 5, 7, 6), 12.046099582672522, 318),
}


@pytest.mark.parametrize("name", sorted(HALVING_FLOWS))
def test_flow_bracketing_keeps_events_with_fewer_solves(name, monkeypatch):
    import polyvol.flow as flow

    make, escaped, sup, halving_solves = HALVING_FLOWS[name]
    solve, iterations = flow.solve_plane_system, []

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        iterations.append(result[2].iterations)
        return result

    monkeypatch.setattr(flow, "solve_plane_system", counted)
    trace = run_flow(jittered_compact(make(), np.random.default_rng(951)), FlowOptions(seed=951))
    assert [(e.kind, e.data) for e in trace.events] == (
        [(FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": v}) for v in escaped]
        + [(FlowEventKind.BECAME_HYPERIDEAL_ONLY, {})])
    assert abs(trace.sup_estimate - sup) <= 1e-6 * sup
    assert len(iterations) <= 0.65 * halving_solves
    # Started from the extrapolated state, a solve takes under 2 Newton
    # iterations on average here; from the current state, about 2.6.
    assert sum(iterations) <= 2.2 * len(iterations)


@pytest.mark.parametrize("seed", [6, 951, 4242])
def test_flow_hyperideal_endgame_strides(seed, monkeypatch):
    # Every vertex starts hyperideal, so the whole flow is endgame: dt grows
    # by 1.7 per step without the DT_INIT cap, and the flow takes a dozen
    # solves where steps of at most DT_INIT took about 90.
    import polyvol.flow as flow

    g = prism_graph(3)
    P0 = random_hyperideal(g, np.random.default_rng(seed))
    solve, solves = flow.solve_plane_system, []
    monkeypatch.setattr(flow, "solve_plane_system",
                        lambda *args, **kwargs: solves.append(None) or solve(*args, **kwargs))
    trace = run_flow(P0, FlowOptions(seed=seed))
    assert len(solves) <= 12
    target = rectification_volume(g).value
    assert abs(trace.sup_estimate - target) <= 1e-6 * target


# The whole trace of the flow from random_hyperideal(prism_graph(3),
# default_rng(951)) with seed 951, all endgame: (t.hex(), volume.hex(),
# error_estimate.hex()) of each sample, and sup_estimate.hex() and
# sup_error.hex(), which the edge lengths of the last state give.  The same
# with 1 and 2 OpenBLAS threads.
PRISM3_951_SAMPLES = [
    ("0x1.0000000000000p+0", "0x1.ac3a6ff73bd7ep+2", "0x1.dafd309fd7afdp-34"),
    ("0x1.5eb07a8f45e14p-4", "0x1.d4aff9a435cccp+2", "0x1.dafd309fd7afdp-34"),
]
PRISM3_951_SUP = ("0x1.d4f97642964d1p+2", "0x1.25f279f8c072dp-8")


def test_flow_hyperideal_prism3_951_is_pinned_bit_for_bit():
    g = prism_graph(3)
    trace = run_flow(random_hyperideal(g, np.random.default_rng(951)), FlowOptions(seed=951))
    assert [(s.t.hex(), s.volume.value.hex(), s.volume.error_estimate.hex())
            for s in trace.samples] == PRISM3_951_SAMPLES
    assert [s.event for s in trace.samples] == [None, None]
    assert trace.events == []
    assert (trace.sup_estimate.hex(), trace.sup_error.hex()) == PRISM3_951_SUP
    assert trace.final_skeleton == g


# (kind, data, t_value.hex()) of the events of the tetrahedron flow from
# jittered_compact(g, default_rng(951)) with seed 951, measured with every
# all-hyperideal step capped at DT_INIT.
TETRAHEDRON_951_EVENTS = [
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 3}, "0x1.cf1c53f39d1b2p-1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 0}, "0x1.cf1c50989ec7dp-1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 1}, "0x1.cf1bf5ffcbfdap-1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 2}, "0x1.cf1b0b1e4133cp-1"),
    (FlowEventKind.BECAME_HYPERIDEAL_ONLY, {}, "0x1.cf1b0b1e4133cp-1"),
]


# The hex volume of each sample and sup_estimate.hex() of that flow, the same
# with 1 and 2 OpenBLAS threads.
TETRAHEDRON_951_SAMPLES = [
    "0x1.72beac4d7a1e7p-3", "0x1.0068685a2cbf5p+0", "0x1.03c5a8439421ep+0",
    "0x1.03ce41e6885f1p+0", "0x1.03deaf0ed86a9p+0", "0x1.03ef70db2492ep+0",
    "0x1.a545daa9c858fp+0", "0x1.d4edc80acf220p+1",
]
TETRAHEDRON_951_SUP = "0x1.d4f97164468c5p+1"


def test_flow_tetrahedron_951_is_pinned_bit_for_bit():
    trace = run_flow(jittered_compact(tetrahedron_graph(), np.random.default_rng(951)),
                     FlowOptions(seed=951))
    assert [(e.kind, e.data, e.t_value.hex()) for e in trace.events] == TETRAHEDRON_951_EVENTS
    assert [s.volume.value.hex() for s in trace.samples] == TETRAHEDRON_951_SAMPLES
    assert trace.sup_estimate.hex() == TETRAHEDRON_951_SUP


def test_flow_endgame_stride_keeps_the_events_and_halves_on_failure(monkeypatch):
    # The stride leaves the events bit for bit.  With the first all-hyperideal
    # step longer than DT_INIT forced to fail, the retry from the same state
    # takes half that step, and the flow finishes with the same events.
    import polyvol.flow as flow

    P0 = jittered_compact(tetrahedron_graph(), np.random.default_rng(951))
    events = lambda trace: [(e.kind, e.data, e.t_value.hex()) for e in trace.events]
    assert events(run_flow(P0, FlowOptions(seed=951))) == TETRAHEDRON_951_EVENTS
    realize, scaled = flow.realize_from_angles, flow._scaled
    trials, t_of, failed = [], {}, []

    def realize_at(g, angles, P, **kwargs):
        t, t_next = t_of.get(id(P), (None, None))[1], trials[-1]
        if (not failed and t is not None and t - t_next > flow.DT_INIT * (1 + 1e-9)
                and all(k == PointKind.HYPERIDEAL for k in P.report.kinds)):
            failed.append((t, t_next))
            raise NewtonDiverged("forced")
        Q = realize(g, angles, P, **kwargs)
        t_of[id(Q)] = (Q, t_next)  # Q kept alive, so no later state reuses its id
        return Q

    monkeypatch.setattr(flow, "_scaled", lambda theta, t: trials.append(t) or scaled(theta, t))
    monkeypatch.setattr(flow, "realize_from_angles", realize_at)
    trace = run_flow(P0, FlowOptions(seed=951))
    (t, t_fail), = failed
    retry = trials[trials.index(t_fail) + 1]
    assert t - retry == pytest.approx(0.5 * (t - t_fail), rel=1e-12)
    assert events(trace) == TETRAHEDRON_951_EVENTS
    assert trace.volumes_nondecreasing()


def test_flow_no_progress_stall_carries_the_failed_solve():
    # From this seed Gauss-Newton cannot realize the angles just below t = 1.
    g = PlanarGraph(7, ((0, 2, 5), (2, 3, 5), (3, 0, 5), (6, 1, 4), (6, 4, 0, 3),
                        (4, 1, 2, 0), (6, 3, 2, 1)))
    with pytest.raises(StallDetected) as info:
        run_flow(jittered_compact(g, np.random.default_rng(55)), FlowOptions(seed=17))
    detail, cause = info.value.detail, info.value.__cause__
    assert detail.startswith("no progress at t=0.999")
    assert isinstance(cause, NewtonDiverged) and cause.detail.startswith("residual ")
    assert str(cause) in detail
    assert info.value.trace.samples


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flow_almost_proper_seed_stalls_known_failure(seed):
    # Known failure: vertex 0 starts on the polar plane of vertex 1, so the
    # flow holds that incidence.  Once vertices 3 and 2 have escaped, vertex 0
    # reaches the sphere and no escape translation takes it out of the ball.
    # A fix makes this flow run through; then this test must expect success.
    g = tetrahedron_graph()
    verts = np.array([[1 / 1.5, 0.0, 0.3], [1.5, 0.0, 0.0],
                      [-0.5, 0.55, -0.3], [-0.5, -0.55, -0.3]])
    P = build_polyhedron(planes_from_vertices(verts, g), g)
    assert P.report.statuses[0] == VertexStatus.ALMOST_PROPER
    with pytest.raises(StallDetected, match="escape left vertex 0 inside the ball") as info:
        run_flow(P, FlowOptions(seed=seed))
    assert info.value.trace.samples and info.value.trace.events


def test_flow_stacked_triangulation_collapse_rewrite_known_failure():
    # Known failure (ROADMAP item 11): after one FaceCollapsed event, the
    # second collapse's re-realization puts vertex 33 of the new skeleton on
    # face 43, which it is not on (margin about -2.6e-13): a second
    # degeneration at the same t that the rewrite does not look for.  The error
    # leaves with the trace up to there.  A fix makes this flow run through;
    # then this test must expect success.
    g = stacked_triangulation(40, np.random.default_rng(3))
    with pytest.raises(SkeletonChanged) as info:
        run_flow(jittered_compact(g, np.random.default_rng(3)), FlowOptions(seed=3))
    assert info.value.detail.startswith("SkeletonMismatch: vertex 33 lies on face 43, ")
    trace = info.value.trace
    assert [(e.kind, e.data) for e in trace.events] == [
        (FlowEventKind.FACE_COLLAPSED, {"face": 40, "split": 0})]
    assert trace.samples[-1].event == FlowEventKind.FACE_COLLAPSED
    assert trace.final_skeleton.n_vertices == 39
    assert (replay(g, trace.events).canonical_hash()
            == trace.final_skeleton.canonical_hash())


# --- the trace on every failure -------------------------------------------------

def test_flow_first_solve_failure_carries_an_empty_trace(compact_tetra, monkeypatch):
    import polyvol.flow as flow

    def diverge(*args, **kwargs):
        raise NewtonDiverged("forced")

    monkeypatch.setattr(flow, "realize_from_angles", diverge)
    with pytest.raises(NewtonDiverged) as info:
        run_flow(compact_tetra, FlowOptions(seed=12))
    trace = info.value.trace
    assert trace.samples == [] and trace.events == []
    assert trace.final_skeleton is compact_tetra.skeleton
    assert math.isnan(trace.sup_estimate) and trace.seed == 12


def test_flow_escape_failure_carries_the_samples_before_it(compact_tetra, monkeypatch):
    # The flow's first event is a VertexBecameIdeal.  With every escape
    # failing, the error leaves with the flow's samples up to that event's
    # own, bit for bit, and no event.
    import polyvol.flow as flow

    full = run_flow(compact_tetra, FlowOptions(seed=12))

    def no_escape(P, v, **kwargs):
        raise NoSeparatingPlane(f"forced for vertex {v}")

    monkeypatch.setattr(flow, "escape_deformation", no_escape)
    with pytest.raises(NoSeparatingPlane) as info:
        run_flow(compact_tetra, FlowOptions(seed=12))
    trace = info.value.trace
    n = len(trace.samples)
    assert n >= 2 and trace.events == []
    assert trace.samples[-1].event == FlowEventKind.VERTEX_BECAME_IDEAL
    assert ([(s.t, s.volume.value, s.event) for s in trace.samples]
            == [(s.t, s.volume.value, s.event) for s in full.samples[:n]])


@pytest.mark.parametrize("deformation", ["nudge", "escape"])
def test_deformation_candidates_skip_only_rebuild_failures(deformation, monkeypatch):
    # A candidate whose planes do not realize the skeleton, or leave H^3, is
    # skipped, so the search runs out with its own error.  Any other domain
    # error of a rebuild leaves at once.
    import polyvol.flow as flow

    if deformation == "nudge":
        P, exhausted = regular_tetrahedron(1.0), PropernessLost
        deform = lambda: nudge_ideal_vertices(P)
    else:
        g = tetrahedron_graph()
        verts = np.array([[0.0, 0.0, 0.9999], [0.8, 0.0, -0.4],
                          [-0.4, 0.7, -0.4], [-0.4, -0.7, -0.4]])
        P, exhausted = build_polyhedron(planes_from_vertices(verts, g), g), NoSeparatingPlane
        deform = lambda: escape_deformation(P, 0)
    for raised, expected in [(EdgeMissesBall("forced"), exhausted),
                             (ValueError("forced"), exhausted),
                             (PlanesEqual("forced"), PlanesEqual)]:
        calls = []

        def rebuild(*args, **kwargs):
            calls.append(None)
            raise raised

        monkeypatch.setattr(flow, "build_polyhedron", rebuild)
        with pytest.raises(expected):
            deform()
        assert (len(calls) == 1) == (expected is PlanesEqual)


def test_volume_just_past_ideal_depends_on_interior_point_known_failure():
    # Known failure: on the 2nd to 4th VertexBecameIdeal samples of this flow
    # a vertex has only just turned hyperideal (|x| - 1 about 2e-5).  Moving
    # the interior point of the orthoscheme decomposition by 0.01 along an
    # axis then moves the volume by 4.5e-5 to 1.3e-4, though the exact value
    # does not depend on that point and the estimates are 3.6e-11 to 6e-11.
    # On the first sample, every vertex still real, the spread is 6e-15.
    # A fix makes the spread stay within the estimate; then this test must
    # expect that.
    trace = run_flow(regular_tetrahedron(0.55), FlowOptions(seed=3))
    became_ideal = [s for s in trace.samples if s.event == FlowEventKind.VERTEX_BECAME_IDEAL]
    assert len(became_ideal) == 4
    for sample in became_ideal[1:]:
        center, polygons = _truncation_region(truncate(sample.polyhedron))
        value, _ = _orthoscheme_decomposition(center, polygons)
        assert value == sample.volume.value
        spread = max(abs(_orthoscheme_decomposition(center + 0.01 * axis, polygons)[0] - value)
                     for axis in np.eye(3))
        assert spread > 1000 * sample.volume.error_estimate


def test_scan_reads_the_kinds_and_no_statuses():
    # A trial state is scanned from its kinds; its properness report is
    # computed only where a status is read.
    for P0 in (jittered_compact(cube_graph(), np.random.default_rng(951)),
               random_hyperideal(prism_graph(3), np.random.default_rng(951))):
        prev, P = (build_polyhedron(P0.normals, P0.skeleton) for _ in range(2))
        _scan_signals(P, prev, [])
        _scan_signals(P, P, [], relaxed=True)
        _hyperideal_only(P)
        for Q in (prev, P):
            assert "kind_codes" in vars(Q)
            assert "report" not in vars(Q)
        assert P.report.kinds == P.kinds


def test_flow_rejects_bad_seeds():
    with pytest.raises(ImproperInput):
        run_flow(regular_tetrahedron(1.0), FlowOptions())  # ideal vertices


def test_sup_volume_nudges_ideal_seed():
    val = sup_volume(tetrahedron_graph(), regular_tetrahedron(1.0),
                     FlowOptions(seed=17))
    assert abs(val - V8) / V8 < 0.01


def test_sup_volume_checks_seed_skeleton():
    with pytest.raises(SkeletonMismatch):
        sup_volume(cube_graph(), regular_tetrahedron(0.55), FlowOptions(seed=17))


def test_trace_csv_shape(hyperideal_tetra):
    trace = run_flow(hyperideal_tetra, FlowOptions(seed=18))
    csv = trace_to_csv(trace)
    lines = csv.strip().splitlines()
    assert lines[0] == "t,volume,vol_error,event,skeleton_hash"
    assert len(lines) == len(trace.samples) + 1
    first = lines[1].split(",")
    assert len(first) == 5
    float(first[0]), float(first[1]), float(first[2])


def test_flow_deterministic(hyperideal_tetra):
    t1 = run_flow(hyperideal_tetra, FlowOptions(seed=19))
    t2 = run_flow(hyperideal_tetra, FlowOptions(seed=19))
    assert trace_to_csv(t1) == trace_to_csv(t2)
