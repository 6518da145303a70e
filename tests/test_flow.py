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

def held_near_sphere():
    """Vertex 0 on the polar plane of the hyperideal vertex 1, 1.5e-4 inside the sphere."""
    g = tetrahedron_graph()
    x = 1 / 1.5
    verts = np.array([[x, 0.0, math.sqrt(1 - x * x) - 2e-4], [1.5, 0.0, 0.0],
                      [-0.5, 0.55, -0.3], [-0.5, -0.55, -0.3]])
    return build_polyhedron(planes_from_vertices(verts, g), g)


def test_escape_zero_translation_is_identity():
    # translation magnitude scales with the distance to the sphere; a
    # vertex already near it moves by an amount of that order
    P = held_near_sphere()
    Q = escape_deformation(P, 0, almost_pole=1, delta=1e-6)
    move = np.max(np.abs(Q.vertex_charts - P.vertex_charts))
    assert move < 1e-3


def test_escape_case_3b_frees_incidence():
    P = held_near_sphere()
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
    angles = dihedral_angles(sample.polyhedron)
    inc = [angles[e] for e in sample.polyhedron.skeleton.vertex_edges[v]]
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


@pytest.mark.parametrize("make", [cube_graph, lambda: pyramid_graph(4)], ids=["cube", "pyramid4"])
def test_flow_follows_one_path(make):
    # Each crossing of the sphere is an event on the path t * theta, with no
    # translation and no new angle direction: from t = 1 to the all-hyperideal
    # onset every sample realizes the same angle direction, crossings included.
    g = make()
    trace = run_flow(jittered_compact(g, np.random.default_rng(951)), FlowOptions(seed=951))
    kinds = [s.event for s in trace.samples]
    path = trace.samples[:kinds.index(FlowEventKind.BECAME_HYPERIDEAL_ONLY) + 1]
    assert kinds.count(FlowEventKind.VERTEX_BECAME_IDEAL) == g.n_vertices
    direction = np.array([[dihedral_angles(s.polyhedron)[e] / s.t for e in g.edges]
                          for s in path])
    assert np.abs(direction - direction[0]).max() <= 1e-9
    target = rectification_volume(trace.final_skeleton).value
    assert abs(trace.sup_estimate - target) <= 1e-6 * target


@pytest.mark.parametrize("seed", [951, 911, 17, 4242])
def test_bench_flows_lose_no_volume(seed):
    # The four flows of the bench's flow workload at this seed: each sample's
    # volume is at least the one before it less their two error estimates and
    # EVENT_SLACK, and sup lies within 1e-6 relative of rect(final).
    import polyvol.flow as flow

    rng = np.random.default_rng(seed)
    starts = [jittered_compact(g, rng) for g in (tetrahedron_graph(), pyramid_graph(4), cube_graph())]
    starts.append(random_hyperideal(prism_graph(3), rng))
    for P0 in starts:
        trace = run_flow(P0, FlowOptions(seed=seed))
        vals = [(s.volume.value, s.volume.error_estimate) for s in trace.samples]
        for (v1, e1), (v2, e2) in zip(vals, vals[1:]):
            assert v2 - v1 >= -(e1 + e2 + flow.EVENT_SLACK), (v1, v2)
        target = rectification_volume(trace.final_skeleton).value
        assert abs(trace.sup_estimate - target) <= 1e-6 * target


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
        rep = check_hyperideal_angles(g, dihedral_angles(s.polyhedron))
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


def test_flow_stalled_crossing_is_an_event_and_not_a_step(monkeypatch):
    # One real vertex inside the relaxed ideal band, three hyperideal ones.
    # Every solve below t = 0.9999 fails, so after one accepted step the flow
    # stalls, and the relaxed scan finds the near-ideal vertex.  Its crossing
    # is an event at the stalled state, with no escape translation.  The state
    # is not a new accepted step (two accepted states at one t would make the
    # predictor divide by zero); the vertex is exempt, so the next stall finds
    # no signal and the flow stops there.
    import polyvol.flow as flow

    g = tetrahedron_graph()
    verts = regular_tetrahedron(1.3).vertex_charts.copy()
    verts[0] *= 0.9995 / 1.3
    P = build_polyhedron(planes_from_vertices(verts, g), g)
    realize, scaled = flow.realize_from_angles, flow._scaled
    trials = []

    def above_floor(*args, **kwargs):
        if trials[-1] < 0.9999:
            raise NewtonDiverged("forced")
        return realize(*args, **kwargs)

    def no_escape(*args, **kwargs):
        raise AssertionError("escape_deformation called")

    monkeypatch.setattr(flow, "_scaled", lambda theta, t: trials.append(t) or scaled(theta, t))
    monkeypatch.setattr(flow, "realize_from_angles", above_floor)
    monkeypatch.setattr(flow, "escape_deformation", no_escape)
    with pytest.raises(StallDetected, match="no progress at t=0.9999") as info:
        run_flow(P, FlowOptions(seed=3))
    trace = info.value.trace
    accepted = [t for t in trials if t >= 0.9999]
    assert accepted[0] == 1.0 and len(accepted) > 1
    assert [(e.kind, e.data, e.t_value) for e in trace.events] == [
        (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 0}, accepted[-1])]
    assert [(s.t, s.event) for s in trace.samples] == [
        (1.0, None), (accepted[-1], FlowEventKind.VERTEX_BECAME_IDEAL)]
    assert trace.samples[-1].polyhedron.kinds[0] == PointKind.REAL


def synthetic_gap_trials(monkeypatch, P0, gap):
    """The trial t values of a flow from P0 whose one signal has the gap ``gap(t)``.

    The signal is an edge collapse of K4, which leaves no polyhedral
    skeleton, so the flow stalls right where it fires; returns the trials
    and that StallDetected.
    """
    import polyvol.flow as flow

    signal = (FlowEventKind.EDGE_COLLAPSED, (0, 1))
    trials, t_of = [], {}
    realize, scaled = flow.realize_from_angles, flow._scaled

    def realize_at(*args, **kwargs):
        P = realize(*args, **kwargs)
        t_of[id(P)] = trials[-1]
        return P

    def synthetic_scan(P, prev, held, exempt=(), relaxed=False):
        value = gap(t_of[id(P)])
        return [(*signal, 0.0)] if value > 0 and not relaxed else [], {signal: value}

    monkeypatch.setattr(flow, "_scaled", lambda theta, t: trials.append(t) or scaled(theta, t))
    monkeypatch.setattr(flow, "realize_from_angles", realize_at)
    monkeypatch.setattr(flow, "_scan_signals", synthetic_scan)
    with pytest.raises(StallDetected) as info:
        run_flow(P0, FlowOptions(seed=21))
    return trials, info.value


def located_on_the_dt_min_grid(trials, t_cross, error):
    """The trials after the first signaled one, checked against the DT_MIN grid.

    Each trial is a whole number of DT_MIN below the current t, and the event
    fires on a signaled step of DT_MIN from an accepted, unsignaled state.
    """
    import polyvol.flow as flow

    first = next(i for i, t in enumerate(trials) if t < t_cross)
    assert first == 1 and trials[0] == 1.0
    located = trials[first + 1:]
    current = max(t for t in trials[:first] if t >= t_cross)
    for t in located:
        steps = (current - t) / flow.DT_MIN
        assert round(steps) >= 1 and abs(steps - round(steps)) < 1e-6
        if t >= t_cross:
            current = t
    assert current - located[-1] <= flow.DT_MIN * (1 + 1e-6)
    assert located[-1] < t_cross <= current
    event = error.trace.samples[-1]
    assert (event.event, event.t) == (FlowEventKind.EDGE_COLLAPSED, located[-1])
    return located


def test_flow_locates_a_linear_gap_on_the_dt_min_grid(compact_tetra, monkeypatch):
    # A synthetic edge-collapse gap, linear in t, crosses zero at T_CROSS.  The
    # first step signals; the secant then places the event within 3 trials.
    T_CROSS, RATE = 0.99371234567, 3.0
    trials, error = synthetic_gap_trials(monkeypatch, compact_tetra,
                                         lambda t: RATE * (T_CROSS - t))
    assert 1 <= len(located_on_the_dt_min_grid(trials, T_CROSS, error)) <= 3


def test_flow_locates_a_convex_gap_near_the_far_end(compact_tetra, monkeypatch):
    # A synthetic gap, linear plus quadratic in t, crosses zero 1.2e-4 above
    # the first signaled trial at t = 0.99.  The secant of a convex gap falls
    # short of the crossing, so every trial before the event is accepted and
    # the signaled end is kept.  With trials capped at 0.9 of the bracket they
    # crept toward that end and the event took 4 trials after the first
    # signal (steps of 8754, 11 and 1 DT_MIN after the capped one); up to
    # the width less DT_MIN, it takes 3.
    T_CROSS, RATE, CURVATURE = 0.99012345678, 3.0, 30.0
    trials, error = synthetic_gap_trials(
        monkeypatch, compact_tetra,
        lambda t: RATE * (T_CROSS - t) + CURVATURE * (T_CROSS - t) ** 2)
    located = located_on_the_dt_min_grid(trials, T_CROSS, error)
    assert len(located) <= 3
    assert all(t >= T_CROSS for t in located[:-1])


def test_flow_steps_dt_min_at_once_when_the_accepted_state_signals(compact_tetra, monkeypatch):
    # The linear gap above, crossing zero above t = 1: the accepted state at
    # t = 1 already signals, as an event state does when a second vertex of
    # a cluster is already inside the ideal band.  No secant can be placed and
    # a bisection would signal on every trial down to DT_MIN, so the first
    # signaled step is followed by exactly one trial, DT_MIN below t = 1,
    # where the event fires.
    import polyvol.flow as flow

    T_CROSS, RATE = 1.003, 3.0
    trials, error = synthetic_gap_trials(monkeypatch, compact_tetra,
                                         lambda t: RATE * (T_CROSS - t))
    assert trials == [1.0, 1.0 - flow.DT_INIT, 1.0 - flow.DT_MIN]
    event = error.trace.samples[-1]
    assert (event.event, event.t) == (FlowEventKind.EDGE_COLLAPSED, trials[-1])


def flow_pins(trace):
    """(kind, data, t_value.hex(), volume_at_event.hex()) of each event, the hex
    volume of each sample and sup_estimate.hex()."""
    return ([(e.kind, e.data, e.t_value.hex(), e.volume_at_event.hex()) for e in trace.events],
            [s.volume.value.hex() for s in trace.samples], trace.sup_estimate.hex())


# The flow from jittered_compact(pyramid_graph(4), default_rng(951)) with seed
# 951, each crossing of the sphere followed on the path: its pins (flow_pins),
# the same with 1 and 2 OpenBLAS threads.  Each of the 5 vertices crosses
# once, sup lies 1.3e-7 relative above rect(final), and no sample volume is
# below the one before it.
PYRAMID4_951_EVENTS = [
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 0}, "0x1.e51cd522dca3ep-1", "0x1.40f21d5d0fd0ap-1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 1}, "0x1.cd63c82674dedp-1", "0x1.3c14bb56c450cp+0"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 2}, "0x1.cd6370e8a067fp-1", "0x1.3c19211a69121p+0"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 4}, "0x1.712c59fb1e18ep-1", "0x1.9e6a827c4dfd3p+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 3}, "0x1.712be48a58b3fp-1", "0x1.9e6dcc8a3b0b5p+1"),
    (FlowEventKind.BECAME_HYPERIDEAL_ONLY, {}, "0x1.6c0d2c386d2edp-1", "0x1.b20e443f857a2p+1"),
]
PYRAMID4_951_SAMPLES = [
    "0x1.3e363d56a4aaap-3", "0x1.40f21d5d0fd0ap-1", "0x1.22dbcddff209fp+0",
    "0x1.3c14bb56c450cp+0", "0x1.3c19211a69121p+0", "0x1.108f0ac7229fep+1",
    "0x1.9e13c6bdd5d58p+1", "0x1.9e6a827c4dfd3p+1", "0x1.9e6dcc8a3b0b5p+1",
    "0x1.b20e443f857a2p+1", "0x1.7c9e46e71e58ep+2", "0x1.81482c9dce498p+2",
]
PYRAMID4_951_SUP = "0x1.81799963518c8p+2"


def test_flow_pyramid4_951_is_pinned_bit_for_bit():
    trace = run_flow(jittered_compact(pyramid_graph(4), np.random.default_rng(951)),
                     FlowOptions(seed=951))
    assert flow_pins(trace) == (PYRAMID4_951_EVENTS, PYRAMID4_951_SAMPLES, PYRAMID4_951_SUP)


def test_flow_degenerate_bracket_keeps_the_trace_with_fewer_solves(monkeypatch):
    # In the tetrahedron flow from jittered_compact(g, default_rng(951)) with
    # seed 951, vertex 0 is already inside the ideal band at the event state of
    # vertex 3, so the next bracket's accepted end signals.  Stepping DT_MIN at
    # once from there gives the trace that bisecting such a bracket gives, bit
    # for bit, without the signaled bisection trials (14 solves).
    import polyvol.flow as flow

    def run(bisect):
        solve, step, solves, degenerate = flow.solve_plane_system, flow._bracket_step, [], []

        def bracket_step(width, gap_lo, gap_hi):
            if gap_lo is not None and gap_lo > 0:
                degenerate.append(width)
                if bisect:
                    return flow.DT_MIN * max(1, math.floor(0.5 * width / flow.DT_MIN))
            return step(width, gap_lo, gap_hi)

        monkeypatch.setattr(flow, "solve_plane_system",
                            lambda *args, **kwargs: solves.append(None) or solve(*args, **kwargs))
        monkeypatch.setattr(flow, "_bracket_step", bracket_step)
        trace = run_flow(jittered_compact(tetrahedron_graph(), np.random.default_rng(951)),
                         FlowOptions(seed=951))
        monkeypatch.undo()
        return trace, len(solves), degenerate

    stepped, stepped_solves, degenerate = run(bisect=False)
    bisected, bisected_solves, _ = run(bisect=True)
    assert len(degenerate) == 1
    assert flow_pins(stepped) == flow_pins(bisected)
    assert [e.kind for e in stepped.events][:2] == [FlowEventKind.VERTEX_BECAME_IDEAL] * 2
    assert stepped_solves <= bisected_solves - 14


# The flow from jittered_compact(cube_graph(), default_rng(951)) with seed 951,
# the slowest op of the bench's flow workload, each crossing of the sphere
# followed on the path: its pins (flow_pins), the same with 1 and 2 OpenBLAS
# threads.  Each of the 8 vertices crosses once, sup lies 4.2e-8 relative above
# rect(final), and no sample volume is below the one before it.
CUBE_951_EVENTS = [
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 1}, "0x1.b52f463ea8b23p-1", "0x1.09a03036f6972p+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 3}, "0x1.b52ebcabed593p-1", "0x1.09a588ddcb4bap+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 4}, "0x1.b52e97c2ffc48p-1", "0x1.09a7006721d4ap+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 0}, "0x1.aa7cdda13066fp-1", "0x1.45ada16c7c3c2p+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 2}, "0x1.48149e1cb6194p-1", "0x1.83a0db3bd04a5p+2"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 5}, "0x1.48146f22cd8a8p-1", "0x1.83a1ef6878418p+2"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 7}, "0x1.48137d8b4619fp-1", "0x1.83a79f1468be4p+2"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 6}, "0x1.b043ebe81b071p-2", "0x1.33a091dfffb64p+3"),
    (FlowEventKind.BECAME_HYPERIDEAL_ONLY, {}, "0x1.a6067b4443fcdp-2", "0x1.3913373c8bd1ap+3"),
]
CUBE_951_SAMPLES = [
    "0x1.15e7f9fa72f53p-2", "0x1.42a947ebe8f3ep+0", "0x1.09a03036f6972p+1",
    "0x1.09a588ddcb4bap+1", "0x1.09a7006721d4ap+1", "0x1.4311902be4dcbp+1",
    "0x1.45ada16c7c3c2p+1", "0x1.f78fdb8ca41a3p+1", "0x1.6f01a51479926p+2",
    "0x1.83a0db3bd04a5p+2", "0x1.83a1ef6878418p+2", "0x1.83a79f1468be4p+2",
    "0x1.c71f947db282bp+2", "0x1.13ad39ea84bc1p+3", "0x1.33a091dfffb64p+3",
    "0x1.3913373c8bd1ap+3", "0x1.447b173d5e2f8p+3", "0x1.8160e524ca4eep+3",
]
CUBE_951_SUP = "0x1.817997101ffe0p+3"


def test_flow_cube_951_is_pinned_bit_for_bit():
    trace = run_flow(jittered_compact(cube_graph(), np.random.default_rng(951)),
                     FlowOptions(seed=951))
    assert flow_pins(trace) == (CUBE_951_EVENTS, CUBE_951_SAMPLES, CUBE_951_SUP)


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

    make, crossed, sup, halving_solves = HALVING_FLOWS[name]
    solve, iterations = flow.solve_plane_system, []

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        iterations.append(result[2].iterations)
        return result

    monkeypatch.setattr(flow, "solve_plane_system", counted)
    trace = run_flow(jittered_compact(make(), np.random.default_rng(951)), FlowOptions(seed=951))
    assert [(e.kind, e.data) for e in trace.events] == (
        [(FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": v}) for v in crossed]
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
# jittered_compact(g, default_rng(951)) with seed 951, each crossing of the
# sphere followed on the path.  They all come before the all-hyperideal
# endgame, so its stride does not move them.
TETRAHEDRON_951_EVENTS = [
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 3}, "0x1.cf1c53f39d1b3p-1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 0}, "0x1.cf1c50989ec7ep-1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 1}, "0x1.cf1c3265add9dp-1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 2}, "0x1.cf1c0a21c1f1cp-1"),
    (FlowEventKind.BECAME_HYPERIDEAL_ONLY, {}, "0x1.c9fd51cfd66cap-1"),
]


# The hex volume of each sample and sup_estimate.hex() of that flow, the same
# with 1 and 2 OpenBLAS threads.  Each of the 4 vertices crosses once, sup
# lies 4.2e-9 relative above rect(final), and no sample volume is below the
# one before it.
TETRAHEDRON_951_SAMPLES = [
    "0x1.72beac4d7a1e7p-3", "0x1.03c564ef03ebbp+0", "0x1.03c5a842bd1ebp+0",
    "0x1.03c5ebb5ffa0dp+0", "0x1.03c850ca0df82p+0", "0x1.03cb96c20b131p+0",
    "0x1.2f9200da1a62bp+0", "0x1.b95d4095f2d50p+1", "0x1.d4ee78b8ae146p+1",
]
TETRAHEDRON_951_SUP = "0x1.d4f9715fefe3cp+1"


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


def almost_proper_tetrahedron():
    """Vertex 0 on the polar plane of the hyperideal vertex 1, the others real."""
    g = tetrahedron_graph()
    verts = np.array([[1 / 1.5, 0.0, 0.3], [1.5, 0.0, 0.0],
                      [-0.5, 0.55, -0.3], [-0.5, -0.55, -0.3]])
    return build_polyhedron(planes_from_vertices(verts, g), g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flow_almost_proper_seed_stalls_known_failure(seed):
    # Known failure: vertex 0 starts on the polar plane of vertex 1, so the
    # flow holds that incidence.  Once vertices 3 and 2 have crossed the
    # sphere, vertex 0 reaches it and no escape translation takes it out of
    # the ball.
    # A fix makes this flow run through; then this test must expect success.
    P = almost_proper_tetrahedron()
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


def test_flow_escape_failure_carries_the_samples_before_it(monkeypatch):
    # The almost-proper tetrahedron of the known-failure test above: vertices 3
    # and 2 cross the sphere on the path, with no escape, and then vertex 0
    # reaches it while held on the polar plane of vertex 1.  With every escape
    # failing, the error leaves with the flow's samples up to that vertex's
    # event sample, bit for bit, and the two crossings before it.
    import polyvol.flow as flow

    P = almost_proper_tetrahedron()
    with pytest.raises(StallDetected) as info:
        run_flow(P, FlowOptions(seed=1))
    full = info.value.trace
    escaped = []

    def no_escape(P, v, **kwargs):
        escaped.append((v, kwargs))
        raise NoSeparatingPlane(f"forced for vertex {v}")

    monkeypatch.setattr(flow, "escape_deformation", no_escape)
    with pytest.raises(NoSeparatingPlane) as info:
        run_flow(P, FlowOptions(seed=1))
    trace = info.value.trace
    assert escaped == [(0, {"almost_pole": 1})]
    assert [(e.kind, e.data) for e in trace.events] == [
        (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 3}),
        (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 2})]
    assert trace.samples[-1].event == FlowEventKind.VERTEX_BECAME_IDEAL
    assert ([(s.t, s.volume.value, s.event) for s in trace.samples]
            == [(s.t, s.volume.value, s.event) for s in full.samples])
    assert trace.events == full.events


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
        P, exhausted = held_near_sphere(), NoSeparatingPlane
        deform = lambda: escape_deformation(P, 0, almost_pole=1)
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
    # Known failure: a tetrahedron with one to three vertices just hyperideal
    # (|x| - 1 = 2e-5) and the others just inside the ideal band (|x| = 1 -
    # 1e-5), the regular tetrahedron's directions.  Moving the interior point of
    # the orthoscheme decomposition by 0.01 along an axis moves the volume by
    # 3.8e-5 to 1.3e-4, though the exact value does not depend on that point and
    # the estimates are 3.6e-11 to 6e-11.  With every vertex still real the
    # spread is under 1e-12.  A fix makes the spread stay within the estimate;
    # then this test must expect that.
    g = tetrahedron_graph()
    directions = regular_tetrahedron(0.55).vertex_charts / 0.55

    def spread(radii):
        P = build_polyhedron(planes_from_vertices(directions * np.array(radii)[:, None], g), g)
        center, polygons = _truncation_region(truncate(P))
        value, _ = _orthoscheme_decomposition(center, polygons)
        volume = polyhedron_volume(P)
        assert value == volume.value
        moved = max(abs(_orthoscheme_decomposition(center + 0.01 * axis, polygons)[0] - value)
                    for axis in np.eye(3))
        return P, moved, volume.error_estimate

    for past in (1, 2, 3):
        P, moved, error = spread([1 + 2e-5] * past + [1 - 1e-5] * (4 - past))
        assert P.kinds == (PointKind.HYPERIDEAL,) * past + (PointKind.REAL,) * (4 - past)
        assert moved > 1000 * error
    _, moved, error = spread([1 - 1e-5] * 4)
    assert moved < 1e-12


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
