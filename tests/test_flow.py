import functools
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
    realize_continuation,
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


def continuation_steps(monkeypatch, P, target, fails):
    """The lambda of each solve of ``realize_continuation(g, target, P)``, and its result.

    ``fails(k)`` tells whether solve k (from 0) raises instead of solving,
    by turns NewtonDiverged and SkeletonChanged, the two failures a shorter
    step retries; the result is None when the continuation raises.
    """
    import polyvol.flow as flow

    g, start = P.skeleton, dihedral_angles(P)
    e = max(g.edges, key=lambda e: abs(target[e] - start[e]))
    lams, realize = [], flow.realize_from_angles

    def solve(g_, th, P_, **kwargs):
        lams.append((th[e] - start[e]) / (target[e] - start[e]))
        if fails(len(lams) - 1):
            raise (NewtonDiverged, SkeletonChanged)[len(lams) % 2]("synthetic failure")
        return realize(g_, th, P_, **kwargs)

    monkeypatch.setattr(flow, "realize_from_angles", solve)
    try:
        return lams, realize_continuation(g, target, P)
    except (NewtonDiverged, SkeletonChanged):
        return lams, None


def test_realize_continuation_halves_a_failed_step(hyperideal_tetra, monkeypatch):
    # The first step, to lambda = 0.5, fails: it retries at 0.25, then grows
    # the step by 1.6 to 0.65 and reaches the target at 1.
    target = {e: 0.6 * a for e, a in dihedral_angles(hyperideal_tetra).items()}
    lams, P = continuation_steps(monkeypatch, hyperideal_tetra, target, lambda k: k == 0)
    assert lams == pytest.approx([0.5, 0.25, 0.65, 1.0], abs=1e-12)
    reached = dihedral_angles(P)
    assert max(abs(reached[e] - target[e]) for e in target) < 1e-8


def test_realize_continuation_gives_up_below_a_thousandth(hyperideal_tetra, monkeypatch):
    # Every solve fails: the step halves from 0.5 until it would drop below
    # 1e-3, and the ninth failure, at 0.5 / 2**8, is raised.
    target = {e: 0.6 * a for e, a in dihedral_angles(hyperideal_tetra).items()}
    lams, P = continuation_steps(monkeypatch, hyperideal_tetra, target, lambda k: True)
    assert P is None
    assert lams == pytest.approx([0.5 / 2 ** k for k in range(9)], abs=1e-12)


def test_flow_rejects_an_improper_seed():
    g = tetrahedron_graph()
    pts = np.array([[2.0, 0, 0], [0.6, 0.3, 0], [0.2, -0.5, 0.3], [0, 0, -0.4]])
    with pytest.raises(ImproperInput) as exc:
        run_flow(build_polyhedron(planes_from_vertices(pts, g), g))
    assert str(exc.value) == "ImproperInput: flow needs a proper starting polyhedron"


# --- nudge -----------------------------------------------------------------------

def test_nudge_ideal_tetrahedron(monkeypatch):
    monkeypatch.setattr("polyvol.flow.NUDGE_DELTA", 1e-4)
    P = regular_tetrahedron(1.0)
    v0 = polyhedron_volume(P).value
    Q = nudge_ideal_vertices(P)
    kinds = classify_vertices(Q).kinds
    assert all(k == PointKind.HYPERIDEAL for k in kinds)
    v1 = polyhedron_volume(Q).value
    assert abs(v1 - v0) < 1e-2


def test_nudge_requires_ideal():
    with pytest.raises(NoIdealVertices):
        nudge_ideal_vertices(regular_tetrahedron(0.5))


def test_nudge_adaptive_delta(monkeypatch):
    # a large first delta must be halved into an admissible one
    monkeypatch.setattr("polyvol.flow.NUDGE_DELTA", 0.5)
    P = regular_tetrahedron(1.0)
    Q = nudge_ideal_vertices(P)
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


def test_escape_zero_translation_is_identity(monkeypatch):
    # translation magnitude scales with the distance to the sphere; a
    # vertex already near it moves by an amount of that order
    monkeypatch.setattr("polyvol.flow.ESCAPE_DELTA", 1e-6)
    P = held_near_sphere()
    Q = escape_deformation(P, 0, almost_pole=1)
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
    monkeypatch.setattr(flow, "_volume_or_region", evaluation(flow._volume_or_region))
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


@pytest.mark.parametrize("make", [lambda: pyramid_graph(4), cube_graph], ids=["pyramid4", "cube"])
def test_flow_samples_each_state_once(make, monkeypatch):
    # At seed 6 the pyramid's endgame stops on the state its last SAMPLE_EVERY
    # step sampled, and the cube becomes all-hyperideal on such a state.  Each
    # state is one row, measured once: the onset's event goes on the state's
    # row, the stop adds none, and events and sup read the volume of that row.
    import polyvol.flow as flow

    measured, volume = [], flow._volume_or_region
    monkeypatch.setattr(flow, "_volume_or_region", lambda P: measured.append(P) or volume(P))
    trace = run_flow(jittered_compact(make(), np.random.default_rng(6)), FlowOptions(seed=6))
    samples = trace.samples
    assert all(a.polyhedron is not b.polyhedron for a, b in zip(samples, samples[1:]))
    assert len(measured) == len(samples)
    assert all(s.polyhedron is P for s, P in zip(samples, measured))
    rows = [s for s in samples if s.event is not None]
    assert [(s.event, s.t, s.volume.value) for s in rows] == [
        (e.kind, e.t_value, e.volume_at_event) for e in trace.events]
    assert rows[-1].event == FlowEventKind.BECAME_HYPERIDEAL_ONLY
    last = samples[-1].volume
    assert (trace.sup_estimate - trace.sup_error
            == pytest.approx(last.value - last.error_estimate, rel=1e-15))


def volume_rows(trace):
    """``(method, value.hex(), error_estimate.hex())`` of each sample's volume."""
    return [(s.volume.method, s.volume.value.hex(), s.volume.error_estimate.hex())
            for s in trace.samples]


def test_flow_volumes_are_flushed_before_the_trace_leaves(monkeypatch):
    # Sample volumes are measured in batches, one kernel call per flush.  No
    # trace leaves run_flow with a volume missing: not on success (the cube at
    # seed 951) nor on an error (the almost-proper tetrahedron at seed 1, which
    # stalls in the tangent edge regime before its endgame, so the flush as
    # its loop ends measures every sample at once).  Each volume is what
    # polyhedron_volume gives the sample's state alone, bit for bit, and each
    # event reads its own row's.
    import polyvol.flow as flow

    batches, measure = [], flow._orthoscheme_volumes
    monkeypatch.setattr(flow, "_orthoscheme_volumes",
                        lambda regions: batches.append(len(regions)) or measure(regions))
    done = run_flow(jittered_compact(cube_graph(), np.random.default_rng(951)), FlowOptions(seed=951))
    cube_batches = len(batches)
    with pytest.raises(StallDetected, match="tangent edge regime") as info:
        run_flow(almost_proper_tetrahedron(), FlowOptions(seed=1))
    failed = info.value.trace
    # The cube's 16 samples up to its all-hyperideal onset in one call at the
    # endgame's first stop test, then its one endgame sample at the stop.
    assert batches[:cube_batches] == [16, 1] and len(done.samples) == 17
    assert batches[cube_batches:] == [len(failed.samples)]
    for trace in (done, failed):
        assert volume_rows(trace) == [
            (v.method, v.value.hex(), v.error_estimate.hex())
            for v in (polyhedron_volume(s.polyhedron) for s in trace.samples)]
        rows = [s for s in trace.samples if s.event is not None]
        assert [(e.kind, e.t_value, e.volume_at_event.hex()) for e in trace.events] == [
            (s.event, s.t, s.volume.value.hex()) for s in rows[:len(trace.events)]]
    assert len(failed.events) == 2 and len(rows) == 3  # the stall has a row but no event


@functools.cache
def bench_flow_traces(seed):
    """The traces of the four flows of the bench's flow workload at this seed."""
    rng = np.random.default_rng(seed)
    starts = [jittered_compact(g, rng) for g in (tetrahedron_graph(), pyramid_graph(4), cube_graph())]
    starts.append(random_hyperideal(prism_graph(3), rng))
    return [run_flow(P0, FlowOptions(seed=seed)) for P0 in starts]


@pytest.mark.parametrize("seed", [951, 911, 17, 4242])
def test_bench_flows_lose_no_volume(seed):
    # The four flows of the bench's flow workload at this seed: each sample's
    # volume is at least the one before it less their two error estimates and
    # EVENT_SLACK, and sup lies within 1e-6 relative of rect(final).
    import polyvol.flow as flow

    for trace in bench_flow_traces(seed):
        vals = [(s.volume.value, s.volume.error_estimate) for s in trace.samples]
        for (v1, e1), (v2, e2) in zip(vals, vals[1:]):
            assert v2 - v1 >= -(e1 + e2 + flow.EVENT_SLACK), (v1, v2)
        target = rectification_volume(trace.final_skeleton).value
        assert abs(trace.sup_estimate - target) <= 1e-6 * target


@pytest.mark.parametrize("seed", [951, 911, 17, 4242])
def test_bench_flow_crossings_are_located_in_the_window(seed):
    # No vertex of these flows is held on a polar plane, so each crossing of
    # the sphere is located in the window: at its event state the vertex lies
    # in the outer half of the ideal band, 1 - IDEAL_BAND < |x| <= 1 - IDEAL_BAND / 2.
    import polyvol.flow as flow

    crossings = 0
    for trace in bench_flow_traces(seed):
        rows = [s for s in trace.samples if s.event is not None]
        assert [s.event for s in rows] == [e.kind for e in trace.events]
        for row, event in zip(rows, trace.events):
            if event.kind == FlowEventKind.VERTEX_BECAME_IDEAL:
                crossings += 1
                radius = np.linalg.norm(row.polyhedron.vertex_charts[event.data["vertex"]])
                assert 1 - flow.IDEAL_BAND < radius <= 1 - 0.5 * flow.IDEAL_BAND, (event, radius)
    assert crossings >= 12


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


def test_flow_prism5_edge_collapse_reaches_collapsed_rectification():
    # From this compact pentagonal prism edge 7-8 collapses, and the flow
    # goes on from the rewritten skeleton to its rectification volume.
    g = prism_graph(5)
    trace = run_flow(jittered_compact(g, np.random.default_rng(29)), FlowOptions(seed=29))
    collapses = [e for e in trace.events if e.kind in (FlowEventKind.EDGE_COLLAPSED,
                                                       FlowEventKind.FACE_COLLAPSED)]
    assert [(e.kind, e.data) for e in collapses] == [
        (FlowEventKind.EDGE_COLLAPSED, {"edge": (7, 8)})]
    assert (replay(g, trace.events).canonical_hash()
            == trace.final_skeleton.canonical_hash())
    final = rectification_volume(trace.final_skeleton).value
    assert final <= rectification_volume(g).value
    assert abs(trace.sup_estimate - final) <= 1e-6 * final


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


def synthetic_gap_trials(monkeypatch, P0, gap, signal=(FlowEventKind.EDGE_COLLAPSED, (0, 1))):
    """The trial t values of a flow from P0 whose one signal has the gap ``gap(t)``.

    The default signal is an edge collapse of K4, which leaves no polyhedral
    skeleton, so the flow stalls right where it fires.  A crossing of the
    sphere by vertex v, ``(VERTEX_BECAME_IDEAL, v)``, has that gap as v's
    radius gap, and the flow stalls at the first scan from its event state.
    Returns the trials and that StallDetected.
    """
    import polyvol.flow as flow

    kind, data = signal
    trials, t_of = [], {}
    realize, scaled = flow.realize_from_angles, flow._scaled

    def realize_at(*args, **kwargs):
        P = realize(*args, **kwargs)
        t_of[id(P)] = trials[-1]
        return P

    def synthetic_scan(P, prev, held, exempt=(), relaxed=False):
        if kind == FlowEventKind.VERTEX_BECAME_IDEAL and gap(t_of[id(prev)]) > 0:
            raise StallDetected("the synthetic crossing is recorded")
        value = gap(t_of[id(P)])
        radius = np.full(P.skeleton.n_vertices, -1.0)
        if kind == FlowEventKind.VERTEX_BECAME_IDEAL:
            radius[data] = value
        gaps = flow._Gaps(np.array([value]), ((kind, [data]),), radius)
        return [(kind, data, 0.0)] if value > 0 and not relaxed else [], gaps

    monkeypatch.setattr(flow, "_scaled", lambda theta, t: trials.append(t) or scaled(theta, t))
    monkeypatch.setattr(flow, "realize_from_angles", realize_at)
    monkeypatch.setattr(flow, "_scan_signals", synthetic_scan)
    with pytest.raises(StallDetected) as info:
        run_flow(P0, FlowOptions(seed=21))
    return trials, info.value


def located_on_the_dt_min_grid(trials, t_cross, error, kind=FlowEventKind.EDGE_COLLAPSED):
    """The trials after the first signaled one, checked against the DT_MIN grid.

    Each trial is a whole number of DT_MIN below the current t, and the event
    of ``kind`` fires on a signaled step of DT_MIN from an accepted,
    unsignaled state.
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
    assert (event.event, event.t) == (kind, located[-1])
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


def test_flow_stalls_on_a_non_adjacent_almost_proper_onset(monkeypatch):
    # A synthetic almost-proper gap of base vertices 1 and 3 of the square
    # pyramid, which share no edge: the onset is located like any event,
    # sampled, and then stops the flow as out of scope.
    g = pyramid_graph(4)
    assert (1, 3) not in g.edge_index
    T_CROSS, RATE = 0.99371234567, 3.0
    trials, error = synthetic_gap_trials(monkeypatch, compact_realization(g),
                                         lambda t: RATE * (T_CROSS - t),
                                         (FlowEventKind.ALMOST_PROPER_ONSET, (1, 3)))
    assert error.detail == "non-adjacent almost-proper contact is out of scope"
    located_on_the_dt_min_grid(trials, T_CROSS, error, FlowEventKind.ALMOST_PROPER_ONSET)
    assert not error.trace.events


def test_flow_narrows_a_bracket_past_a_failed_solve(compact_tetra, monkeypatch):
    # The linear gap above, with the solve of the first trial inside the
    # bracket failing.  That trial becomes the bracket's far end, with no
    # signal and no gap, so the next trial bisects; the event still fires
    # on the DT_MIN grid.
    import polyvol.flow as flow

    T_CROSS, RATE = 0.99371234567, 3.0
    realize, calls = flow.realize_from_angles, []

    def fail_third(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise NewtonDiverged("synthetic failure inside the bracket")
        return realize(*args, **kwargs)

    monkeypatch.setattr(flow, "realize_from_angles", fail_third)
    trials, error = synthetic_gap_trials(monkeypatch, compact_tetra,
                                         lambda t: RATE * (T_CROSS - t))
    failed = trials.pop(2)
    assert trials[1] < T_CROSS <= failed < 1.0
    bisected = 1.0 - flow.DT_MIN * math.floor(0.5 * (1.0 - failed) / flow.DT_MIN)
    assert trials[2] == pytest.approx(bisected, abs=1e-12)
    located_on_the_dt_min_grid(trials, T_CROSS, error)


def located_in_the_window(trials, gap, error):
    """The trials up to the crossing's event state, checked against the window.

    The event state is the first trial whose gap lies in (0, IDEAL_BAND / 2];
    the one trial after it is the scan that stops the synthetic flow.  Each
    trial after the first two accepted ones is a whole number of DT_MIN below
    the accepted state before it.
    """
    import polyvol.flow as flow

    event = error.trace.samples[-1]
    assert (event.event, event.t) == (FlowEventKind.VERTEX_BECAME_IDEAL, trials[-2])
    assert 0 < gap(event.t) <= 0.5 * flow.IDEAL_BAND
    current = trials[2]
    for t in trials[3:-1]:
        steps = (current - t) / flow.DT_MIN
        assert round(steps) >= 1 and abs(steps - round(steps)) < 1e-6
        if gap(t) <= 0:
            current = t
    return trials[:-1]


def test_flow_aims_a_crossing_into_the_window(compact_tetra, monkeypatch):
    # A synthetic radius gap of vertex 0, linear in t, crosses zero at T_CROSS.
    # From two accepted states the secant aims the step at IDEAL_BAND / 4 into
    # the band, and that trial is the event state: no trial signals before it,
    # and no bracket follows.
    import polyvol.flow as flow

    T_CROSS, RATE = 0.97012345678, 0.5
    gap = lambda t: RATE * (T_CROSS - t)
    trials, error = synthetic_gap_trials(monkeypatch, compact_tetra, gap,
                                         (FlowEventKind.VERTEX_BECAME_IDEAL, 0))
    located = located_in_the_window(trials, gap, error)
    assert [gap(t) > 0 for t in located] == [False, False, False, True]
    assert gap(located[-1]) == pytest.approx(0.25 * flow.IDEAL_BAND, abs=RATE * flow.DT_MIN)


def test_flow_brackets_a_crossing_that_overshoots_the_window(compact_tetra, monkeypatch):
    # The same crossing with a convex gap: the secant falls short of the
    # curve, so the aimed step overshoots the window.  That trial brackets,
    # and the bracket's secants, aimed at the same point, place the event
    # two trials later.
    import polyvol.flow as flow

    T_CROSS, RATE, CURVATURE = 0.97012345678, 0.5, 3.0
    gap = lambda t: RATE * (T_CROSS - t) + CURVATURE * (T_CROSS - t) ** 2
    trials, error = synthetic_gap_trials(monkeypatch, compact_tetra, gap,
                                         (FlowEventKind.VERTEX_BECAME_IDEAL, 0))
    located = located_in_the_window(trials, gap, error)
    overshoot = next(i for i, t in enumerate(located) if gap(t) > 0)
    assert gap(located[overshoot]) > 0.5 * flow.IDEAL_BAND
    assert len(located) - overshoot - 1 == 2


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
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 0}, "0x1.e51cce6cdffd3p-1", "0x1.40f2cd47492bap-1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 1}, "0x1.cd638bc09302ap-1", "0x1.3c17c3588fbbep+0"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 2}, "0x1.cd6348a4b47fdp-1", "0x1.3c1b34c3092c8p+0"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 4}, "0x1.712c09734648ap-1", "0x1.9e6cc0dea5109p+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 3}, "0x1.712baeda737e6p-1", "0x1.9e6f582730c56p+1"),
    (FlowEventKind.BECAME_HYPERIDEAL_ONLY, {}, "0x1.6c0cf68887f94p-1", "0x1.b20ef3f2f7e7bp+1"),
]
PYRAMID4_951_SAMPLES = [
    "0x1.3e363d56a4aaap-3", "0x1.40f2cd47492bap-1", "0x1.22dbfc6b16486p+0",
    "0x1.3c17c3588fbbep+0", "0x1.3c1b34c3092c8p+0", "0x1.108f6de118a52p+1",
    "0x1.9d4eab36b4f49p+1", "0x1.9e6cc0dea5109p+1", "0x1.9e6f582730c56p+1",
    "0x1.b20ef3f2f7e7bp+1", "0x1.81482ce84ec18p+2",
]
PYRAMID4_951_SUP = "0x1.8179996347695p+2"


def test_flow_pyramid4_951_is_pinned_bit_for_bit():
    trace = run_flow(jittered_compact(pyramid_graph(4), np.random.default_rng(951)),
                     FlowOptions(seed=951))
    assert flow_pins(trace) == (PYRAMID4_951_EVENTS, PYRAMID4_951_SAMPLES, PYRAMID4_951_SUP)


def test_flow_cluster_crossings_take_no_bracket_trial(monkeypatch):
    # In the tetrahedron flow from jittered_compact(g, default_rng(951)) with
    # seed 951, vertex 0 reaches the sphere under 1e-6 after vertex 3 in t, and
    # vertices 1 and 2 soon after.  Each step toward a crossing is aimed into
    # the window, and each event state is the first trial that signals, so no
    # trial of this flow is bracketed, vertex 0's included.
    import polyvol.flow as flow

    step, brackets = flow._bracket_step, []
    monkeypatch.setattr(flow, "_bracket_step", lambda *args: brackets.append(args) or step(*args))
    trace = run_flow(jittered_compact(tetrahedron_graph(), np.random.default_rng(951)),
                     FlowOptions(seed=951))
    (v3, t3), (v0, t0) = [(e.data["vertex"], e.t_value) for e in trace.events[:2]]
    assert (v3, v0) == (3, 0) and 0 < t3 - t0 < 1e-6
    assert brackets == []


# The flow from jittered_compact(cube_graph(), default_rng(951)) with seed 951,
# the slowest op of the bench's flow workload, each crossing of the sphere
# followed on the path: its pins (flow_pins), the same with 1 and 2 OpenBLAS
# threads.  Each of the 8 vertices crosses once, sup lies 4.2e-8 relative above
# rect(final), and no sample volume is below the one before it.
CUBE_951_EVENTS = [
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 1}, "0x1.b52eeba5d5e7fp-1", "0x1.09a3b092fe5bap+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 3}, "0x1.b52e86fc0823bp-1", "0x1.09a7ac9a171a6p+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 4}, "0x1.b52e656e18e24p-1", "0x1.09a9084709507p+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 0}, "0x1.aa7c972a53909p-1", "0x1.45af747ae54ffp+1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 2}, "0x1.48141489fac00p-1", "0x1.83a409a10c210p+2"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 5}, "0x1.4813efa10d2b4p-1", "0x1.83a4e74a3a09ap+2"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 7}, "0x1.4813371469437p-1", "0x1.83a956ef63a7ap+2"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 6}, "0x1.b0435efa615a2p-2", "0x1.33a10d036384fp+3"),
    (FlowEventKind.BECAME_HYPERIDEAL_ONLY, {}, "0x1.a605ee568a4fep-2", "0x1.3913796034828p+3"),
]
CUBE_951_SAMPLES = [
    "0x1.15e7f9fa72f53p-2", "0x1.42a947ebe8f3ep+0", "0x1.09a3b092fe5bap+1",
    "0x1.09a7ac9a171a6p+1", "0x1.09a9084709507p+1", "0x1.45af747ae54ffp+1",
    "0x1.5fa7d8e2db3a3p+1", "0x1.1b681604cfd21p+2", "0x1.83a409a10c210p+2",
    "0x1.83a4e74a3a09ap+2", "0x1.83a956ef63a7ap+2", "0x1.9504500905d89p+2",
    "0x1.01a97927c4126p+3", "0x1.2ec9b462020b6p+3", "0x1.33a10d036384fp+3",
    "0x1.3913796034828p+3", "0x1.8160e5781785ep+3",
]
CUBE_951_SUP = "0x1.8179971018c5fp+3"


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
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 3}, "0x1.cf1c3265add9cp-1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 0}, "0x1.cf1c2bafb1331p-1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 1}, "0x1.cf1c1432bcebbp-1"),
    (FlowEventKind.VERTEX_BECAME_IDEAL, {"vertex": 2}, "0x1.cf1bf95aca50fp-1"),
    (FlowEventKind.BECAME_HYPERIDEAL_ONLY, {}, "0x1.c9fd4108decbdp-1"),
]


# The hex volume of each sample and sup_estimate.hex() of that flow, the same
# with 1 and 2 OpenBLAS threads.  Each of the 4 vertices crosses once, sup
# lies 4.3e-9 relative above rect(final), and no sample volume is below the
# one before it.
TETRAHEDRON_951_SAMPLES = [
    "0x1.72beac4d7a1e7p-3", "0x1.01c9576714f59p+0", "0x1.03c850c9aca88p+0",
    "0x1.03c8daa6aecf2p+0", "0x1.03cac2a72f0dbp+0", "0x1.03ccfd0a46a29p+0",
    "0x1.2f92736cd35f6p+0", "0x1.d3e6ddda55a41p+1", "0x1.d4ee78baeb2c8p+1",
]
TETRAHEDRON_951_SUP = "0x1.d4f9715ff25a2p+1"


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
        [(value, _)] = _orthoscheme_decomposition([(center, polygons)])
        volume = polyhedron_volume(P)
        assert value == volume.value
        moved = max(abs(_orthoscheme_decomposition([(center + 0.01 * axis, polygons)])[0][0] - value)
                    for axis in np.eye(3))
        return P, moved, volume.error_estimate

    for past in (1, 2, 3):
        P, moved, error = spread([1 + 2e-5] * past + [1 - 1e-5] * (4 - past))
        assert P.kinds == (PointKind.HYPERIDEAL,) * past + (PointKind.REAL,) * (4 - past)
        assert moved > 1000 * error
    _, moved, error = spread([1 - 1e-5] * 4)
    assert moved < 1e-12


def test_volume_just_past_the_sphere_is_catastrophic_known_failure():
    # Known failure (ROADMAP item 12): the regular tetrahedron's directions,
    # vertices 1 to 3 at |x| = 1 - 1e-5 and vertex 0 at r0.  With vertex 0 just
    # inside the sphere (r0 = 1 - 4e-8) the orthoscheme volume is 1.0148166553;
    # just past it (r0 = 1 + 4e-8) it is -2.3620444602, with an error estimate
    # of 3.6e-11, where Klein quadrature gives 1.0148 within its estimate.  At
    # r0 = 1 + 1e-8 it reads 2.706, and at 1 + 1e-6, 1.00816.  With every
    # vertex real it moves by 4.1e-5 from r0 = 1 - 1e-5 to 1 - 4e-8.  A fix
    # makes the two sides of the sphere agree; then this test must expect that.
    from polyvol.volume import VolumeMethod

    g = tetrahedron_graph()
    directions = regular_tetrahedron(0.55).vertex_charts / 0.55

    def tetrahedron(r0):
        radii = np.array([r0, 1 - 1e-5, 1 - 1e-5, 1 - 1e-5])
        return build_polyhedron(planes_from_vertices(directions * radii[:, None], g), g)

    inside, past = tetrahedron(1 - 4e-8), tetrahedron(1 + 4e-8)
    assert inside.kinds[0] == PointKind.REAL and past.kinds[0] == PointKind.HYPERIDEAL
    real, before, after = (polyhedron_volume(P) for P in (tetrahedron(1 - 1e-5), inside, past))
    assert abs(before.value - real.value) <= 1e-4
    assert abs(after.value - before.value) > 1 > 1e6 * after.error_estimate
    klein = polyhedron_volume(past, method=VolumeMethod.KLEIN_QUADRATURE, tol=1e-3)
    assert abs(klein.value - before.value) <= klein.error_estimate


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


def test_flow_from_a_nudged_ideal_seed_reaches_v8():
    val = run_flow(nudge_ideal_vertices(regular_tetrahedron(1.0)), FlowOptions(seed=17)).sup_estimate
    assert abs(val - V8) / V8 < 0.01


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
