import dataclasses
import math

import numpy as np
import pytest

import polyvol.volume
from conftest import ALMOST_PROPER_PYRAMID, chart_plane, dihedral_angle, polar_plane
from polyvol.core import (
    OrientedPlane,
    PointKind,
    _unit_rows,
    apply_lorentz,
    classify_points,
    lift,
    mdot,
    random_isometry,
)
from polyvol.errors import (
    AngleOutOfRange,
    BadFormat,
    EdgeMissesBall,
    ImproperInput,
    NonConvex,
    PolyvolError,
    SkeletonMismatch,
    TooFewAngles,
    TruncationDegenerate,
)
from polyvol.flow import FlowOptions, run_flow
from polyvol.graphs import _norm_edge, cube_graph, prism_graph, pyramid_graph, tetrahedron_graph
from polyvol.polyhedron import (
    MERGE_TOL,
    VertexStatus,
    _assert_truncation_invariants,
    _invariant_pairs,
    build_polyhedron,
    classify_vertex_by_angles,
    classify_vertices,
    dihedral_angles,
    edge_lengths,
    format_polyhedron,
    parse_polyhedron,
    strip_truncation,
    truncate,
)
from polyvol.rectify import rectification
from polyvol.shapes import (
    equiangular_hyperideal,
    jittered_compact,
    planes_from_vertices,
    regular_tetrahedron,
)


# --- construction ------------------------------------------------------------

def test_build_compact_regular_tetrahedron(compact_tetra):
    P = compact_tetra
    assert len(P.planes) == 4
    np.testing.assert_allclose(np.linalg.norm(P.vertex_charts, axis=1), 0.55,
                               atol=1e-10)
    rep = classify_vertices(P)
    assert all(k == PointKind.REAL for k in rep.kinds)
    assert rep.overall == VertexStatus.PROPER


def test_build_hyperideal_regular_tetrahedron(hyperideal_tetra):
    rep = classify_vertices(hyperideal_tetra)
    assert all(k == PointKind.HYPERIDEAL for k in rep.kinds)
    assert rep.overall == VertexStatus.PROPER


def test_regular_tetrahedron_edge_condition():
    # Edges of the radius-R regular tetrahedron meet the ball iff R < sqrt(3);
    # the nominal "radius 2" hyperideal example violates the definition.
    with pytest.raises(EdgeMissesBall):
        regular_tetrahedron(2.0)


def test_build_plane_count_mismatch(compact_tetra):
    with pytest.raises(SkeletonMismatch):
        build_polyhedron(compact_tetra.planes[:3], compact_tetra.skeleton)


def test_build_detects_nonconvex(compact_tetra):
    planes = list(compact_tetra.planes)
    planes[0] = OrientedPlane(normal=-planes[0].normal)  # the other half-space
    with pytest.raises((NonConvex, SkeletonMismatch)):
        build_polyhedron(tuple(planes), compact_tetra.skeleton)


def test_build_detects_extra_intersections():
    # A 5-plane tuple whose fifth plane slices through the tetrahedron makes
    # the K4-with-extra-face skeleton unrealizable.
    P = regular_tetrahedron(0.6)
    g5 = pyramid_graph(4)
    planes = P.planes + (chart_plane([0, 0, 1], 0.05),)
    with pytest.raises(SkeletonMismatch):
        build_polyhedron(planes, g5)


def test_build_rejects_face_collapsed_to_a_point():
    # A triangular prism whose lateral planes and top plane all pass
    # through the apex (0, 0, 0.3): the top face is a single point, so each
    # top vertex also lies on the lateral face it is not incident to.
    g = prism_graph(3)
    ang = 2 * math.pi * np.arange(3) / 3
    bottom = np.stack([0.4 * np.cos(ang), 0.4 * np.sin(ang), np.full(3, -0.3)], axis=1)
    apex = np.array([0.0, 0.0, 0.3])
    frustum = np.vstack([bottom, 0.5 * (bottom + apex)])
    planes = list(planes_from_vertices(frustum, g))
    build_polyhedron(tuple(planes), g)
    top = g.faces.index((5, 4, 3))
    planes[top] = chart_plane([0, 0, 1], 0.3)
    with pytest.raises(SkeletonMismatch, match="does not put it on"):
        build_polyhedron(tuple(planes), g)


@pytest.mark.parametrize("make", [lambda: regular_tetrahedron(0.5),
                                  lambda: rectification(prism_graph(5))],
                         ids=["tetrahedron", "rectified_prism5"])
def test_plane_objects_build_as_the_normal_array(make, rng):
    # The benchmark rotates its inputs one plane object at a time and builds from
    # the tuple; that must give what the array form gives, bit for bit.
    P = make()
    assert all(plane.normal.tobytes() == row.tobytes() for plane, row in zip(P.planes, P.normals))
    L = np.eye(4)
    L[1:, 1:] = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    by_plane = build_polyhedron(tuple(apply_lorentz(L, p) for p in P.planes), P.skeleton,
                                rectified=P.rectified)
    by_array = build_polyhedron(_unit_rows((L @ P.normals[:, :, None])[..., 0]), P.skeleton,
                                rectified=P.rectified)
    assert by_plane.normals.tobytes() == by_array.normals.tobytes()
    assert by_plane.vertex_lifts.tobytes() == by_array.vertex_lifts.tobytes()


def test_build_rejects_vertex_planes_meeting_in_a_line():
    # The three faces at vertex 0 all contain the z-axis.
    g = tetrahedron_graph()
    planes = [chart_plane([0, 0, -1], 0.2)] * 4
    for k, f in enumerate(g.vertex_faces[0]):
        phi = 2 * math.pi * k / 3
        planes[f] = chart_plane([math.cos(phi), math.sin(phi), 0.0], 0.0)
    with pytest.raises(SkeletonMismatch, match="vertex 0 do not meet in a single point"):
        build_polyhedron(tuple(planes), g)


# --- classification ------------------------------------------------------------

def test_classify_vertex_by_angles_examples():
    assert classify_vertex_by_angles([math.pi / 2] * 3) == PointKind.REAL
    assert classify_vertex_by_angles([math.pi / 3] * 3) == PointKind.IDEAL
    assert classify_vertex_by_angles([math.pi / 6] * 3) == PointKind.HYPERIDEAL
    with pytest.raises(TooFewAngles):
        classify_vertex_by_angles([1.0, 1.0])


@pytest.mark.parametrize("bad", [0.0, -0.1, math.pi, 3.5])
def test_classify_vertex_by_angles_rejects_angles_outside_open_interval(bad):
    with pytest.raises(AngleOutOfRange, match=r"\(0, pi\)"):
        classify_vertex_by_angles([1.0, 1.0, bad])


def almost_proper_tetrahedron():
    g = tetrahedron_graph()
    v = np.array([2.0, 0.0, 0.0])
    w = np.array([0.5, 0.3, 0.0])      # exactly on the polar plane {x = 1/2}
    u = np.array([0.45, -0.3, 0.3])
    x = np.array([0.4, 0.0, -0.3])
    return build_polyhedron(planes_from_vertices(np.array([v, w, u, x]), g), g)


def test_almost_proper_witness():
    P = almost_proper_tetrahedron()
    rep = classify_vertices(P)
    assert rep.kinds[0] == PointKind.HYPERIDEAL
    assert rep.statuses[1] == VertexStatus.ALMOST_PROPER
    assert rep.witnesses[1] == 0
    assert rep.overall == VertexStatus.ALMOST_PROPER


def test_improper_detected():
    g = tetrahedron_graph()
    v = np.array([2.0, 0.0, 0.0])
    w = np.array([0.6, 0.3, 0.0])      # beyond the polar plane
    u = np.array([0.2, -0.5, 0.3])
    x = np.array([0.0, 0.0, -0.4])
    P = build_polyhedron(planes_from_vertices(np.array([v, w, u, x]), g), g)
    rep = classify_vertices(P)
    assert rep.overall == VertexStatus.IMPROPER
    with pytest.raises(ImproperInput):
        truncate(P)
    with pytest.raises(ImproperInput):
        edge_lengths(P)


@pytest.mark.parametrize("first", ["band", "kinds", "report"])
def test_kinds_and_report_keep_the_default_band(first):
    # On one object, whichever is read first: a band of 0.5 reads every vertex
    # at |x| = 0.55 as ideal, while the kinds and report cached on the
    # polyhedron keep the default band and read them real.
    P = regular_tetrahedron(0.55)
    reads = {"band": lambda: classify_vertices(P, 0.5), "kinds": lambda: P.kinds,
             "report": lambda: P.report}
    got = {name: reads[name]() for name in [first, *(n for n in reads if n != first)]}
    assert got["band"].kinds == (PointKind.IDEAL,) * 4
    assert got["kinds"] == got["report"].kinds == (PointKind.REAL,) * 4
    assert got["band"].overall == got["report"].overall == VertexStatus.PROPER


def test_angle_geometry_consistency(compact_tetra, hyperideal_tetra):
    for P in (compact_tetra, hyperideal_tetra, almost_proper_tetrahedron()):
        th = dihedral_angles(P)
        rep = classify_vertices(P, tol=1e-6)
        for v in range(P.skeleton.n_vertices):
            inc = [th[e] for e in P.skeleton.vertex_edges[v]]
            assert classify_vertex_by_angles(inc, tol=1e-6) == rep.kinds[v]


# --- angles and lengths -----------------------------------------------------------

def test_dihedral_angles_symmetry(compact_tetra):
    th = dihedral_angles(compact_tetra)
    vals = list(th.values())
    assert max(vals) - min(vals) < 1e-10
    # compact regular tetrahedra approach the Euclidean arccos(1/3) ~ 1.23
    small = dihedral_angles(regular_tetrahedron(0.05))
    assert abs(list(small.values())[0] - math.acos(1 / 3)) < 1e-3


def test_ideal_tetrahedron_angles():
    P = regular_tetrahedron(1.0)
    th = dihedral_angles(P)
    for a in th.values():
        assert abs(a - math.pi / 3) < 1e-9


def test_edge_lengths_compact(compact_tetra):
    lens = edge_lengths(compact_tetra)
    vals = list(lens.values())
    assert max(vals) - min(vals) < 1e-10
    assert vals[0] > 0


def test_edge_lengths_hyperideal_match_polar_distance(hyperideal_tetra):
    P = hyperideal_tetra
    lens = edge_lengths(P)
    for (u, v), length in lens.items():
        # Disjoint planes sit at distance acosh |<n_u, n_v>|.
        g = mdot(polar_plane(P.vertex_charts[u]).normal,
                 polar_plane(P.vertex_charts[v]).normal)
        assert abs(length - math.acosh(abs(g))) < 1e-9


def test_almost_proper_edge_has_zero_length():
    P = almost_proper_tetrahedron()
    lens = edge_lengths(P)
    assert lens[(0, 1)] == 0.0
    assert lens[(2, 3)] > 0


# --- truncation --------------------------------------------------------------------

def test_truncate_compact_is_identity(compact_tetra):
    T = truncate(compact_tetra)
    assert np.array_equal(T.normals, compact_tetra.normals)
    assert not any(T.truncation_flags)


def test_truncate_hyperideal_tetrahedron(hyperideal_tetra):
    T = truncate(hyperideal_tetra)
    assert len(T.planes) == 8
    assert sum(T.truncation_flags) == 4
    assert (T.skeleton.n_vertices, len(T.skeleton.edges), len(T.skeleton.faces)) \
        == (12, 18, 8)
    for e in T.skeleton.edges:
        f1, f2 = T.skeleton.edge_faces[e]
        if T.truncation_flags[f1] != T.truncation_flags[f2]:
            a = dihedral_angle(T.planes[f1], T.planes[f2])
            assert abs(a - math.pi / 2) < 1e-9
    # distinct truncation faces are disjoint (their planes are: |<n_i, n_j>| > 1)
    flags = [i for i, t in enumerate(T.truncation_flags) if t]
    for i in flags:
        for j in flags:
            if i < j:
                assert abs(mdot(T.planes[i].normal, T.planes[j].normal)) > 1


def test_truncation_idempotent_on_compact(compact_tetra):
    T = truncate(compact_tetra)
    P2 = build_polyhedron(T.planes, T.skeleton)
    T2 = truncate(P2)
    assert np.array_equal(T2.normals, T.normals)


def test_roundtrip_bit_identical(hyperideal_tetra):
    T = truncate(hyperideal_tetra)
    Q = strip_truncation(T)
    assert len(Q.planes) == len(hyperideal_tetra.planes)
    for a, b in zip(Q.planes, hyperideal_tetra.planes):
        assert np.array_equal(a.normal, b.normal)


def test_isometry_invariance_of_polyhedron_measurements(rng, hyperideal_tetra):
    P = hyperideal_tetra
    th = dihedral_angles(P)
    lens = edge_lengths(P)
    for _ in range(5):
        L = random_isometry(rng)
        planes2 = tuple(apply_lorentz(L, pl) for pl in P.planes)
        Q = build_polyhedron(planes2, P.skeleton)
        th2 = dihedral_angles(Q)
        lens2 = edge_lengths(Q)
        for e in P.skeleton.edges:
            assert abs(th[e] - th2[e]) < 1e-9
            assert abs(lens[e] - lens2[e]) < 1e-9


# --- text format ---------------------------------------------------------------------

def test_polyhedron_format_roundtrip(hyperideal_tetra):
    text = format_polyhedron(hyperideal_tetra)
    Q = parse_polyhedron(text)
    np.testing.assert_allclose(Q.vertex_lifts, hyperideal_tetra.vertex_lifts,
                               atol=1e-9)


@pytest.mark.parametrize("edit, detail", [
    (lambda lines: ["P 5"] + lines[1:], "polyhedron header does not match plane count"),
    (lambda lines: lines[:1] + lines[2:], "polyhedron header does not match plane count"),
    (lambda lines: lines[:1] + lines, "duplicate P line: 'P 4'"),
], ids=["count_above_N_lines", "missing_N_line", "repeated_P"])
def test_parse_polyhedron_checks_its_header(compact_tetra, edit, detail):
    lines = format_polyhedron(compact_tetra).splitlines()
    with pytest.raises(BadFormat) as exc:
        parse_polyhedron("\n".join(edit(lines)) + "\n")
    assert exc.value.detail == detail


# --- truncation against the all-pairs node pool -------------------------------------
#
# The earlier truncation walk, kept as the oracle: it computed each cut node
# on its own and merged it with the first node made so far that lay within
# MERGE_TOL, by a search over all of them.


def pool_truncate(P):
    """Face cycles and node lifts of P's truncation by the all-pairs node pool."""
    report = P.report
    if report.is_improper():
        raise ImproperInput("cannot truncate an improper polyhedron")
    g = P.skeleton
    hyper = [v for v, k in enumerate(report.kinds) if k == PointKind.HYPERIDEAL]
    if not hyper:
        return g.faces, P.vertex_lifts.copy()
    charts = P.vertex_charts
    coords, key_to_id = [], {}

    def add(key, coord):
        if key in key_to_id:
            return key_to_id[key]
        for i, c in enumerate(coords):
            if np.linalg.norm(c - coord) <= MERGE_TOL:
                key_to_id[key] = i
                return i
        coords.append(np.asarray(coord, dtype=float))
        key_to_id[key] = len(coords) - 1
        return len(coords) - 1

    def cut_node(edge, v):
        a, b = charts[edge[0] if edge[1] == v else edge[1]], charts[v]
        t = (1.0 - float(b @ a)) / float(b @ (b - a))
        return add(("c", edge, v), a + t * (b - a))

    def cycle(nodes):
        out = [nd for k, nd in enumerate(nodes) if k == 0 or nd != nodes[k - 1]]
        return out[:-1] if len(out) > 1 and out[0] == out[-1] else out

    faces = []
    for i, cyc in enumerate(g.faces):
        m = len(cyc)
        nodes = []
        for k, v in enumerate(cyc):
            if v not in hyper:
                nodes.append(add(("v", v), charts[v]))
            else:
                nodes.append(cut_node(_norm_edge(cyc[(k - 1) % m], v), v))
                nodes.append(cut_node(_norm_edge(v, cyc[(k + 1) % m]), v))
        dedup = cycle(nodes)
        if len(dedup) < 3 or len(set(dedup)) != len(dedup):
            raise TruncationDegenerate(f"face {i} degenerates under truncation")
        faces.append(tuple(dedup))
    for v in hyper:
        dedup = cycle([cut_node(e, v) for e in g.vertex_edges[v]])
        if len(dedup) < 3:
            raise TruncationDegenerate(f"truncation face at vertex {v} degenerates")
        faces.append(tuple(dedup))
    return tuple(faces), lift(np.array(coords))


def loop_truncation_invariants(T):
    """The earlier pair-by-pair check of ``_assert_truncation_invariants``."""
    for e in T.skeleton.edges:
        f1, f2 = T.skeleton.edge_faces[e]
        if T.truncation_flags[f1] != T.truncation_flags[f2]:
            gram = float(mdot(T.planes[f1].normal, T.planes[f2].normal))
            if abs(gram) > 1e-7:
                raise ImproperInput(
                    f"truncation edge {e} is not right-angled (gram {gram:.3g})")
    flagged = [i for i, t in enumerate(T.truncation_flags) if t]
    for a in range(len(flagged)):
        for b in range(a + 1, len(flagged)):
            gram = float(mdot(T.planes[flagged[a]].normal, T.planes[flagged[b]].normal))
            if abs(gram) < 1.0 - 1e-7:
                raise ImproperInput(f"truncation faces {flagged[a]}, {flagged[b]} overlap")


def outcome(fn, *args):
    """What fn returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except PolyvolError as exc:
        return type(exc), str(exc)


def assert_truncation_matches_pool(P):
    """Same faces and bit-identical lifts as the pool, or the same error."""
    want, got = outcome(pool_truncate, P), outcome(truncate, P)
    if isinstance(want[0], type):
        assert got == want
        return got
    faces, lifts = want
    assert got.skeleton.faces == faces
    np.testing.assert_array_equal(got.vertex_lifts, lifts)
    return got


def test_truncation_matches_pool_on_rectifications(corpus_graphs):
    # Every edge of a rectification touches the sphere, where the cuts of its
    # two ends meet: each edge's two ends merge into one ideal node.
    for g in corpus_graphs.values():
        T = assert_truncation_matches_pool(rectification(g))
        assert T.skeleton.n_vertices == len(g.edges)


@pytest.mark.parametrize("g", [prism_graph(5), cube_graph()])
def test_truncation_matches_pool_on_equiangular_hyperideal(g):
    assert_truncation_matches_pool(equiangular_hyperideal(g, 0.5))


def test_truncation_matches_pool_on_hyperideal_tetrahedron(hyperideal_tetra):
    assert_truncation_matches_pool(hyperideal_tetra)


@pytest.fixture(scope="module")
def truncated_flow_states():
    """The polyhedra three flows truncate for their volumes, as vertices turn hyperideal."""
    states, cut = [], polyvol.volume.truncate
    mp = pytest.MonkeyPatch()
    mp.setattr(polyvol.volume, "truncate", lambda P: states.append(P) or cut(P))
    try:
        run_flow(regular_tetrahedron(0.55), FlowOptions(seed=3))
        run_flow(jittered_compact(pyramid_graph(4), np.random.default_rng(11)), FlowOptions(seed=11))
        run_flow(jittered_compact(cube_graph(), np.random.default_rng(951)), FlowOptions(seed=951))
    finally:
        mp.undo()
    return states


def test_truncation_matches_pool_on_recorded_flow_states(truncated_flow_states):
    hyper = 0
    for P in truncated_flow_states:
        assert_truncation_matches_pool(P)
        hyper += PointKind.HYPERIDEAL in P.report.kinds
    assert hyper >= 25


def test_report_matches_classify_vertices_on_recorded_flow_states(truncated_flow_states):
    # classify_vertices on a copy that has cached nothing yet, and on the state
    # itself, field by field against the cached report.
    kinds = set()
    for P in truncated_flow_states:
        want = P.report
        for rep in (classify_vertices(dataclasses.replace(P)), classify_vertices(P)):
            assert rep.kinds == want.kinds == P.kinds == classify_points(P.vertex_charts)
            assert rep.statuses == want.statuses
            assert rep.witnesses == want.witnesses
            assert rep.overall == want.overall
        kinds.update(want.kinds)
    assert kinds >= {PointKind.REAL, PointKind.HYPERIDEAL}


def test_degenerate_truncations_raise_as_pool():
    # Vertices 1, 2 and 3 of the tetrahedron lie on the polar plane of vertex 0.
    tetra = np.array([[2.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, -0.4, 0.4], [0.5, -0.1, -0.5]])
    for pts, g, face in ((tetra, tetrahedron_graph(), 0),
                         (ALMOST_PROPER_PYRAMID, pyramid_graph(4), 2)):
        kind, message = assert_truncation_matches_pool(
            build_polyhedron(planes_from_vertices(pts, g), g))
        assert kind is TruncationDegenerate
        assert message.endswith(f"face {face} degenerates under truncation")


def test_truncation_invariants_match_loop_on_every_flag_subset(hyperideal_tetra):
    # Flagging other planes than the polar ones breaks right angles and
    # disjointness in every pattern; the first offender and message agree.
    T = truncate(hyperideal_tetra)
    kinds = set()
    for mask in range(1 << len(T.planes)):
        flags = tuple(bool(mask >> i & 1) for i in range(len(T.planes)))
        bad = dataclasses.replace(T, truncation_flags=flags)
        want = outcome(loop_truncation_invariants, bad)
        pairs = _invariant_pairs(bad.skeleton, flags)
        assert outcome(_assert_truncation_invariants, bad, pairs) == want
        kinds.add(want[1].split()[2] if want else None)
    assert kinds == {None, "edge", "faces"}
