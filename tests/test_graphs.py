import math
import re
import tracemalloc
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from conftest import ICOSAHEDRON, adjacency, stacked_triangulation, to_networkx
from polyvol import graphs
from polyvol.errors import (
    AngleOutOfRange,
    BadFormat,
    CollapseMakesDegenerate,
    NotPolyhedral,
    TruncationDegenerate,
)
from polyvol.graphs import (
    EQUALITY_TOL,
    AdmissibilityReport,
    AdmissibilityStatus,
    CurveKind,
    PlanarGraph,
    Witness,
    _edges_share_vertex,
    check_hyperideal_angles,
    cube_graph,
    cycle_walk,
    dual_graph,
    edge_collapse,
    face_collapse,
    format_graph,
    is_3_connected,
    isomorphism_code,
    medial_graph,
    octahedron_graph,
    parse_graph,
    prism_graph,
    pyramid_graph,
    tetrahedron_graph,
)
from polyvol.polyhedron import _truncated_skeleton
from polyvol.shapes import HYPERIDEAL_ANGLES


def iso(g1, g2):
    return nx.is_isomorphic(to_networkx(g1), to_networkx(g2))


# --- structure -----------------------------------------------------------------

def test_corpus_counts(corpus_graphs):
    expected = {
        "K4": (4, 6, 4), "cube": (8, 12, 6), "octahedron": (6, 12, 8),
        "pyr3": (4, 6, 4), "pyr4": (5, 8, 5), "pyr8": (9, 16, 9),
        "prism3": (6, 9, 5),
    }
    for name, (V, E, F) in expected.items():
        g = corpus_graphs[name]
        assert (g.n_vertices, len(g.edges), len(g.faces)) == (V, E, F)
        assert g.n_vertices - len(g.edges) + len(g.faces) == 2


def test_invalid_faces_rejected():
    with pytest.raises(BadFormat):
        PlanarGraph(3, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))  # edge on 3 faces


@pytest.mark.parametrize("faces, message", [
    (((1, 3, 9), (0, 1, 2)), "vertex 9 out of range"),
    (((1, 3, 4), (0, 1, 2)), "vertex 4 out of range"),
    (((0, 1, 1), (0, 1, 2)), "face cycle (0, 1, 1) repeats a vertex"),
    (((0,), (0, 1, 2)), "face cycle shorter than 2"),
], ids=["range", "range_edge", "repeat", "short"])
def test_face_cycles_are_checked_before_orientation(faces, message):
    # Orientation would first report an edge on one face.
    with pytest.raises(BadFormat, match=r"^BadFormat: " + re.escape(message) + "$"):
        PlanarGraph(4, faces)


# --- face orientation -------------------------------------------------------------

def _orient_faces_reference(n_vertices, faces):
    """Breadth-first face orientation that builds a neighbour's darts at each visit."""
    edge_faces = {}
    for i, cyc in enumerate(faces):
        for k in range(len(cyc)):
            e = tuple(sorted((cyc[k], cyc[(k + 1) % len(cyc)])))
            edge_faces.setdefault(e, []).append(i)
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise BadFormat(f"edge {e} lies on {len(fs)} faces, expected 2")
    flip = [None] * len(faces)
    directed = lambda cyc: {(cyc[k], cyc[(k + 1) % len(cyc)]) for k in range(len(cyc))}
    for start in range(len(faces)):
        if flip[start] is not None:
            continue
        flip[start] = False
        queue = [start]
        while queue:
            i = queue.pop()
            di = directed(faces[i] if not flip[i] else faces[i][::-1])
            for e in {tuple(sorted((a, b))) for a, b in di}:
                for j in edge_faces[e]:
                    if j == i:
                        continue
                    want_flip = bool(di & directed(faces[j]))
                    if flip[j] is None:
                        flip[j] = want_flip
                        queue.append(j)
                    elif flip[j] != want_flip:
                        raise BadFormat("face cycles admit no coherent orientation")
    oriented = [tuple(cyc[::-1]) if flip[i] else tuple(cyc) for i, cyc in enumerate(faces)]
    used = set()
    for cyc in oriented:
        for k in range(len(cyc)):
            d = (cyc[k], cyc[(k + 1) % len(cyc)])
            if d in used:
                raise BadFormat(f"directed edge {d} used twice after orientation")
            used.add(d)
    return oriented


def _orientation(orient, n_vertices, faces):
    """The oriented faces as tuples, or the message of the BadFormat raised."""
    try:
        return [tuple(cyc) for cyc in orient(n_vertices, [tuple(f) for f in faces])]
    except BadFormat as exc:
        return str(exc)


@pytest.fixture
def orientation_inputs(monkeypatch):
    """Check every PlanarGraph's orientation against the reference; record the inputs."""
    fast, inputs = graphs._orient_faces, []

    def checked(n_vertices, faces):
        inputs.append(tuple(faces))
        assert (_orientation(fast, n_vertices, faces)
                == _orientation(_orient_faces_reference, n_vertices, faces))
        return fast(n_vertices, faces)

    monkeypatch.setattr(graphs, "_orient_faces", checked)
    return inputs


def test_orientation_matches_reference_on_derived_graphs(corpus_graphs, orientation_inputs):
    for g in [*corpus_graphs.values(), prism_graph(6), ICOSAHEDRON]:
        assert PlanarGraph(g.n_vertices, g.faces).faces == g.faces
        dual_graph(g)
        m = medial_graph(g)
        # The rings come coherent, and equal to what orienting the reversed
        # vertex rings (the earlier construction) gives.
        assert orientation_inputs[-1] == m.faces
        nF = len(g.faces)
        reversed_rings = m.faces[:nF] + tuple(ring[::-1] for ring in m.faces[nF:])
        assert tuple(_orient_faces_reference(m.n_vertices, reversed_rings)) == m.faces
        for hyper in (range(g.n_vertices), (0,), range(0, g.n_vertices, 2)):
            try:
                _truncated_skeleton.__wrapped__(g, tuple(hyper), ())
            except TruncationDegenerate:
                pass
        for _ in _collapses(g):
            pass
    assert len(orientation_inputs) == 550


def test_orientation_matches_reference_on_relabelled_faces(corpus_graphs):
    rng = np.random.default_rng(20)
    sources = [*corpus_graphs.values(), prism_graph(6), ICOSAHEDRON, dual_graph(ICOSAHEDRON)]
    sources += [h for g in corpus_graphs.values() for h in _collapses(g)]
    for g in sources:
        for _ in range(3):
            perm = rng.permutation(g.n_vertices).tolist()
            faces = []
            for f in rng.permutation(len(g.faces)):
                cyc = [perm[v] for v in g.faces[f]]
                k = int(rng.integers(len(cyc)))
                cyc = cyc[k:] + cyc[:k]
                faces.append(tuple(cyc[::-1] if rng.random() < 0.5 else cyc))
            want = _orientation(_orient_faces_reference, g.n_vertices, faces)
            assert _orientation(graphs._orient_faces, g.n_vertices, faces) == want
            assert PlanarGraph(g.n_vertices, faces).faces == tuple(want)


def test_orientation_rejects_malformed_faces_like_reference(corpus_graphs):
    k4 = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    cases = [
        (4, k4[:3]),                                        # three edges on one face
        (3, [(0, 1, 2)] * 3),                               # every edge on three faces
        (5, k4 + [(0, 1, 4), (4, 1, 0)]),                   # edge 0-1 on four faces
        (4, [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]),    # K4 on the projective plane
        (3, [(0, 1, 2, 0, 1, 2)]),                          # each dart twice in one face
        (2, [(0, 0, 1)]),                                   # a loop
    ]
    rng = np.random.default_rng(21)
    for g in [*corpus_graphs.values(), prism_graph(6)]:
        for _ in range(10):
            faces = list(g.faces)
            f = int(rng.integers(len(faces)))
            move = rng.integers(4)
            if move == 0:
                del faces[f]
            elif move == 1:
                faces.append(faces[f][::-1])
            elif move == 2:   # swap two consecutive vertices of a face
                cyc = list(faces[f])
                cyc[0], cyc[1] = cyc[1], cyc[0]
                faces[f] = tuple(cyc)
            else:             # a twisted copy of the faces: one side reflected
                faces = [cyc[::-1] if i % 2 else cyc for i, cyc in enumerate(faces)]
                faces += [tuple(v + g.n_vertices for v in cyc) for cyc in g.faces]
            cases.append((2 * g.n_vertices, faces))
    messages = set()
    for n_vertices, faces in cases:
        want = _orientation(_orient_faces_reference, n_vertices, faces)
        assert _orientation(graphs._orient_faces, n_vertices, faces) == want
        if isinstance(want, str):
            messages.add(want.split()[1])
            with pytest.raises(BadFormat) as got:
                PlanarGraph(n_vertices, faces)
            # A cycle that repeats a vertex is named before orientation runs.
            repeat = next((cyc for cyc in faces if len(set(cyc)) != len(cyc)), None)
            assert str(got.value) == (
                want if repeat is None else f"BadFormat: face cycle {repeat} repeats a vertex")
    assert messages == {"edge", "face", "directed"}


def test_face_walk_lays_the_faces_end_to_end(corpus_graphs):
    for g in [*corpus_graphs.values(), ICOSAHEDRON]:
        walk = g.face_walk
        assert walk is g.face_walk
        assert [tuple(c) for c in np.split(walk.order, walk.starts[1:])] == list(g.faces)
        assert walk.sizes.tolist() == [len(c) for c in g.faces]
        for j, (v, f) in enumerate(zip(walk.order.tolist(), walk.owner.tolist())):
            cyc = g.faces[f]
            assert walk.order[walk.next[j]] == cyc[(cyc.index(v) + 1) % len(cyc)]
    walk = cycle_walk([np.array([4, 2, 7]), (0, 1, 3, 5)])
    assert walk.next.tolist() == [1, 2, 0, 4, 5, 6, 3]
    assert walk.owner.tolist() == [0, 0, 0, 1, 1, 1, 1]


def test_is_3_connected(corpus_graphs):
    for g in corpus_graphs.values():
        assert is_3_connected(g)
        assert nx.node_connectivity(to_networkx(g)) >= 3


def test_two_edge_collapses_of_cube_leave_a_2_cut():
    # Collapsing two opposite edges of the cube leaves a vertex pair as a 2-cut.
    g = edge_collapse(edge_collapse(cube_graph(), (0, 1)).graph, (5, 6)).graph
    assert nx.node_connectivity(to_networkx(g)) == 2
    assert not is_3_connected(g)
    assert not g.is_polyhedral()
    with pytest.raises(NotPolyhedral):
        dual_graph(g)


def test_cubes_glued_at_two_vertices_are_no_sphere_map():
    # Face cycles that pass the format checks but pinch the surface at the
    # two shared vertices (a 2-cut): the criterion needs a sphere map.
    faces = cube_graph().faces
    relabel = {0: 0, 6: 6, 1: 8, 2: 9, 3: 10, 4: 11, 5: 12, 7: 13}
    g = PlanarGraph(14, faces + tuple(tuple(relabel[v] for v in f) for f in faces))
    assert nx.node_connectivity(to_networkx(g)) == 2
    with pytest.raises(BadFormat):
        is_3_connected(g)
    with pytest.raises(BadFormat):
        g.is_polyhedral()


def _collapses(g):
    for e in g.edges:
        try:
            yield edge_collapse(g, e).graph
        except CollapseMakesDegenerate:
            pass
    for f, cyc in enumerate(g.faces):
        for split in range(2 * len(cyc)):
            try:
                yield face_collapse(g, f, split).graph
            except CollapseMakesDegenerate:
                pass


def test_is_3_connected_matches_networkx_on_collapses(corpus_graphs):
    # The polyhedral-map criterion against networkx on the corpus graphs
    # and the hexagonal prism, their edge and face collapses, and the
    # collapses of those: 440 graphs, 58 of them not 3-connected.
    graphs = {}
    for g in [*corpus_graphs.values(), prism_graph(6)]:
        graphs[g.canonical_hash()] = g
        for h in _collapses(g):
            graphs[h.canonical_hash()] = h
            for k in _collapses(h):
                graphs.setdefault(k.canonical_hash(), k)
    verdicts = [(is_3_connected(g), nx.node_connectivity(to_networkx(g)) >= 3)
                for g in graphs.values()]
    assert len(verdicts) == 440
    assert sum(not expected for _, expected in verdicts) == 58
    assert all(got == expected for got, expected in verdicts)


def test_isomorphism_code_merges_isomorphic_collapses():
    def code(g, e):
        return isomorphism_code(edge_collapse(g, e).graph)

    assert code(pyramid_graph(4), (1, 2)) == code(pyramid_graph(4), (1, 4))
    assert code(cube_graph(), (0, 3)) == code(prism_graph(4), (0, 1))
    assert code(prism_graph(3), (0, 1)) != code(prism_graph(3), (0, 3))


def test_isomorphism_code_ignores_labels_and_orientation(rng):
    for g in (cube_graph(), pyramid_graph(7), prism_graph(5)):
        p = rng.permutation(g.n_vertices)
        for sense in (1, -1):
            h = PlanarGraph(g.n_vertices, tuple(tuple(int(p[v]) for v in cyc[::sense])
                                                for cyc in g.faces))
            assert isomorphism_code(h) == isomorphism_code(g)


def test_isomorphism_code_matches_networkx_on_collapses(corpus_graphs):
    # Every graph is isomorphic to the first of its code, and the firsts
    # of two codes are not isomorphic.
    by_code = {}
    for g in [*corpus_graphs.values(), prism_graph(5)]:
        for h in _collapses(g):
            if h.is_polyhedral():
                by_code.setdefault(isomorphism_code(h), []).append(h)
    assert len(by_code) > 10
    assert all(iso(first, h) for first, *rest in by_code.values() for h in rest)
    firsts = [graphs[0] for graphs in by_code.values()]
    assert not any(iso(a, b) for a, b in combinations(firsts, 2))


def test_is_polyhedral_tests_each_graph_once(monkeypatch):
    import polyvol.graphs as graphs

    calls = []
    monkeypatch.setattr(graphs, "is_3_connected",
                        lambda g: calls.append(g) or is_3_connected(g))
    g = cube_graph()
    assert g.is_polyhedral() and g.is_polyhedral()
    dual_graph(g)
    medial_graph(g)
    assert calls == [g]


# --- dual and medial -------------------------------------------------------------

def test_dual_examples(corpus_graphs):
    assert iso(dual_graph(corpus_graphs["K4"]), corpus_graphs["K4"])
    assert iso(dual_graph(corpus_graphs["cube"]), corpus_graphs["octahedron"])
    for n in (3, 4, 5, 6):
        g = corpus_graphs[f"pyr{n}"]
        assert iso(dual_graph(g), g)  # pyramids are self-dual


def test_dual_involution(corpus_graphs):
    for g in corpus_graphs.values():
        dd = dual_graph(dual_graph(g))
        assert iso(dd, g)


def test_medial_examples(corpus_graphs):
    m = medial_graph(corpus_graphs["K4"])
    assert iso(m, corpus_graphs["octahedron"])
    for n in (3, 4, 5, 6):
        m = medial_graph(corpus_graphs[f"pyr{n}"])
        # antiprism: 2n vertices, 4-regular, n+... faces: 2n+2
        assert m.n_vertices == 2 * n
        assert all(m.degree(v) == 4 for v in range(m.n_vertices))
        assert len(m.faces) == 2 * n + 2
    mc = medial_graph(corpus_graphs["cube"])
    assert mc.n_vertices == 12
    assert all(mc.degree(v) == 4 for v in range(mc.n_vertices))
    assert len(mc.faces) == 14  # cuboctahedron


def test_medial_properties(corpus_graphs):
    for g in corpus_graphs.values():
        m = medial_graph(g)
        assert all(m.degree(v) == 4 for v in range(m.n_vertices))
        assert len(m.faces) == g.n_vertices + len(g.faces)
        assert iso(m, medial_graph(dual_graph(g)))


def test_dual_medial_errors():
    # a valid embedded graph that is not 3-connected: theta-like double triangle
    g = PlanarGraph(4, ((0, 1, 3), (1, 2, 3), (0, 3, 2), (0, 2, 1)))
    # that IS K4; craft non-3-connected: two tetrahedra sharing... use a
    # 4-cycle embedded with two faces (not polyhedral: degree 2)
    sq = PlanarGraph(4, ((0, 1, 2, 3), (3, 2, 1, 0)))
    with pytest.raises(NotPolyhedral):
        dual_graph(sq)
    with pytest.raises(NotPolyhedral):
        medial_graph(sq)


# --- collapses --------------------------------------------------------------------

def test_edge_collapse_k4_degenerates():
    with pytest.raises(CollapseMakesDegenerate):
        edge_collapse(tetrahedron_graph(), (0, 1))


def test_edge_collapse_square_pyramid_base_gives_k4():
    res = edge_collapse(pyramid_graph(4), (1, 2))
    assert res.graph.is_polyhedral()
    assert iso(res.graph, tetrahedron_graph())
    # spec calls this the "apex edge" example; the lateral (apex-incident)
    # collapse degenerates instead, so the base edge is the K4 instance
    with pytest.raises(CollapseMakesDegenerate):
        edge_collapse(pyramid_graph(4), (0, 1))


def test_edge_collapse_counts(corpus_graphs):
    for g in corpus_graphs.values():
        for e in list(g.edges)[:3]:
            try:
                res = edge_collapse(g, e)
            except CollapseMakesDegenerate:
                continue
            assert len(res.graph.edges) <= len(g.edges) - 1


def test_face_collapse_prism_triangle_gives_k4():
    g = prism_graph(3)
    tri = next(i for i, cyc in enumerate(g.faces) if len(cyc) == 3)
    res = face_collapse(g, tri, 0)
    assert iso(res.graph, tetrahedron_graph())
    for split in (-1, 6):
        with pytest.raises(ValueError):
            face_collapse(g, tri, split)


def test_face_collapse_cube_square_counts():
    g = cube_graph()
    res = face_collapse(g, 0, 1)
    g2 = res.graph
    assert g2.n_vertices - len(g2.edges) + len(g2.faces) == 2
    assert g2.n_vertices == 6 and len(g2.faces) == 5
    assert len(g2.faces) <= len(g.faces) - 1


def test_face_collapse_reduces_face_count(corpus_graphs):
    g = corpus_graphs["cube"]
    res = face_collapse(g, 1, 3)
    assert len(res.graph.faces) <= len(g.faces) - 1


def test_collapse_vertex_and_face_maps():
    res = edge_collapse(pyramid_graph(4), (1, 2))
    assert res.vertex_map[1] == res.vertex_map[2]
    dropped = [old for old, new in res.face_map.items() if new is None]
    assert len(dropped) >= 1


# --- admissibility ----------------------------------------------------------------

def test_admissible_small_angles(corpus_graphs):
    for g in (corpus_graphs["K4"], corpus_graphs["cube"], corpus_graphs["pyr4"]):
        kmax = max(g.degree(v) for v in range(g.n_vertices))
        eps = 0.9 * math.pi / kmax
        rep = check_hyperideal_angles(g, {e: eps for e in g.edges})
        assert rep.admissible


def test_k4_right_angles_violated():
    g = tetrahedron_graph()
    rep = check_hyperideal_angles(g, {e: math.pi / 2 for e in g.edges})
    assert rep.status == AdmissibilityStatus.VIOLATED_CLOSED_CURVE
    w = rep.witness
    assert len(w.crossed_edges) == 3
    assert w.shares_vertex  # vertex-linking curve
    assert abs(w.angle_sum - 3 * math.pi / 2) < 1e-12
    assert abs(w.bound - math.pi) < 1e-12


def test_pyramid_arc_violated():
    # Base edges 1-2 and 3-4 are opposite sides of the square base.  The arc
    # from side face 0-1-2 across the base to side face 0-3-4 joins two faces
    # sharing the apex, crosses two edges with no common vertex, and so
    # needs a sum below (2 - 1) pi; it carries 3.3.
    g = pyramid_graph(4)
    angles = {e: 0.3 for e in g.edges}
    angles[(1, 2)] = angles[(3, 4)] = 1.65
    rep = check_hyperideal_angles(g, angles)
    assert rep.status == AdmissibilityStatus.VIOLATED_ARC
    w = rep.witness
    assert w.kind == CurveKind.ARC
    assert w.crossed_edges == ((1, 2), (3, 4))
    assert not w.shares_vertex
    assert abs(w.angle_sum - 3.3) < 1e-12
    assert abs(w.bound - math.pi) < 1e-12


def test_cube_two_thirds_pi_violated():
    g = cube_graph()
    rep = check_hyperideal_angles(g, {e: 2 * math.pi / 3 for e in g.edges})
    assert rep.status == AdmissibilityStatus.VIOLATED_CLOSED_CURVE
    w = rep.witness
    # independently re-sum the witness
    assert sum(2 * math.pi / 3 for _ in w.crossed_edges) > w.bound


def test_admissibility_scaling_property(rng):
    g = tetrahedron_graph()
    base = {e: 0.7 for e in g.edges}
    assert check_hyperideal_angles(g, base).admissible
    for t in (0.9, 0.5, 0.2, 0.05):
        scaled = {e: t * a for e, a in base.items()}
        assert check_hyperideal_angles(g, scaled).admissible


def test_random_hyperideal_draws_are_admissible(corpus_graphs):
    # Below pi / 3 every Bao-Bonahon inequality holds strictly, so
    # random_hyperideal takes its first draw unchecked; the check stays here,
    # on the top of the range and on draws from it.
    assert HYPERIDEAL_ANGLES[1] < math.pi / 3
    rng = np.random.default_rng(29)
    for g in corpus_graphs.values():
        assert check_hyperideal_angles(g, dict.fromkeys(g.edges, HYPERIDEAL_ANGLES[1])).admissible
        for _ in range(5):
            th = {e: float(rng.uniform(*HYPERIDEAL_ANGLES)) for e in g.edges}
            assert check_hyperideal_angles(g, th).admissible


def test_angle_out_of_range():
    g = tetrahedron_graph()
    with pytest.raises(AngleOutOfRange):
        check_hyperideal_angles(g, {e: 0.0 for e in g.edges})
    with pytest.raises(AngleOutOfRange):
        check_hyperideal_angles(g, {e: math.pi for e in g.edges})


def test_equality_case_reported():
    # Vertex-link equality: angle sums exactly pi at a 3-valent vertex.
    g = tetrahedron_graph()
    rep = check_hyperideal_angles(g, {e: math.pi / 3 for e in g.edges})
    assert rep.admissible  # equality with a shared vertex is allowed
    assert len(rep.equality_cases) > 0


def test_cube_belt_at_equality_without_shared_vertex_violated():
    # The belt curve crosses the four vertical edges: 4 * pi/2 = (4 - 2) pi,
    # an equality that no shared vertex exempts.
    g = cube_graph()
    angles = {e: 0.3 for e in g.edges}
    for e in ((0, 4), (1, 5), (2, 6), (3, 7)):
        angles[e] = math.pi / 2
    rep = check_hyperideal_angles(g, angles)
    assert rep.status == AdmissibilityStatus.VIOLATED_CLOSED_CURVE
    w = rep.witness
    assert w.crossed_edges == ((1, 5), (2, 6), (3, 7), (0, 4))
    assert not w.shares_vertex
    assert abs(w.angle_sum - w.bound) <= EQUALITY_TOL


@pytest.mark.parametrize("g", [ICOSAHEDRON, dual_graph(ICOSAHEDRON)], ids=["icosahedron", "dual"])
def test_admissibility_search_memory_is_bounded(g):
    # The search keeps one curve at a time, so its peak memory does not
    # grow with the number of curves it checks.
    angles = {e: 0.5 for e in g.edges}
    check_hyperideal_angles(g, {e: 3.0 for e in g.edges})  # fills the graph's caches
    tracemalloc.start()
    try:
        rep = check_hyperideal_angles(g, angles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.admissible
    assert peak < 256 * 1024


# --- admissibility against the exhaustive reference --------------------------------

def _reference_cycles(adj, n):
    """All simple cycles (length >= 3) of a simple graph, each once."""
    cycles = []

    def dfs(start, u, visited, path):
        for w in sorted(adj[u]):
            if w == start and len(path) >= 3:
                cycles.append(tuple(path))
            elif w > start and w not in visited:
                visited.add(w)
                path.append(w)
                dfs(start, w, visited, path)
                path.pop()
                visited.remove(w)

    for s in range(n):
        dfs(s, s, {s}, [s])
    out = {}  # each cycle is found in both directions; keep the first
    for cyc in cycles:
        out.setdefault(frozenset(frozenset((cyc[k], cyc[(k + 1) % len(cyc)]))
                                 for k in range(len(cyc))), cyc)
    return list(out.values())


def _reference_paths(adj, src, dst):
    paths = []

    def dfs(u, visited, path):
        if u == dst:
            paths.append(tuple(path))
            return
        for w in sorted(adj[u]):
            if w not in visited:
                visited.add(w)
                path.append(w)
                dfs(w, visited, path)
                path.pop()
                visited.remove(w)

    dfs(src, {src}, [src])
    return paths


def _reference_check(g, angles):
    """Enumerate every dual cycle and arc first, then check each one."""
    dual = dual_graph(g)
    adj = adjacency(dual)
    cross = {frozenset(fs): e for e, fs in g.edge_faces.items()}
    equalities = []

    def consider(kind, crossed, total, bound):
        shares = _edges_share_vertex(crossed)
        if shares and kind == CurveKind.ARC:
            return None
        w = Witness(kind, tuple(crossed), total, bound, shares)
        if abs(total - bound) <= EQUALITY_TOL:
            if shares:
                equalities.append(w)
                return None
            return w
        return w if total > bound else None

    for cyc in _reference_cycles(adj, dual.n_vertices):
        h = len(cyc)
        crossed = [cross[frozenset((cyc[k], cyc[(k + 1) % h]))] for k in range(h)]
        if len(set(crossed)) != h:
            continue
        bad = consider(CurveKind.CLOSED_CURVE, crossed, sum(angles[e] for e in crossed),
                       (h - 2) * math.pi)
        if bad is not None:
            return AdmissibilityReport(AdmissibilityStatus.VIOLATED_CLOSED_CURVE, bad,
                                       tuple(equalities))
    share_pairs = {tuple(sorted(p)) for ring in g.vertex_faces for p in combinations(ring, 2)}
    for f1, f2 in sorted(share_pairs):
        for path in _reference_paths(adj, f1, f2):
            h = len(path) - 1
            crossed = [cross[frozenset(path[k:k + 2])] for k in range(h)]
            if len(set(crossed)) != h:
                continue
            bad = consider(CurveKind.ARC, crossed, sum(angles[e] for e in crossed),
                           (h - 1) * math.pi)
            if bad is not None:
                return AdmissibilityReport(AdmissibilityStatus.VIOLATED_ARC, bad,
                                           tuple(equalities))
    return AdmissibilityReport(AdmissibilityStatus.ADMISSIBLE, None, tuple(equalities))


def _report_key(rep):
    def key(w):
        return w.kind, w.crossed_edges, w.angle_sum.hex(), w.bound.hex(), w.shares_vertex

    return rep.status, rep.witness and key(rep.witness), [key(w) for w in rep.equality_cases]


_ORACLE_GRAPHS = {
    "K4": tetrahedron_graph(), "cube": cube_graph(), "octahedron": octahedron_graph(),
    "prism5": prism_graph(5), "prism6": prism_graph(6), "pyramid6": pyramid_graph(6),
    "bipyramid5": dual_graph(prism_graph(5)),
    "stacked8": stacked_triangulation(8, np.random.default_rng(8)),
}


@pytest.mark.parametrize("lo, hi", [(0.08, 0.95), (0.6, 2.9), (1.2, 1.9)])
@pytest.mark.parametrize("name", list(_ORACLE_GRAPHS))
def test_admissibility_matches_exhaustive_reference(name, lo, hi):
    g = _ORACLE_GRAPHS[name]
    rng = np.random.default_rng([len(g.edges), int(100 * lo)])
    for _ in range(8):
        angles = {e: float(rng.uniform(lo, hi)) for e in g.edges}
        assert _report_key(check_hyperideal_angles(g, angles)) == \
            _report_key(_reference_check(g, angles))


@pytest.mark.parametrize("name", list(_ORACLE_GRAPHS))
def test_admissibility_arcs_match_exhaustive_reference(name):
    # Small angles but two disjoint edges near pi/2: no vertex link breaks
    # its bound, so the arcs decide (on the pyramid, arcs across the base fail).
    g = _ORACLE_GRAPHS[name]
    disjoint = [(a, b) for a, b in combinations(g.edges, 2) if not set(a) & set(b)]
    rng = np.random.default_rng([len(g.edges), 1])
    for _ in range(8):
        angles = {e: float(rng.uniform(0.08, 0.3)) for e in g.edges}
        for e in disjoint[rng.integers(len(disjoint))]:
            angles[e] = float(rng.uniform(1.6, 1.9))
        assert _report_key(check_hyperideal_angles(g, angles)) == \
            _report_key(_reference_check(g, angles))


@pytest.mark.parametrize("name, angle, equalities", [
    ("octahedron", math.pi / 2, 6), ("K4", math.pi / 3, 4),
    # Link sums just above the bound, inside EQUALITY_TOL: still equality cases.
    ("octahedron", math.pi / 2 + 1e-12, 6), ("K4", math.pi / 3 + 1e-12, 4),
], ids=["octahedron", "K4", "octahedron-above", "K4-above"])
def test_admissibility_equality_cases_match_reference(name, angle, equalities):
    g = _ORACLE_GRAPHS[name]
    angles = {e: angle for e in g.edges}
    rep = check_hyperideal_angles(g, angles)
    assert rep.admissible and len(rep.equality_cases) == equalities
    assert _report_key(rep) == _report_key(_reference_check(g, angles))


# --- text format ------------------------------------------------------------------

def test_format_roundtrip(corpus_graphs):
    for g in corpus_graphs.values():
        g2 = parse_graph(format_graph(g))
        assert g2.faces == g.faces
        assert g2.n_vertices == g.n_vertices


def test_parse_comments_and_errors():
    text = "# a comment\nV 4\nF 0 1 2\nF 0 2 3\nF 0 3 1\nF 1 3 2\n"
    g = parse_graph(text)
    assert g.n_vertices == 4
    with pytest.raises(BadFormat):
        parse_graph("V 4\n")
    with pytest.raises(BadFormat):
        parse_graph("F 0 1 2\n")


@pytest.mark.parametrize("text, detail", [
    ("V 4\nE 0 1\n", "unknown line 'E'"),
    ("V 4\nV 4\nF 0 1 2\n", "duplicate V line"),
], ids=["unknown_head", "duplicate_V"])
def test_parse_rejects_line(text, detail):
    with pytest.raises(BadFormat) as exc:
        parse_graph(text)
    assert exc.value.detail == detail


def test_graph_checks_vertex_count_and_euler():
    k4 = tetrahedron_graph().faces
    with pytest.raises(BadFormat, match="^BadFormat: isolated vertices$"):
        PlanarGraph(5, k4)
    # Two disjoint tetrahedra: each orients coherently, V - E + F = 8 - 12 + 8.
    with pytest.raises(BadFormat, match="^BadFormat: Euler formula violated: V-E\\+F = 4$"):
        PlanarGraph(8, k4 + tuple(tuple(v + 4 for v in cyc) for cyc in k4))


def test_parse_fixes_reversed_face():
    # one face listed in the wrong orientation still parses coherently
    text = "V 4\nF 0 1 2\nF 0 2 3\nF 0 3 1\nF 1 2 3\n"
    g = parse_graph(text)
    assert len(g.edges) == 6
