import math
import time

import networkx as nx
import numpy as np
import pytest

from conftest import (
    ICOSAHEDRON,
    adjacency,
    closest_chart_point,
    dihedral_angle,
    stacked_triangulation,
    to_networkx,
)
from polyvol.errors import NotPolyhedral
from polyvol.graphs import (
    PlanarGraph,
    cube_graph,
    dual_graph,
    edge_collapse,
    medial_graph,
    octahedron_graph,
    prism_graph,
    pyramid_graph,
    tetrahedron_graph,
)
from polyvol.polyhedron import classify_vertices, dihedral_angles, truncate, PointKind
from polyvol.rectify import (
    NEWTON_ITERATIONS,
    SOLVE_TOL,
    _cone_equations,
    _max_volume_angles,
    rectification,
    rectification_and_volume,
    rectification_volume,
    solve_midsphere,
)
from polyvol.volume import VolumeMethod, lobachevsky, polyhedron_volume

V8 = 8 * lobachevsky(math.pi / 4)


def antiprism_volume(n):
    return 2 * n * (lobachevsky(math.pi / 4 + math.pi / (2 * n))
                    + lobachevsky(math.pi / 4 - math.pi / (2 * n)))


# --- midsphere packing ----------------------------------------------------------

def test_tetrahedron_packing_residuals_and_symmetry():
    packing = solve_midsphere(tetrahedron_graph())
    assert packing.residuals["tangency"] < 1e-8
    assert packing.residuals["gram"] < 1e-8
    assert packing.residuals["centering"] < 1e-12
    # Tangency points form the octahedral configuration: distances sqrt(2)
    # (12 adjacent pairs) and 2 (3 antipodal pairs), invariant under the
    # 12-element rotation group of the configuration.
    t = packing.tangency_points
    dists = sorted(np.linalg.norm(t[i] - t[j])
                   for i in range(6) for j in range(i + 1, 6))
    assert np.allclose(dists[:12], math.sqrt(2), atol=1e-9)
    assert np.allclose(dists[12:], 2.0, atol=1e-9)


def test_packing_face_circles_tangency_graph_is_dual(corpus_graphs):
    for name in ("K4", "cube", "pyr5", "prism3"):
        g = corpus_graphs[name]
        packing = solve_midsphere(g)
        N = packing.face_normals
        dualg = dual_graph(g)
        dual_edges = set(dualg.edges)
        eta = np.array([-1.0, 1, 1, 1])
        for i in range(len(g.faces)):
            for j in range(i + 1, len(g.faces)):
                gram = float(np.sum(N[i] * N[j] * eta))
                if (i, j) in dual_edges:
                    assert abs(gram + 1.0) < 1e-8  # tangent circles
                else:
                    assert gram < -1.0 + 1e-8  # disjoint circles


def test_pyramid_packing_tangencies_form_antiprism():
    n = 5
    packing = solve_midsphere(pyramid_graph(n))
    P = rectification(pyramid_graph(n))
    T = truncate(P)
    # truncation of the rectified pyramid is the n-antiprism: 2n ideal
    # 4-valent vertices, all right angles
    assert T.skeleton.n_vertices == 2 * n
    assert all(T.skeleton.degree(v) == 4 for v in range(T.skeleton.n_vertices))
    radii = np.linalg.norm(T.vertex_charts, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-8
    for e in T.skeleton.edges:
        f1, f2 = T.skeleton.edge_faces[e]
        assert abs(dihedral_angle(T.planes[f1], T.planes[f2]) - math.pi / 2) < 1e-6


def test_cube_matches_analytic_midsphere_cube():
    # Analytic cube with edges tangent to the unit sphere: half-side 1/sqrt(2).
    P = rectification(cube_graph())
    a = 1 / math.sqrt(2)
    assert abs(rectification_volume(cube_graph()).value
               - rectification_volume(octahedron_graph()).value) < 1e-8
    # vertex radii of the midsphere cube: sqrt(3)*a
    radii = np.linalg.norm(P.vertex_charts, axis=1)
    assert np.allclose(radii, math.sqrt(3) * a, atol=1e-7)
    # face plane distances from the origin: a
    for pl in P.planes:
        assert abs(np.linalg.norm(closest_chart_point(pl)) - a) < 1e-7


def test_packing_centered(corpus_graphs):
    for g in corpus_graphs.values():
        packing = solve_midsphere(g)
        assert packing.residuals["centering"] < 1e-12
        assert np.linalg.norm(packing.tangency_points.sum(axis=0)) < 1e-12


def test_face_cycles_counterclockwise_from_outside(corpus_graphs):
    for g in corpus_graphs.values():
        P = rectification(g)
        for plane, cyc in zip(P.planes, g.faces):
            n = plane.normal[1:]
            for k in range(len(cyc)):
                a, b, c = (P.vertex_charts[cyc[(k + j) % len(cyc)]] for j in range(3))
                assert float(n @ np.cross(b - a, c - a)) > 0


def test_not_polyhedral_rejected():
    sq = PlanarGraph(4, ((0, 1, 2, 3), (3, 2, 1, 0)))
    with pytest.raises(NotPolyhedral):
        solve_midsphere(sq)


# --- rectification ---------------------------------------------------------------

def test_rectification_all_angles_zero(corpus_graphs):
    for name in ("K4", "cube", "pyr4", "prism3"):
        P = rectification(corpus_graphs[name])
        th = dihedral_angles(P)
        assert max(abs(a) for a in th.values()) < 1e-7


def test_rectification_vertices_hyperideal_and_flagged(corpus_graphs):
    P = rectification(corpus_graphs["K4"])
    assert P.rectified
    rep = classify_vertices(P)
    assert all(k == PointKind.HYPERIDEAL for k in rep.kinds)


def test_truncation_skeleton_is_medial(corpus_graphs):
    for name in ("K4", "cube", "pyr4", "prism3"):
        g = corpus_graphs[name]
        T = truncate(rectification(g))
        m = medial_graph(g)
        assert nx.is_isomorphic(to_networkx(T.skeleton), to_networkx(m))
        radii = np.linalg.norm(T.vertex_charts, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-8


# --- volumes ----------------------------------------------------------------------

def test_rectification_volume_tetrahedron():
    res = rectification_volume(tetrahedron_graph())
    assert abs(res.value - V8) < 1e-6
    assert abs(res.value - 3.663862376709) < 1e-9


def test_rectification_volume_antiprism_family():
    for n in range(3, 9):
        res = rectification_volume(pyramid_graph(n))
        assert abs(res.value - antiprism_volume(n)) < 1e-6


def test_rectification_volume_duality(corpus_graphs):
    graphs = [corpus_graphs[name] for name in ("K4", "cube", "octahedron", "pyr3",
                                               "pyr4", "pyr5", "pyr6", "prism3")]
    for g in graphs + [prism_graph(7), prism_graph(8), ICOSAHEDRON]:
        v1 = rectification_volume(g).value
        v2 = rectification_volume(dual_graph(g)).value
        assert abs(v1 - v2) < 1e-8


def test_collapse_monotonicity_examples():
    for g, e in [(pyramid_graph(4), (1, 2)), (prism_graph(3), (0, 3)),
                 (cube_graph(), (0, 1))]:
        res = edge_collapse(g, e)
        assert res.graph.is_polyhedral()
        v_big = rectification_volume(g).value
        v_small = rectification_volume(res.graph).value
        assert v_small <= v_big + 1e-8


def test_pyramid13_rectification_matches_antiprism():
    # A seeded tangency solve once converged here to a solution with
    # zero-length edges.
    res = rectification_volume(pyramid_graph(13))
    assert abs(res.value - antiprism_volume(13)) < 1e-10


RIVIN_GRAPHS = [prism_graph(7), prism_graph(8), *(pyramid_graph(n) for n in range(13, 17)),
                ICOSAHEDRON, dual_graph(ICOSAHEDRON)]
RIVIN_IDS = ["prism7", "prism8", "pyr13", "pyr14", "pyr15", "pyr16", "icosahedron",
             "dodecahedron"]


def _dense_equations(m):
    """Every row of the angle structure equations, dense, from the faces of m:
    the segment rows (sides and segments 0-w) in order of appearance, then
    the tetrahedron rows."""
    tris = [(cyc[0], cyc[i], cyc[i + 1]) for cyc in m.faces if 0 not in cyc
            for i in range(1, len(cyc) - 1)]
    on_face = {w for cyc in m.faces if 0 in cyc for w in cyc}
    rows = {}
    for t, tri in enumerate(tris):
        for i, w in enumerate(tri):
            side = tuple(sorted((tri[(i + 1) % 3], tri[(i + 2) % 3])))
            rows.setdefault(side, (0.5 * math.pi if side in m.edge_index else math.pi, []))
            rows.setdefault(w, (0.5 * math.pi if w in adjacency(m)[0]
                                else math.pi if w in on_face else 2.0 * math.pi, []))
            rows[side][1].append(3 * t + i)
            rows[w][1].append(3 * t + i)
    A = np.zeros((len(rows) + len(tris), 3 * len(tris)))
    for r, (_, cols) in enumerate(rows.values()):
        A[r, cols] = 1.0
    A[len(rows):] = np.kron(np.eye(len(tris)), np.ones(3))
    return A, np.array([target for target, _ in rows.values()] + [math.pi] * len(tris))


def _kkt_reference_angles(m):
    """Rivin's maximizer by infeasible-start Newton on the full KKT system,
    with the redundant rows dropped by an SVD of the dense equations."""
    A, b = _dense_equations(m)
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(S > 1e-9 * S[0]))
    C, d = Vt[:rank], (U[:, :rank].T @ b) / S[:rank]

    def residual(x, nu):
        return np.concatenate([np.log(2.0 * np.sin(x)) + C.T @ nu, C @ x - d])

    n = A.shape[1]
    x = np.full(n, math.pi / 3.0)
    nu = -C @ np.log(2.0 * np.sin(x))
    r = residual(x, nu)
    K = np.zeros((n + rank, n + rank))
    K[:n, n:], K[n:, :n] = C.T, C
    for _ in range(NEWTON_ITERATIONS):
        norm = float(np.linalg.norm(r))
        if norm < SOLVE_TOL:
            break
        K[range(n), range(n)] = 1.0 / np.tan(x)
        step = np.linalg.solve(K, -r)
        s = 1.0
        while s > 1e-10:
            x_try, nu_try = x + s * step[:n], nu + s * step[n:]
            if np.all((x_try > 0.0) & (x_try < math.pi)):
                r_try = residual(x_try, nu_try)
                if np.linalg.norm(r_try) <= (1.0 - 0.01 * s) * norm:
                    break
            s *= 0.5
        else:
            break
        x, nu, r = x_try, nu_try, r_try
    assert np.linalg.norm(r) < SOLVE_TOL and np.max(np.abs(A @ x - b)) < 1e-10
    return x.reshape(-1, 3)


def _max_volume_angles_roll(m):
    """Rivin's maximizer as first written, with ``np.roll``, ``np.outer`` and
    ``np.linalg.norm``.  Returns the angles and the number of primal-only
    (``r_dual = 0``) steps taken."""
    tris = [(cyc[0], cyc[k], cyc[k + 1]) for cyc in m.faces if 0 not in cyc
            for k in range(1, len(cyc) - 1)]
    sides = {}
    side = np.array([[sides.setdefault(tuple(sorted((tri[(i + 1) % 3], tri[(i + 2) % 3]))),
                                       len(sides)) for i in range(3)] for tri in tris])
    side_target = np.array([0.5 * math.pi if s in m.edge_index else math.pi for s in sides])
    n = len(side_target)
    ends = np.stack([side, np.roll(side, -1, axis=1)], axis=-1)
    at = (ends[..., [0, 1, 0, 1]] * n + ends[..., [0, 1, 1, 0]]).ravel()

    def side_sums(q):
        return np.bincount(side.ravel(), weights=q.ravel(), minlength=n)

    def residual(x, nu):
        u = np.log(2.0 * np.sin(x)) + nu[side]
        primal = (side_sums(x) - side_target)[:-1]
        return u, np.concatenate([(u[:, :2] - u[:, 2:]).ravel(), primal])

    def laplacian(w, q):
        flux = w * (q - np.roll(q, -1, axis=1))
        return flux - np.roll(flux, 1, axis=1)

    def line_search(dx, dnu):
        s = 1.0
        while s > 1e-10:
            x_try = x + s * dx
            x_try[:, 2] = math.pi - x_try[:, 0] - x_try[:, 1]
            if np.all((x_try > 0.0) & (x_try < math.pi)):
                u_try, r_try = residual(x_try, nu + s * dnu)
                if np.linalg.norm(r_try) <= (1.0 - 0.01 * s) * norm:
                    return x_try, nu + s * dnu, u_try, r_try
            s *= 0.5
        return None

    x, nu = np.full(side.shape, math.pi / 3.0), np.zeros(n)
    u, r = residual(x, nu)
    primal_only = 0
    for _ in range(NEWTON_ITERATIONS):
        norm = float(np.linalg.norm(r))
        if norm < SOLVE_TOL:
            break
        w = np.roll(1.0 / np.tan(x), -2, axis=1)
        schur = np.bincount(at, weights=np.outer(w, [1.0, 1.0, -1.0, -1.0]).ravel(),
                            minlength=n * n).reshape(n, n)[:-1, :-1]
        primal = r[2 * len(tris):]
        steps = np.linalg.solve(schur, np.column_stack(
            [primal - side_sums(laplacian(w, u))[:-1], primal]))
        tried = [line_search(-laplacian(w, q + dnu[side]), dnu)
                 for dnu, q in zip(np.vstack([steps, [0.0, 0.0]]).T, (u, 0.0))]
        state = next((found for found in tried if found is not None), None)
        if state is None:
            break
        primal_only += tried[0] is None
        x, nu, u, r = state
    return x, primal_only


def test_max_volume_angles_match_roll_form(corpus_graphs):
    # Bit for bit, on the corpus, on the tiny-angle 100-vertex stacked
    # triangulations of seeds 2 and 6 and their duals, and on the 60-vertex
    # one of seed 7.  Whether seed 6 takes a primal-only step depends on the
    # rounding of the LAPACK solve (it does with one OpenBLAS thread, not with
    # two); seed 7 takes one at its last step with one, two and four threads.
    stacked = [stacked_triangulation(100, np.random.default_rng(seed)) for seed in (2, 6)]
    fallback = stacked_triangulation(60, np.random.default_rng(7))
    primal_only = {}
    for g in [*corpus_graphs.values(), *RIVIN_GRAPHS, *stacked, *map(dual_graph, stacked),
              fallback]:
        m = medial_graph(g)
        want, primal_only[g] = _max_volume_angles_roll(m)
        assert np.array_equal(_max_volume_angles(m)[1], want)
    assert primal_only[fallback] > 0


@pytest.mark.parametrize("g", RIVIN_GRAPHS, ids=RIVIN_IDS)
def test_rivin_maximum_is_the_rectification_volume(g):
    # The maximal sum of Lobachevsky functions is the volume of the ideal
    # right-angled truncation; decomposing the realized polyhedron's
    # truncation into ideal tetrahedra computes it independently.
    res = rectification_volume(g)
    geometric = polyhedron_volume(rectification(g))
    assert res.method == geometric.method == VolumeMethod.IDEAL_DECOMPOSITION
    assert abs(res.value - geometric.value) < 1e-10 * geometric.value


@pytest.mark.parametrize("g", RIVIN_GRAPHS, ids=RIVIN_IDS)
def test_reduced_solve_matches_full_kkt_solve(g):
    m = medial_graph(g)
    _, angles, _ = _max_volume_angles(m)
    assert np.max(np.abs(angles - _kkt_reference_angles(m))) < 1e-12


@pytest.mark.parametrize("g", RIVIN_GRAPHS, ids=RIVIN_IDS)
def test_reduced_rows_have_full_rank_and_dropped_rows_hold(g):
    m = medial_graph(g)
    tris, side, side_target, vertex_target = _cone_equations(m)
    T, n = len(tris), len(side_target)
    # The side rows in the free angles (a, b) of each tetrahedron, c = pi - a - b.
    B = np.zeros((n, 2 * T))
    for t, (s0, s1, s2) in enumerate(side):
        B[s0, 2 * t] += 1.0
        B[s1, 2 * t + 1] += 1.0
        B[s2, 2 * t:2 * t + 2] -= 1.0
    assert np.linalg.matrix_rank(B[:-1]) == n - 1
    # Dropping them loses no equation: the full system is as deficient as
    # the medial graph has vertices (the rows 0-w and one side row).
    A, _ = _dense_equations(m)
    assert np.linalg.matrix_rank(A) == len(A) - m.n_vertices
    _, angles, _ = _max_volume_angles(m)
    at_vertex = np.bincount(np.ravel(tris), weights=angles.ravel(), minlength=m.n_vertices)
    assert np.max(np.abs(at_vertex - vertex_target)[1:]) < 1e-10
    last = np.bincount(side.ravel(), weights=angles.ravel())[-1]
    assert abs(last - side_target[-1]) < 1e-10


def test_stacked_triangulation_100_vertices():
    g = stacked_triangulation(100, np.random.default_rng(3))
    start = time.perf_counter()
    P, res = rectification_and_volume(g)
    elapsed = time.perf_counter() - start
    # Every edge tangent to the sphere: the closest point of its line has norm 1.
    a, b = P.vertex_charts[g.edge_array.T]
    d = b - a
    feet = a - (np.sum(a * d, axis=1) / np.sum(d * d, axis=1))[:, None] * d
    assert np.max(np.abs(np.linalg.norm(feet, axis=1) - 1.0)) < 1e-10
    assert abs(res.value - polyhedron_volume(P).value) < 1e-10 * res.value
    assert abs(rectification_volume(dual_graph(g)).value - res.value) < 1e-8
    assert elapsed < 5.0, f"100-vertex rectification took {elapsed:.2f} s"


@pytest.mark.parametrize("n", [100, 150])
def test_rectified_stacked_triangulation_is_n_minus_3_octahedra(n):
    # Each stacked vertex glues one more right-angled ideal octahedron (v8) on:
    # the closed form rect = (n - 3) v8.
    g = stacked_triangulation(n, np.random.default_rng(3))
    assert abs(rectification_volume(g).value - (n - 3) * V8) <= 1e-12 * (n - 3) * V8


def test_rectification_volume_within_edge_count_bounds(corpus_graphs):
    # (E - 2) v8 / 4 <= rect(G) <= (E - 4) v8 / 2 with E edges; K4 attains both.
    for g in corpus_graphs.values():
        for h in (g, dual_graph(g)):
            E, value = len(h.edges), rectification_volume(h).value
            assert (E - 2) * V8 / 4 * (1.0 - 1e-12) <= value <= (E - 4) * V8 / 2 * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", [2, 6])
def test_stacked_triangulations_with_tiny_angles(seed):
    # Rivin's maximizer here has angles near 3e-4 and near pi - 0.08.  With
    # one OpenBLAS thread the full Newton step alone stalls at a residual of
    # 2.5e-12 on seed 6, just above SOLVE_TOL; with two it reaches 1.3e-12 and
    # then converges.
    g = stacked_triangulation(100, np.random.default_rng(seed))
    _, angles, _ = _max_volume_angles(medial_graph(g))
    assert abs(rectification_volume(dual_graph(g)).value
               - float(np.sum(lobachevsky(angles)))) < 1e-8


def test_cli_and_library_share_one_volume():
    P, res = rectification_and_volume(pyramid_graph(6))
    assert res == rectification_volume(pyramid_graph(6))
    assert abs(res.value - polyhedron_volume(P).value) < 1e-12 * res.value


def test_determinism():
    a = solve_midsphere(pyramid_graph(4))
    b = solve_midsphere(pyramid_graph(4))
    np.testing.assert_array_equal(a.face_normals, b.face_normals)
    np.testing.assert_array_equal(a.tangency_points, b.tangency_points)
