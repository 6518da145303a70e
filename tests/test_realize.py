"""Vectorized realization paths against the per-element loops they replaced.

The loop references below are the earlier implementations, kept as
oracles: the row-by-row Jacobian with its ``lstsq`` Gauss-Newton solve,
the per-vertex plane intersections and per-edge ball test of
``build_polyhedron``, the per-face scan of ``flow._scan_signals``, the
per-edge truncated lengths of ``edge_lengths``, the per-pair
``classify_vertices``, the per-edge dihedral angle, the per-plane
normalization of ``OrientedPlane`` and the per-plane transform of the
escape and nudge deformations (``one_plane_apply``).
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import polyvol.flow
from conftest import chart_plane
from polyvol._realize import (
    MAX_ITERATIONS,
    REALIZE_TOL,
    SolveReport,
    _layout,
    _PlaneSystem,
    _step,
    solve_plane_system,
    target_edges,
)
from polyvol.core import (
    MINKOWSKI_SIGNS,
    PLANE_TOL,
    TAU_IDEAL,
    AffineDeformation,
    OrientedPlane,
    PointKind,
    _unit_rows,
    lift,
    mdot,
)
from polyvol.errors import (
    EdgeMissesBall,
    NonConvex,
    PlanesDisjointInBall,
    PlanesEqual,
    PolyvolError,
    SkeletonMismatch,
)
from polyvol.flow import (
    ALMOST_PROPER_BAND,
    EDGE_COLLAPSE_TOL,
    FACE_COLLAPSE_TOL,
    IDEAL_BAND,
    FlowEventKind,
    FlowOptions,
    _scan_signals,
    run_flow,
)
from polyvol.graphs import (
    PlanarGraph,
    cube_graph,
    prism_graph,
    pyramid_graph,
    tetrahedron_graph,
)
from polyvol.polyhedron import (
    CONVEXITY_SLACK,
    MERGE_TOL,
    VERTEX_RESIDUAL_TOL,
    Polyhedron,
    PropernessReport,
    VertexStatus,
    build_polyhedron,
    classify_vertices,
    dihedral_angles,
    edge_lengths,
)
from polyvol.shapes import jittered_compact, planes_from_vertices

# --- loop references ------------------------------------------------------------


def loop_residual_and_jacobian(g, normals, verts, gram_targets, held):
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


def lstsq_step(J, r, lm):
    """Least squares on J stacked over sqrt(lm) I."""
    n_cols = J.shape[1]
    if lm > 0.0:
        J = np.vstack([J, math.sqrt(lm) * np.eye(n_cols)])
        r = np.concatenate([r, np.zeros(n_cols)])
    d, *_ = np.linalg.lstsq(J, -r, rcond=None)
    return d


def loop_solve_plane_system(g, gram_targets, normals0, verts0, *, held=()):
    normals = np.array(normals0, dtype=float)
    verts = np.array(verts0, dtype=float)
    nF = len(normals)
    r, J = loop_residual_and_jacobian(g, normals, verts, gram_targets, held)
    best = float(np.max(np.abs(r)))
    lm = 0.0
    for it in range(MAX_ITERATIONS):
        if best < REALIZE_TOL:
            return normals, verts, SolveReport(True, best, it)
        stepped = False
        for _ in range(8):
            d = lstsq_step(J, r, lm)
            alpha = 1.0
            norm0 = float(np.linalg.norm(r))
            while alpha > 1e-4:
                n_try = normals + alpha * d[:4 * nF].reshape(nF, 4)
                v_try = verts + alpha * d[4 * nF:].reshape(-1, 3)
                r_try, J_try = loop_residual_and_jacobian(g, n_try, v_try, gram_targets, held)
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
            lm = max(lm * 100.0, 1e-10)
        if not stepped:
            return normals, verts, SolveReport(False, best, it, "line search stalled")
        best = float(np.max(np.abs(r)))
        if not np.isfinite(best) or np.max(np.abs(verts)) > 1e8:
            return normals, verts, SolveReport(False, best, it, "iterate blew up")
    ok = best < REALIZE_TOL
    return normals, verts, SolveReport(ok, best, MAX_ITERATIONS,
                                       "" if ok else "max iterations reached")


def loop_build_polyhedron(planes, g, *, rectified=False):
    """Per-vertex SVDs and per-edge segment minima, raising on the first failure."""
    planes = tuple(planes)
    lifts = np.empty((g.n_vertices, 4))
    normals = np.asarray(planes, dtype=float)
    incident = np.zeros((g.n_vertices, len(planes)), dtype=bool)
    for v in range(g.n_vertices):
        inc = list(g.vertex_faces[v])
        if len(inc) < 3:
            raise SkeletonMismatch(f"vertex {v} lies on {len(inc)} faces {inc}, needs 3")
        incident[v, inc] = True
        A = normals[inc] * MINKOWSKI_SIGNS
        A = A / np.linalg.norm(A, axis=1, keepdims=True)
        _, s, vt = np.linalg.svd(A)
        w = vt[-1]
        resid = float(s[3]) if len(s) == 4 else 0.0
        if resid > VERTEX_RESIDUAL_TOL:
            raise SkeletonMismatch(f"planes at vertex {v} do not concur (residual {resid:.3g})")
        if s[2] <= VERTEX_RESIDUAL_TOL:
            raise SkeletonMismatch(
                f"planes of faces {inc} at vertex {v} do not meet in a single point "
                f"(third singular value {s[2]:.3g})")
        if abs(w[0]) < 1e-9 * np.linalg.norm(w):
            raise SkeletonMismatch(f"vertex {v} escapes the affine chart")
        lifts[v] = w / w[0]
    margins = lifts @ (normals * MINKOWSKI_SIGNS).T
    scaled = margins / np.maximum(1.0, np.linalg.norm(lifts, axis=1))[:, None]
    worst = float(np.max(scaled))
    if worst > CONVEXITY_SLACK * 10:
        bad = np.unravel_index(np.argmax(scaled), margins.shape)
        raise NonConvex(f"vertex {bad[0]} violates face {bad[1]} by {worst:.3g}")
    charts = lifts[:, 1:]
    edge_tol = 2 * TAU_IDEAL if rectified else 0.0
    for (u, v) in g.edges:
        a, b = charts[u], charts[v]
        d = b - a
        dd = float(d @ d)
        t = 0.0 if dd == 0.0 else float(np.clip(-(a @ d) / dd, 0.0, 1.0))
        q = a + t * d
        m2 = float(q @ q)
        if m2 >= 1.0 + edge_tol:
            if not rectified:
                raise EdgeMissesBall(f"edge {(u, v)} misses the ball (min |x|^2 = {m2:.6g})")
            raise EdgeMissesBall(f"edge {(u, v)} not tangent (min |x|^2 = {m2:.6g})")
    return lifts


def loop_scan_signals(P, prev, held, exempt=(), relaxed=False):
    ideal_band = 1e2 * IDEAL_BAND if relaxed else IDEAL_BAND
    edge_tol = 1e3 * EDGE_COLLAPSE_TOL if relaxed else EDGE_COLLAPSE_TOL
    face_tol = 1e3 * FACE_COLLAPSE_TOL if relaxed else FACE_COLLAPSE_TOL
    kinds, prev_kinds = P.report.kinds, prev.report.kinds
    out = []
    charts = P.vertex_charts
    radii = np.linalg.norm(charts, axis=1)
    for v, k in enumerate(prev_kinds):
        if k == PointKind.REAL and v not in exempt and radii[v] > 1.0 - ideal_band:
            out.append((FlowEventKind.VERTEX_BECAME_IDEAL, v, abs(1.0 - radii[v])))
    hyper = [v for v, k in enumerate(kinds) if k == PointKind.HYPERIDEAL]
    for v in hyper:
        if prev_kinds[v] != PointKind.HYPERIDEAL:
            continue
        for w, k in enumerate(kinds):
            if w == v or k != PointKind.REAL or (w, v) in set(held):
                continue
            m = 1.0 - float(charts[v] @ charts[w])
            if m < ALMOST_PROPER_BAND:
                out.append((FlowEventKind.ALMOST_PROPER_ONSET, (w, v), m))
    for (a, b) in P.skeleton.edges:
        d = float(np.linalg.norm(charts[a] - charts[b]))
        if d < edge_tol:
            out.append((FlowEventKind.EDGE_COLLAPSED, (a, b), d))
    for f, cyc in enumerate(P.skeleton.faces):
        pts = charts[list(cyc)]
        s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if s[1] < face_tol * max(1.0, s[0]):
            out.append((FlowEventKind.FACE_COLLAPSED, f, s[1]))
    out.sort(key=lambda item: item[2])
    return out


def loop_edge_lengths(P):
    charts = P.vertex_charts
    hyper = [v for v, k in enumerate(P.report.kinds) if k == PointKind.HYPERIDEAL]
    out = {}
    for e in P.skeleton.edges:
        a, b = charts[e[0]], charts[e[1]]
        lo, hi, empty = 0.0, 1.0, False
        for h in hyper:
            c0 = float(charts[h] @ a) - 1.0
            c1 = float(charts[h] @ (b - a))
            if abs(c1) < 1e-14:
                empty |= c0 > TAU_IDEAL
            elif c1 > 0:
                hi = min(hi, -c0 / c1)
            else:
                lo = max(lo, -c0 / c1)
        if empty or hi < lo:
            out[e] = 0.0
            continue
        x, y = a + lo * (b - a), a + hi * (b - a)
        sx, sy = 1.0 - float(x @ x), 1.0 - float(y @ y)
        if sx <= TAU_IDEAL * 2 or sy <= TAU_IDEAL * 2:
            out[e] = 0.0 if math.hypot(*(x - y)) <= MERGE_TOL else math.inf
            continue
        out[e] = math.acosh(max(1.0, (1.0 - float(x @ y)) / math.sqrt(sx * sy)))
    return out


def loop_classify_vertices(P, tol=TAU_IDEAL):
    """Kinds from each vertex's norm; statuses pole by pole, the later witness winning."""
    n = P.skeleton.n_vertices
    charts = P.vertex_charts
    kinds = []
    for v in range(n):
        r = float(np.linalg.norm(charts[v]))
        kinds.append(PointKind.REAL if r < 1.0 - tol
                     else PointKind.HYPERIDEAL if r > 1.0 + tol else PointKind.IDEAL)
    statuses = [VertexStatus.PROPER] * n
    witnesses = [None] * n
    for v in range(n):
        if kinds[v] != PointKind.HYPERIDEAL:
            continue
        for w in range(n):
            if w == v or kinds[w] != PointKind.REAL:
                continue
            margin = 1.0 - float(charts[v] @ charts[w])
            if margin < -tol:
                statuses[w] = VertexStatus.IMPROPER
                witnesses[w] = v
            elif margin <= tol and statuses[w] != VertexStatus.IMPROPER:
                statuses[w] = VertexStatus.ALMOST_PROPER
                witnesses[w] = v
    overall = next((s for s in (VertexStatus.IMPROPER, VertexStatus.ALMOST_PROPER)
                    if s in statuses), VertexStatus.PROPER)
    return PropernessReport(tuple(kinds), tuple(statuses), tuple(witnesses), overall)


def loop_dihedral_angle(a, b):
    if min(np.linalg.norm(a.normal - b.normal), np.linalg.norm(a.normal + b.normal)) < PLANE_TOL:
        raise PlanesEqual("planes coincide")
    g = float(mdot(a.normal, b.normal))
    if abs(g) > 1.0 + PLANE_TOL:
        raise PlanesDisjointInBall(f"|<n1,n2>| = {abs(g):.12g} > 1")
    return float(math.acos(np.clip(-g, -1.0, 1.0)))


def loop_dihedral_angles(P):
    return {e: loop_dihedral_angle(*(P.planes[f] for f in P.skeleton.edge_faces[e]))
            for e in P.skeleton.edges}


# --- plane system -----------------------------------------------------------------

GRAPHS = {"cube": cube_graph(), "pyramid5": pyramid_graph(5), "prism5": prism_graph(5)}
MODES = ("all", "dropped", "held")


def system_state(name, mode, seed=7):
    """A jittered compact state, targets 10% below its angles at ``target_edges``.

    ``dropped`` holds the incidence of the first edge's ends, which takes
    that edge's target away; ``held`` holds the first pair that no edge
    joins, so every edge keeps its target.  The targets are a dict, as the
    loop references take them; the solver takes their values.
    """
    g = GRAPHS[name]
    P = jittered_compact(g, np.random.default_rng(seed))
    unjoined = next(p for p in combinations(range(g.n_vertices), 2) if p not in g.edge_index)
    held = {"all": (), "dropped": (g.edges[0],), "held": (unjoined,)}[mode]
    angles = dihedral_angles(P)
    targets = {e: -math.cos(0.9 * angles[e]) for e in target_edges(g, held)}
    return g, targets, held, P.normals.copy(), P.vertex_charts.copy()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_jacobian_matches_loop_reference(name, mode):
    g, targets, held, normals, verts = system_state(name, mode)
    r, jacobian = _PlaneSystem(g, list(targets.values()), held)(normals, verts)
    J = jacobian()
    r_ref, J_ref = loop_residual_and_jacobian(g, normals, verts, targets, held)
    assert np.array_equal(J, J_ref)
    assert np.max(np.abs(r - r_ref)) <= 1e-15


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_jacobian_matches_central_differences(name, mode):
    g, targets, held, normals, verts = system_state(name, mode)
    system = _PlaneSystem(g, list(targets.values()), held)
    nF = len(normals)
    x = np.concatenate([normals.ravel(), verts.ravel()])

    def residual(y):
        return system(y[:4 * nF].reshape(nF, 4), y[4 * nF:].reshape(-1, 3))[0]

    h = 1e-6
    J_fd = np.column_stack([(residual(x + h * e) - residual(x - h * e)) / (2 * h)
                            for e in np.eye(len(x))])
    J = system(normals, verts)[1]()
    np.testing.assert_allclose(J, J_fd, rtol=0, atol=1e-8)


@pytest.mark.parametrize("lm", [0.0, 1e-6])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_step_matches_stacked_lstsq(name, mode, lm):
    g, targets, held, normals, verts = system_state(name, mode)
    r, jacobian = _PlaneSystem(g, list(targets.values()), held)(normals, verts)
    J = jacobian()
    d = _step(J, r, lm)
    d_ref = lstsq_step(J, r, lm)
    assert np.linalg.norm(d - d_ref) <= 1e-10 * np.linalg.norm(d_ref)


def test_singular_step_fails_until_damped():
    g, targets, held, normals, verts = system_state("cube", "all")
    r, jacobian = _PlaneSystem(g, list(targets.values()), held)(normals, verts)
    J = jacobian()
    J[3] = 0.0
    assert _step(J, r, 0.0) is None
    d = _step(J, r, 1e-10)
    assert d is not None and np.all(np.isfinite(d))


def test_solve_matches_loop_reference():
    g, targets, held, normals, verts = system_state("prism5", "dropped")
    n1, v1, rep1 = solve_plane_system(g, list(targets.values()), normals, verts, held=held)
    n2, v2, rep2 = loop_solve_plane_system(g, targets, normals, verts, held=held)
    assert rep1.ok and rep2.ok
    assert abs(rep1.iterations - rep2.iterations) <= 1
    np.testing.assert_allclose(n1, n2, atol=1e-8)
    np.testing.assert_allclose(v1, v2, atol=1e-8)


def test_plane_system_builds_one_jacobian_per_newton_step(monkeypatch):
    # The cube flow from jittered_compact(cube_graph(), default_rng(951)) with
    # seed 951: a Jacobian is built only at an iterate that takes a Newton
    # step, never at a converged iterate or a rejected line-search point.
    call, solve = _PlaneSystem.__call__, polyvol.flow.solve_plane_system
    evaluations, jacobians, iterations = [], [], []

    def counted_call(self, normals, verts):
        r, jacobian = call(self, normals, verts)
        evaluations.append(None)
        return r, lambda: jacobians.append(None) or jacobian()

    def counted_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        iterations.append(result[2].iterations)
        return result

    monkeypatch.setattr(_PlaneSystem, "__call__", counted_call)
    monkeypatch.setattr(polyvol.flow, "solve_plane_system", counted_solve)
    run_flow(jittered_compact(cube_graph(), np.random.default_rng(951)), FlowOptions(seed=951))
    assert len(jacobians) == sum(iterations) == 46
    # A residual at each solve's start and one per accepted step: this flow
    # rejects no line-search point, and 23 converged iterates build no J.
    assert len(evaluations) == len(iterations) + sum(iterations) == 69


# --- flow agreement ----------------------------------------------------------------


def _near_ideal(samples):
    """Samples at a ``VertexBecameIdeal`` event or between two of them.

    Near an ideal vertex the angles fix the volume only to about 1e-4
    relative, so a state there depends on the solver's path; the states
    between two crossings of one cluster inherit that.
    """
    ideal = [s.event == FlowEventKind.VERTEX_BECAME_IDEAL for s in samples]
    return [flag or (0 < i < len(ideal) - 1 and ideal[i - 1] and ideal[i + 1])
            for i, flag in enumerate(ideal)]


@pytest.mark.parametrize("g, seed", [(tetrahedron_graph(), 3), (pyramid_graph(4), 4)],
                         ids=["tetrahedron", "pyramid4"])
def test_flow_agrees_with_loop_engine(monkeypatch, g, seed):
    P0 = jittered_compact(g, np.random.default_rng(seed))
    new = run_flow(P0, FlowOptions(seed=seed))
    # A flow trial passes its targets as an array over target_edges(g, held).
    monkeypatch.setattr(polyvol.flow, "solve_plane_system",
                        lambda g, targets, *args, held=(): loop_solve_plane_system(
                            g, dict(zip(target_edges(g, held), targets)), *args, held=held))
    ref = run_flow(P0, FlowOptions(seed=seed))
    assert [e.kind for e in new.events] == [e.kind for e in ref.events]
    assert [(s.t, s.event) for s in new.samples] == [(s.t, s.event) for s in ref.samples]
    assert abs(new.sup_estimate - ref.sup_estimate) <= 1e-9 * ref.sup_estimate
    for a, b, near in zip(ref.samples, new.samples, _near_ideal(ref.samples)):
        tol = 1e-3 if near else 1e-9
        assert abs(a.volume.value - b.volume.value) <= tol * a.volume.value, (a.t, a.event)


def test_flow_plane_system_reuse_is_bit_identical(monkeypatch):
    # The index arrays kept per stratum give the same trace as arrays rebuilt
    # for every solve.
    P0 = jittered_compact(pyramid_graph(4), np.random.default_rng(4))
    kept = run_flow(P0, FlowOptions(seed=4))
    monkeypatch.setattr("polyvol._realize._layout", _layout.__wrapped__)
    rebuilt = run_flow(P0, FlowOptions(seed=4))
    assert [(s.t, s.volume.value) for s in kept.samples] == \
        [(s.t, s.volume.value) for s in rebuilt.samples]
    assert [(e.t_value, e.volume_at_event) for e in kept.events] == \
        [(e.t_value, e.volume_at_event) for e in rebuilt.events]
    assert kept.sup_estimate == rebuilt.sup_estimate


# --- batched build_polyhedron --------------------------------------------------------


def _raised(build, planes, g, **kw):
    with pytest.raises(PolyvolError) as info:
        build(planes, g, **kw)
    return type(info.value), str(info.value)


def _tetra_points(radius):
    return radius * np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)


def _pyramid5_planes():
    ring = [(0.5 * math.cos(a), 0.5 * math.sin(a), -0.3)
            for a in 2 * math.pi * np.arange(5) / 5]
    return planes_from_vertices(np.array([(0.0, 0.0, 0.5)] + ring), pyramid_graph(5))


def test_build_names_lowest_vertex_on_too_few_faces():
    # K4 with vertices 4 and 5 inserted on edges 0-1 and 2-3: both lie on two faces.
    g = PlanarGraph(6, ((0, 4, 1, 2), (0, 3, 1, 4), (0, 2, 5, 3), (1, 3, 5, 2)))
    pts = _tetra_points(0.55)
    pts = np.vstack([pts, (pts[0] + pts[1]) / 2, (pts[2] + pts[3]) / 2])
    planes = planes_from_vertices(pts, g)
    got = _raised(build_polyhedron, planes, g)
    assert got == _raised(loop_build_polyhedron, planes, g)
    assert got[0] is SkeletonMismatch and "vertex 4 lies on 2 faces" in got[1]


def test_build_names_non_concurrent_apex():
    g = pyramid_graph(5)
    planes = list(_pyramid5_planes())
    planes[2] = OrientedPlane(normal=planes[2] + np.array([1e-3, 0, 0, 0]))
    got = _raised(build_polyhedron, planes, g)
    assert got == _raised(loop_build_polyhedron, planes, g)
    assert "planes at vertex 0 do not concur" in got[1]


def test_build_names_planes_meeting_in_a_line():
    g = tetrahedron_graph()
    planes = list(planes_from_vertices(_tetra_points(0.55), g))
    planes[1] = planes[0]
    got = _raised(build_polyhedron, planes, g)
    assert got == _raised(loop_build_polyhedron, planes, g)
    assert "do not meet in a single point" in got[1]


@pytest.mark.parametrize("rectified", [False, True])
def test_build_names_lowest_edge_missing_the_ball(rectified):
    g = tetrahedron_graph()
    planes = planes_from_vertices(_tetra_points(1.9), g)
    got = _raised(build_polyhedron, planes, g, rectified=rectified)
    assert got == _raised(loop_build_polyhedron, planes, g, rectified=rectified)
    assert got[0] is EdgeMissesBall and f"edge {g.edges[0]} " in got[1]


@pytest.mark.parametrize("first", [0, 1])
def test_build_takes_the_closest_point_on_the_edge_not_its_line(first):
    # Edge 0-1 stays outside the ball while its line passes near the origin,
    # beyond vertex `first`: the segment parameter is clamped at that end.
    g = tetrahedron_graph()
    pts = np.array([[1.2, 0.0, 0.0], [2.0, 0.0, 0.1], [0.0, 0.5, -0.2], [0.0, -0.5, -0.2]])
    pts[[0, 1]] = pts[[first, 1 - first]]
    planes = planes_from_vertices(pts, g)
    got = _raised(build_polyhedron, planes, g)
    assert got == _raised(loop_build_polyhedron, planes, g)
    assert got == (EdgeMissesBall, "EdgeMissesBall: edge (0, 1) misses the ball (min |x|^2 = 1.44)")


# --- recorded flow states ---------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded():
    """Arguments of ``_scan_signals`` and ``edge_lengths`` during three flows."""
    scans, lengths = [], []
    scan, measure = polyvol.flow._scan_signals, polyvol.flow.edge_lengths
    mp = pytest.MonkeyPatch()
    mp.setattr(polyvol.flow, "_scan_signals",
               lambda *args, **kw: scans.append((args, kw)) or scan(*args, **kw))
    mp.setattr(polyvol.flow, "edge_lengths", lambda P: lengths.append(P) or measure(P))
    try:
        for g, seed in [(pyramid_graph(4), 11), (prism_graph(3), 12), (cube_graph(), 4242)]:
            run_flow(jittered_compact(g, np.random.default_rng(seed)), FlowOptions(seed=seed))
    finally:
        mp.undo()
    return scans, lengths


def test_scan_signals_matches_face_loop_on_flattened_base():
    # Apex over a square base squashed onto the x axis: one quadrilateral
    # face collapses, the four triangles stay wide.
    charts = np.array([(0.0, 0.0, 0.6), (0.5, 0.0, -0.2), (0.0, 1e-8, -0.2),
                       (-0.5, 0.0, -0.2), (0.0, -1e-8, -0.2)])
    g = pyramid_graph(4)
    P = Polyhedron(normals=(), skeleton=g, vertex_lifts=lift(charts))
    got, _ = _scan_signals(P, P, [])
    assert got == loop_scan_signals(P, P, [])
    assert [(kind, data) for kind, data, _ in got] == [(FlowEventKind.FACE_COLLAPSED, 4)]
    assert got == _scan_signals(P, P, [], relaxed=True)[0]


def test_scan_signals_matches_loop_with_held_incidence():
    # A hyperideal apex with the base square just inside its polar plane
    # z = 1 / 1.5: every base vertex signals an almost-proper onset except
    # the held one.
    z = 1 / 1.5 - 1e-8
    charts = np.array([(0.0, 0.0, 1.5), (0.5, 0.0, z), (0.0, 0.5, z), (-0.5, 0.0, z), (0.0, -0.5, z)])
    P = Polyhedron(normals=(), skeleton=pyramid_graph(4), vertex_lifts=lift(charts))
    got, _ = _scan_signals(P, P, [(1, 0)])
    assert got == loop_scan_signals(P, P, [(1, 0)])
    assert sorted(data for kind, data, _ in got if kind == FlowEventKind.ALMOST_PROPER_ONSET) \
        == [(2, 0), (3, 0), (4, 0)]


def test_scan_signals_matches_loop_on_recorded_flow_states(recorded):
    scans, _ = recorded
    assert len(scans) >= 50
    # Some of these scans exempt a vertex whose crossing the flow follows.
    assert any(args[3] for args, _ in scans[:50])
    for args, kw in scans[:50]:
        assert _scan_signals(*args, **kw)[0] == loop_scan_signals(*args, **kw)


def test_scan_gaps_are_looked_up_per_candidate(recorded):
    # Every signal has a positive gap, every edge its length below the
    # threshold; a candidate the scan did not test, or no candidate at all (a
    # bracket's far end after a failed solve), has none.
    scans, _ = recorded
    for (P, prev, held, *exempt), kw in scans:
        got, gaps = _scan_signals(P, prev, held, *exempt, **kw)
        assert all(gaps.get((kind, data)) > 0 for kind, data, _ in got)
        tol = (1e3 if kw.get("relaxed") else 1.0) * EDGE_COLLAPSE_TOL
        for (a, b) in P.skeleton.edges:
            length = np.linalg.norm(P.vertex_charts[a] - P.vertex_charts[b])
            assert gaps.get((FlowEventKind.EDGE_COLLAPSED, (a, b))) == \
                pytest.approx(tol - length, rel=1e-12, abs=1e-15)
        assert gaps.get(None) is None
        assert gaps.get((FlowEventKind.VERTEX_BECAME_IDEAL, P.skeleton.n_vertices)) is None
        assert gaps.get((FlowEventKind.FACE_COLLAPSED, len(P.skeleton.faces))) is None


def test_build_matches_loop_on_recorded_flow_states(recorded):
    scans, _ = recorded
    for (P, *_), _kw in scans[:50]:
        lifts = build_polyhedron(P.planes, P.skeleton).vertex_lifts
        np.testing.assert_array_equal(lifts, loop_build_polyhedron(P.planes, P.skeleton))


def exact_polar_distance(a, b):
    """Distance of the polar planes of hyperideal charts a and b, from exact rationals.

    ``cosh^2 l - 1`` is evaluated exactly; ``l = asinh(sqrt(cosh^2 l - 1))``
    then loses nothing to cancellation near l = 0.
    """
    a, b = ([Fraction(float(c)) for c in p] for p in (a, b))
    dot = lambda p, q: sum(s * r for s, r in zip(p, q))
    cosh2 = (1 - dot(a, b)) ** 2 / ((dot(a, a) - 1) * (dot(b, b) - 1))
    return math.asinh(math.sqrt(cosh2 - 1))


def test_edge_lengths_match_loop_on_recorded_flow_states(recorded):
    # Near the end of the flow, edges between two hyperideal vertices are short
    # and the loop's cut points lie next to the sphere, where 1 - |x|^2 cancels
    # (up to 1.2e-8 relative on these states).  Those edges are checked against
    # an exact rational evaluation of their polar planes' distance instead.
    _, lengths = recorded
    polar = 0
    for P in lengths:
        got, ref = edge_lengths(P), loop_edge_lengths(P)
        assert got.keys() == ref.keys()
        hyper = [k == PointKind.HYPERIDEAL for k in P.report.kinds]
        for e in ref:
            if hyper[e[0]] and hyper[e[1]]:
                polar += 1
                want = exact_polar_distance(*P.vertex_charts[list(e)])
                assert got[e] == pytest.approx(want, rel=1e-11)
            else:
                assert got[e] == pytest.approx(ref[e], rel=1e-9, abs=1e-12)
    assert polar


def _recorded_states(recorded):
    """Every distinct state the two recorded flows scanned or measured."""
    scans, lengths = recorded
    states = {id(P): P for (P, prev, *_), _kw in scans for P in (P, prev)}
    states.update((id(P), P) for P in lengths)
    return list(states.values())


def test_classify_vertices_matches_loop_on_recorded_flow_states(recorded):
    states = _recorded_states(recorded)
    kinds = set()
    for P in states:
        for tol in (TAU_IDEAL, 1e-3):
            got = classify_vertices(P, tol)
            assert got == loop_classify_vertices(P, tol)
            assert all(type(w) is int for w in got.witnesses if w is not None)
            kinds.update(got.kinds)
    assert kinds == set(PointKind)


def test_classify_vertices_keeps_the_loop_witness_order():
    # Poles 0 and 1 with polar planes x = 1/2 and y = 1/2.  Vertex 2 is outside
    # the first and on the second, vertex 3 the other way round, vertex 4 on
    # both, vertex 5 outside both; vertex 6 is ideal.  An improper pole is the
    # witness before an almost proper one, and of two alike the later one.
    charts = np.array([(2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.6, 0.5, 0.0), (0.5, 0.6, 0.0),
                       (0.5, 0.5, 0.1), (0.6, 0.6, 0.0), (0.0, 0.0, 1.0)])
    P = Polyhedron(normals=(), skeleton=pyramid_graph(6), vertex_lifts=lift(charts))
    got = classify_vertices(P)
    assert got == loop_classify_vertices(P)
    I, A = VertexStatus.IMPROPER, VertexStatus.ALMOST_PROPER
    assert got.statuses[2:6] == (I, I, A, I) and got.witnesses[2:6] == (0, 1, 1, 1)
    assert got.kinds[6] == PointKind.IDEAL and got.overall == I
    # Without the improper vertices the configuration is almost proper.
    P = Polyhedron(normals=(), skeleton=tetrahedron_graph(), vertex_lifts=lift(charts[[0, 1, 4, 6]]))
    assert classify_vertices(P) == loop_classify_vertices(P)
    assert classify_vertices(P).overall == A


def test_dihedral_angles_match_loop_on_recorded_flow_states(recorded):
    for P in _recorded_states(recorded):
        assert dihedral_angles(P) == loop_dihedral_angles(P)


def test_dihedral_angles_raise_as_loop():
    # The first offending edge raises, with the loop's error and message.  In
    # the last case faces 2 and 3 coincide on a later edge than the disjoint
    # faces 0 and 1.
    g = tetrahedron_graph()
    planes = planes_from_vertices(_tetra_points(0.55), g)
    x_low, x_high = chart_plane([1, 0, 0], 0.9), chart_plane([-1, 0, 0], 0.9)
    for kind, case in ((PlanesEqual, (planes[0], planes[0], planes[2], planes[3])),
                       (PlanesDisjointInBall, (x_low, x_high, planes[2], planes[3])),
                       (PlanesDisjointInBall, (x_low, x_high, planes[2], planes[2]))):
        P = Polyhedron(normals=case, skeleton=g, vertex_lifts=lift(_tetra_points(0.55)))
        with pytest.raises(PolyvolError) as got:
            dihedral_angles(P)
        with pytest.raises(PolyvolError) as want:
            loop_dihedral_angles(P)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        assert type(got.value) is kind


def one_plane_apply(T, plane):
    """The image of one plane under the deformation T, solved alone."""
    eta = MINKOWSKI_SIGNS
    return OrientedPlane(normal=np.linalg.solve(T.matrix.T, eta * plane.normal) * eta)


def test_apply_planes_match_one_plane_form(recorded):
    # The translations of escape_deformation and the homotheties of
    # nudge_ideal_vertices, as those build them, on every recorded state.
    rng = np.random.default_rng(6)
    for P in _recorded_states(recorded):
        charts = P.vertex_charts
        u = charts[int(rng.integers(len(charts)))]
        center = charts.mean(axis=0)
        for T in (AffineDeformation.translation(u * (1.0 + 1e-5 - np.linalg.norm(u))),
                  AffineDeformation.translation(u * rng.uniform(1e-5, 0.3)),
                  AffineDeformation.homothety(center, 1.0 + 1e-3 * 0.5 ** rng.integers(10))):
            outcomes = []
            for transform in (lambda: list(T.apply_planes(P.normals)),
                              lambda: [one_plane_apply(T, p).normal for p in P.planes]):
                try:
                    outcomes.append(transform())
                except ValueError as exc:
                    outcomes.append(str(exc))
            got, want = outcomes
            if isinstance(want, str):
                assert got == want
            else:
                assert all(np.array_equal(a, b) and not a.flags.writeable
                           for a, b in zip(got, want))


def test_unit_rows_match_one_plane_constructor(recorded):
    rng = np.random.default_rng(5)
    for P in _recorded_states(recorded):
        for normals in (P.normals, P.normals * rng.uniform(0.5, 2.0, size=(len(P.planes), 1))):
            got = list(_unit_rows(normals))
            want = [OrientedPlane(normal=n).normal for n in normals]
            assert all(np.array_equal(a, b) and not a.flags.writeable for a, b in zip(got, want))
    good = P.normals
    for row in ([0.0, 0.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0],
                [np.inf, 1.0, 0.0, 0.0]):
        bad = np.vstack([good, row])
        with pytest.raises(ValueError) as want:
            OrientedPlane(normal=np.array(row))
        with pytest.raises(ValueError) as got:
            _unit_rows(bad)
        assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="4-vector"):
        build_polyhedron(good[:, :3], P.skeleton)
