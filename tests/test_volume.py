import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from conftest import ALMOST_PROPER_PYRAMID, chart_plane, stacked_triangulation
from polyvol.core import MINKOWSKI_SIGNS, apply_lorentz, lift, random_isometry
from polyvol.errors import ImproperInput, NotIdeal, PathDiscontinuous, TruncationDegenerate
from polyvol.graphs import PlanarGraph, prism_graph, pyramid_graph, tetrahedron_graph
from polyvol.polyhedron import build_polyhedron, dihedral_angles, truncate
from polyvol.rectify import rectification
from polyvol.shapes import (
    compact_realization,
    planes_from_vertices,
    random_hyperideal,
    regular_tetrahedron,
)
from polyvol.volume import (
    VolumeMethod,
    _chain_angles,
    _cone_angles,
    _fan_tets,
    _ideal_decomposition,
    _klein_integrand,
    _orthoscheme_decomposition,
    _split8,
    _tet_rule,
    _truncation_region,
    cone_triangles,
    ideal_tetrahedra_volume,
    ideal_tetrahedron_angles,
    ideal_tetrahedron_volume,
    integrate_klein_tets,
    lobachevsky,
    polyhedron_volume,
    schlafli_residual,
)

CATALAN = 0.9159655941772190
V8 = 4 * CATALAN  # 8 * L(pi/4) = 3.663862376708876


def lob_quadrature_oracle(x):
    val, _ = quad(lambda t: -math.log(abs(2 * math.sin(t))) if t else 0.0, 0, x,
                  limit=300)
    return val


# --- Lobachevsky function -------------------------------------------------------

def test_lobachevsky_frozen_values():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(math.pi / 2)) < 1e-15
    assert abs(lobachevsky(math.pi / 4) - CATALAN / 2) < 1e-15
    assert abs(8 * lobachevsky(math.pi / 4) - 3.663862376708876) < 1e-14
    assert abs(3 * lobachevsky(math.pi / 3) - 1.0149416064096535) < 1e-14


@pytest.mark.parametrize("x", [0.05, 0.3, math.pi / 4, 1.0, math.pi / 3, 1.5])
def test_lobachevsky_matches_integral_oracle(x):
    assert abs(lobachevsky(x) - lob_quadrature_oracle(x)) < 1e-12


def test_lobachevsky_identities_grid():
    xs = np.linspace(-4.0, 4.0, 161)
    assert np.max(np.abs(lobachevsky(-xs) + lobachevsky(xs))) < 1e-12
    assert np.max(np.abs(lobachevsky(xs + math.pi) - lobachevsky(xs))) < 1e-12
    dup = lobachevsky(2 * xs) - 2 * lobachevsky(xs) - 2 * lobachevsky(xs + math.pi / 2)
    assert np.max(np.abs(dup)) < 1e-12


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_lobachevsky_identities_random(x):
    assert abs(lobachevsky(-x) + lobachevsky(x)) < 1e-12
    assert abs(lobachevsky(x + math.pi) - lobachevsky(x)) < 1e-12


# --- ideal tetrahedra ------------------------------------------------------------

REGULAR_IDEAL = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                         dtype=float) / math.sqrt(3)


def test_regular_ideal_tetrahedron():
    angles = ideal_tetrahedron_angles(REGULAR_IDEAL)
    for a in angles:
        assert abs(a - math.pi / 3) < 1e-12
    v = ideal_tetrahedron_volume(REGULAR_IDEAL)
    assert abs(v - 3 * lobachevsky(math.pi / 3)) < 1e-13


def test_regular_ideal_against_quadrature_oracle():
    v_exact = ideal_tetrahedron_volume(REGULAR_IDEAL)
    v_quad, err, _, _ = integrate_klein_tets(REGULAR_IDEAL[None], tol=1e-4,
                                             budget=3_000_000)
    assert abs(v_quad - v_exact) < 1e-4


def test_half_octahedron_tetrahedra_tile():
    # angles (pi/2, pi/4, pi/4); four copies tile the ideal octahedron
    T = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=float)
    angles = sorted(ideal_tetrahedron_angles(T))
    assert abs(angles[0] - math.pi / 4) < 1e-12
    assert abs(angles[2] - math.pi / 2) < 1e-12
    v = ideal_tetrahedron_volume(T)
    assert abs(v - 2 * lobachevsky(math.pi / 4)) < 1e-13
    total = 0.0
    for d in ([0, 0, 1], [0, 0, -1]):
        for pair in ([[1, 0, 0], [0, 1, 0]], [[-1, 0, 0], [0, -1, 0]]):
            pts = np.array([pair[0], pair[1],
                            [-pair[0][0], -pair[0][1], 0], d], dtype=float)
            total += ideal_tetrahedron_volume(pts)
    assert abs(total - V8) < 1e-12


def test_flat_configuration_is_zero():
    C = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
    assert ideal_tetrahedron_volume(C) == 0.0


def test_not_ideal_rejected():
    pts = REGULAR_IDEAL.copy()
    pts[0] *= 1.01
    with pytest.raises(NotIdeal):
        ideal_tetrahedron_volume(pts)


# --- ideal tetrahedra against the pole search ------------------------------------
#
# The earlier path, kept as the oracle: each tetrahedron projected from the
# one of 14 fixed poles farthest from its points, and measured by the cross
# ratio of all four.

_POLE_CANDIDATES = np.array([
    [0, 0, 1], [0, 0, -1], [0, 1, 0], [0, -1, 0], [1, 0, 0], [-1, 0, 0],
    [1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1],
    [-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1],
], dtype=float)
_POLE_CANDIDATES /= np.linalg.norm(_POLE_CANDIDATES, axis=1, keepdims=True)


def pole_search_angles(points):
    pts = np.asarray(points, dtype=float)
    pts = pts / np.linalg.norm(pts, axis=1)[:, None]
    s = _POLE_CANDIDATES[np.argmin(np.max(_POLE_CANDIDATES @ pts.T, axis=1))]
    a = np.array([1.0, 0.0, 0.0]) if abs(s[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(s, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(s, e1)
    z = (pts @ e1 + 1j * (pts @ e2)) / (1.0 - pts @ s)
    cross = (z[2] - z[0]) * (z[3] - z[1]) / ((z[2] - z[1]) * (z[3] - z[0]))
    if abs(cross.imag) < 1e-12 * (1.0 + abs(cross)):
        return 0.0, 0.0, 0.0
    if cross.imag < 0:
        cross = cross.conjugate()
    alpha = math.atan2(cross.imag, cross.real)
    beta = -math.atan2((1.0 - cross).imag, (1.0 - cross).real)
    return alpha, beta, math.pi - alpha - beta


def loop_ideal_decomposition(T):
    charts = T.vertex_charts
    apex = charts[0] / np.linalg.norm(charts[0])
    angles = []
    for cyc in T.skeleton.faces:
        if 0 in cyc:
            continue
        poly = charts[list(cyc)]
        poly = poly / np.linalg.norm(poly, axis=1, keepdims=True)
        for k in range(1, len(poly) - 1):
            angles.append(pole_search_angles([apex, poly[0], poly[k], poly[k + 1]]))
    return ideal_tetrahedra_volume(angles), len(angles)


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _on_circles(rng, n, lift_off):
    """n sets of four points on random circles of the sphere, lifted off them by lift_off."""
    normal = _unit(rng.normal(size=(n, 1, 3)))
    u = _unit(np.cross(normal, rng.normal(size=(n, 1, 3))))
    v = np.cross(normal, u)
    height = rng.uniform(-0.9, 0.9, size=(n, 1, 1))
    phase = np.sort(rng.uniform(0.0, 2 * math.pi, size=(n, 4, 1)), axis=1)
    circle = height * normal + np.sqrt(1.0 - height ** 2) * (np.cos(phase) * u + np.sin(phase) * v)
    return _unit(circle + lift_off * rng.normal(size=(n, 4, 3)))


def test_ideal_angles_match_pole_search(rng):
    for pts in np.concatenate([_unit(rng.normal(size=(300, 4, 3))), _on_circles(rng, 100, 1e-8)]):
        got, want = ideal_tetrahedron_angles(pts), pole_search_angles(pts)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12
        assert min(want) > 0.0


def test_clustered_ideal_angles_match_pole_search_to_their_conditioning(rng):
    # Four points within 1e-6 of each other fix their angles only to about
    # 1e-16 / 1e-6: moving one point by a rounding moves them that much, and
    # the two paths round differently.  Measured differences grow as
    # 1.5e-15 / size, from 2e-14 at size 0.1 to 1.5e-9 at 1e-6.
    size = 1e-6
    center = _unit(rng.normal(size=(100, 1, 3)))
    for pts in _unit(center + size * _unit(rng.normal(size=(100, 4, 3)))):
        got, want = ideal_tetrahedron_angles(pts), pole_search_angles(pts)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-14 / size
        assert min(want) > 0.0


def test_flat_ideal_sets_give_zeros_on_both_paths(rng):
    for pts in _on_circles(rng, 100, 0.0):
        assert ideal_tetrahedron_angles(pts) == pole_search_angles(pts) == (0.0, 0.0, 0.0)


def test_ideal_decomposition_matches_pole_search(corpus_graphs):
    graphs = list(corpus_graphs.values()) + [stacked_triangulation(40, np.random.default_rng(3))]
    for g in graphs:
        T = truncate(rectification(g))
        value, count = _ideal_decomposition(T)
        ref_value, ref_count = loop_ideal_decomposition(T)
        assert count == ref_count
        assert abs(value - ref_value) <= 1e-12 * ref_value


# --- polyhedron volume --------------------------------------------------------------

def test_rectified_tetrahedron_volume_exact():
    P = regular_tetrahedron(math.sqrt(3), rectified=True)
    res = polyhedron_volume(P)
    assert res.method == VolumeMethod.IDEAL_DECOMPOSITION
    assert abs(res.value - V8) < 1e-4
    assert abs(res.value - V8) < 1e-10  # the decomposition path is exact


def test_decomposition_independent_of_cone_vertex():
    P = regular_tetrahedron(math.sqrt(3), rectified=True)
    T = truncate(P)
    v0, _ = _ideal_decomposition(T)
    points = T.vertex_charts / np.linalg.norm(T.vertex_charts, axis=1, keepdims=True)
    tris = cone_triangles(T.skeleton.faces, 3)
    v3 = ideal_tetrahedra_volume(_cone_angles(points, points[3], tris))
    assert abs(v0 - v3) < 1e-8


def test_compact_volume_against_monte_carlo(rng, compact_tetra):
    res = polyhedron_volume(compact_tetra)
    pts = rng.uniform(-0.6, 0.6, size=(1_500_000, 3))
    normals = np.array([p.normal for p in compact_tetra.planes])
    margins = lift(pts) @ (normals * MINKOWSKI_SIGNS).T
    inside = np.all(margins <= 0, axis=1)
    r2 = np.sum(pts * pts, axis=1)
    f = np.where(inside, 1.0 / (1.0 - r2) ** 2, 0.0)
    mc = f.mean() * 1.2 ** 3
    mc_err = 3 * f.std() / math.sqrt(len(f)) * 1.2 ** 3
    assert abs(mc - res.value) < mc_err + res.error_estimate


def test_hyperideal_volume_positive(hyperideal_tetra):
    res = polyhedron_volume(hyperideal_tetra)
    assert res.method == VolumeMethod.ORTHOSCHEME
    assert 0 < res.value < V8
    quad = polyhedron_volume(hyperideal_tetra, tol=1e-4,
                             method=VolumeMethod.KLEIN_QUADRATURE)
    assert abs(res.value - quad.value) <= quad.error_estimate


def test_volume_zero_truncation(rng):
    # A tetrahedron whose three real vertices all lie exactly on the polar
    # plane of its hyperideal vertex: the truncation is the flat triangle
    # inside that plane, so the volume vanishes.  (A genuinely empty
    # truncation is unreachable for tetrahedra: the deepest point of every
    # edge survives its own endpoints' polar cuts.)
    g = tetrahedron_graph()
    pts = np.array([[2.0, 0.0, 0.0], [0.5, 0.5, 0.0],
                    [0.5, -0.4, 0.4], [0.5, -0.1, -0.5]])
    P = build_polyhedron(planes_from_vertices(pts, g), g)
    res = polyhedron_volume(P)
    assert res.value == 0.0
    # Monte-Carlo: the truncated region inside the ball has no volume.
    box = rng.uniform(-1.0, 1.0, size=(400_000, 3))
    normals = np.array([p.normal for p in P.planes])
    margins = lift(box) @ (normals * MINKOWSKI_SIGNS).T
    in_poly = np.all(margins <= 1e-9, axis=1)
    in_polars = box @ pts[0] <= 1.0 - 1e-9
    in_ball = np.sum(box * box, axis=1) < 1.0
    assert not np.any(in_poly & in_polars & in_ball)


def test_volume_monotone_under_inclusion(compact_tetra):
    # Slice a corner off the compact tetrahedron: more half-spaces, less volume.
    g5 = PlanarGraph(6, ((0, 1, 2), (0, 2, 5, 3), (0, 3, 4, 1), (1, 4, 5, 2),
                         (3, 4, 5)))
    slicer = chart_plane(np.array([-1.0, -1.0, 1.0]) / math.sqrt(3),
                                      0.45)
    Q = build_polyhedron(compact_tetra.planes + (slicer,), g5)
    v_p = polyhedron_volume(compact_tetra)
    v_q = polyhedron_volume(Q)
    assert v_q.value <= v_p.value + v_p.error_estimate + v_q.error_estimate
    assert v_q.value < v_p.value


def test_volume_isometry_invariant(rng, hyperideal_tetra):
    res = polyhedron_volume(hyperideal_tetra)
    for _ in range(3):
        L = random_isometry(rng)
        planes2 = tuple(apply_lorentz(L, pl) for pl in hyperideal_tetra.planes)
        Q = build_polyhedron(planes2, hyperideal_tetra.skeleton)
        res2 = polyhedron_volume(Q)
        assert res2.method == VolumeMethod.ORTHOSCHEME
        assert abs(res.value - res2.value) < 1e-12


def test_improper_volume_rejected():
    g = tetrahedron_graph()
    v = np.array([2.0, 0.0, 0.0])
    w = np.array([0.6, 0.3, 0.0])
    u = np.array([0.2, -0.5, 0.3])
    x = np.array([0.0, 0.0, -0.4])
    P = build_polyhedron(planes_from_vertices(np.array([v, w, u, x]), g), g)
    with pytest.raises(ImproperInput):
        polyhedron_volume(P)


def test_degenerate_truncation_with_three_nodes_has_no_volume():
    # three real vertices on the polar plane of vertex 0: the face they
    # span collapses under truncation, and the truncation's nodes are those
    # three vertices, which bound no volume
    g = tetrahedron_graph()
    pts = np.array([[2.0, 0.0, 0.0], [0.5, 0.5, 0.0],
                    [0.5, -0.4, 0.4], [0.5, -0.1, -0.5]])
    P = build_polyhedron(planes_from_vertices(pts, g), g)
    with pytest.raises(TruncationDegenerate) as info:
        truncate(P)
    nodes = info.value.points
    assert len(nodes) == 3
    assert np.linalg.norm(nodes[:, None] - pts[1:], axis=2).min(axis=0).max() < 1e-12
    res = polyhedron_volume(P)
    assert res.value == 0.0
    assert res.method == VolumeMethod.ORTHOSCHEME


def test_budget_flag():
    P = regular_tetrahedron(1.3)
    res = polyhedron_volume(P, tol=1e-12, budget=5000, method=VolumeMethod.KLEIN_QUADRATURE)
    assert res.budget_exceeded
    assert res.value > 0
    # the budget is checked before each round, so it overruns by at most
    # one round: 64 cells split into 8 children, 8 + 27 nodes each
    assert res.evaluations <= 5000 + 64 * 8 * 35


# --- orthoscheme decomposition -------------------------------------------------------

def _regular_schlafli_volume(radius):
    """Regular tetrahedron volume by the Schlafli integral from the ideal one.

    With dihedral angle b all six edges have length l(b), cosh l =
    |cos b / (1 - 2 cos b)| (the distance between polar planes once b is
    below pi/3 and the vertices are hyperideal), so dV/db = -3 l(b) and
    V(pi/3) = 3 L(pi/3).  The substitution b = pi/3 +- s^2 removes the
    logarithmic singularity of l at the ideal end.
    """
    c2 = (radius / 3.0) ** 2
    beta = math.acos((c2 + 1.0 / 3.0) / (1.0 - c2))
    side = math.copysign(1.0, beta - math.pi / 3)

    def integrand(s):
        c = math.cos(math.pi / 3 + side * s * s)
        return 2.0 * s * math.acosh(abs(c / (1.0 - 2.0 * c)))

    integral, _ = quad(integrand, 0.0, math.sqrt(abs(beta - math.pi / 3)),
                       epsabs=1e-14, epsrel=1e-14, limit=200)
    return 3 * lob_quadrature_oracle(math.pi / 3) - 3 * side * integral


@pytest.mark.parametrize("radius", [0.3, 0.5, 0.7, 1.3])
def test_regular_tetrahedron_matches_schlafli_integral(radius):
    res = polyhedron_volume(regular_tetrahedron(radius))
    assert res.method == VolumeMethod.ORTHOSCHEME
    assert res.evaluations == 0 and not res.budget_exceeded
    assert abs(res.value - _regular_schlafli_volume(radius)) < 1e-10


# Shapes outside any flow and the (method, value.hex(), error_estimate.hex())
# of polyhedron_volume at its defaults, the same with 1 and 2 OpenBLAS
# threads: both exact paths, on compact polyhedra and on truncations.
DEFAULT_VOLUME_PINS = {
    "regular0.3": (lambda: regular_tetrahedron(0.3), VolumeMethod.ORTHOSCHEME,
                   "0x1.d71778a50d578p-7", "0x1.a636641c4df1ap-36"),
    "regular0.5": (lambda: regular_tetrahedron(0.5), VolumeMethod.ORTHOSCHEME,
                   "0x1.247971f5f192ap-4", "0x1.a636641c4df1ap-36"),
    "regular1.0": (lambda: regular_tetrahedron(1.0), VolumeMethod.IDEAL_DECOMPOSITION,
                   "0x1.03d3368ee1110p+0", "0x1.19799812dea11p-40"),
    "regular1.3": (lambda: regular_tetrahedron(1.3), VolumeMethod.ORTHOSCHEME,
                   "0x1.1daa9aec9544ap+1", "0x1.3ca8cb153a753p-34"),
    "pyramid5": (lambda: compact_realization(pyramid_graph(5), 0.6), VolumeMethod.ORTHOSCHEME,
                 "0x1.853174fbcb793p-4", "0x1.5fd7fe1796495p-35"),
    "prism4": (lambda: compact_realization(prism_graph(4), 0.6), VolumeMethod.ORTHOSCHEME,
               "0x1.8c411a74453bbp-3", "0x1.a636641c4df1ap-35"),
    "hyperideal_tetrahedron": (
        lambda: random_hyperideal(tetrahedron_graph(), np.random.default_rng(951)),
        VolumeMethod.ORTHOSCHEME, "0x1.a172b70ad6cc5p+1", "0x1.3ca8cb153a753p-34"),
    "rectified_prism5": (lambda: rectification(prism_graph(5)),
                         VolumeMethod.IDEAL_DECOMPOSITION,
                         "0x1.04698df7586bdp+4", "0x1.4e406496685f4p-36"),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_VOLUME_PINS))
def test_default_volume_is_pinned_bit_for_bit(name):
    make, method, value, error = DEFAULT_VOLUME_PINS[name]
    P = make()
    for _ in range(2):  # the second call reuses what the first cached on P and its skeleton
        res = polyhedron_volume(P)
        assert (res.method, res.value.hex(), res.error_estimate.hex()) == (method, value, error)


def test_orthoscheme_ideal_regular_tetrahedron():
    P = regular_tetrahedron(1.0)
    [(value, _)] = _orthoscheme_decomposition([_truncation_region(truncate(P))])
    assert abs(value - 3 * lobachevsky(math.pi / 3)) < 1e-12
    assert polyhedron_volume(P).method == VolumeMethod.IDEAL_DECOMPOSITION
    for method in (VolumeMethod.IDEAL_DECOMPOSITION, VolumeMethod.ORTHOSCHEME):
        with pytest.raises(ValueError):
            polyhedron_volume(P, method=method)


def test_halfspace_region_measures_almost_proper_pyramid():
    # Base vertices 3 and 4 lie on the apex's polar plane x = 1/2: face 2
    # degenerates under truncation to the segment 3-4, and the volume comes
    # from the truncation's nodes and its other faces.  The region, P cut by
    # the apex's polar half-space, is the hull of the base and the points
    # where edges 0-1 and 0-2 cross x = 1/2; Klein quadrature over a Delaunay
    # split of those six points is the oracle.
    from scipy.spatial import Delaunay

    verts = ALMOST_PROPER_PYRAMID
    g = pyramid_graph(4)
    P = build_polyhedron(planes_from_vertices(verts, g), g)
    with pytest.raises(TruncationDegenerate, match="face 2 degenerates under truncation") as info:
        truncate(P)
    assert len(info.value.points) == 6
    assert sorted(map(len, info.value.cycles)) == [3, 3, 4, 4, 4]
    res = polyhedron_volume(P)
    assert res.method == VolumeMethod.ORTHOSCHEME
    assert abs(res.value - 0.0479234054) < 1e-10
    apex = verts[0]
    cuts = [apex + (apex[0] - 0.5) / (apex[0] - v[0]) * (v - apex) for v in verts[1:3]]
    region = np.vstack([verts[1:], cuts])
    value, err, exceeded, _ = integrate_klein_tets(region[Delaunay(region).simplices], tol=2e-6)
    assert not exceeded
    assert abs(res.value - value) <= err


def test_one_ideal_vertex_against_quadrature():
    g = tetrahedron_graph()
    pts = np.array([[0.0, 0.0, 1.0], [0.6, 0.1, -0.2],
                    [-0.3, 0.5, -0.3], [-0.2, -0.5, -0.1]])
    P = build_polyhedron(planes_from_vertices(pts, g), g)
    res = polyhedron_volume(P)
    oracle = polyhedron_volume(P, tol=1e-4, budget=2_000_000,
                               method=VolumeMethod.KLEIN_QUADRATURE)
    assert res.method == VolumeMethod.ORTHOSCHEME
    assert abs(res.value - oracle.value) <= oracle.error_estimate


@pytest.mark.parametrize("graph", [pyramid_graph(5), prism_graph(4)])
def test_compact_pyramid_and_prism_against_quadrature(graph):
    # Obtuse dihedral angles put some feet outside their edges and faces,
    # so both orthoscheme signs take the value -1 here.
    P = compact_realization(graph, scale=0.6)
    res = polyhedron_volume(P)
    oracle = polyhedron_volume(P, tol=1e-5, method=VolumeMethod.KLEIN_QUADRATURE)
    assert res.method == VolumeMethod.ORTHOSCHEME
    assert not oracle.budget_exceeded
    assert abs(res.value - oracle.value) <= oracle.error_estimate


@pytest.mark.parametrize("P", [compact_realization(pyramid_graph(5), scale=0.6),
                               compact_realization(prism_graph(4), scale=0.6),
                               regular_tetrahedron(1.3)])
def test_orthoscheme_independent_of_interior_point(rng, P):
    T = truncate(P)
    center, polygons = _truncation_region(T)
    [(value, _)] = _orthoscheme_decomposition([(center, polygons)])
    for _ in range(20):
        weights = rng.dirichlet(np.full(T.skeleton.n_vertices, 0.3))
        [(moved, _)] = _orthoscheme_decomposition([(weights @ T.vertex_charts, polygons)])
        assert abs(moved - value) < 1e-12


def test_orthoscheme_regions_measured_together_as_alone():
    # One kernel call over many regions gives each the value and orthoscheme
    # count it gets alone, bit for bit, whatever its size and stratum: the
    # samples of the tetrahedron flows at seeds 951 and 4242 and of the cube
    # flow at seed 951 (12 to 72 corners), the node region of a degenerate
    # truncation and a hyperideal tetrahedron's truncation, in a mixed order.
    # One region alone is polyhedron_volume.
    from polyvol.flow import FlowOptions, run_flow
    from polyvol.graphs import cube_graph
    from polyvol.shapes import jittered_compact
    from polyvol.volume import VolumeResult, _volume_or_region

    shapes = [s.polyhedron for g, seed in ((tetrahedron_graph(), 951), (tetrahedron_graph(), 4242),
                                           (cube_graph(), 951))
              for s in run_flow(jittered_compact(g, np.random.default_rng(seed)),
                                FlowOptions(seed=seed)).samples]
    pyramid = pyramid_graph(4)
    shapes.append(build_polyhedron(planes_from_vertices(ALMOST_PROPER_PYRAMID, pyramid), pyramid))
    shapes.append(random_hyperideal(tetrahedron_graph(), np.random.default_rng(951)))
    measured = [(P, _volume_or_region(P)) for P in shapes]
    measured = [measured[i] for i in np.random.default_rng(0).permutation(len(measured))
                if not isinstance(measured[i][1], VolumeResult)]
    regions = [region for _, region in measured]
    assert len(regions) == len(shapes) == 28
    assert {len(polygons.corners()) for _, polygons in regions} == {12, 18, 24, 36, 42, 48, 66, 72}
    together = _orthoscheme_decomposition(regions)
    alone = [_orthoscheme_decomposition([region])[0] for region in regions]
    assert [(value.hex(), count) for value, count in together] == [
        (value.hex(), count) for value, count in alone]
    for (P, _), (value, count) in zip(measured, alone):
        res = polyhedron_volume(P)
        assert (res.method, res.value.hex(), res.error_estimate) == (
            VolumeMethod.ORTHOSCHEME, value.hex(), 1e-12 * count)


@pytest.mark.parametrize("ideal", [False, True])
def test_chain_angles_match_minkowski_normals(rng, ideal):
    # Chains (v, P_e, P_F, O) built from their perpendicularities, O the origin.
    n = 200
    normal = rng.normal(size=(n, 3))
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    across = np.cross(normal, rng.normal(size=(n, 3)))
    across /= np.linalg.norm(across, axis=1, keepdims=True)
    along = np.cross(normal, across)
    foot_f = rng.uniform(0.05, 0.6, size=(n, 1)) * normal
    foot_e = foot_f + rng.uniform(0.05, 0.4, size=(n, 1)) * across
    reach = np.sqrt(1.0 - np.sum(foot_e * foot_e, axis=1, keepdims=True))
    v = foot_e + (reach if ideal else rng.uniform(0.05, 0.9, size=(n, 1)) * reach) * along
    chains = np.stack([v, foot_e, foot_f, np.zeros_like(v)], axis=1)
    # Inward face normals: the dual basis of the lifted chain, <n_i, P_j> = delta_ij.
    normals = np.swapaxes(np.linalg.inv(lift(chains) * MINKOWSKI_SIGNS), 1, 2)
    gram = np.einsum("nik,njk->nij", normals * MINKOWSKI_SIGNS, normals)
    scale = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    cosines = -gram / (scale[:, :, None] * scale[:, None, :])
    for i, j in ((0, 2), (0, 3), (1, 3)):
        assert np.max(np.abs(cosines[:, i, j])) < 1e-10
    expected = [np.arccos(cosines[:, i, i + 1]) for i in range(3)]
    for got, want in zip(_chain_angles(v, foot_e, foot_f), expected):
        assert np.max(np.abs(got - want)) < 1e-10
        assert np.all((got > 0) & (got < math.pi / 2))


# --- adaptive refinement against a re-sorting reference ----------------------------

def _rule_reference(tets, n):
    """Rule-n integrals of the Klein element over a batch of tets, one rule at a time."""
    pts, wts = _tet_rule(n)
    a = tets[:, 0, :]
    edges = tets[:, 1:, :] - a[:, None, :]
    nodes = a[:, None, :] + np.einsum("mk,nkj->nmj", pts, edges)
    return np.abs(np.linalg.det(edges)) * (_klein_integrand(nodes) @ wts), len(pts) * len(tets)


def _compaction_reference(tets, tol, budget):
    """Adaptive refinement that sorts and copies every live cell each round."""
    lo, e1 = _rule_reference(tets, 2)
    hi, e2 = _rule_reference(tets, 3)
    evals = e1 + e2
    vals, errs, cells = hi, np.abs(hi - lo), tets
    exceeded = False
    while float(np.sum(errs)) > tol:
        if evals >= budget:
            exceeded = True
            break
        order = np.argsort(errs)[::-1]
        n_split = max(1, min(len(order), 64, int(np.sum(errs > tol / max(1, len(errs)))) or 1))
        split_idx = order[:n_split]
        keep_idx = order[n_split:]
        children = _split8(cells[split_idx])
        clo, e1 = _rule_reference(children, 2)
        chi, e2 = _rule_reference(children, 3)
        evals += e1 + e2
        cells = np.concatenate([cells[keep_idx], children], axis=0)
        vals = np.concatenate([vals[keep_idx], chi])
        errs = np.concatenate([errs[keep_idx], np.abs(chi - clo)])
    return float(np.sum(vals)), float(np.sum(errs)), exceeded, evals


@pytest.mark.parametrize("radius,tol,budget", [
    (0.5, 1e-5, 10_000_000),
    (0.6, 1e-5, 10_000_000),
    (1.3, 1e-5, 300_000),  # the hyperideal_tetra fixture, out of budget
    (1.3, 1e-12, 5000),
])
def test_adaptive_refinement_matches_compaction_reference(radius, tol, budget):
    tets = _fan_tets(*_truncation_region(truncate(regular_tetrahedron(radius))))
    value, err, exceeded, evals = integrate_klein_tets(tets, tol=tol, budget=budget)
    ref_value, ref_err, ref_exceeded, ref_evals = _compaction_reference(tets, tol, budget)
    # same cells split in the same rounds; only summation order differs
    assert evals == ref_evals
    assert exceeded == ref_exceeded
    assert abs(value - ref_value) <= 1e-13 * ref_value
    assert abs(err - ref_err) <= 1e-13 * ref_err


# --- Schlafli residual ----------------------------------------------------------------

def test_schlafli_constant_path(compact_tetra):
    res = schlafli_residual(lambda t: compact_tetra, 0.5, 1e-4)
    assert res < 1e-9


def _angle_family(base, factor_a, factor_b):
    from polyvol.flow import realize_from_angles

    g = base.skeleton
    th0 = dihedral_angles(base)
    th_a = {e: a * factor_a for e, a in th0.items()}
    th_b = {e: a * factor_b for e, a in th0.items()}
    mid = realize_from_angles(g, {e: 0.5 * (th_a[e] + th_b[e]) for e in g.edges},
                              base)

    def path(t):
        th = {e: (1 - t) * th_a[e] + t * th_b[e] for e in g.edges}
        return realize_from_angles(g, th, mid)

    return path


def test_schlafli_residual_exact():
    from polyvol.selftest import schlafli_families

    worst = max(schlafli_residual(path, 0.5, 1e-4) for path in schlafli_families(0))
    assert worst <= 1e-8


def test_schlafli_compact_family(compact_tetra):
    path = _angle_family(compact_tetra, 1.02, 0.98)
    assert schlafli_residual(path, 0.5, 1e-4) < 1e-3


def test_schlafli_hyperideal_family(hyperideal_tetra):
    path = _angle_family(hyperideal_tetra, 1.05, 0.95)
    assert schlafli_residual(path, 0.5, 1e-4) < 1e-3


def test_schlafli_detects_discontinuity():
    def path(t):
        return regular_tetrahedron(1.0 + (t - 0.5))  # ideal at t = 0.5

    with pytest.raises(PathDiscontinuous):
        schlafli_residual(path, 0.5, 1e-4)

    from polyvol.shapes import compact_realization
    from polyvol.graphs import pyramid_graph

    P1 = regular_tetrahedron(0.5)
    P2 = compact_realization(pyramid_graph(4), 0.5)

    def path2(t):
        return P1 if t < 0.5001 else P2

    with pytest.raises(PathDiscontinuous):
        schlafli_residual(path2, 0.5, 1e-3)
