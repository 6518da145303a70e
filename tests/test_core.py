import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    apply_point,
    chart_equation,
    chart_plane,
    closest_chart_point,
    plane_basis,
    polar_plane,
    side_of,
)
from polyvol.core import (
    AffineDeformation,
    PointKind,
    apply_lorentz,
    classify_points,
    interior_cosines,
    lift,
    mdot,
    random_isometry,
)
from polyvol.errors import DegenerateDeformation, PlanesDisjointInBall, PlanesEqual

finite_coords = st.floats(min_value=-3.0, max_value=3.0,
                          allow_nan=False, allow_infinity=False)


def classify_point(p):
    """The library's kind of one chart point."""
    return classify_points(np.array([p], dtype=float))[0]


def dihedral_angle(a, b):
    """The interior dihedral angle of two planes, from the library's cosines."""
    return math.acos(interior_cosines(a.normal[None], b.normal[None])[0])


# --- classification -----------------------------------------------------------

def test_classify_examples():
    assert classify_point([0, 0, 0]) == PointKind.REAL
    assert classify_point([1, 0, 0]) == PointKind.IDEAL
    assert classify_point([2, 0, 0]) == PointKind.HYPERIDEAL


def test_classify_rotation_stable(rng):
    p = np.array([0.3, -0.7, 0.2])
    for _ in range(20):
        q = rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(q)
        assert classify_point(Q @ p) == classify_point(p)


@given(st.tuples(finite_coords, finite_coords, finite_coords))
@settings(max_examples=200, deadline=None)
def test_classify_matches_minkowski_sign(coords):
    p = np.array(coords)
    sq = float(mdot(lift(p), lift(p)))
    if abs(np.linalg.norm(p) - 1.0) <= 1e-6:
        return  # skip the ideal band
    kind = classify_point(p)
    if sq < 0:
        assert kind == PointKind.REAL
    else:
        assert kind == PointKind.HYPERIDEAL


# --- polar planes --------------------------------------------------------------

def test_polar_plane_examples():
    pl = polar_plane([2, 0, 0])
    d, c = chart_equation(pl)
    np.testing.assert_allclose(d / np.linalg.norm(d), [1, 0, 0], atol=1e-12)
    assert abs(c / np.linalg.norm(d) - 0.5) < 1e-12
    # half-space x <= 1/2 contains the origin
    assert side_of(pl, [0, 0, 0]) <= 0
    assert side_of(pl, [0.6, 0, 0]) > 0

    pl_z = polar_plane([0, 0, 2])
    d, c = chart_equation(pl_z)
    np.testing.assert_allclose(d / np.linalg.norm(d), [0, 0, 1], atol=1e-12)
    assert abs(c / np.linalg.norm(d) - 0.5) < 1e-12

    far = polar_plane([10, 0, 0])
    d, c = chart_equation(far)
    assert abs(c / np.linalg.norm(d) - 0.1) < 1e-12
    # the farther the pole, the closer the plane to the origin
    assert abs(np.linalg.norm(closest_chart_point(far))) < \
        abs(np.linalg.norm(closest_chart_point(pl)))


def _line_orthogonal_to_plane_at_crossing(p, direction, plane):
    """Oracle: Minkowski-orthogonality of a line and plane at their crossing.

    Solves for the crossing point x, builds the line's unit tangent in
    the tangent space at x, and checks it is (anti)parallel to the plane
    normal there, i.e. |<u, n>| = 1.
    """
    d, c = chart_equation(plane)
    denom = float(d @ direction)
    t = (c - float(d @ p)) / denom
    x = p + t * direction
    assert np.linalg.norm(x) < 1.0  # crossing inside the ball
    xhat = lift(x) / math.sqrt(-mdot(lift(x), lift(x)))
    u = np.concatenate([[0.0], direction])
    u = u + mdot(u, xhat) * xhat  # project onto the tangent space at x
    u = u / math.sqrt(mdot(u, u))
    return abs(float(mdot(u, plane.normal)))


def test_polar_plane_orthogonality_oracle(rng):
    for pole in ([2.0, 0, 0], [10.0, 0, 0], [1.5, -0.8, 0.4]):
        pole = np.array(pole)
        plane = polar_plane(pole)
        hits = 0
        while hits < 10:
            target = rng.uniform(-0.5, 0.5, size=3)
            direction = target - pole
            direction /= np.linalg.norm(direction)
            val = _line_orthogonal_to_plane_at_crossing(pole, direction, plane)
            assert abs(val - 1.0) < 1e-9
            hits += 1


@given(st.tuples(finite_coords, finite_coords, finite_coords))
@settings(max_examples=200, deadline=None)
def test_polar_involution(coords):
    p = np.array(coords)
    if np.linalg.norm(p) <= 1.2:
        return
    n = polar_plane(p).normal
    np.testing.assert_allclose(n / n[0], lift(p), atol=1e-10)


# --- polar half-spaces of two poles ----------------------------------------------

def test_polar_half_spaces_contain_each_other(rng):
    # The segment pq meets H^3: each polar plane lies in the other's
    # half-space, sampled.
    p, q = np.array([-2.0, 0, 0]), np.array([2.0, 0, 0])
    Pp, Pq = polar_plane(p), polar_plane(q)
    for plane, other in ((Pp, Pq), (Pq, Pp)):
        x0 = closest_chart_point(plane)
        e1, e2 = plane_basis(plane)
        for _ in range(1000):
            s, t = rng.uniform(-1, 1, size=2)
            pt = x0 + s * e1 + t * e2
            if np.linalg.norm(pt) < 1.0:
                assert side_of(other, pt) <= 1e-12

    # Only the half-line from p through q meets H^3: H_p lies inside H_q
    # ({x <= 1/4} inside {x <= 1/2}).
    p, q = np.array([4.0, 0, 0]), np.array([2.0, 0, 0])
    Hq = polar_plane(q)
    for _ in range(1000):
        pt = rng.uniform(-1, 1, size=3)
        if np.linalg.norm(pt) < 1.0 and side_of(polar_plane(p), pt) <= 0:
            assert side_of(Hq, pt) <= 1e-12


# --- dihedral angles -------------------------------------------------------------

def test_dihedral_angle_orthogonal_planes():
    a = chart_plane([-1, 0, 0], 0.0)  # keep x >= 0
    b = chart_plane([0, -1, 0], 0.0)  # keep y >= 0
    assert abs(dihedral_angle(a, b) - math.pi / 2) < 1e-12


def test_dihedral_angle_tangent_line_is_zero():
    # Planes x+z = 1 and x-z = 1 meet in the line {(1, t, 0)} tangent at (1,0,0).
    a = chart_plane([1, 0, 1], 1.0)
    b = chart_plane([1, 0, -1], 1.0)
    assert abs(dihedral_angle(a, b)) < 1e-9


def test_dihedral_angle_errors():
    a = chart_plane([1, 0, 0], 0.0)
    with pytest.raises(PlanesEqual):
        dihedral_angle(a, chart_plane([1, 0, 0], 0.0))
    far = chart_plane([1, 0, 0], 0.5)
    far2 = chart_plane([-1, 0, 0], 0.5)
    with pytest.raises(PlanesDisjointInBall):
        dihedral_angle(far, far2)


def _geodesic_angle_oracle(a, b):
    """Independent dihedral angle from in-plane directions at a crossing point.

    Finds a point x on the intersection line inside the ball, builds the
    tangent vector of each plane orthogonal to the line and oriented into
    the other half-space, and measures the Minkowski angle between them.
    """
    da, ca = chart_equation(a)
    db, cb = chart_equation(b)
    line_dir = np.cross(da, db)
    line_dir /= np.linalg.norm(line_dir)
    A = np.array([da, db, line_dir])
    x = np.linalg.solve(A, [ca, cb, 0.0])
    # walk along the line into the ball if needed
    if np.linalg.norm(x) >= 1.0:
        ts = np.linspace(-2, 2, 4001)
        pts = x[None, :] + ts[:, None] * line_dir[None, :]
        k = int(np.argmin(np.sum(pts * pts, axis=1)))
        x = pts[k]
    assert np.linalg.norm(x) < 1.0
    xhat = lift(x) / math.sqrt(-mdot(lift(x), lift(x)))
    ell = np.concatenate([[0.0], line_dir])
    ell = ell + mdot(ell, xhat) * xhat
    ell /= math.sqrt(mdot(ell, ell))

    def in_plane_dir(plane, other):
        n = plane.normal
        u = None
        for cand in np.eye(4):
            u = cand + mdot(cand, xhat) * xhat
            u = u - mdot(u, n) * n
            u = u - mdot(u, ell) * ell
            if mdot(u, u) > 1e-6:
                break
        u /= math.sqrt(mdot(u, u))
        if mdot(u, other.normal) > 0:
            u = -u
        return u

    u1 = in_plane_dir(a, b)
    u2 = in_plane_dir(b, a)
    return math.acos(np.clip(mdot(u1, u2), -1, 1))


def test_dihedral_angle_geodesic_oracle(rng):
    made = 0
    while made < 12:
        n1 = rng.normal(size=3)
        n1 /= np.linalg.norm(n1)
        n2 = rng.normal(size=3)
        n2 /= np.linalg.norm(n2)
        c1, c2 = rng.uniform(-0.5, 0.5, size=2)
        try:
            a = chart_plane(n1, c1)
            b = chart_plane(n2, c2)
            theta = dihedral_angle(a, b)
        except (PlanesDisjointInBall, PlanesEqual):
            continue
        oracle = _geodesic_angle_oracle(a, b)
        assert abs(theta - oracle) < 1e-8
        made += 1


def test_dihedral_angle_symmetric_and_isometry_invariant(rng):
    a = chart_plane([1, 0.2, 0], 0.3)
    b = chart_plane([0, 1, -0.1], -0.2)
    assert abs(dihedral_angle(a, b) - dihedral_angle(b, a)) < 1e-15
    for _ in range(10):
        L = random_isometry(rng)
        a2 = apply_lorentz(L, a)
        b2 = apply_lorentz(L, b)
        assert abs(dihedral_angle(a2, b2) - dihedral_angle(a, b)) < 1e-10


# --- deformations -----------------------------------------------------------------

def test_deformation_identity_and_homothety():
    ident = AffineDeformation.homothety([0.2, -0.1, 0.4], 1.0)
    p = np.array([0.3, 0.0, 0.0])
    np.testing.assert_allclose(apply_point(ident, p), p)
    h = AffineDeformation.homothety([0, 0, 0], 2.0)
    np.testing.assert_allclose(apply_point(h, [0.3, 0, 0]), [0.6, 0, 0])


def test_deformation_rejects_bad_factor():
    with pytest.raises(DegenerateDeformation):
        AffineDeformation.homothety([0, 0, 0], 0.0)


def test_deformation_plane_through_images_of_points(rng):
    plane = chart_plane([1, 1, 0], 0.4)
    d, c = chart_equation(plane)
    x0 = closest_chart_point(plane)
    e1, e2 = plane_basis(plane)
    pts = [x0, x0 + 0.3 * e1, x0 - 0.2 * e1 + 0.4 * e2]
    t = AffineDeformation.translation([0.05, -0.1, 0.2])
    img_plane = t.apply_planes(plane.normal[None])[0]
    for p in pts:
        assert abs(side_of(img_plane, apply_point(t, p))) < 1e-12
    # side carried along
    inside = x0 - 0.1 * d / np.linalg.norm(d)
    assert (side_of(plane, inside) <= 0) == (side_of(img_plane, apply_point(t, inside)) <= 0)


def test_unproper_lemma_instance():
    # v=(2,0,0), w just inside the polar half-space; translating toward the
    # ball keeps the image of w strictly inside the image half-space.
    v = np.array([2.0, 0, 0])
    w = np.array([0.49, 0, 0])
    assert side_of(polar_plane(v), w) <= 0
    t = AffineDeformation.translation([-0.05, 0, 0])
    v2 = apply_point(t, v)
    w2 = apply_point(t, w)
    pl2 = polar_plane(v2)
    assert side_of(pl2, w2) < -1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_unproper_lemma_property(seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-2.5, 2.5, size=3)
    if np.linalg.norm(v) < 1.3:
        return
    w = rng.uniform(-0.9, 0.9, size=3)
    if np.linalg.norm(w) >= 1.0 or side_of(polar_plane(v), w) > 0:
        return
    lam = rng.uniform(0.7, 0.999)
    d = AffineDeformation.homothety([0, 0, 0], lam)  # contraction: stays in cone
    v2 = apply_point(d, v)
    if np.linalg.norm(v2) <= 1.0 + 1e-9:
        return
    w2 = apply_point(d, w)
    if np.linalg.norm(w2) < 1.0:
        assert side_of(polar_plane(v2), w2) < 1e-12


def test_deformation_commutes_with_skeleton(hyperideal_tetra):
    from polyvol.polyhedron import build_polyhedron

    P = hyperideal_tetra
    t = AffineDeformation.translation([0.02, -0.03, 0.01])
    Q = build_polyhedron(t.apply_planes(P.normals), P.skeleton)
    expect = np.array([apply_point(t, x) for x in P.vertex_charts])
    np.testing.assert_allclose(Q.vertex_charts, expect, atol=1e-9)


def test_isometry_invariance_of_measurements(rng):
    a = chart_plane([1, 0.1, -0.2], 0.1)
    b = chart_plane([-0.3, 1, 0.2], -0.2)
    for _ in range(10):
        L = random_isometry(rng)
        a2, b2 = apply_lorentz(L, a), apply_lorentz(L, b)
        assert abs(dihedral_angle(a, b) - dihedral_angle(a2, b2)) < 1e-9
