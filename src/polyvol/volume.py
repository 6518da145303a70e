"""Hyperbolic volume computations.

The Lobachevsky function is evaluated by its standard rapidly convergent
series after pi-periodic reduction.  An all-ideal truncation is coned
from one ideal vertex into ideal tetrahedra.  Projected
stereographically from that apex, each tetrahedron is a plane triangle
whose angles are its dihedral angles (Milnor, Bull. AMS 6 (1982)), so
one projection measures them all.  Every other truncation is measured
exactly too: an interior point is boosted to the chart origin and the
region is split into signed orthoschemes, one per (face, edge, vertex)
flag, each summed by Kellerhals' closed form in the
Lobachevsky function (Kellerhals, Math. Ann. 285 (1989); Vinberg,
Russian Math. Surveys 48 (1993)).  A degenerate truncation, with
zero-length edges and faces of zero area, is measured the same way from
its own nodes, its zero-area faces dropped.  Adaptive Klein quadrature
of the volume element ``dx / (1 - |x|^2)^2`` stays as an oracle that a
caller asks for explicitly: a collapsed Gauss product rule per
tetrahedron of a cone decomposition, refined globally, each round
splitting at most 64 of the worst cells picked by one partial selection
and appending their children, so it costs at most 64 * 8 * 35
evaluations plus a few vectorized passes over the error array.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import TAU_IDEAL, boost_to_origin, lift, row_norms
from .errors import ImproperInput, NotIdeal, PathDiscontinuous, TruncationDegenerate
from .graphs import CycleWalk, cycle_walk
from .polyhedron import (
    PointKind,
    Polyhedron,
    TruncatedPolyhedron,
    dihedral_angles,
    edge_lengths,
    truncate,
)

#: A truncation whose vertices all lie within this chart distance of the
#: sphere is treated as ideal and decomposed into exact ideal tetrahedra.
IDEAL_BAND = 1e-7

# --- Lobachevsky function ----------------------------------------------------


def _zeta_even(k: int) -> float:
    exact = {1: math.pi**2 / 6, 2: math.pi**4 / 90, 3: math.pi**6 / 945}
    if k in exact:
        return exact[k]
    m = np.arange(1, 4000)
    s = float(np.sum(m ** (-2.0 * k)))
    # integral tail bound, negligible for k >= 4
    s += 4000.0 ** (1 - 2 * k) / (2 * k - 1)
    return s


_LOB_K = 30
_LOB_COEFS = np.array([_zeta_even(k) / (k * (2 * k + 1) * math.pi ** (2 * k))
                       for k in range(1, _LOB_K + 1)])


def lobachevsky(x):
    """Lobachevsky function  L(x) = -int_0^x log|2 sin t| dt.

    Odd and pi-periodic; vectorized over arrays.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    r = x - math.pi * np.round(x / math.pi)
    a = np.abs(r)
    sign = np.sign(r)
    out = np.zeros_like(a)
    nz = a > 0
    an = a[nz]
    acc = an - an * np.log(2.0 * an)
    pw = an.copy()
    for k in range(_LOB_K):
        pw = pw * an * an
        acc = acc + _LOB_COEFS[k] * pw
    out[nz] = sign[nz] * acc
    if scalar:
        return float(out[0])
    return out


# --- ideal tetrahedra ---------------------------------------------------------

def cone_triangles(faces, apex: int) -> list:
    """Fan triangles of the faces without ``apex``: with it, a decomposition into tetrahedra."""
    return [(cyc[0], cyc[k], cyc[k + 1]) for cyc in faces if apex not in cyc
            for k in range(1, len(cyc) - 1)]


def _cone_angles(points, apex, tris):
    """Dihedral angles (T, 3) of the ideal tetrahedra coning unit vector ``apex`` over ``tris``.

    Projected stereographically from the apex s, the tetrahedron (s, p, q,
    r) of unit vectors is the plane triangle (z_p, z_q, z_r), with its
    angle at edge s-p at z_p (Milnor, Bull. AMS 6 (1982)).  Written in
    d = p - s, z_p = (d.e1 + i d.e2) / (|d|^2 / 2): nothing cancels near
    the apex.  Flat triangles get zeros.
    """
    s = np.asarray(apex, dtype=float)
    a = np.array([1.0, 0.0, 0.0]) if abs(s[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(s, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(s, e1)
    d = np.asarray(points, dtype=float)[np.asarray(tris, dtype=int).reshape(-1, 3)] - s
    z = (d @ e1 + 1j * (d @ e2)) / (0.5 * np.sum(d * d, axis=-1))
    cross = (z[:, 2] - z[:, 0]) / (z[:, 1] - z[:, 0])
    cross = np.where(cross.imag < 0, cross.conjugate(), cross)
    alpha, beta = np.angle(cross), -np.angle(1.0 - cross)
    angles = np.stack([alpha, beta, math.pi - alpha - beta], axis=1)
    angles[np.abs(cross.imag) < 1e-12 * (1.0 + np.abs(cross))] = 0.0
    return angles


def ideal_tetrahedron_angles(points):
    """Dihedral angles (a, b, c) with a+b+c = pi of an ideal tetrahedron.

    ``points`` are four boundary points.  The angles a, b and c sit at
    the edges from the first point to the second, third and fourth (and
    at the opposite edges).  Coplanar configurations give zeros.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape != (4, 3):
        raise NotIdeal("need exactly four boundary points")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > TAU_IDEAL):
        raise NotIdeal(f"point norms {norms} leave the ideal band")
    pts = pts / norms[:, None]
    return tuple(_cone_angles(pts, pts[0], [(1, 2, 3)])[0].tolist())


def ideal_tetrahedron_volume(points) -> float:
    """Hyperbolic volume of the ideal tetrahedron spanned by four boundary points."""
    alpha, beta, gamma = ideal_tetrahedron_angles(points)
    return float(lobachevsky(alpha) + lobachevsky(beta) + lobachevsky(gamma))


# --- Klein-model quadrature ---------------------------------------------------


def _gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _tet_rule(n: int):
    """Collapsed Gauss product rule on the reference tetrahedron.

    Returns (barycentric-like offsets (m, 3), weights (m,)) with the
    weights summing to 1/6 (the reference volume).
    """
    x, w = _gauss01(n)
    xi, eta, zeta = np.meshgrid(x, x, x, indexing="ij")
    wx, wy, wz = np.meshgrid(w, w, w, indexing="ij")
    u = xi
    v = eta * (1.0 - xi)
    t = zeta * (1.0 - xi) * (1.0 - eta)
    jac = (1.0 - xi) ** 2 * (1.0 - eta)
    pts = np.stack([u.ravel(), v.ravel(), t.ravel()], axis=1)
    wts = (wx * wy * wz * jac).ravel()
    return pts, wts


(_PTS2, _WTS2), (_PTS3, _WTS3) = _tet_rule(2), _tet_rule(3)
_PAIR_NODES = np.concatenate([_PTS2, _PTS3])  # (8 + 27, 3)


def _klein_integrand(x):
    r2 = np.sum(x * x, axis=-1)
    denom = np.maximum(1.0 - r2, 1e-300)
    return 1.0 / (denom * denom)


def _integrate_pair(tets):
    """Rule-2 and rule-3 integrals over tets (N,4,3), one einsum: (coarse, fine, evaluations)."""
    a = tets[:, 0, :]
    edges = tets[:, 1:, :] - a[:, None, :]  # (N,3,3)
    dets = np.abs(np.linalg.det(edges))
    nodes = a[:, None, :] + np.einsum("mk,nkj->nmj", _PAIR_NODES, edges)  # (N,35,3)
    vals = _klein_integrand(nodes)
    coarse = dets * (vals[:, :len(_WTS2)] @ _WTS2)
    fine = dets * (vals[:, len(_WTS2):] @ _WTS3)
    return coarse, fine, len(_PAIR_NODES) * len(tets)


def _split8(tets):
    """Structural red refinement of each tet into 8 children."""
    a, b, c, d = tets[:, 0], tets[:, 1], tets[:, 2], tets[:, 3]
    ab, ac, ad = (a + b) / 2, (a + c) / 2, (a + d) / 2
    bc, bd, cd = (b + c) / 2, (b + d) / 2, (c + d) / 2
    kids = [
        (a, ab, ac, ad), (b, ab, bc, bd), (c, ac, bc, cd), (d, ad, bd, cd),
        (ab, ac, ad, cd), (ab, ac, bc, cd), (ab, ad, bd, cd), (ab, bc, bd, cd),
    ]
    return np.concatenate([np.stack(k, axis=1) for k in kids], axis=0)


class VolumeMethod(enum.Enum):
    IDEAL_DECOMPOSITION = "IdealDecomposition"
    ORTHOSCHEME = "Orthoscheme"
    KLEIN_QUADRATURE = "KleinQuadrature"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class VolumeResult:
    value: float
    method: VolumeMethod
    error_estimate: float
    budget_exceeded: bool = False
    evaluations: int = 0


def _grown(a, used: int, capacity: int):
    """A copy of ``a`` with room for ``capacity`` rows; only its first ``used`` are copied."""
    out = np.empty((capacity,) + a.shape[1:])
    out[:used] = a[:used]
    return out


def integrate_klein_tets(tets, *, tol=1e-5, budget=10_000_000):
    """Integrate the Klein volume element over a union of tetrahedra.

    While the summed error estimate |rule3 - rule2| exceeds ``tol`` and
    the budget lasts, each round splits into 8 the live cells with error
    above ``tol / live`` (the worst 64 at most, the worst one at least).
    Children are appended to arrays that grow by doubling, and a split
    cell keeps its slot with value and error 0, so no round sorts or
    copies the live cells.
    """
    tets = np.asarray(tets, dtype=float)
    if len(tets) == 0:
        return 0.0, 0.0, False, 0
    lo, hi, evals = _integrate_pair(tets)
    size = live = len(tets)
    cells, vals, errs = tets, hi, np.abs(hi - lo)  # cells grows before its first write
    exceeded = False
    while float(np.sum(errs[:size])) > tol:
        if evals >= budget:
            exceeded = True
            break
        active = errs[:size]
        n_split = max(1, min(live, 64, int(np.count_nonzero(active > tol / live)) or 1))
        worst = np.argpartition(active, size - n_split)[size - n_split:]
        worst = worst[np.argsort(active[worst])[::-1]]
        children = _split8(cells[worst])
        lo, hi, n = _integrate_pair(children)
        evals += n
        vals[worst] = errs[worst] = 0.0
        end = size + len(children)
        if end > len(errs):
            cells, vals, errs = (_grown(x, size, 2 * end) for x in (cells, vals, errs))
        cells[size:end] = children
        vals[size:end] = hi
        errs[size:end] = np.abs(hi - lo)
        size = end
        live += len(children) - n_split
    return float(np.sum(vals[:size])), float(np.sum(errs[:size])), exceeded, evals


# --- orthoschemes ---------------------------------------------------------------

#: Flags whose right triangle (v, P_e, P_F) is narrower than this (the
#: product of its two legs, in chart units) bound no volume and are dropped.
FLAG_WIDTH_TOL = 1e-14


def _orthoscheme_volume(a1, a2, a3):
    """Kellerhals' volume of the orthoschemes with essential angle arrays a1, a2, a3.

    In the chain P0 P1 P2 P3 with face F_i opposite P_i, F_i and F_j are
    perpendicular for |i - j| >= 2 and a1 = (F0, F1), a2 = (F1, F2),
    a3 = (F2, F3).  Holds with P0 ideal.
    """
    disc = np.cos(a2) ** 2 - (np.sin(a1) * np.sin(a3)) ** 2
    delta = np.arctan2(np.sqrt(np.maximum(disc, 0.0)), np.cos(a1) * np.cos(a3))
    half = 0.5 * math.pi
    lob = lobachevsky(np.stack([a1 + delta, a1 - delta, a3 + delta, a3 - delta,
                                half - a2 + delta, half - a2 - delta, half - delta]))
    return 0.25 * (lob[0] - lob[1] + lob[2] - lob[3] - lob[4] + lob[5] + 2.0 * lob[6])


def _chain_angles(v, foot_e, foot_f):
    """Essential angles of the orthoschemes (v, P_e, P_F, O), O the chart origin.

    Along O P_F and O v the dihedral angles are Euclidean, since the
    chart is conformal at O: alpha1 is the angle at P_F between P_e and
    v, and alpha2 the angle between P_F and P_e around the line O v.
    Along e, alpha3 is the angle at P_e of the hyperbolic right triangle
    (O, P_F, P_e): tan alpha3 = tanh|O P_F| / sinh|P_F P_e|.
    """
    leg_v, leg_f = row_norms(v - foot_e), row_norms(foot_e - foot_f)
    r_e = row_norms(foot_e)
    u = v / row_norms(v)[:, None]
    p = foot_f - np.sum(foot_f * u, axis=1)[:, None] * u
    q = foot_e - np.sum(foot_e * u, axis=1)[:, None] * u
    return (np.arctan2(leg_v, leg_f),
            np.arctan2(row_norms(np.cross(p, q)), np.sum(p * q, axis=1)),
            np.arctan2(row_norms(foot_f) * np.sqrt(1.0 - r_e * r_e), leg_f))


@dataclass(frozen=True)
class _Polygons:
    """The face polygons of a region, as its points and the walk of its face cycles.

    Face i has the corners ``points[walk.order]`` on its span of ``walk``.
    """

    points: np.ndarray  # (V, 3) chart points
    walk: CycleWalk

    def corners(self) -> np.ndarray:
        """Every polygon's corners laid end to end, in one gather."""
        return self.points[self.walk.order]

    def __iter__(self):
        """Each polygon's (k, 3) corners."""
        return iter(np.split(self.corners(), self.walk.starts[1:]))


def _orthoscheme_decomposition(center, polygons: _Polygons):
    """Exact volume of a convex region from its face polygons and an interior point.

    ``center`` is boosted to the chart origin O.  There the feet of the
    perpendiculars from O are Euclidean: P_F is the foot on the plane of
    face F and P_e the foot on the line of edge e, and P_F P_e is
    perpendicular to e.  Each flag (F, e, v) spans the orthoscheme
    (v, P_e, P_F, O), counted with the sign of two choices: whether P_F
    lies on the inner side of e within F, and whether P_e lies beyond v
    along e.  The signed sum over all flags is the region.  Returns the
    volume and the number of orthoschemes.
    """
    walk = polygons.walk
    lifted = lift(polygons.corners()) @ boost_to_origin(center).T
    a = lifted[:, 1:] / lifted[:, :1]
    b = a[walk.next]
    normal = np.add.reduceat(np.cross(a, b), walk.starts)  # Newell normals
    centroid = np.add.reduceat(a, walk.starts) / walk.sizes[:, None]
    foot_f = normal * (np.sum(normal * centroid, axis=1)
                       / np.sum(normal * normal, axis=1))[:, None]
    normal, centroid, foot_f = (x[walk.owner] for x in (normal, centroid, foot_f))
    d = b - a
    foot_e = a - d * (np.sum(a * d, axis=1) / np.sum(d * d, axis=1))[:, None]
    inner = (np.sign(np.sum(np.cross(d, foot_f - a) * normal, axis=1))
             * np.sign(np.sum(np.cross(d, centroid - a) * normal, axis=1)))
    # Two flags per edge: v = a with w = b, then v = b with w = a.
    v, w = np.concatenate([a, b]), np.concatenate([b, a])
    foot_e, foot_f, inner = (np.concatenate([x, x]) for x in (foot_e, foot_f, inner))
    sign = inner * np.sign(np.sum((foot_e - v) * (w - v), axis=1))
    keep = (sign != 0) & (row_norms(v - foot_e) * row_norms(foot_e - foot_f) > FLAG_WIDTH_TOL)
    angles = _chain_angles(v[keep], foot_e[keep], foot_f[keep])
    return float(sign[keep] @ _orthoscheme_volume(*angles)), int(np.count_nonzero(keep))


# --- truncation decompositions -------------------------------------------------


def _fan_tets(apex, polygons):
    """Cone from apex over fan-triangulated polygons; returns (N,4,3)."""
    tets = []
    for poly in polygons:
        for k in range(1, len(poly) - 1):
            tets.append([apex, poly[0], poly[k], poly[k + 1]])
    return np.array(tets) if tets else np.zeros((0, 4, 3))


def _truncation_region(T: TruncatedPolyhedron):
    """An interior point and the face polygons of a truncation, on the face walk of its skeleton."""
    return T.vertex_charts.mean(axis=0), _Polygons(T.vertex_charts, T.skeleton.face_walk)


def ideal_tetrahedra_volume(angles) -> float:
    """Total volume of ideal tetrahedra with (T, 3) angles, summed one by one."""
    lob = lobachevsky(np.reshape(angles, (-1, 3)))
    return float(sum((lob[:, 0] + lob[:, 1] + lob[:, 2]).tolist()))


def _ideal_decomposition(T: TruncatedPolyhedron):
    """Cone from ideal vertex 0 into ideal tetrahedra; exact volumes."""
    charts = T.vertex_charts
    points = charts / np.linalg.norm(charts, axis=1, keepdims=True)
    tris = cone_triangles(T.skeleton.faces, 0)
    return ideal_tetrahedra_volume(_cone_angles(points, points[0], tris)), len(tris)


def polyhedron_volume(P: Polyhedron, *, tol: float = 1e-5, budget: int = 10_000_000,
                      method: VolumeMethod | None = None) -> VolumeResult:
    """Hyperbolic volume of P, defined as the volume of its truncation.

    By default the volume is exact: assembled from ideal tetrahedra when
    every truncation vertex is ideal, and from signed orthoschemes
    otherwise.  ``method=VolumeMethod.KLEIN_QUADRATURE`` instead integrates
    the Klein volume element adaptively to ``tol`` within ``budget``
    evaluations (the only method that reads them).  A truncation that
    degenerates (:class:`TruncationDegenerate`) is measured from its own
    nodes: the faces with at least 3 distinct nodes bound the region, and
    fewer than 4 nodes bound none, volume 0.
    """
    if method not in (None, VolumeMethod.KLEIN_QUADRATURE):
        raise ValueError(f"method {method} cannot be forced")
    report = P.report
    if report.is_improper():
        raise ImproperInput("volume needs a proper or almost proper polyhedron")
    try:
        T = truncate(P)
    except TruncationDegenerate as exc:
        if exc.cycles is None:
            raise
        points = exc.points
        region = None if len(points) < 4 else (points.mean(axis=0),
                                               _Polygons(points, cycle_walk(exc.cycles)))
    else:
        radii = np.linalg.norm(T.vertex_charts, axis=1)
        if method is None and np.all(np.abs(radii - 1.0) <= IDEAL_BAND):
            value, count = _ideal_decomposition(T)
            return VolumeResult(value, VolumeMethod.IDEAL_DECOMPOSITION,
                                1e-12 * max(1, count), False, 0)
        if np.any(radii >= 1.0 + TAU_IDEAL):
            raise ImproperInput("truncation has vertices outside the closed ball")
        region = _truncation_region(T)
    method = method or VolumeMethod.ORTHOSCHEME
    if region is None:
        return VolumeResult(0.0, method, 0.0)
    if method == VolumeMethod.KLEIN_QUADRATURE:
        value, err, exceeded, evals = integrate_klein_tets(
            _fan_tets(*region), tol=tol, budget=budget)
        return VolumeResult(value, method, err, exceeded, evals)
    value, count = _orthoscheme_decomposition(*region)
    return VolumeResult(value, method, 1e-12 * count, False, 0)


# --- Schlafli residual ---------------------------------------------------------


def schlafli_residual(path, t0: float, h: float = 1e-4) -> float:
    """Central-difference residual of the Schlafli identity at t0.

    For a smooth family with constant skeleton and constant almost-proper
    set, ``dVol/dt = -1/2 sum_e l_e dtheta_e/dt``; the returned value is
    the absolute defect of that identity computed from the artifact's own
    volumes, lengths, and angles.
    """
    Pm = path(t0 - h)
    P0 = path(t0)
    Pp = path(t0 + h)
    reps = [Q.report for Q in (Pm, P0, Pp)]
    for Q, rep in zip((Pm, P0, Pp), reps):
        if Q.skeleton.faces != P0.skeleton.faces:
            raise PathDiscontinuous("skeleton changes inside the difference window")
        if rep.is_improper():
            raise PathDiscontinuous("family leaves the proper/almost-proper regime")
        if any(k == PointKind.IDEAL for k in rep.kinds):
            raise PathDiscontinuous("ideal vertex inside the difference window")
    aps = [tuple(s for s in rep.statuses) for rep in reps]
    if not (aps[0] == aps[1] == aps[2]):
        raise PathDiscontinuous("almost-proper set changes inside the window")

    vol_rate = (polyhedron_volume(Pp).value - polyhedron_volume(Pm).value) / (2 * h)
    th_p = dihedral_angles(Pp)
    th_m = dihedral_angles(Pm)
    lens = edge_lengths(P0)
    angle_rate = sum(lens[e] * (th_p[e] - th_m[e]) / (2 * h) for e in P0.skeleton.edges)
    return abs(vol_rate + 0.5 * angle_rate)
