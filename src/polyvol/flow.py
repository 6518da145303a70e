"""The volume-increasing deformation flow.

Starting from a proper polyhedron with no ideal vertices, scale all its
dihedral angles by t and follow the path t -> t * theta downward,
realizing each target through the local-coordinate property of dihedral
angles.  As t decreases the Schlafli identity makes the volume grow.
Degenerations are detected and handled: a real vertex crossing the
sphere at infinity is an event on the path, recorded at the first state
that puts it in the outer half of the ideal band (one held on a polar
plane is located to DT_MIN and pushed out by a translation, an escape
deformation); a vertex landing on a truncation plane starts an
almost-proper stratum where the incidence is held; collapsing edges or
faces rewrite the skeleton.
Once every vertex is hyperideal the target path stays realizable all
the way down, and the supremum of the volume is estimated from the last
computed volume plus a Schlafli bound on the remaining gain.
A sample's volume is checked when it is recorded and measured where a
volume is first read, together with every other sample waiting then: one
orthoscheme kernel call per batch, each volume bit for bit the one
measured alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._realize import solve_plane_system, target_edges
from .core import (
    HYPERIDEAL_CODE,
    REAL_CODE,
    AffineDeformation,
    PointKind,
    TAU_IDEAL,
    _unit_rows,
    lift,
    row_norms,
)
from .errors import (
    AngleOutOfRange,
    CollapseMakesDegenerate,
    ImproperInput,
    MaxEventsExceeded,
    NewtonDiverged,
    NoIdealVertices,
    NoSeparatingPlane,
    PolyvolError,
    PropernessLost,
    SkeletonChanged,
    SkeletonMismatch,
    NonConvex,
    EdgeMissesBall,
    StallDetected,
)
from .graphs import PlanarGraph, edge_collapse, face_collapse, _norm_edge, _split_pairs
from .polyhedron import (
    Polyhedron,
    VertexStatus,
    build_polyhedron,
    dihedral_angles,
    edge_lengths,
)
from .volume import VolumeResult, _orthoscheme_volumes, _volume_or_region

#: Initial and smallest step in t.  An accepted step grows dt by 1.7, up to
#: DT_INIT before the all-hyperideal endgame and uncapped in it (each step
#: still goes at most to 0.2 t).  A step toward the sphere is cut to a whole
#: multiple of DT_MIN aimed into the window (IDEAL_BAND).  A step that fails
#: to realize halves; a step that signals a degeneration brackets it, and
#: the next trials are whole multiples of DT_MIN placed by the secant of the
#: signal's gap, or DT_MIN itself when the accepted state signals too.  Every
#: degeneration but a crossing in the window is located to DT_MIN.
DT_INIT = 1e-2
DT_MIN = 1e-7
#: A real vertex within this chart distance of the sphere is becoming ideal.
#: The outer half of the band, radius gap in (0, IDEAL_BAND / 2], is the
#: window: a trial whose only signals are crossings there by vertices with no
#: held pole is their event state, and steps aim at IDEAL_BAND / 4.
IDEAL_BAND = 1e-5
#: A real vertex this close to a polar plane starts an almost-proper stratum.
ALMOST_PROPER_BAND = 1e-6
#: Chart length of a collapsing edge; relative width of a collapsing face.
EDGE_COLLAPSE_TOL = 1e-6
FACE_COLLAPSE_TOL = 1e-6
#: Stop once the Schlafli bound on the remaining gain is this share of the volume.
ENDGAME_REL = 0.002
#: Half-width of the uniform jitter added to the angle direction on rebasing.
PERTURBATION = 1e-6
#: Accepted steps between recorded samples.
SAMPLE_EVERY = 10
MAX_STEPS = 20000
#: The all-hyperideal endgame stops at this t at the latest.
T_FLOOR = 1e-3
#: Volume drop allowed between consecutive samples, beyond their error estimates.
EVENT_SLACK = 1e-9
#: First expansion factor minus one that a nudge tries; halved until it fits.
NUDGE_DELTA = 1e-3
#: How far past the sphere the first escape translation aims a vertex.
ESCAPE_DELTA = 1e-5


# --- realization with prescribed angles --------------------------------------


def realize_from_angles(g: PlanarGraph, angles: dict, seed: Polyhedron, *,
                        held=(), start=None) -> Polyhedron:
    """Realize a polyhedron with skeleton g and the prescribed dihedral angles.

    ``seed`` must carry the same skeleton; the Newton solve starts there
    and returns the nearby solution (dihedral angles are local
    coordinates away from ideal vertices).  ``start``,
    a pair of face normals and vertex charts, replaces the seed's as the
    starting point.  ``held`` lists (vertex, pole-vertex) incidences kept
    on their polar planes; the angle at a held adjacent edge is not
    prescribed.

    The edges with a target and the solver's index arrays are built once
    per stratum, the skeleton g with its held incidences
    (:func:`polyvol._realize.target_edges`).  A call still reads the
    angles at those edges, checks them and takes ``-math.cos`` of each.
    """
    if seed.skeleton.faces != g.faces:
        raise SkeletonChanged("seed skeleton differs from target")
    held = tuple(map(tuple, held))
    edges = target_edges(g, held)
    th = [angles[e] for e in edges]
    if not all(0.0 < a < math.pi for a in th):
        a, e = next((a, e) for a, e in zip(th, edges) if not 0.0 < a < math.pi)
        raise AngleOutOfRange(f"target angle {a} at {e} outside (0, pi)")
    if start is None:
        start = (seed.normals, seed.vertex_charts)
    targets = np.array([-math.cos(a) for a in th])
    normals, verts, report = solve_plane_system(g, targets, *start, held=held)
    if not report.ok:
        raise NewtonDiverged(f"residual {report.residual:.3g}: {report.message}")
    return _rebuild(_unit_rows(normals), g)


def _rebuild(normals, g: PlanarGraph) -> Polyhedron:
    """:func:`build_polyhedron`, raising SkeletonChanged where the planes do not realize g."""
    try:
        return build_polyhedron(normals, g)
    except (SkeletonMismatch, NonConvex, EdgeMissesBall) as exc:
        raise SkeletonChanged(str(exc)) from exc


# --- deformations handling degenerations --------------------------------------


def _interior_point(P: Polyhedron):
    c = P.vertex_charts.mean(axis=0)
    n = np.linalg.norm(c)
    if n >= 0.99:
        c = c / n * 0.5
    return c


def nudge_ideal_vertices(P: Polyhedron) -> Polyhedron:
    """Expand P slightly so its ideal vertices become hyperideal.

    A homothety with factor 1 + d about an interior point; d starts at
    ``NUDGE_DELTA`` and is halved until properness and the skeleton survive.
    """
    report = P.report
    ideal = [v for v, k in enumerate(report.kinds) if k == PointKind.IDEAL]
    if not ideal:
        raise NoIdealVertices("no ideal vertices to remove")
    if report.is_improper():
        raise ImproperInput("nudge needs a proper polyhedron")
    center = _interior_point(P)
    d = NUDGE_DELTA
    for _ in range(20):
        H = AffineDeformation.homothety(center, 1.0 + d)
        try:  # a ValueError: some plane left H^3
            Q = _rebuild(H.apply_planes(P.normals), P.skeleton)
        except (SkeletonChanged, ValueError):
            d /= 2
            continue
        rep = Q.report
        if (not rep.is_improper()
                and all(rep.kinds[v] == PointKind.HYPERIDEAL for v in ideal)
                and not any(k == PointKind.IDEAL for k in rep.kinds)):
            return Q
        d /= 2
    raise PropernessLost(f"no admissible expansion found below delta={NUDGE_DELTA}")


def escape_deformation(P: Polyhedron, v: int, *, almost_pole: int) -> Polyhedron:
    """Translate P so the near-ideal vertex v, held on the polar plane of
    ``almost_pole``, becomes just hyperideal and leaves that plane.

    The translation runs along v's chart direction, with a component
    along the polar plane's inward normal, growing from the distance that
    takes v just past the sphere.  Each candidate must keep the skeleton
    and properness, make no other vertex ideal and free the incidence.
    """
    charts = P.vertex_charts
    x = charts[v]
    r = float(np.linalg.norm(x))
    if r > 1.0 + 10 * TAU_IDEAL:
        raise NoSeparatingPlane(f"vertex {v} already hyperideal (|x| = {r:.9g})")
    u = x / r
    nw = charts[almost_pole] / np.linalg.norm(charts[almost_pole])
    lam0 = (1.0 + ESCAPE_DELTA) - r
    if lam0 <= 0:
        lam0 = ESCAPE_DELTA

    def attempt(d):
        # The inward component along the polar plane's normal frees the
        # held incidence strictly.
        shift = d * u - (max(0.0, d * float(u @ nw)) + 0.5 * d) * nw
        T = AffineDeformation.translation(shift)
        try:  # a ValueError: some plane left H^3
            Q = _rebuild(T.apply_planes(P.normals), P.skeleton)
        except (SkeletonChanged, ValueError):
            return None
        rep = Q.report
        if rep.is_improper():
            return None
        if any(k == PointKind.IDEAL for w_, k in enumerate(rep.kinds) if w_ != v):
            return None
        if 1.0 - float(Q.vertex_charts[almost_pole] @ Q.vertex_charts[v]) <= TAU_IDEAL:
            return None
        return Q, float(np.linalg.norm(Q.vertex_charts[v]))

    # Prefer the translation landing v just hyperideal; where the edge
    # geometry forbids leaving the ball (a nearly tangent almost proper
    # edge), fall back to the valid translation pushing v farthest out.
    best = None
    d = lam0
    for _ in range(30):
        got = attempt(d)
        if got is not None:
            Q, radius = got
            if Q.report.kinds[v] == PointKind.HYPERIDEAL:
                return Q
            if best is None or radius > best[1]:
                best = got
        d *= 1.6
        if d > 1e4 * lam0:
            break
    if best is not None:
        return best[0]
    raise NoSeparatingPlane(f"no admissible escape translation for vertex {v}")


# --- flow events and traces ----------------------------------------------------


class FlowEventKind(str, enum.Enum):
    """A degeneration of the flow's stratum; the value is its CSV name."""

    EDGE_COLLAPSED = "EdgeCollapsed"
    FACE_COLLAPSED = "FaceCollapsed"
    VERTEX_BECAME_IDEAL = "VertexBecameIdeal"
    ALMOST_PROPER_ONSET = "AlmostProperOnset"
    BECAME_HYPERIDEAL_ONLY = "BecameHyperidealOnly"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class FlowEvent:
    kind: FlowEventKind
    t_value: float
    volume_at_event: float
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FlowSample:
    t: float
    polyhedron: Polyhedron
    volume: VolumeResult
    event: FlowEventKind | None = None


@dataclass
class FlowTrace:
    samples: list
    events: list
    final_skeleton: PlanarGraph
    sup_estimate: float
    sup_error: float
    seed: int

    def volumes_nondecreasing(self) -> bool:
        vals = [(s.volume.value, s.volume.error_estimate) for s in self.samples]
        for (v1, e1), (v2, e2) in zip(vals, vals[1:]):
            if v2 < v1 - (e1 + e2 + EVENT_SLACK):
                return False
        return True


@dataclass
class FlowOptions:
    """Seed of the angle jitter."""

    seed: int = 0


class _Gaps:
    """A scan's signed gaps: one vector, each kind's candidates in a run of it.

    ``candidates`` lists ``(kind, data)`` in the vector's order; a gap is
    looked up by ``(kind, data)`` only when asked.  ``radius`` is every
    vertex's radius gap, the ideal signal's gap whether it is tested or not.
    """

    def __init__(self, gaps, candidates, radius):
        self.vector, self._candidates, self.radius = gaps, candidates, radius

    def spans(self):
        """``(kind, offset, data)`` of each kind's run of the vector."""
        offset = 0
        for kind, data in self._candidates:
            yield kind, offset, data
            offset += len(data)

    def get(self, key):
        """The gap of candidate ``key``; None for no key or one the scan did not test."""
        if key is None:
            return None
        offset, data = next((o, d) for kind, o, d in self.spans() if kind == key[0])
        try:
            return float(self.vector[offset + data.index(key[1])])
        except ValueError:
            return None


def _scan_signals(P: Polyhedron, prev: Polyhedron, held, exempt=(), relaxed: bool = False):
    """``(signals, gaps)`` of a step from ``prev`` to P; signals ``(kind, data, size)`` worst first.

    A vertex real in ``prev`` entering the ideal band (or jumping past
    it) signals, unless ``exempt`` (crossing on the path already).
    ``gaps.get((kind, data))`` (:class:`_Gaps`) gives each
    candidate's signed gap, positive exactly where it signals: the
    radius past 1 - IDEAL_BAND, ALMOST_PROPER_BAND past the margin,
    EDGE_COLLAPSE_TOL past the length, or FACE_COLLAPSE_TOL times
    max(1, width) past a face's second width.  The gaps stay one array,
    compared with 0 once; a lookup indexes it.
    ``relaxed`` widens the ideal band and the collapse thresholds, for a
    state stalled against the realizability boundary.
    """
    ideal_band = 1e2 * IDEAL_BAND if relaxed else IDEAL_BAND
    edge_tol = 1e3 * EDGE_COLLAPSE_TOL if relaxed else EDGE_COLLAPSE_TOL
    face_tol = 1e3 * FACE_COLLAPSE_TOL if relaxed else FACE_COLLAPSE_TOL
    codes, prev_codes = P.kind_codes, prev.kind_codes
    charts = P.vertex_charts
    was_real = [v for v in (prev_codes == REAL_CODE).nonzero()[0].tolist() if v not in exempt]
    norms = row_norms(charts)
    radius = norms - (1.0 - ideal_band)
    # Poles hyperideal in both states; a fresh crossing signals as VERTEX_BECAME_IDEAL.
    poles = ((codes == HYPERIDEAL_CODE) & (prev_codes == HYPERIDEAL_CODE)).nonzero()[0].tolist()
    real = (codes == REAL_CODE).nonzero()[0].tolist()
    pairs, margins = [], np.empty(0)
    if poles and real:
        pairs = [(w, u) for u in poles for w in real]
        margins = (1.0 - charts[poles] @ charts[real].T).ravel()
        if held:
            free = np.array([pair not in held for pair in pairs], dtype=bool)
            pairs, margins = [p for p, f in zip(pairs, free) if f], margins[free]
    g = P.skeleton
    lengths = row_norms(np.subtract(*charts[g.edge_array.T]))
    # The two largest singular values of each centred face polygon.
    widths = np.empty((len(g.faces), 2))
    for fs, cycles in g.faces_by_size:
        pts = charts[cycles]  # centred on the mean, rounded as ndarray.mean rounds it
        centred = pts - np.add.reduce(pts, axis=1, keepdims=True) / cycles.shape[1]
        widths[fs] = np.linalg.svd(centred, compute_uv=False)[:, :2]
    gaps = _Gaps(np.concatenate([
        radius[was_real], ALMOST_PROPER_BAND - margins, edge_tol - lengths,
        face_tol * np.maximum(1.0, widths[:, 0]) - widths[:, 1]]), (
        (FlowEventKind.VERTEX_BECAME_IDEAL, was_real),
        (FlowEventKind.ALMOST_PROPER_ONSET, pairs),
        (FlowEventKind.EDGE_COLLAPSED, g.edges),
        (FlowEventKind.FACE_COLLAPSED, range(len(g.faces)))), radius)
    hits = (gaps.vector > 0).nonzero()[0].tolist()
    if not hits:
        return [], gaps
    sizes = np.concatenate([np.abs(1.0 - norms[was_real]), margins, lengths, widths[:, 1]])
    out = [(kind, data[i - offset], sizes[i]) for kind, offset, data in gaps.spans()
           for i in hits if 0 <= i - offset < len(data)]
    out.sort(key=lambda item: item[2])
    return out, gaps


def _bracket_step(width, gap_lo, gap_hi, aim=0.0):
    """Next trial step into a bracket ``width`` long whose far end signaled.

    The secant of the worst signal's gaps, ``gap_lo`` at the accepted end
    and ``gap_hi`` > 0 at the far end, estimates where the gap reaches
    ``aim``: 0 to locate a degeneration, the middle of the window for a
    crossing of the sphere with no held pole.  When either gap is missing
    or out of sign the step bisects.  The step is a whole number of
    DT_MIN, at least one, and else at most the width less DT_MIN.  An
    accepted end that signals too (``gap_lo`` > 0, a vertex already in
    the ideal band at another's event) gives DT_MIN at once: bisection
    would signal on every trial down to that same step.
    """
    if gap_lo is not None and gap_lo > 0.0:
        return DT_MIN
    s = 0.5 * width
    if gap_lo is not None and gap_hi is not None and gap_lo <= 0.0 < gap_hi:
        s = width * (gap_lo - aim) / (gap_lo - gap_hi)
    return DT_MIN * max(1, math.floor(min(s, width - DT_MIN) / DT_MIN))


def _aimed_step(step, before, t, P, gaps, skip):
    """``step``, shortened where a real vertex not in ``skip`` would pass the window.

    The secant of each vertex's radius gap over the accepted states
    ``before`` = (t0, P0, gaps0) and (t, P, gaps) gives the step at which
    it reaches IDEAL_BAND / 4, the middle of the window.  A shortened step
    is a whole number of DT_MIN, at least one.
    """
    t0, _, gaps0 = before
    if gaps0 is None:
        return step
    g0, g1 = gaps0.radius, gaps.radius
    near = (P.kind_codes == REAL_CODE) & (g1 > g0)
    near[list(skip)] = False
    if not near.any():
        return step
    s = (t0 - t) * float(np.min((0.25 * IDEAL_BAND - g1[near]) / (g1[near] - g0[near])))
    return step if s >= step else DT_MIN * max(1, math.floor(s / DT_MIN))


def _predicted(before, t, P, t_next):
    """Normals and charts at t_next extrapolated from ``before`` = (t0, P0, _) and (t, P)."""
    t0, P0, _ = before
    w = (t - t_next) / (t0 - t)
    n0, n1 = P0.normals, P.normals
    return n1 + w * (n1 - n0), P.vertex_charts + w * (P.vertex_charts - P0.vertex_charts)


def _hyperideal_only(P: Polyhedron) -> bool:
    return bool(np.logical_and.reduce(P.kind_codes == HYPERIDEAL_CODE))


def _scaled(angles_dir, t):
    return {e: t * a for e, a in angles_dir.items()}


def _rebase(P, t, rng):
    """P's dihedral angles over t, each jittered by a uniform draw in +-PERTURBATION.

    The E draws are one ``rng.uniform`` call, which gives the same values
    and leaves the generator where E one-value calls would.
    """
    th = dihedral_angles(P)
    jitter = rng.uniform(-PERTURBATION, PERTURBATION, size=len(th))
    return dict(zip(th, ((np.fromiter(th.values(), float, len(th)) + jitter) / t).tolist()))


def _face_collapse_split(g: PlanarGraph, f: int, charts, tol):
    """Infer the :func:`face_collapse` half-position of a geometrically flattening face."""
    cyc = g.faces[f]
    for split in range(2 * len(cyc)):
        if all(np.linalg.norm(charts[a] - charts[b]) <= tol
               for a, b in _split_pairs(cyc, split)):
            return split
    return None


def _collapse_rewrite(kind, data, g, P_state, rng, t):
    """Apply an edge or face collapse move and rebuild on the new skeleton.

    Returns (new_g, new_P, new_theta_dir, event_data); raises
    CollapseMakesDegenerate when the move leaves no polyhedral skeleton.
    """
    if kind == FlowEventKind.EDGE_COLLAPSED:
        res = edge_collapse(g, data)
        ev_data = {"edge": data}
    else:
        split = _face_collapse_split(g, data, P_state.vertex_charts,
                                     1e3 * FACE_COLLAPSE_TOL)
        if split is None:
            raise CollapseMakesDegenerate(
                f"face {data} degenerates without a collapse pattern")
        res = face_collapse(g, data, split)
        ev_data = {"face": data, "split": split}
    if not res.graph.is_polyhedral():
        raise CollapseMakesDegenerate("collapse leaves a non-3-connected skeleton")
    new_g = res.graph
    order = sorted((new_idx, old) for old, new_idx in res.face_map.items()
                   if new_idx is not None)
    normals = P_state.normals[[old for _, old in order]]
    verts = np.zeros((new_g.n_vertices, 3))
    counts = np.zeros(new_g.n_vertices)
    for old, new in res.vertex_map.items():
        if new is not None:
            verts[new] += P_state.vertex_charts[old]
            counts[new] += 1
    verts /= np.maximum(counts, 1)[:, None]
    seed_poly = Polyhedron(normals=normals, skeleton=new_g, vertex_lifts=lift(verts))
    P_new = realize_from_angles(new_g, dihedral_angles(seed_poly), seed_poly, held=())
    return new_g, P_new, _rebase(P_new, t, rng), ev_data


def run_flow(P0: Polyhedron, opts: FlowOptions | None = None) -> FlowTrace:
    """Follow the scaled-angle path t * theta downward from P0.

    P0 must be proper with no ideal vertices (apply
    :func:`nudge_ideal_vertices` first if needed).  Returns the trace of
    samples, events, the final skeleton, and the supremum estimate.  A
    PolyvolError raised past these input checks carries the trace so far.
    """
    opts = opts or FlowOptions()
    if P0.report.is_improper():
        raise ImproperInput("flow needs a proper starting polyhedron")
    if any(k == PointKind.IDEAL for k in P0.report.kinds):
        raise ImproperInput("remove ideal vertices before flowing (nudge)")
    trace = FlowTrace([], [], P0.skeleton, math.nan, math.nan, opts.seed)
    try:
        _follow(P0, trace, np.random.default_rng(opts.seed))
    except PolyvolError as exc:
        exc.trace = trace
        raise
    return trace


def _follow(P0: Polyhedron, trace: FlowTrace, rng):
    """The loop of :func:`run_flow`: records into ``trace`` and sets its supremum.

    Before the endgame a step is cut where the secant of a vertex's radius
    gap would take it past the middle of the window (:func:`_aimed_step`).
    A trial whose signals are all crossings in the window, by vertices with
    no held pole, is the event state of the worst of them, with no bracket.
    Any other signaled trial brackets its worst signal (:func:`_bracket_step`),
    aimed at the window's middle for such a crossing and at the threshold
    otherwise, and the event fires on a signaled step of DT_MIN.
    Sample volumes are measured where one is read: all queued before the
    endgame at its first stop test, then each endgame sample at the next,
    and whatever is still queued when the loop ends, by return or by error.
    """
    samples, events = trace.samples, trace.events
    report = P0.report
    g = P0.skeleton
    max_events = 10 * len(g.edges)
    held: list = [(w, report.witnesses[w]) for w, s in enumerate(report.statuses)
                  if s == VertexStatus.ALMOST_PROPER]
    t = 1.0
    theta_dir = _rebase(P0, t, rng)
    P = realize_from_angles(g, _scaled(theta_dir, t), P0, held=held)

    regions = []  # the orthoscheme regions of the samples whose volume is None, in order

    def record(P_, t_, event=None):
        """Sample P_ once: a state sampled last gets its event on that row, or a row per event.

        The checks of P_'s volume run now, so what they raise comes from this
        sample; an orthoscheme region is queued, and the sample's volume is
        None until :func:`flush`.  Returns the volume's value, NaN until then.
        """
        if samples and samples[-1].polyhedron is P_:
            last = samples[-1]
            if event is not None:
                if last.event is None:
                    samples.pop()
                samples.append(FlowSample(t_, P_, last.volume, event))
        else:
            vol = _volume_or_region(P_)
            if not isinstance(vol, VolumeResult):
                regions.append(vol)
                vol = None
            samples.append(FlowSample(t_, P_, vol, event))
        vol = samples[-1].volume
        return math.nan if vol is None else vol.value

    def flush():
        """Measure the queued regions in one kernel call; fill in the rows that wait on them."""
        if not regions:
            return
        volumes = iter(_orthoscheme_volumes(regions))
        regions.clear()
        for i, s in enumerate(samples):
            if s.volume is None:
                # A row repeating the state of the row before shares its volume.
                repeat = i and samples[i - 1].polyhedron is s.polyhedron
                samples[i] = replace(s, volume=samples[i - 1].volume if repeat else next(volumes))
        # Event j is on the j-th row with an event; a row whose handler raised has none.
        for j, (e, s) in enumerate(zip(events, (s for s in samples if s.event is not None))):
            if math.isnan(e.volume_at_event):
                events[j] = replace(e, volume_at_event=s.volume.value)

    def pole_free(signal):
        """Whether ``signal`` is a crossing of the sphere by a vertex with no held pole."""
        return (signal[0] == FlowEventKind.VERTEX_BECAME_IDEAL
                and all(w != signal[1] for w, _ in held))

    def in_window(signals, gaps_):
        """Whether every signal is a pole-free crossing within IDEAL_BAND / 2 of the band's edge."""
        return all(pole_free(s) and 0.0 < gaps_.get(s[:2]) <= 0.5 * IDEAL_BAND
                   for s in signals)

    def handle_event(kind, data, P_state, t_now):
        """Dispatch one degeneration of P_state; returns a new stratum's state, or None."""
        nonlocal g, held, theta_dir, exempt
        vol_ev = record(P_state, t_now, event=kind)
        if kind == FlowEventKind.VERTEX_BECAME_IDEAL:
            v = data
            pole = next((u for (w, u) in held if w == v), None)
            if pole is None:
                exempt += (v,)
                events.append(FlowEvent(kind, t_now, vol_ev, {"vertex": v}))
                return None
            P_new = escape_deformation(P_state, v, almost_pole=pole)
            if P_new.kinds[v] != PointKind.HYPERIDEAL:
                raise StallDetected(f"escape left vertex {v} inside the ball (tangent edge regime)")
            held = [(w, u) for (w, u) in held if w != v]
            events.append(FlowEvent(kind, t_now, vol_ev, {"vertex": v}))
            theta_dir = _rebase(P_new, t_now, rng)
            return P_new
        if kind == FlowEventKind.ALMOST_PROPER_ONSET:
            w, u = data
            if _norm_edge(w, u) not in P_state.skeleton.edge_index:
                raise StallDetected("non-adjacent almost-proper contact is out of scope")
            held.append((w, u))
            events.append(FlowEvent(kind, t_now, vol_ev, {"vertex": w, "pole": u}))
            return realize_from_angles(g, _scaled(theta_dir, t_now), P_state, held=held)
        try:
            g_new, P_new, theta_dir, ev_data = _collapse_rewrite(
                kind, data, g, P_state, rng, t_now)
        except CollapseMakesDegenerate as exc:
            raise StallDetected(exc.detail) from exc
        g = trace.final_skeleton = g_new
        held, exempt = [], ()
        events.append(FlowEvent(kind, t_now, vol_ev, ev_data))
        return P_new

    dt = DT_INIT
    accepted = 0
    hyperideal_only = _hyperideal_only(P)
    # Vertices crossing the sphere on the path: no ideal signal until an
    # accepted state shows them hyperideal or back inside 1 - IDEAL_BAND.
    exempt: tuple = ()
    # On this stratum: the accepted state before P as (t, P, its signal
    # gaps), P's signal gaps, and the nearest rejected trial as (t, worst
    # signal, its gap).
    before = gaps = bracket = None

    record(P, t)
    try:
        for _ in range(MAX_STEPS):
            if len(events) > max_events:
                raise MaxEventsExceeded(f"more than {max_events} events")
            if hyperideal_only:
                lens = edge_lengths(P)
                bound = 0.5 * t * sum(lens[e] * theta_dir[e] for e in g.edges)
                flush()
                if bound < ENDGAME_REL * max(samples[-1].volume.value, 1e-9) or t <= T_FLOOR:
                    record(P, t)
                    flush()
                    final_vol = samples[-1].volume
                    trace.sup_estimate = final_vol.value + 0.5 * bound
                    trace.sup_error = 0.5 * bound + final_vol.error_estimate
                    return

            step = dt
            if bracket is not None:
                t_hi, signal, gap_hi = bracket
                if gaps is None:
                    _, gaps = _scan_signals(P, P, held, exempt)
                aim = 0.25 * IDEAL_BAND if signal is not None and pole_free(signal) else 0.0
                step = _bracket_step(t - t_hi, gaps.get(signal), gap_hi, aim)
            elif before is not None and not hyperideal_only:
                step = _aimed_step(dt, before, t, P, gaps, exempt + tuple(w for w, _ in held))
            t_next = max(t - step, 0.2 * t)
            start = None if before is None else _predicted(before, t, P, t_next)
            try:
                P_next = realize_from_angles(g, _scaled(theta_dir, t_next), P, held=held,
                                             start=start)
                # The all-hyperideal endgame scans for no degenerations.
                signals, next_gaps = (([], None) if hyperideal_only
                                      else _scan_signals(P_next, P, held, exempt))
            except (NewtonDiverged, SkeletonChanged) as exc:
                if step > DT_MIN:
                    if bracket is None:
                        dt = 0.5 * step
                    else:
                        bracket = (t_next, None, None)
                    continue
                # Stalled against the realizability boundary: look for a
                # degeneration of the current state with relaxed thresholds
                # (the limit is approached but never reached numerically) and
                # handle it as this step's signal, below, with step <= DT_MIN.
                signals = [s for s in _scan_signals(P, P, held, exempt, relaxed=True)[0]
                           if s[0] != FlowEventKind.ALMOST_PROPER_ONSET]
                if not signals:
                    raise StallDetected(f"no progress at t={t:.6g} ({exc})") from exc
                P_next, t_next, next_gaps = P, t, None

            if signals and step > DT_MIN and not in_window(signals, next_gaps):
                signal = signals[0][:2]
                bracket = (t_next, signal, next_gaps.get(signal))
                continue
            if signals:
                kind, data, _ = signals[0]
                P_new = handle_event(kind, data, P_next, t_next)
                bracket = None
                if P_new is not None:  # a new stratum
                    t, P, dt, before, gaps = t_next, P_new, DT_INIT, None, None
                elif P_next is P:
                    continue  # a stall's event: the flow has not moved
                else:  # the event state is the path's next accepted state
                    before, P, t, gaps = (t, P, gaps), P_next, t_next, next_gaps
            else:
                before, P, t, gaps = (t, P, gaps), P_next, t_next, next_gaps
                accepted += 1
                if accepted % SAMPLE_EVERY == 0:
                    record(P, t)
                if bracket is None:
                    # The all-hyperideal path is realizable all the way down: no cap there.
                    dt = dt * 1.7 if hyperideal_only else min(dt * 1.7, DT_INIT)
                elif t <= bracket[0]:
                    bracket = None
            if exempt:
                radii = row_norms(P.vertex_charts)
                exempt = tuple(v for v in exempt if P.kind_codes[v] != HYPERIDEAL_CODE
                               and radii[v] > 1.0 - IDEAL_BAND)
            if not hyperideal_only and _hyperideal_only(P):
                hyperideal_only, bracket = True, None
                kind = FlowEventKind.BECAME_HYPERIDEAL_ONLY
                vol_ev = record(P, t, event=kind)
                events.append(FlowEvent(kind, t, vol_ev, {}))
        raise StallDetected("step limit reached")
    finally:
        flush()


def trace_to_csv(trace: FlowTrace) -> str:
    """CSV rendering: t, volume, vol_error, event, skeleton_hash."""
    lines = ["t,volume,vol_error,event,skeleton_hash"]
    for s in trace.samples:
        event = "" if s.event is None else s.event
        lines.append(
            f"{s.t:.12g},{s.volume.value:.12g},{s.volume.error_estimate:.12g},"
            f"{event},{s.polyhedron.skeleton.canonical_hash()}")
    return "\n".join(lines) + "\n"
