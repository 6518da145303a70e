"""Plane-tuple polyhedra with combinatorics.

A :class:`Polyhedron` is an ordered, face-marked tuple of oriented
planes together with a skeleton graph; vertices are computed as the
prescribed multi-plane concurrences.  Operations cover vertex and
properness classification, truncation by polar half-spaces, dihedral
angles, and (truncated) edge lengths.

Polyhedron text format (shared with the CLI): ``P <face-count>``, one
``N a b c d`` line per face giving the Minkowski normal 4-vector (the
selected half-space is where the Minkowski pairing is nonpositive),
then the skeleton in the graph text format.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import core
from .core import (
    MINKOWSKI_SIGNS,
    TAU_IDEAL,
    OrientedPlane,
    PointKind,
    classify_point,
    lift,
    mdot,
    polar_plane,
    segment_min_norm2,
)
from .errors import (
    BadFormat,
    EdgeMissesBall,
    ImproperInput,
    NonConvex,
    SkeletonMismatch,
    TooFewAngles,
    TruncationDegenerate,
)
from .graphs import PlanarGraph, parse_graph, format_graph, _norm_edge

#: Residual bound on prescribed plane concurrences.
VERTEX_RESIDUAL_TOL = 1e-8
#: Convexity slack (scaled by vertex lift size).
CONVEXITY_SLACK = 1e-9
#: Coincident truncation nodes closer than this merge into one vertex.
MERGE_TOL = 1e-7


class VertexStatus(enum.Enum):
    PROPER = "Proper"
    ALMOST_PROPER = "AlmostProper"
    IMPROPER = "Improper"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class PropernessReport:
    kinds: tuple[PointKind, ...]
    statuses: tuple[VertexStatus, ...]
    witnesses: tuple  # per vertex: offending pole vertex id or None
    overall: VertexStatus

    def is_improper(self) -> bool:
        return self.overall == VertexStatus.IMPROPER


@dataclass(frozen=True)
class Polyhedron:
    """Ordered plane tuple plus combinatorial incidence."""

    planes: tuple[OrientedPlane, ...]
    skeleton: PlanarGraph
    vertex_lifts: np.ndarray  # (V, 4), chart-normalized
    rectified: bool = False

    def __post_init__(self):
        arr = np.array(self.vertex_lifts, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "vertex_lifts", arr)

    @property
    def vertex_charts(self) -> np.ndarray:
        return self.vertex_lifts[:, 1:]

    @cached_property
    def report(self) -> PropernessReport:
        """Vertex kinds and properness at the default ideal band, computed once."""
        return classify_vertices(self)

    @cached_property
    def normal_matrix(self) -> np.ndarray:
        return np.array([p.normal for p in self.planes])


def _vertex_from_planes(normals: np.ndarray):
    """Nullspace solve for the common point of >= 3 planes.

    Returns (lift, singular values); rows are Euclid-normalized first.
    The planes meet in exactly one point when the third singular value
    is clear of zero and the fourth, if any, vanishes.
    """
    A = normals * MINKOWSKI_SIGNS
    A = A / np.linalg.norm(A, axis=1, keepdims=True)
    _, s, vt = np.linalg.svd(A)
    return vt[-1], s


def build_polyhedron(planes, expected_skeleton: PlanarGraph, *,
                     rectified: bool = False) -> Polyhedron:
    """Realize a polyhedron from its face planes and expected combinatorics.

    Every vertex lies on at least three faces whose planes meet in one
    point, weakly inside every selected half-space and strictly inside
    every half-space of a face it is not on; every skeleton edge meets
    the closed ball (open ball unless ``rectified``).  Strict incidence
    makes each face's cycle walk the whole boundary of the face polygon,
    so the planes realize exactly the expected skeleton.
    """
    planes = tuple(planes)
    g = expected_skeleton
    if len(planes) != len(g.faces):
        raise SkeletonMismatch(f"{len(planes)} planes for {len(g.faces)} faces")

    lifts = np.empty((g.n_vertices, 4))
    normals = np.array([p.normal for p in planes])
    incident = np.zeros((g.n_vertices, len(planes)), dtype=bool)
    for v in range(g.n_vertices):
        inc = list(g.vertex_faces[v])
        if len(inc) < 3:
            raise SkeletonMismatch(f"vertex {v} lies on {len(inc)} faces {inc}, needs 3")
        incident[v, inc] = True
        w, s = _vertex_from_planes(normals[inc])
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

    # Convexity: every vertex weakly inside every selected half-space,
    # strictly inside those of the faces it is not on.
    margins = lifts @ (normals * MINKOWSKI_SIGNS).T
    scale = np.maximum(1.0, np.linalg.norm(lifts, axis=1))[:, None]
    scaled = margins / scale
    worst = float(np.max(scaled))
    if worst > CONVEXITY_SLACK * 10:
        bad = np.unravel_index(np.argmax(scaled), margins.shape)
        raise NonConvex(f"vertex {bad[0]} violates face {bad[1]} by {worst:.3g}")
    off = np.where(incident, -np.inf, scaled)
    v, f = np.unravel_index(np.argmax(off), off.shape)
    if off[v, f] >= -10 * CONVEXITY_SLACK:
        raise SkeletonMismatch(
            f"vertex {v} lies on face {f}, which the skeleton does not put it on "
            f"(margin {off[v, f]:.3g})")

    charts = lifts[:, 1:]
    edge_tol = 2 * TAU_IDEAL if rectified else 0.0
    for (u, v) in g.edges:
        _, m2 = segment_min_norm2(charts[u], charts[v])
        if m2 >= 1.0 + edge_tol:
            if not rectified:
                raise EdgeMissesBall(f"edge {(u, v)} misses the ball (min |x|^2 = {m2:.6g})")
            raise EdgeMissesBall(f"edge {(u, v)} not tangent (min |x|^2 = {m2:.6g})")

    return Polyhedron(planes=planes, skeleton=g, vertex_lifts=lifts, rectified=rectified)


# --- classification ---------------------------------------------------------


def classify_vertex_by_angles(incident_angles, tol: float = TAU_IDEAL) -> PointKind:
    """Vertex kind from the dihedral angles of its incident edges.

    The angle sum is compared to (k-2)pi: below means hyperideal, equal
    ideal, above real.
    """
    angles = list(incident_angles)
    k = len(angles)
    if k < 3:
        raise TooFewAngles(f"need >= 3 angles, got {k}")
    if any(not (0.0 < a < math.pi) for a in angles):
        raise TooFewAngles("angles must lie in (0, pi)")
    gap = sum(angles) - (k - 2) * math.pi
    if gap < -tol:
        return PointKind.HYPERIDEAL
    if gap > tol:
        return PointKind.REAL
    return PointKind.IDEAL


def classify_vertices(P: Polyhedron, tol: float = TAU_IDEAL) -> PropernessReport:
    """Kind and properness status of every vertex.

    For each hyperideal vertex v, every other real vertex must lie
    strictly inside the polar half-space H_v; on its boundary plane
    (within tol) the configuration is almost proper, outside improper.
    """
    n = P.skeleton.n_vertices
    charts = P.vertex_charts
    kinds = [classify_point(charts[v], tol) for v in range(n)]
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
    if any(s == VertexStatus.IMPROPER for s in statuses):
        overall = VertexStatus.IMPROPER
    elif any(s == VertexStatus.ALMOST_PROPER for s in statuses):
        overall = VertexStatus.ALMOST_PROPER
    else:
        overall = VertexStatus.PROPER
    return PropernessReport(tuple(kinds), tuple(statuses), tuple(witnesses), overall)


def dihedral_angles(P: Polyhedron) -> dict:
    """Interior dihedral angle at every skeleton edge."""
    out = {}
    for e in P.skeleton.edges:
        f1, f2 = P.skeleton.edge_faces[e]
        out[e] = core.dihedral_angle(P.planes[f1], P.planes[f2])
    return out


def _truncated_interval(P: Polyhedron, e, hyper):
    """Parameter interval of edge e surviving all polar half-spaces."""
    u, v = e
    a = P.vertex_charts[u]
    b = P.vertex_charts[v]
    lo, hi = 0.0, 1.0
    for h in hyper:
        hv = P.vertex_charts[h]
        c0 = float(hv @ a) - 1.0
        c1 = float(hv @ (b - a))
        # constraint c0 + t*c1 <= 0
        if abs(c1) < 1e-14:
            if c0 > TAU_IDEAL:
                return None
            continue
        t = -c0 / c1
        if c1 > 0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
    if hi < lo:
        return None
    return lo, hi


def edge_lengths(P: Polyhedron) -> dict:
    """Hyperbolic length of each edge's subsegment inside the truncation.

    Zero is possible (almost proper contact); edges ending at ideal
    vertices of the truncation get length ``inf``.
    """
    report = P.report
    if report.is_improper():
        raise ImproperInput("edge lengths need a proper or almost proper polyhedron")
    hyper = [v for v, k in enumerate(report.kinds) if k == PointKind.HYPERIDEAL]
    out = {}
    for e in P.skeleton.edges:
        interval = _truncated_interval(P, e, hyper)
        if interval is None:
            out[e] = 0.0
            continue
        lo, hi = interval
        a = P.vertex_charts[e[0]]
        d = P.vertex_charts[e[1]] - a
        x = a + lo * d
        y = a + hi * d
        sx = 1.0 - float(x @ x)
        sy = 1.0 - float(y @ y)
        if sx <= TAU_IDEAL * 2 or sy <= TAU_IDEAL * 2:
            if math.hypot(*(x - y)) <= MERGE_TOL:
                out[e] = 0.0
            else:
                out[e] = math.inf
            continue
        num = 1.0 - float(x @ y)
        out[e] = math.acosh(max(1.0, num / math.sqrt(sx * sy)))
    return out


# --- truncation -------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedPolyhedron:
    """Result of cutting off every hyperideal vertex by its polar half-space.

    Face f of ``skeleton`` lies on ``planes[f]``; ``truncation_flags[f]``
    marks the polar planes of the hyperideal vertices, which follow the
    original faces in order.
    """

    planes: tuple[OrientedPlane, ...]
    truncation_flags: tuple[bool, ...]
    skeleton: PlanarGraph
    vertex_lifts: np.ndarray
    original: Polyhedron

    def __post_init__(self):
        arr = np.array(self.vertex_lifts, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "vertex_lifts", arr)

    @property
    def vertex_charts(self):
        return self.vertex_lifts[:, 1:]

    def face_polygon(self, f: int) -> np.ndarray:
        return self.vertex_charts[list(self.skeleton.faces[f])]


class _NodePool:
    """Truncation vertices with geometric merging of coincident nodes."""

    def __init__(self, tol):
        self.tol = tol
        self.coords = []
        self.key_to_id = {}

    def add(self, key, coord):
        if key in self.key_to_id:
            return self.key_to_id[key]
        for i, c in enumerate(self.coords):
            if np.linalg.norm(c - coord) <= self.tol:
                self.key_to_id[key] = i
                return i
        self.coords.append(np.asarray(coord, dtype=float))
        self.key_to_id[key] = len(self.coords) - 1
        return len(self.coords) - 1


def truncate(P: Polyhedron) -> TruncatedPolyhedron:
    """Intersect P with the polar half-space of every hyperideal vertex.

    For proper input, removing the truncation faces recovers P exactly;
    edges arising from the truncation meet the adjacent faces at right
    angles, and distinct truncation faces are disjoint.
    """
    report = P.report
    if report.is_improper():
        raise ImproperInput("cannot truncate an improper polyhedron")
    g = P.skeleton
    hyper = [v for v, k in enumerate(report.kinds) if k == PointKind.HYPERIDEAL]
    if not hyper:
        return TruncatedPolyhedron(
            planes=P.planes,
            truncation_flags=tuple(False for _ in P.planes),
            skeleton=g,
            vertex_lifts=P.vertex_lifts.copy(),
            original=P,
        )
    hyper_set = set(hyper)
    charts = P.vertex_charts
    polars = {v: polar_plane(charts[v]) for v in hyper}

    pool = _NodePool(MERGE_TOL)

    def cut_node(edge, v):
        """Node where edge is cut by the polar plane of its endpoint v."""
        u = edge[0] if edge[1] == v else edge[1]
        a, b = charts[u], charts[v]
        hv = charts[v]
        denom = float(hv @ (b - a))
        t = (1.0 - float(hv @ a)) / denom
        coord = a + t * (b - a)
        return pool.add(("c", edge, v), coord)

    def vert_node(v):
        return pool.add(("v", v), charts[v])

    faces = []
    for i, cyc in enumerate(g.faces):
        m = len(cyc)
        nodes = []
        for k, v in enumerate(cyc):
            if v not in hyper_set:
                nodes.append(vert_node(v))
            else:
                prev = cyc[(k - 1) % m]
                nxt = cyc[(k + 1) % m]
                nodes.append(cut_node(_norm_edge(prev, v), v))
                nodes.append(cut_node(_norm_edge(v, nxt), v))
        dedup = []
        for nd in nodes:
            if not dedup or nd != dedup[-1]:
                dedup.append(nd)
        if len(dedup) > 1 and dedup[0] == dedup[-1]:
            dedup.pop()
        if len(dedup) < 3 or len(set(dedup)) != len(dedup):
            raise TruncationDegenerate(f"face {i} degenerates under truncation")
        faces.append(tuple(dedup))
    for v in hyper:
        ring = [cut_node(e, v) for e in g.vertex_edges[v]]
        dedup = []
        for nd in ring:
            if not dedup or nd != dedup[-1]:
                dedup.append(nd)
        if len(dedup) > 1 and dedup[0] == dedup[-1]:
            dedup.pop()
        if len(dedup) < 3:
            raise TruncationDegenerate(f"truncation face at vertex {v} degenerates")
        faces.append(tuple(dedup))

    skeleton = PlanarGraph(n_vertices=len(pool.coords), faces=tuple(faces))
    lifts = lift(np.array(pool.coords))
    planes = tuple(P.planes) + tuple(polars[v] for v in hyper)
    flags = tuple([False] * len(P.planes) + [True] * len(hyper))
    T = TruncatedPolyhedron(
        planes=planes,
        truncation_flags=flags,
        skeleton=skeleton,
        vertex_lifts=lifts,
        original=P,
    )
    _assert_truncation_invariants(T)
    return T


def _assert_truncation_invariants(T: TruncatedPolyhedron):
    """Right angles at truncation edges; distinct truncation planes disjoint.

    Tangency of truncation planes is the boundary case reached by
    rectifications (adjacent vertex circles touch at the edge point).
    """
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
            gram = float(mdot(T.planes[flagged[a]].normal,
                              T.planes[flagged[b]].normal))
            if abs(gram) < 1.0 - 1e-7:
                raise ImproperInput(
                    f"truncation faces {flagged[a]}, {flagged[b]} overlap")


def strip_truncation(T: TruncatedPolyhedron) -> Polyhedron:
    """Drop truncation faces and rebuild the original polyhedron.

    The returned plane tuple is the original one, object for object.
    """
    planes = tuple(p for p, flag in zip(T.planes, T.truncation_flags) if not flag)
    return build_polyhedron(planes, T.original.skeleton, rectified=T.original.rectified)


# --- text format -------------------------------------------------------------


def format_polyhedron(P: Polyhedron) -> str:
    lines = [f"P {len(P.planes)}"]
    for pl in P.planes:
        lines.append("N " + " ".join(f"{x:.12g}" for x in pl.normal))
    return "\n".join(lines) + "\n" + format_graph(P.skeleton)


def parse_polyhedron(text: str, *, rectified: bool = False) -> Polyhedron:
    lines = text.splitlines()
    planes = []
    count = None
    rest_start = 0
    for idx, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "P":
            count = int(parts[1])
        elif parts[0] == "N":
            planes.append(OrientedPlane(normal=np.array([float(x) for x in parts[1:5]])))
        else:
            rest_start = idx
            break
    if count is None or len(planes) != count:
        raise BadFormat("polyhedron header does not match plane count")
    skeleton = parse_graph("\n".join(lines[rest_start:]))
    return build_polyhedron(tuple(planes), skeleton, rectified=rectified)
