"""Polyhedra as arrays of face normals with combinatorics.

A :class:`Polyhedron` is a read-only (F, 4) array of unit face normals,
row f the plane of face f, together with a skeleton graph; vertices are
computed as the prescribed multi-plane concurrences.  Operations cover
vertex and properness classification, truncation by polar half-spaces,
dihedral angles, and (truncated) edge lengths.

Polyhedron text format (shared with the CLI): ``P <face-count>``, one
``N a b c d`` line per face giving the Minkowski normal 4-vector (the
selected half-space is where the Minkowski pairing is nonpositive),
then the skeleton in the graph text format.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    HYPERIDEAL_CODE,
    MINKOWSKI_SIGNS,
    TAU_IDEAL,
    OrientedPlane,
    PointKind,
    _frozen,
    _unit_rows,
    classify_points,
    interior_cosines,
    kind_codes,
    kinds_of,
    lift,
    mdot,
    row_dots,
    row_norms,
)
from .errors import (
    AngleOutOfRange,
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


class _Faces:
    """What both polyhedron classes share: read-only ``normals`` (F, 4) and
    ``vertex_lifts`` (V, 4), with the planes and charts they hold."""

    def __post_init__(self):
        object.__setattr__(self, "normals", _frozen(self.normals))
        object.__setattr__(self, "vertex_lifts", _frozen(self.vertex_lifts))

    @property
    def planes(self) -> tuple[OrientedPlane, ...]:
        """The plane of each face, its normal the face's row of ``normals`` bit for bit."""
        return tuple(map(OrientedPlane._of_unit, self.normals))

    @property
    def vertex_charts(self) -> np.ndarray:
        return self.vertex_lifts[:, 1:]


@dataclass(frozen=True)
class Polyhedron(_Faces):
    """Unit face normals, row f the plane of face f, plus combinatorial incidence."""

    normals: np.ndarray  # (F, 4)
    skeleton: PlanarGraph
    vertex_lifts: np.ndarray  # (V, 4), chart-normalized
    rectified: bool = False

    @cached_property
    def kind_codes(self) -> np.ndarray:
        """The kind code of each vertex at the default ideal band, computed once."""
        return kind_codes(self.vertex_charts)

    @cached_property
    def kinds(self) -> tuple[PointKind, ...]:
        """The kind of each vertex at the default ideal band, computed once."""
        return kinds_of(self.kind_codes)

    @cached_property
    def report(self) -> PropernessReport:
        """:func:`classify_vertices` at the default ideal band, computed once.

        Its kinds are :attr:`kinds`; the statuses are computed only here.
        """
        return classify_vertices(self)


def build_polyhedron(normals, expected_skeleton: PlanarGraph, *,
                     rectified: bool = False) -> Polyhedron:
    """Realize a polyhedron from its faces' unit plane normals and expected combinatorics.

    ``normals`` is an (F, 4) array, or a sequence of F :class:`OrientedPlane`,
    and is stored as given.  Every vertex lies on at least three faces
    whose planes meet in one point, weakly inside every selected half-space
    and strictly inside every half-space of a face it is not on; every
    skeleton edge meets the closed ball (open ball unless ``rectified``).
    Strict incidence makes each face's cycle walk the whole boundary of the
    face polygon, so the planes realize exactly the expected skeleton.
    """
    normals = np.asarray(normals, dtype=float)
    g = expected_skeleton
    if normals.shape[1:] != (4,):
        raise ValueError("normal must be a 4-vector")
    if len(normals) != len(g.faces):
        raise SkeletonMismatch(f"{len(normals)} planes for {len(g.faces)} faces")

    eta = normals * MINKOWSKI_SIGNS
    # Vertex v is the null vector of its faces' Euclid-normalized rows: one point when
    # the third singular value is clear of zero and the fourth, if any, vanishes.
    rows = eta / row_norms(eta)[:, None]
    n = g.n_vertices
    # A vertex on fewer than three faces keeps s2 = 0, which flags it.
    lifts, s2, s3 = np.zeros((n, 4)), np.zeros(n), np.zeros(n)
    for vs, inc in g.vertex_faces_by_degree:
        if (k := inc.shape[1]) >= 3:
            _, s, vt = np.linalg.svd(rows[inc])
            lifts[vs], s2[vs], s3[vs] = vt[:, -1], s[:, 2], s[:, 3] if k > 3 else 0.0
    bad = (s3 > VERTEX_RESIDUAL_TOL) | (s2 <= VERTEX_RESIDUAL_TOL)
    bad |= np.abs(lifts[:, 0]) < 1e-9 * row_norms(lifts)  # escapes the chart
    if np.logical_or.reduce(bad):
        v = int(np.argmax(bad))
        inc = list(g.vertex_faces[v])
        if len(inc) < 3:
            raise SkeletonMismatch(f"vertex {v} lies on {len(inc)} faces {inc}, needs 3")
        if s3[v] > VERTEX_RESIDUAL_TOL:
            raise SkeletonMismatch(f"planes at vertex {v} do not concur (residual {s3[v]:.3g})")
        if s2[v] <= VERTEX_RESIDUAL_TOL:
            raise SkeletonMismatch(
                f"planes of faces {inc} at vertex {v} do not meet in a single point "
                f"(third singular value {s2[v]:.3g})")
        raise SkeletonMismatch(f"vertex {v} escapes the affine chart")
    lifts /= lifts[:, :1]

    # Convexity: every vertex weakly inside every selected half-space,
    # strictly inside those of the faces it is not on.  Each margin is divided
    # by its lift's norm, at least 1 for a lift (1, x).
    scaled = lifts @ eta.T / row_norms(lifts)[:, None]
    worst = float(np.maximum.reduce(scaled, axis=None))
    if worst > CONVEXITY_SLACK * 10:
        bad = np.unravel_index(np.argmax(scaled), scaled.shape)
        raise NonConvex(f"vertex {bad[0]} violates face {bad[1]} by {worst:.3g}")
    off = np.where(g.incidence, -np.inf, scaled)
    if np.maximum.reduce(off, axis=None) >= -10 * CONVEXITY_SLACK:
        v, f = np.unravel_index(np.argmax(off), off.shape)
        raise SkeletonMismatch(
            f"vertex {v} lies on face {f}, which the skeleton does not put it on "
            f"(margin {off[v, f]:.3g})")

    # Closest point of each edge segment a - t (a - b), t in [0, 1], to the origin.
    a, b = lifts[g.edge_array.T, 1:]
    d = a - b
    dd = np.add.reduce(d * d, axis=1)
    t = np.add.reduce(a * d, axis=1) / np.where(dd > 0.0, dd, 1.0)
    q = a - np.minimum(np.maximum(t, 0.0), 1.0)[:, None] * d
    m2 = np.add.reduce(q * q, axis=1)
    misses = m2 >= 1.0 + (2 * TAU_IDEAL if rectified else 0.0)
    if np.logical_or.reduce(misses):
        i = int(np.argmax(misses))
        what = "not tangent" if rectified else "misses the ball"
        raise EdgeMissesBall(f"edge {g.edges[i]} {what} (min |x|^2 = {m2[i]:.6g})")

    return Polyhedron(normals=normals, skeleton=g, vertex_lifts=lifts, rectified=rectified)


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
        raise AngleOutOfRange("angles must lie in (0, pi)")
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
    A vertex's witness is the last hyperideal vertex that makes its
    status, an improper one before any almost proper one.  At the default
    band the kinds are ``P.kinds``.
    """
    n = P.skeleton.n_vertices
    charts = P.vertex_charts
    kinds = P.kinds if tol == TAU_IDEAL else classify_points(charts, tol)
    statuses = [VertexStatus.PROPER] * n
    witnesses = [None] * n
    hyper = [v for v, k in enumerate(kinds) if k == PointKind.HYPERIDEAL]
    real = [w for w, k in enumerate(kinds) if k == PointKind.REAL]
    if hyper and real:
        margins = 1.0 - row_dots(charts[hyper][:, None], charts[real])  # (pole, real vertex)
        if (margins <= tol).any():
            for status, hit in ((VertexStatus.ALMOST_PROPER, margins <= tol),
                                (VertexStatus.IMPROPER, margins < -tol)):
                last = len(hyper) - 1 - np.argmax(hit[::-1], axis=0)
                for i in np.flatnonzero(hit.any(axis=0)).tolist():
                    statuses[real[i]], witnesses[real[i]] = status, hyper[last[i]]
    overall = next((s for s in (VertexStatus.IMPROPER, VertexStatus.ALMOST_PROPER)
                    if s in statuses), VertexStatus.PROPER)
    return PropernessReport(kinds, tuple(statuses), tuple(witnesses), overall)


def dihedral_angles(P: Polyhedron) -> dict:
    """Interior dihedral angle at every skeleton edge."""
    f1, f2 = P.skeleton.edge_face_array.T
    cosines = interior_cosines(P.normals[f1], P.normals[f2])
    return dict(zip(P.skeleton.edges, map(math.acos, cosines.tolist())))


def _edge_segments(P: Polyhedron):
    """Chart ends ``(x, y)`` of each edge's part inside the polar half-spaces of its ends.

    Row i holds the ends at u and v of ``u, v = P.skeleton.edges[i]``.  An
    end is the vertex itself, or for a hyperideal vertex b, where the edge
    walked from its other end a meets b's polar plane: ``a + t (b - a)``
    with ``t = (1 - b.a) / (b.(b - a))``.  Ends coincide only at the two
    ends of one edge, when its segment is shorter than ``MERGE_TOL``.
    """
    hyper = P.kind_codes == HYPERIDEAL_CODE
    u, v = P.skeleton.edge_array.T

    def end(a, b, cut):  # stacked (1, 3) @ (3, 1) products round as the scalar b @ a
        a, b, out = a[cut], b[cut], b.copy()
        t = (1.0 - b[:, None] @ a[:, :, None]) / (b[:, None] @ (b - a)[:, :, None])
        out[cut] = a + t[:, 0] * (b - a)
        return out

    charts = P.vertex_charts
    return end(charts[v], charts[u], hyper[u]), end(charts[u], charts[v], hyper[v])


def edge_lengths(P: Polyhedron) -> dict:
    """Hyperbolic length of each edge's segment (:func:`_edge_segments`) inside the truncation.

    Zero is possible (almost proper contact); an edge with an end on the
    sphere gets ``inf`` unless its two ends merge.  The segment of an edge
    between two hyperideal vertices a and b is the common perpendicular of
    their polar planes, ``cosh l = (1 - a.b) / sqrt((|a|^2 - 1)(|b|^2 - 1))``,
    read off the charts: its cut points can lie so near the sphere that
    ``1 - |x|^2`` loses digits.
    """
    if P.report.is_improper():
        raise ImproperInput("edge lengths need a proper or almost proper polyhedron")
    x, y = _edge_segments(P)
    sx, sy = 1.0 - np.add.reduce(x * x, axis=1), 1.0 - np.add.reduce(y * y, axis=1)
    hyper = P.kind_codes == HYPERIDEAL_CODE
    u, v = P.skeleton.edge_array.T
    polar = hyper[u] & hyper[v]
    a, b = P.vertex_charts[u[polar]], P.vertex_charts[v[polar]]
    cosh = np.full(len(u), np.nan)
    cosh[polar] = (1.0 - np.add.reduce(a * b, axis=1)) / np.sqrt(
        (np.add.reduce(a * a, axis=1) - 1.0) * (np.add.reduce(b * b, axis=1) - 1.0))
    out = {}
    # Python floats per edge; row_dots rounds each x @ y as the scalar product does.
    for i, (e, sxi, syi, polar_i, cosh_i, xy) in enumerate(zip(
            P.skeleton.edges, sx.tolist(), sy.tolist(), polar.tolist(), cosh.tolist(),
            row_dots(x, y).tolist())):
        if sxi <= TAU_IDEAL * 2 or syi <= TAU_IDEAL * 2:
            out[e] = 0.0 if math.hypot(*(x[i] - y[i])) <= MERGE_TOL else math.inf
        elif polar_i:
            out[e] = math.acosh(max(1.0, cosh_i))
        else:
            out[e] = math.acosh(max(1.0, (1.0 - xy) / math.sqrt(sxi * syi)))
    return out


# --- truncation -------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedPolyhedron(_Faces):
    """Result of cutting off every hyperideal vertex by its polar half-space.

    Face f of ``skeleton`` lies on the plane of ``normals[f]``;
    ``truncation_flags[f]`` marks the polar planes of the hyperideal
    vertices, which follow the original faces in order.
    """

    normals: np.ndarray
    truncation_flags: tuple[bool, ...]
    skeleton: PlanarGraph
    vertex_lifts: np.ndarray
    original: Polyhedron


def truncate(P: Polyhedron) -> TruncatedPolyhedron:
    """Intersect P with the polar half-space of every hyperideal vertex.

    For proper input, removing the truncation faces recovers P exactly;
    edges arising from the truncation meet the adjacent faces at right
    angles, and distinct truncation faces are disjoint.  The nodes are
    the ends of :func:`_edge_segments`, so they coincide only at the two
    ends of one edge.

    What depends on the combinatorics alone (the truncated skeleton, the
    point row of each node, the flags and the face pairs the invariants
    test) comes from :func:`_truncated_skeleton`, built once per truncated
    skeleton; a call computes the cut points, the polar planes and the
    invariants' Gram products.  A :class:`TruncationDegenerate` it raises
    carries the chart point of each node.
    """
    if P.report.is_improper():
        raise ImproperInput("cannot truncate an improper polyhedron")
    hyper = tuple((P.kind_codes == HYPERIDEAL_CODE).nonzero()[0].tolist())
    if not hyper:
        return TruncatedPolyhedron(P.normals, (False,) * len(P.normals), P.skeleton,
                                   P.vertex_lifts, P)
    x, y = _edge_segments(P)
    short = tuple((row_norms(x - y) <= MERGE_TOL).nonzero()[0].tolist())
    points = np.concatenate([P.vertex_charts, x, y])
    try:
        skeleton, first, flags, pairs = _truncated_skeleton(P.skeleton, hyper, short)
    except TruncationDegenerate as exc:
        exc.points = points[exc.points]  # node rows to chart points
        raise
    polar = _unit_rows(P.vertex_lifts[list(hyper)])  # polar planes {v . x = 1}, origin side kept
    T = TruncatedPolyhedron(np.concatenate([P.normals, polar]), flags, skeleton,
                            lift(points[first]), P)
    _assert_truncation_invariants(T, pairs)
    return T


@lru_cache(maxsize=16)
def _truncated_skeleton(g: PlanarGraph, hyper: tuple, short: tuple):
    """Skeleton of g truncated at the vertices ``hyper``, with what its truncations share.

    Returns ``(skeleton, first, flags, pairs)``: the skeleton, the point
    row of each node, the truncation flags of its faces and their
    :func:`_invariant_pairs`.  The points are the vertex charts, then the
    ends of :func:`_edge_segments` at each edge's first vertex, then at
    its second; the ends of the edges indexed by ``short`` merge.  Nodes
    are numbered in the order the face walk meets them, each at the point
    of its first-met end.  The result depends on these arguments alone, so
    the samples of one flow stratum share it: its skeleton (with the face
    walk the orthoscheme volume gathers by, :attr:`PlanarGraph.face_walk`),
    the node rows and the invariants' index pairs are each built once per
    truncated skeleton.

    A face with fewer than 3 nodes, or a face of g whose node cycle
    repeats a node non-consecutively, raises :class:`TruncationDegenerate`
    with the node rows as its ``points`` and the node cycles of the faces
    with at least 3 distinct nodes as its ``cycles``.  The repeat needs a
    chord of the face boundary, which a polyhedral skeleton does not have.
    """
    hyper_set = set(hyper)
    n, n_edges = g.n_vertices, len(g.edges)

    def end(e, v):
        """Row of the points at edge e's end at v."""
        return v if v not in hyper_set else n + g.edge_index[e] + n_edges * (v == e[1])

    merged = {}  # union-find over the rows of short segments' ends

    def root(i):
        while i in merged:
            i = merged[i]
        return i

    for i in short:
        e = g.edges[i]
        a, b = root(end(e, e[0])), root(end(e, e[1]))
        if a != b:
            merged[a] = b
    number, first = {}, []  # node number of each root; row of each node's first-met end

    def node(i):
        r = root(i)
        if r not in number:
            number[r] = len(first)
            first.append(i)
        return number[r]

    def cycle(nodes):
        """The node cycle without repeats of consecutive nodes."""
        out = [nd for k, nd in enumerate(nodes) if k == 0 or nd != nodes[k - 1]]
        return out[:-1] if len(out) > 1 and out[0] == out[-1] else out

    faces = [cycle([node(end(_norm_edge(w, v), v)) for k, v in enumerate(cyc)
                    for w in (cyc[k - 1], cyc[(k + 1) % len(cyc)])]) for cyc in g.faces]
    faces += [cycle([node(end(e, v)) for e in g.vertex_edges[v]]) for v in hyper]
    first = np.array(first)
    first.setflags(write=False)
    region = (None if any(2 < len(set(c)) < len(c) for c in faces)
              else [c for c in faces if len(set(c)) > 2])
    for i, c in enumerate(faces[:len(g.faces)]):
        if len(c) < 3 or len(set(c)) != len(c):
            raise TruncationDegenerate(f"face {i} degenerates under truncation", first, region)
    for v, c in zip(hyper, faces[len(g.faces):]):
        if len(c) < 3:
            raise TruncationDegenerate(f"truncation face at vertex {v} degenerates", first, region)
    skeleton = PlanarGraph(n_vertices=len(first), faces=tuple(map(tuple, faces)))
    flags = (False,) * len(g.faces) + (True,) * len(hyper)
    return skeleton, first, flags, _invariant_pairs(skeleton, flags)


def _invariant_pairs(g: PlanarGraph, flags) -> tuple:
    """The face pairs the truncation invariants test, on skeleton g with face flags ``flags``.

    ``(mixed, f1, f2, a, b)``: the edges between a flagged and an
    unflagged face with their two faces, and every pair of flagged faces.
    """
    flags = np.array(flags)
    f1, f2 = g.edge_face_array.T
    mixed = np.flatnonzero(flags[f1] != flags[f2])
    flagged = np.flatnonzero(flags)
    a, b = flagged[np.array(np.triu_indices(len(flagged), 1))]
    out = (mixed, f1[mixed], f2[mixed], a, b)
    for arr in out:
        arr.setflags(write=False)
    return out


def _assert_truncation_invariants(T: TruncatedPolyhedron, pairs):
    """Right angles at truncation edges; distinct truncation planes disjoint.

    ``pairs`` is :func:`_invariant_pairs` of T's skeleton and flags.
    Tangency of truncation planes is the boundary case reached by
    rectifications (adjacent vertex circles touch at the edge point).
    """
    g, normals = T.skeleton, T.normals
    mixed, f1, f2, a, b = pairs
    gram = mdot(normals[f1], normals[f2])
    bad = np.abs(gram) > 1e-7
    if bad.any():
        i = int(np.argmax(bad))
        raise ImproperInput(
            f"truncation edge {g.edges[mixed[i]]} is not right-angled (gram {gram[i]:.3g})")
    gram = mdot(normals[a], normals[b])
    bad = np.abs(gram) < 1.0 - 1e-7
    if bad.any():
        i = int(np.argmax(bad))
        raise ImproperInput(f"truncation faces {a[i]}, {b[i]} overlap")


def strip_truncation(T: TruncatedPolyhedron) -> Polyhedron:
    """Drop truncation faces and rebuild the original polyhedron, its normals bit for bit."""
    normals = T.normals[np.logical_not(T.truncation_flags)]
    return build_polyhedron(normals, T.original.skeleton, rectified=T.original.rectified)


# --- text format -------------------------------------------------------------


def format_polyhedron(P: Polyhedron) -> str:
    """The text format, each normal coordinate in the shortest form that parses back exactly."""
    normals = "".join("N " + " ".join(map(repr, row)) + "\n" for row in P.normals.tolist())
    return f"P {len(P.normals)}\n" + normals + format_graph(P.skeleton)


def parse_polyhedron(text: str, *, rectified: bool = False) -> Polyhedron:
    """Read the text format, scaling each normal to unit norm as :class:`OrientedPlane` does.

    A malformed ``P`` or ``N`` line, or a second ``P`` line, raises BadFormat naming the line.
    """
    lines = text.splitlines()
    normals, count, rest_start = [], None, len(lines)
    for idx, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *values = line.split()
        if head not in ("P", "N"):
            rest_start = idx
            break
        if head == "P" and count is not None:
            raise BadFormat(f"duplicate P line: {line!r}")
        try:  # a ValueError: not one integer, or not four numbers of a spacelike normal
            if head == "P":
                (count,) = map(int, values)
            else:
                a, b, c, d = map(float, values)
                normals.append(_unit_rows(np.array([a, b, c, d])))
        except ValueError:
            need = "one integer" if head == "P" else "four numbers of a spacelike normal"
            raise BadFormat(f"{head} line needs {need}: {line!r}") from None
    if count is None or len(normals) != count:
        raise BadFormat("polyhedron header does not match plane count")
    skeleton = parse_graph("\n".join(lines[rest_start:]))
    return build_polyhedron(np.array(normals).reshape(-1, 4), skeleton, rectified=rectified)
