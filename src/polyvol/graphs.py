"""Combinatorics of 1-skeleta: embedded 3-connected planar graphs.

A :class:`PlanarGraph` stores a map on the sphere as a list of face
cycles with a coherent orientation (every directed edge appears in
exactly one face).  Duals, medial graphs, the collapse moves used by
degeneration flows, and the Bao-Bonahon angle admissibility check all
operate on this structure.

Graph text format (shared with the CLI): UTF-8, line oriented;
one ``V <count>`` line, then one ``F v0 v1 ... vk`` line per face with
vertex indices in cyclic order; edges are inferred; ``#`` starts a comment.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (
    AngleOutOfRange,
    BadFormat,
    CollapseMakesDegenerate,
    NotPolyhedral,
)

Edge = tuple[int, int]

#: An angle sum within this of its Bao-Bonahon bound is an equality case.
EQUALITY_TOL = 1e-9


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _by_length(cycles) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Indices of the cycles grouped by length, with their (n, k) member arrays."""
    groups = [[i for i, c in enumerate(cycles) if len(c) == k] for k in {len(c) for c in cycles}]
    return tuple((np.array(ids), np.array([cycles[i] for i in ids])) for ids in groups)


class CycleWalk(NamedTuple):
    """Cycles laid end to end, one position per member.

    Cycle i takes the ``sizes[i]`` positions from ``starts[i]`` on;
    position j holds member ``order[j]`` of cycle ``owner[j]``, followed
    in it by position ``next[j]``.
    """

    order: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    next: np.ndarray
    owner: np.ndarray


def cycle_walk(cycles) -> CycleWalk:
    """The :class:`CycleWalk` of a nonempty sequence of nonempty cycles."""
    return sized_walk(np.concatenate(cycles), np.array([len(c) for c in cycles]))


def sized_walk(order, sizes) -> CycleWalk:
    """The :class:`CycleWalk` cutting ``order`` into cycles of ``sizes`` members, in turn."""
    starts = np.cumsum(sizes) - sizes
    nxt = np.arange(len(order)) + 1
    nxt[starts + sizes - 1] = starts
    walk = CycleWalk(order, sizes, starts, nxt, np.repeat(np.arange(len(sizes)), sizes))
    for arr in walk:
        arr.setflags(write=False)
    return walk


def _orient_faces(n_vertices, faces):
    """Flip face cycles so every directed edge (dart) is used exactly once.

    Coherent faces, each dart used once and its reverse too (and no loop),
    come back unchanged.  Otherwise a breadth-first search flips each
    neighbour that shares a dart with an oriented face.  Raises BadFormat,
    in this order, for an edge on other than two faces, no coherent
    orientation, or a dart used twice.
    """
    darts_of = lambda cyc: set(zip(cyc, cyc[1:] + cyc[:1]))
    face_darts = [darts_of(cyc) for cyc in faces]
    darts = set().union(*face_darts)
    if len(darts) == sum(map(len, faces)) == 2 * sum(a < b for a, b in darts) \
            and darts == {(b, a) for a, b in darts}:
        return faces
    edge_faces = {}
    for i, cyc in enumerate(faces):
        for d in zip(cyc, cyc[1:] + cyc[:1]):
            edge_faces.setdefault(_norm_edge(*d), []).append(i)
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise BadFormat(f"edge {e} lies on {len(fs)} faces, expected 2")
    # BFS over face adjacency, flipping so shared edges are traversed oppositely.
    flip = [None] * len(faces)
    for start in range(len(faces)):
        if flip[start] is not None:
            continue
        flip[start] = False
        queue = [start]
        while queue:
            i = queue.pop()
            di = darts_of(faces[i][::-1]) if flip[i] else face_darts[i]
            for e in {_norm_edge(a, b) for a, b in di}:
                for j in edge_faces[e]:
                    if j == i:
                        continue
                    want_flip = bool(di & face_darts[j])
                    if flip[j] is None:
                        flip[j] = want_flip
                        queue.append(j)
                    elif flip[j] != want_flip:
                        raise BadFormat("face cycles admit no coherent orientation")
    oriented = [tuple(cyc[::-1]) if flip[i] else tuple(cyc) for i, cyc in enumerate(faces)]
    used = set()
    for cyc in oriented:
        for d in zip(cyc, cyc[1:] + cyc[:1]):
            if d in used:
                raise BadFormat(f"directed edge {d} used twice after orientation")
            used.add(d)
    return oriented


@dataclass(frozen=True)
class PlanarGraph:
    """An embedded graph on S^2 given by coherently oriented face cycles."""

    n_vertices: int
    faces: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # Each cycle is checked before orientation, whose messages assume valid cycles.
        n, faces = self.n_vertices, [tuple(f) for f in self.faces]
        for cyc in faces:
            if len(cyc) < 2:
                raise BadFormat("face cycle shorter than 2")
            if len(set(cyc)) != len(cyc):
                raise BadFormat(f"face cycle {cyc} repeats a vertex")
            if min(cyc) < 0 or max(cyc) >= n:
                raise BadFormat(f"vertex {next(v for v in cyc if not 0 <= v < n)} out of range")
        object.__setattr__(self, "faces", tuple(_orient_faces(n, faces)))
        if len(set().union(*self.faces)) != n:  # all in range(n) by now
            raise BadFormat("isolated vertices")
        # Coherent faces traverse each edge once in each direction.
        V, E, F = n, sum(map(len, self.faces)) // 2, len(self.faces)
        if V - E + F != 2:
            raise BadFormat(f"Euler formula violated: V-E+F = {V - E + F}")

    @cached_property
    def _darts(self) -> dict[Edge, int]:
        """Each dart (directed edge) to its face, in face order."""
        return {d: f for f, cyc in enumerate(self.faces) for d in zip(cyc, cyc[1:] + cyc[:1])}

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        # Coherent faces traverse each edge once in each direction: keep the rising one.
        return tuple(sorted(d for d in self._darts if d[0] < d[1]))

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def edge_faces(self) -> dict[Edge, tuple[int, int]]:
        """The two faces adjacent to each edge, the lower first."""
        darts, out = self._darts, {}
        for (a, b), f in darts.items():
            out.setdefault((a, b) if a < b else (b, a), (f, darts[b, a]))
        return out

    @cached_property
    def _rotations(self) -> tuple[tuple, tuple]:
        """``(vertex_faces, vertex_edges)``, from one walk around each vertex.

        The twin (v, x) of the dart (x, v) entering v in one face lies in
        the next face around v; each walk starts in v's lowest face.
        """
        darts, faces, edges = self._darts, [], []
        first = dict(reversed(darts))  # each vertex's dart in its lowest face
        enter = {(b, f): a for (a, b), f in darts.items()}  # tail of the dart entering b in f
        for v in range(self.n_vertices):
            ring, w = [], first[v]
            while not ring or w != first[v]:
                f = darts[v, w]
                w = enter[v, f]
                ring.append((f, (v, w) if v < w else (w, v)))
            faces.append(tuple(f for f, _ in ring))
            edges.append(tuple(e for _, e in ring))
        if sum(map(len, faces)) != len(darts):  # a walk missed some of its vertex's darts
            degree = Counter(a for a, _ in darts)
            v = next(v for v, ring in enumerate(faces) if len(ring) != degree[v])
            raise BadFormat(f"vertex {v} link is not a single cycle")
        return tuple(faces), tuple(edges)

    @cached_property
    def vertex_faces(self) -> tuple[tuple[int, ...], ...]:
        """Faces around each vertex, in rotation order.

        Face f follows face g at v when they share the edge leaving v that
        g enters through; this walks the faces cyclically around v.
        """
        return self._rotations[0]

    @cached_property
    def vertex_edges(self) -> tuple[tuple[Edge, ...], ...]:
        """Edges at each vertex, in rotation order matching vertex_faces."""
        return self._rotations[1]

    @cached_property
    def faces_by_size(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``(face ids, (n, k) vertex cycles)`` per face size k."""
        return _by_length(self.faces)

    @cached_property
    def face_walk(self) -> CycleWalk:
        """The face cycles laid end to end (:func:`cycle_walk`)."""
        return cycle_walk(self.faces)

    @cached_property
    def vertex_faces_by_degree(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``(vertex ids, (n, k) faces in rotation order)`` per vertex degree k."""
        return _by_length(self.vertex_faces)

    @cached_property
    def edge_array(self) -> np.ndarray:
        return np.array(self.edges, dtype=int).reshape(-1, 2)

    @cached_property
    def edge_face_array(self) -> np.ndarray:
        """Row i: the two faces of ``edges[i]``, in ``edge_faces`` order."""
        return np.array([self.edge_faces[e] for e in self.edges], dtype=int).reshape(-1, 2)

    @cached_property
    def incidence(self) -> np.ndarray:
        """(vertices, faces) mask, True where the vertex lies on the face."""
        out = np.zeros((self.n_vertices, len(self.faces)), dtype=bool)
        for vs, inc in self.vertex_faces_by_degree:
            out[vs[:, None], inc] = True
        return out

    @cached_property
    def face_crossings(self) -> tuple[tuple[tuple[int, Edge], ...], ...]:
        """Per face, its ``(neighbouring face, shared edge)`` pairs sorted by face.

        A curve transverse to the skeleton crosses the shared edge (just
        one on a polyhedral graph) when it steps to the neighbour.
        """
        out = [[] for _ in self.faces]
        for e, (f, h) in self.edge_faces.items():
            out[f].append((h, e))
            out[h].append((f, e))
        return tuple(tuple(sorted(row)) for row in out)

    def degree(self, v: int) -> int:
        return len(self.vertex_faces[v])

    def is_polyhedral(self) -> bool:
        """Every face >= 3, every degree >= 3, simple, and 3-connected (cached)."""
        return self._polyhedral

    @cached_property
    def _polyhedral(self) -> bool:
        # A degree-2 vertex already fails the 3-connectivity criterion.
        return all(len(cyc) >= 3 for cyc in self.faces) and is_3_connected(self)

    def canonical_hash(self) -> str:
        """Stable hex digest of the labelled face structure."""
        import hashlib

        parts = [f"V{self.n_vertices}"]
        for cyc in sorted(min(cyc[k:] + cyc[:k] for k in range(len(cyc))) for cyc in self.faces):
            parts.append("F" + ",".join(map(str, cyc)))
        return hashlib.sha1(";".join(parts).encode()).hexdigest()[:12]


def isomorphism_code(g: PlanarGraph) -> tuple[int, ...]:
    """A code that two 3-connected planar graphs share iff they are isomorphic.

    Weinberg's code (IEEE Trans. Circuit Theory 13 (1966)), breadth first:
    from a dart (u, v), number the vertices as reached, reading each one's
    neighbours in rotation order from the one it was reached from (v for u).
    The least code over all darts and both senses names the map up to
    reflection; by Whitney's theorem that is the 3-connected graph.
    """
    best = None
    for sense in (1, -1):
        rings = [[a + b - v for a, b in ring[::sense]] for v, ring in enumerate(g.vertex_edges)]
        for u in range(g.n_vertices):
            for v in rings[u]:
                order, number, entry, code = [u], {u: 0}, {u: v}, []
                for x in order:  # grows while it is walked: breadth first
                    k = rings[x].index(entry[x])
                    for w in rings[x][k:] + rings[x][:k]:
                        if w not in number:
                            number[w], entry[w] = len(number), x
                            order.append(w)
                        code.append(number[w])
                    code.append(-1)
                best = code if best is None else min(best, code)
    return tuple(best)


def is_3_connected(g: PlanarGraph) -> bool:
    """3-connectivity of a sphere map by the polyhedral-map criterion.

    A map on the sphere whose faces are simple cycles, with at least 4
    vertices, is 3-connected iff any two faces that share a vertex meet
    only in that vertex or in one common edge (Mohar & Thomassen,
    *Graphs on Surfaces*, section 5.5); a degree-2 vertex fails it, as
    its two faces share both its edges.  Scans the face pairs at each
    vertex.  Raises BadFormat when a vertex link is not one cycle, so
    that the faces do not form a sphere map.
    """
    if g.n_vertices < 4:
        return False
    face_sets = [frozenset(cyc) for cyc in g.faces]
    for ring in g.vertex_faces:
        for f, h in combinations(ring, 2):
            common = face_sets[f] & face_sets[h]
            if len(common) == 1:
                continue
            if len(common) == 2 and set(g.edge_faces.get(_norm_edge(*common), ())) == {f, h}:
                continue
            return False
    return True


def dual_graph(g: PlanarGraph) -> PlanarGraph:
    """Dual map: dual vertex i is face i of g; dual face j is vertex j of g."""
    if not g.is_polyhedral():
        raise NotPolyhedral("dual requires a 3-connected polyhedral graph")
    dual_faces = [g.vertex_faces[v] for v in range(g.n_vertices)]
    return PlanarGraph(n_vertices=len(g.faces), faces=tuple(dual_faces))


def medial_graph(g: PlanarGraph) -> PlanarGraph:
    """Medial map: one vertex per edge of g, joined when edges share an angle.

    Medial vertex i corresponds to ``g.edges[i]``; medial face f is the ring
    of face f of g, and medial face ``len(g.faces) + v`` the ring of vertex v.
    Both come coherent: a face ring follows the face cycle, a vertex ring
    ``g.vertex_edges[v]``, which passes each angle at v the opposite way.
    """
    if not g.is_polyhedral():
        raise NotPolyhedral("medial requires a 3-connected polyhedral graph")
    idx = g.edge_index
    faces = []
    for cyc in g.faces:
        m = len(cyc)
        faces.append(tuple(idx[_norm_edge(cyc[k], cyc[(k + 1) % m])] for k in range(m)))
    for ring in g.vertex_edges:
        faces.append(tuple(idx[e] for e in ring))
    return PlanarGraph(n_vertices=len(g.edges), faces=tuple(faces))


# --- collapse moves ---------------------------------------------------------


@dataclass(frozen=True)
class CollapseResult:
    """Outcome of a collapse move.

    ``vertex_map`` sends old vertex ids to new ones (None if smoothed
    away); ``face_map`` does the same for faces (None if the face
    disappeared).  ``graph.is_polyhedral()`` reports, without repairing,
    whether the result is still 3-connected.
    """

    graph: PlanarGraph
    vertex_map: dict
    face_map: dict


def _cleanup(labelled_faces):
    """Merge 2-gons (parallel edges) and smooth degree-2 vertices.

    ``labelled_faces`` is a list of (label, cycle).  Returns
    (graph, vertex_map, face_map) after relabelling; raises
    CollapseMakesDegenerate if the result is no longer a map with all
    faces >= 3 and degrees >= 3 on >= 4 vertices.
    """
    faces = [(lab, list(c)) for lab, c in labelled_faces]
    changed = True
    while changed:
        changed = False
        for _, cyc in faces:
            k = 0
            while k < len(cyc) and len(cyc) > 1:
                if cyc[k] == cyc[(k + 1) % len(cyc)]:
                    del cyc[k]
                    changed = True
                else:
                    k += 1
        faces = [(lab, c) for lab, c in faces if len(c) >= 1]
        two = next((i for i, (_, c) in enumerate(faces) if len(c) == 2), None)
        if two is not None:
            del faces[two]
            changed = True
            continue
        # Smooth degree-2 vertices.
        edges = dict.fromkeys(_norm_edge(cyc[k], cyc[(k + 1) % len(cyc)])
                              for _, cyc in faces for k in range(len(cyc)))
        vdeg = Counter(v for e in edges for v in e)
        sm = next((v for v, d in vdeg.items() if d == 2), None)
        if sm is not None:
            for _, cyc in faces:
                while sm in cyc:
                    cyc.remove(sm)
            changed = True
    used = sorted({v for _, cyc in faces for v in cyc})
    vmap = {v: i for i, v in enumerate(used)}
    out_faces = [tuple(vmap[v] for v in cyc) for _, cyc in faces]
    fmap = {lab: i for i, (lab, _) in enumerate(faces)}
    if len(used) < 4 or any(len(c) < 3 for c in out_faces):
        raise CollapseMakesDegenerate(f"result degenerates to {len(used)} vertices")
    try:
        g = PlanarGraph(n_vertices=len(used), faces=tuple(out_faces))
    except BadFormat as exc:
        raise CollapseMakesDegenerate(str(exc))
    return g, vmap, fmap


def _identify(n: int, pairs) -> list[int]:
    """Union-find: each of ``range(n)`` named by the smallest member of its class,
    once the ``pairs`` are identified."""
    rep = list(range(n))

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        rep[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n)]


def _contract(g: PlanarGraph, pairs, drop) -> CollapseResult:
    """Identify the vertex ``pairs`` of g, drop face ``drop``, then :func:`_cleanup`."""
    name = _identify(g.n_vertices, pairs)
    out, vmap, fmap = _cleanup([(i, [name[w] for w in c]) for i, c in enumerate(g.faces)
                                if i != drop])
    return CollapseResult(out, {w: vmap.get(r) for w, r in enumerate(name)},
                          {i: fmap.get(i) for i in range(len(g.faces))})


def edge_collapse(g: PlanarGraph, e: Edge) -> CollapseResult:
    """Collapse edge e to a vertex; the two incident faces each lose an edge.

    Parallel edges created by the identification are merged; degree-2
    vertices are smoothed away when possible.  Raises
    CollapseMakesDegenerate when no polyhedral map at all remains; loss
    of 3-connectivity is left to ``graph.is_polyhedral()``, not repaired.
    """
    if _norm_edge(*e) not in g.edge_index:
        raise KeyError(f"no edge {e}")
    return _contract(g, [e], None)


def _split_pairs(cyc, split: int):
    """Distinct vertex pairs that :func:`face_collapse` identifies for ``split``."""
    m = len(cyc)
    for s in range(1, m):
        pa = (split + s) % (2 * m)
        pb = (split - s) % (2 * m)
        if pa % 2 == 0:
            a, b = cyc[pa // 2], cyc[pb // 2]
            if a != b:
                yield a, b


def _flat_split(g: PlanarGraph, face: int, close):
    """The first :func:`face_collapse` split of ``face`` whose identified pairs are all
    ``close(a, b)``, or None."""
    cyc = g.faces[face]
    return next((split for split in range(2 * len(cyc))
                 if all(close(a, b) for a, b in _split_pairs(cyc, split))), None)


def face_collapse(g: PlanarGraph, face: int, split: int) -> CollapseResult:
    """Collapse face ``face`` to an edge.

    ``split`` is a half-position on the face cycle of m vertices, in
    ``range(2 * m)``: cycle vertex k sits at 2k and the cycle edge from
    position k to k+1 at 2k+1.  It and the opposite half-position
    ``(split + m) % (2 * m)`` are the two anchors; vertices at equal
    steps from them on the two arcs are identified pairwise, flattening
    the face onto an edge between the anchors.
    """
    cyc = g.faces[face]
    if not 0 <= split < 2 * len(cyc):
        raise ValueError(f"split {split} outside range({2 * len(cyc)}) for face {face}")
    return _contract(g, _split_pairs(cyc, split), face)


# --- angle admissibility ----------------------------------------------------


class CurveKind(str, enum.Enum):
    """Shape of a transverse curve in the Bao-Bonahon conditions."""

    CLOSED_CURVE = "ClosedCurve"
    ARC = "Arc"

    def __str__(self):
        return self.value


class AdmissibilityStatus(str, enum.Enum):
    """Verdict of :func:`check_hyperideal_angles`; the value is its CLI word."""

    ADMISSIBLE = "Admissible"
    VIOLATED_CLOSED_CURVE = "ViolatedClosedCurve"
    VIOLATED_ARC = "ViolatedArc"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Witness:
    """An offending (or boundary) transverse curve, as its crossed edges."""

    kind: CurveKind
    crossed_edges: tuple[Edge, ...]
    angle_sum: float
    bound: float
    shares_vertex: bool


@dataclass(frozen=True)
class AdmissibilityReport:
    status: AdmissibilityStatus
    witness: Witness | None = None
    equality_cases: tuple[Witness, ...] = ()

    @property
    def admissible(self) -> bool:
        return self.status == AdmissibilityStatus.ADMISSIBLE


def _edges_share_vertex(edges) -> bool:
    common = set(edges[0])
    for e in edges[1:]:
        common &= set(e)
        if not common:
            return False
    return True


def check_hyperideal_angles(g: PlanarGraph, angles: dict) -> AdmissibilityReport:
    """Check the linear conditions characterizing hyperideal dihedral angles.

    These are the Bao-Bonahon inequalities over transverse curves: for a
    simple closed curve crossing edges e_1..e_h once each the angle sum is
    at most (h-2)pi, with equality allowed only when the crossed edges
    share a vertex; for an arc joining two faces that share a vertex the
    sum must be strictly below (h-1)pi unless the crossed edges share a
    vertex.

    One depth-first search over ``g.face_crossings`` enumerates every
    curve, carrying the crossed edges and their running sum; a curve
    costs more than O(1) only if it comes within EQUALITY_TOL of its bound.
    Closed curves come first, each from its lowest face in the direction
    whose second face is the smaller of its two neighbours there, in
    depth-first order; then arcs by sorted face pair, depth-first.  The
    witness is the first violating curve, its edges in crossing order.

    Equality cases sitting on a bound (within EQUALITY_TOL) are reported in
    ``equality_cases``; those not exempted by a shared vertex make the
    vector inadmissible.
    """
    if not g.is_polyhedral():
        raise NotPolyhedral("admissibility needs a 3-connected polyhedral graph")
    for e in g.edges:
        th = angles.get(e)
        if th is None:
            raise AngleOutOfRange(f"missing angle for edge {e}")
        if not (0.0 < th < math.pi):
            raise AngleOutOfRange(f"angle {th} at edge {e} outside (0, pi)")

    steps = [[(w, e, angles[e]) for w, e in row] for row in g.face_crossings]
    visited = [False] * len(g.faces)
    crossed, equalities = [], []

    def consider(total):
        """The curve ``crossed`` if it violates its bound; records equality cases."""
        bound = (len(crossed) - excess) * math.pi
        if total - bound < -EQUALITY_TOL:
            return None  # strictly inside the bound: nearly every curve
        shares = _edges_share_vertex(crossed)
        if shares and kind == CurveKind.ARC:
            return None  # condition waived when the crossed edges share a vertex
        w = Witness(kind, tuple(crossed), total, bound, shares)
        if total - bound <= EQUALITY_TOL and shares:  # a closed curve: equality allowed
            equalities.append(w)
            return None
        return w

    def search(u, total):
        """Extend ``crossed`` from face u through unvisited faces above ``floor``.

        A step to ``target`` ends a curve, checked when ``first`` is below
        u: a closed curve from s = target through ``first``, or an arc.
        """
        for w, e, th in steps[u]:
            if w == target:
                if first < u:
                    crossed.append(e)
                    bad = consider(total + th)
                    crossed.pop()
                    if bad is not None:
                        return bad
            elif w > floor and not visited[w]:
                visited[w] = True
                crossed.append(e)
                bad = search(w, total + th)
                crossed.pop()
                visited[w] = False
                if bad is not None:
                    return bad
        return None

    # Closed curves through faces above s, from s; each is found in both
    # directions and checked in the one whose second face is the smaller.
    kind, excess = CurveKind.CLOSED_CURVE, 2
    for s in range(len(g.faces)):
        target = floor = s
        for first, e, th in steps[s]:
            if first > s:
                visited[first] = True
                crossed.append(e)
                bad = search(first, th)
                crossed.pop()
                visited[first] = False
                if bad is not None:
                    return AdmissibilityReport(AdmissibilityStatus.VIOLATED_CLOSED_CURVE, bad,
                                               tuple(equalities))

    # Arcs: endpoints in two different faces sharing a vertex.
    kind, excess, floor, first = CurveKind.ARC, 1, -1, -1  # every arc is checked
    share_pairs = {_norm_edge(a, b) for ring in g.vertex_faces for a, b in combinations(ring, 2)}
    for f1, target in sorted(share_pairs):
        visited[f1] = True
        bad = search(f1, 0.0)
        visited[f1] = False
        if bad is not None:
            return AdmissibilityReport(AdmissibilityStatus.VIOLATED_ARC, bad, tuple(equalities))

    return AdmissibilityReport(AdmissibilityStatus.ADMISSIBLE, None, tuple(equalities))


# --- text format ------------------------------------------------------------


def parse_graph(text: str) -> PlanarGraph:
    """Parse the line-oriented graph format."""
    n = None
    faces = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *values = line.split()
        if head not in ("V", "F"):
            raise BadFormat(f"unknown line {head!r}")
        if head == "V" and n is not None:
            raise BadFormat("duplicate V line")
        try:  # a ValueError: not integers, or not one on a V line
            if head == "V":
                (n,) = map(int, values)
            else:
                faces.append(tuple(map(int, values)))
        except ValueError:
            need = "one integer" if head == "V" else "integers"
            raise BadFormat(f"{head} line needs {need}: {line!r}") from None
    if n is None or not faces:
        raise BadFormat("need one V line and at least one F line")
    return PlanarGraph(n_vertices=n, faces=tuple(faces))


def format_graph(g: PlanarGraph) -> str:
    return "".join([f"V {g.n_vertices}\n"] + [f"F {' '.join(map(str, cyc))}\n" for cyc in g.faces])


# --- named corpus graphs ----------------------------------------------------


def tetrahedron_graph() -> PlanarGraph:
    return PlanarGraph(4, ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)))


def cube_graph() -> PlanarGraph:
    return PlanarGraph(8, (
        (0, 1, 2, 3), (7, 6, 5, 4),
        (0, 4, 5, 1), (1, 5, 6, 2), (2, 6, 7, 3), (3, 7, 4, 0),
    ))


def octahedron_graph() -> PlanarGraph:
    return PlanarGraph(6, (
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
    ))


def pyramid_graph(n: int) -> PlanarGraph:
    """n-gonal pyramid: apex 0 over base 1..n."""
    if n < 3:
        raise BadFormat("pyramid needs n >= 3")
    lateral = tuple((0, 1 + i, 1 + (i + 1) % n) for i in range(n))
    base = tuple(range(n, 0, -1))
    return PlanarGraph(n + 1, lateral + (base,))


def prism_graph(n: int) -> PlanarGraph:
    """n-gonal prism: bottom 0..n-1, top n..2n-1."""
    if n < 3:
        raise BadFormat("prism needs n >= 3")
    bottom = tuple(range(n))
    top = tuple(range(2 * n - 1, n - 1, -1))
    sides = tuple((i, n + i, n + (i + 1) % n, (i + 1) % n)[::-1] for i in range(n))
    return PlanarGraph(2 * n, (bottom, top) + sides)
