import math

import numpy as np
import pytest

from polyvol.core import OrientedPlane, lift, mdot
from polyvol.graphs import (
    PlanarGraph,
    cube_graph,
    octahedron_graph,
    prism_graph,
    pyramid_graph,
    tetrahedron_graph,
)
from polyvol.shapes import regular_tetrahedron

#: Vertices of a square pyramid (``pyramid_graph(4)``) with a hyperideal apex
#: and base vertices 3 and 4 on the apex's polar plane x = 1/2.
ALMOST_PROPER_PYRAMID = np.array([[2.0, 0.0, 0.0], [-0.3, 0.4, -0.3], [-0.3, -0.4, -0.3],
                                  [0.5, -0.4, -0.3], [0.5, 0.4, -0.3]])

ICOSAHEDRON = PlanarGraph(12, (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 6, 2), (2, 7, 3), (3, 8, 4), (4, 9, 5), (5, 10, 1),
    (6, 7, 2), (7, 8, 3), (8, 9, 4), (9, 10, 5), (10, 6, 1),
    (11, 7, 6), (11, 8, 7), (11, 9, 8), (11, 10, 9), (11, 6, 10),
))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(autouse=True)
def completed_flows_lose_no_volume():
    """Every flow that completes in a test: no sample's volume is below the one
    before it by more than their two error estimates and ``EVENT_SLACK``."""
    import polyvol.flow as flow

    follow = flow._follow

    def checked(P0, trace, rng):
        follow(P0, trace, rng)
        assert trace.volumes_nondecreasing(), [s.volume.value for s in trace.samples]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_follow", checked)
        yield


@pytest.fixture
def corpus_graphs():
    return {
        "K4": tetrahedron_graph(),
        "cube": cube_graph(),
        "octahedron": octahedron_graph(),
        "pyr3": pyramid_graph(3),
        "pyr4": pyramid_graph(4),
        "pyr5": pyramid_graph(5),
        "pyr6": pyramid_graph(6),
        "pyr7": pyramid_graph(7),
        "pyr8": pyramid_graph(8),
        "prism3": prism_graph(3),
    }


@pytest.fixture
def compact_tetra():
    return regular_tetrahedron(0.55)


@pytest.fixture
def hyperideal_tetra():
    # Radius must stay below sqrt(3) so edges still cross the ball.
    return regular_tetrahedron(1.3)


def chart_plane(direction, offset: float) -> OrientedPlane:
    """Plane ``{direction . x = offset}`` with half-space ``direction . x <= offset``."""
    direction = np.asarray(direction, dtype=float)
    return OrientedPlane(normal=np.concatenate([[float(offset)], direction]))


def chart_equation(plane):
    """(direction, offset) of the plane ``{direction . x = offset}``, from its unit normal."""
    return plane.normal[1:].copy(), float(plane.normal[0])


def side_of(plane, point) -> float:
    """``<normal, lift(point)>`` of a plane or a normal: <= 0 in the selected half-space."""
    return float(mdot(plane, lift(point)))


def closest_chart_point(plane):
    """Euclidean foot of the origin on the plane, in chart coordinates."""
    d, c = chart_equation(plane)
    return d * (c / float(d @ d))


def plane_basis(plane):
    """Two Euclidean-orthonormal chart directions spanning the plane."""
    d, _ = chart_equation(plane)
    d = d / np.linalg.norm(d)
    a = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(d, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    return e1, e2


def polar_plane(p) -> OrientedPlane:
    """Polar plane ``{p . x = 1}`` of a hyperideal chart point, with the half-space
    ``{p . x <= 1}`` that holds the origin; lines through p meeting H^3 cross it orthogonally."""
    return OrientedPlane(normal=lift(p))


def dihedral_angle(a, b) -> float:
    """Interior dihedral angle of two planes meeting in H^3, from cos(theta) = -<n_a, n_b>."""
    gram = float(a.normal[1:] @ b.normal[1:]) - a.normal[0] * b.normal[0]
    return math.acos(min(1.0, max(-1.0, -gram)))


def apply_point(T, point):
    """The chart image of a point under the projective matrix of an affine deformation."""
    out = T.matrix @ lift(point)
    return out[1:] / out[0]


def adjacency(g) -> tuple[frozenset, ...]:
    """The neighbours of each vertex of a graph, from its edge list."""
    adj = [set() for _ in range(g.n_vertices)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(map(frozenset, adj))


def to_networkx(g):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n_vertices))
    G.add_edges_from(g.edges)
    return G


def stacked_triangulation(n_vertices, rng):
    """Random stacked triangulation: from the tetrahedron, split a random
    face into three around each new vertex (the bench corpus's loop)."""
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    for v in range(4, n_vertices):
        a, b, c = faces.pop(int(rng.integers(len(faces))))
        faces += [(a, b, v), (b, c, v), (c, a, v)]
    return PlanarGraph(n_vertices, tuple(faces))
