"""Klein-model primitives in Minkowski coordinates.

Hyperbolic space H^3 is the open unit ball of the fixed affine chart
R^3 inside RP^3.  A chart point p lifts to the Minkowski vector (1, p);
the signature is (-,+,+,+), so the lift's Minkowski square is |p|^2 - 1:
negative inside H^3, zero on the sphere at infinity, positive outside.

Planes are stored as unit spacelike 4-vectors ``n`` with the selected
closed half-space ``{x : <n, lift(x)> <= 0}``; the normal points away
from the half-space.  With outward normals on two faces of a polyhedron
the interior dihedral angle satisfies ``cos(theta) = -<n1, n2>``.

Isometries of H^3 are Lorentz transformations; both points and plane
normals transform by the same matrix.  Affine deformations of the chart
(homotheties and translations) act projectively and are used to restore
properness along degeneration flows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDeformation,
    OutsideModel,
    PlanesDisjointInBall,
    PlanesEqual,
)

#: Half-width of the band around the unit sphere treated as "ideal".
TAU_IDEAL = 1e-9
#: Slack on |<n1, n2>| <= 1 and on coinciding normals in :func:`interior_cosines`.
PLANE_TOL = 1e-9

MINKOWSKI_SIGNS = np.array([-1.0, 1.0, 1.0, 1.0])


def mdot(a, b):
    """Minkowski inner product, vectorized over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.add.reduce(a * b * MINKOWSKI_SIGNS, axis=-1)


def lift(chart):
    """Minkowski lift (1, x, y, z) of chart points; vectorized."""
    chart = np.asarray(chart, dtype=float)
    shape = chart.shape[:-1] + (4,)
    out = np.empty(shape)
    out[..., 0] = 1.0
    out[..., 1:] = chart
    return out


def _frozen(arr):
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


class PointKind(enum.Enum):
    REAL = "Real"
    IDEAL = "Ideal"
    HYPERIDEAL = "Hyperideal"

    def __str__(self):
        return self.value


_KINDS = (PointKind.REAL, PointKind.IDEAL, PointKind.HYPERIDEAL)
#: The code of each kind in :func:`kind_codes`: its index in ``_KINDS``.
REAL_CODE, IDEAL_CODE, HYPERIDEAL_CODE = range(3)


def row_dots(a, b):
    """Products ``a[..., i, :] @ b[..., i, :]`` over the last axis, broadcast.

    Each rounds as the scalar product ``a[i] @ b[i]`` of its pair (one BLAS
    dot per pair), so vectorized code keeps the bits of per-row loops.
    """
    return (np.asarray(a)[..., None, :] @ np.asarray(b)[..., :, None])[..., 0, 0]


def row_norms(a):
    """Euclidean norms over the last axis, rounded as ``np.linalg.norm(a, axis=-1)`` rounds them."""
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def kind_codes(charts, tol: float = TAU_IDEAL) -> np.ndarray:
    """The kind code (``REAL_CODE``, ...) of every row of ``charts``, in one array expression."""
    r = np.sqrt(row_dots(charts, charts))
    return np.where(r < 1.0 - tol, REAL_CODE, np.where(r > 1.0 + tol, HYPERIDEAL_CODE, IDEAL_CODE))


def kinds_of(codes) -> tuple[PointKind, ...]:
    """The kinds that an array of kind codes names."""
    return tuple(map(_KINDS.__getitem__, codes.tolist()))


def classify_points(charts, tol: float = TAU_IDEAL) -> tuple[PointKind, ...]:
    """Real / Ideal / Hyperideal kind of each chart row p; Ideal if ``| |p| - 1 | <= tol``."""
    return kinds_of(kind_codes(charts, tol))


@dataclass(frozen=True)
class OrientedPlane:
    """A projective plane with a selected closed half-space.

    ``normal`` is the unit spacelike Minkowski normal; the half-space is
    ``{x : <normal, lift(x)> <= 0}``, i.e. the normal points away from it.
    """

    normal: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if n.shape != (4,):
            raise ValueError("normal must be a 4-vector")
        object.__setattr__(self, "normal", _unit_rows(n))

    @classmethod
    def _of_unit(cls, normal) -> "OrientedPlane":
        """The plane of a normal already of unit norm, kept bit for bit (the constructor rescales)."""
        plane = object.__new__(cls)
        object.__setattr__(plane, "normal", normal)
        return plane

    def __array__(self, dtype=None, copy=None):
        """The normal, so ``np.asarray`` stacks a sequence of planes into an (F, 4) array."""
        return np.array(self.normal, dtype=dtype, copy=copy)

    def __repr__(self):
        return f"OrientedPlane({self.normal!r})"


def _unit_rows(normals) -> np.ndarray:
    """The rows of ``normals`` scaled to unit Minkowski norm, as a new read-only array.

    ``normals`` is a float array; its squares are summed as :func:`mdot` sums them.
    """
    sq = np.add.reduce(normals * normals * MINKOWSKI_SIGNS, axis=-1)
    if not np.logical_and.reduce(np.isfinite(sq) & (sq > 0), axis=None):
        raise ValueError("plane normal must be spacelike (plane must meet H^3)")
    unit = normals / np.sqrt(sq)[..., None]
    unit.setflags(write=False)
    return unit


def interior_cosines(n1, n2) -> np.ndarray:
    """cos of the interior dihedral angle between the planes of each pair of rows of unit normals.

    Clamped to [-1, 1]: -1 exactly when the intersection line is tangent to
    the sphere at infinity (within tolerance).  The first pair whose planes
    coincide or whose intersection misses the closed ball raises.
    """
    n1, n2 = np.asarray(n1, dtype=float), np.asarray(n2, dtype=float)
    diff, total = n1 - n2, n1 + n2
    equal = np.sqrt(np.minimum(row_dots(diff, diff), row_dots(total, total))) < PLANE_TOL
    g = mdot(n1, n2)
    disjoint = np.abs(g) > 1.0 + PLANE_TOL
    if equal.any() or disjoint.any():
        i = int(np.argmax(equal | disjoint))
        if equal[i]:
            raise PlanesEqual("planes coincide")
        raise PlanesDisjointInBall(f"|<n1,n2>| = {abs(g[i]):.12g} > 1")
    # Clamp guards the tangency limit where |g| grazes 1.
    return np.clip(-g, -1.0, 1.0)


# --- deformations and isometries -------------------------------------------


@dataclass(frozen=True)
class AffineDeformation:
    """Homothety or translation of the chart, stored as a 4x4 projective matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))

    @classmethod
    def homothety(cls, center, factor: float) -> "AffineDeformation":
        if factor <= 0:
            raise DegenerateDeformation(f"factor {factor} <= 0")
        c = np.asarray(center, dtype=float)
        T = np.eye(4)
        T[1:, 1:] *= factor
        T[1:, 0] = (1.0 - factor) * c
        return cls(matrix=T)

    @classmethod
    def translation(cls, vector) -> "AffineDeformation":
        v = np.asarray(vector, dtype=float)
        T = np.eye(4)
        T[1:, 0] = v
        return cls(matrix=T)

    def apply_planes(self, normals) -> np.ndarray:
        """Unit normals of the images of the planes with unit normals ``normals`` (F, 4).

        ``<n', T x> = <n, x>`` for all x requires ``n' = eta T^{-T} eta n``.  The F
        one-column solves are stacked, as one F-column solve rounds a homothety
        differently from the solve of each plane alone.
        """
        eta = MINKOWSKI_SIGNS
        return _unit_rows(np.linalg.solve(self.matrix.T, (eta * normals)[..., None])[..., 0] * eta)


# --- Lorentz transformations ------------------------------------------------


def boost_to_origin(point) -> np.ndarray:
    """Lorentz boost sending a real chart point to the origin."""
    beta = np.asarray(point, dtype=float)
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise OutsideModel("boost center must be inside the ball")
    gamma = 1.0 / math.sqrt(1.0 - b2)
    B = np.eye(4)
    B[0, 0] = gamma
    B[0, 1:] = -gamma * beta
    B[1:, 0] = -gamma * beta
    if b2 > 0:
        B[1:, 1:] += (gamma - 1.0) * np.outer(beta, beta) / b2
    return B


def rotation_to_z(direction) -> np.ndarray:
    """Lorentz rotation taking a spatial direction to +z."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    z = np.array([0.0, 0.0, 1.0])
    c = float(d @ z)
    if c < -1.0 + 1e-12:
        # Antiparallel: rotate by pi about any axis perpendicular to d.
        a = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        a = a - (a @ d) * d
        a /= np.linalg.norm(a)
        R3 = 2.0 * np.outer(a, a) - np.eye(3)
    elif c > 1.0 - 1e-15:
        R3 = np.eye(3)
    else:
        v = np.cross(d, z)
        vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
        R3 = np.eye(3) + vx + vx @ vx / (1.0 + c)
    T = np.eye(4)
    T[1:, 1:] = R3
    return T


def rotation_about_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    T = np.eye(4)
    T[1, 1] = c
    T[1, 2] = -s
    T[2, 1] = s
    T[2, 2] = c
    return T


def apply_lorentz(L: np.ndarray, plane: OrientedPlane) -> OrientedPlane:
    """The image of a plane under a Lorentz matrix, which moves normals as it moves lifts."""
    return OrientedPlane(normal=L @ plane.normal)


def random_isometry(rng) -> np.ndarray:
    """Random sphere-preserving projective map (for invariance tests)."""
    q = rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(q)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    R = np.eye(4)
    R[1:, 1:] = Q
    center = rng.uniform(-0.5, 0.5, size=3)
    B = boost_to_origin(center)
    return R @ B
