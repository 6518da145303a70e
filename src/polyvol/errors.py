"""Exception taxonomy shared across the package.

Every domain error carries a short machine-readable ``code`` (also used by
the CLI's ``ERR <code> <detail>`` lines).
"""


class PolyvolError(Exception):
    """Base class for all domain errors."""

    code = "Error"
    trace = None  # the FlowTrace up to the failure, on an error leaving run_flow

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(detail)

    def __str__(self):
        if self.detail:
            return f"{self.code}: {self.detail}"
        return self.code


# --- mink-core -----------------------------------------------------------

class PlanesDisjointInBall(PolyvolError):
    code = "PlanesDisjointInBall"


class PlanesEqual(PolyvolError):
    code = "PlanesEqual"


class OutsideModel(PolyvolError):
    code = "OutsideModel"


class DegenerateDeformation(PolyvolError):
    code = "DegenerateDeformation"


# --- graphs ---------------------------------------------------------------

class NotPolyhedral(PolyvolError):
    code = "NotPolyhedral"


class CollapseMakesDegenerate(PolyvolError):
    code = "CollapseMakesDegenerate"


class AngleOutOfRange(PolyvolError):
    code = "AngleOutOfRange"


class BadFormat(PolyvolError):
    code = "BadFormat"


# --- polyhedron -----------------------------------------------------------

class SkeletonMismatch(PolyvolError):
    code = "SkeletonMismatch"


class NonConvex(PolyvolError):
    code = "NonConvex"


class EdgeMissesBall(PolyvolError):
    code = "EdgeMissesBall"


class TooFewAngles(PolyvolError):
    code = "TooFewAngles"


class ImproperInput(PolyvolError):
    code = "ImproperInput"


class TruncationDegenerate(ImproperInput):
    """A face of P or a truncation face collapses under truncation.

    The truncation's nodes still bound a region, which
    :func:`polyvol.volume.polyhedron_volume` measures: ``points`` holds
    the chart point of each node and ``cycles`` the node cycle of each
    face with at least 3 distinct nodes.  ``cycles`` is None when a face
    cycle repeats a node non-consecutively, which a face without a chord
    cannot do.
    """

    def __init__(self, detail: str = "", points=None, cycles=None):
        super().__init__(detail)
        self.points, self.cycles = points, cycles


# --- volume ---------------------------------------------------------------

class NotIdeal(PolyvolError):
    code = "NotIdeal"


class PathDiscontinuous(PolyvolError):
    code = "PathDiscontinuous"


# --- rectify --------------------------------------------------------------

class SolverDiverged(PolyvolError):
    code = "SolverDiverged"


# --- flow -----------------------------------------------------------------

class NewtonDiverged(PolyvolError):
    code = "NewtonDiverged"


class SkeletonChanged(PolyvolError):
    code = "SkeletonChanged"


class NoIdealVertices(PolyvolError):
    code = "NoIdealVertices"


class PropernessLost(PolyvolError):
    code = "PropernessLost"


class NoSeparatingPlane(PolyvolError):
    code = "NoSeparatingPlane"


class MaxEventsExceeded(PolyvolError):
    code = "MaxEventsExceeded"


class StallDetected(PolyvolError):
    code = "StallDetected"
