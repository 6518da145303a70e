"""polyvol: generalized hyperbolic polyhedra in the projective (Klein) model.

Construction, classification, truncation, volumes, rectifications of
3-connected planar graphs, and volume-increasing angle flows.
"""

from .core import (
    AffineDeformation,
    OrientedPlane,
    PointKind,
)
from .graphs import (
    AdmissibilityStatus,
    CurveKind,
    PlanarGraph,
    check_hyperideal_angles,
    cube_graph,
    dual_graph,
    edge_collapse,
    face_collapse,
    format_graph,
    is_3_connected,
    medial_graph,
    octahedron_graph,
    parse_graph,
    prism_graph,
    pyramid_graph,
    tetrahedron_graph,
)
from .polyhedron import (
    Polyhedron,
    PropernessReport,
    TruncatedPolyhedron,
    build_polyhedron,
    classify_vertex_by_angles,
    classify_vertices,
    dihedral_angles,
    edge_lengths,
    format_polyhedron,
    parse_polyhedron,
    strip_truncation,
    truncate,
)
from .volume import (
    VolumeMethod,
    VolumeResult,
    ideal_tetrahedron_volume,
    lobachevsky,
    polyhedron_volume,
    schlafli_residual,
)
from .rectify import (
    MidspherePacking,
    rectification,
    rectification_volume,
    solve_midsphere,
)
from .flow import (
    FlowEvent,
    FlowEventKind,
    FlowOptions,
    FlowTrace,
    escape_deformation,
    nudge_ideal_vertices,
    realize_from_angles,
    run_flow,
    trace_to_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
