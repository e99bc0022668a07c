"""Inversive distance circle packings on closed triangulated surfaces.

Curvature and its extension through degenerate triangles, the
combinatorial Ricci flow (classical, extended, prescribed), Newton descent
on the curvature potential, and the subset obstruction theory.
"""

__version__ = "0.1.0"

from .angles import (
    GeneralizedAngles,
    clamped_arccos,
    degenerate_threshold_radius,
    extended_angles,
    triangle_area,
)
from .complexes import (
    SurfaceComplex,
    build_complex,
    genus2_surface,
    icosahedron,
    link_pairs,
    octahedron,
    subcomplex_euler,
    tetrahedron,
    triangulated_torus,
)
from .curvature import (
    CurvatureVector,
    angle_jacobian_u,
    curvature,
    curvature_jacobian,
    extended_curvature,
    gauss_bonnet_defect,
    is_admissible,
)
from .errors import (
    BadFaceError,
    BoundaryError,
    ConfigError,
    CPFlowError,
    DisconnectedLinkError,
    DomainError,
    MaxIterationsError,
    NoDescentError,
    NonManifoldError,
    NotAdmissibleError,
    NotFoundError,
    ParseError,
    QuadratureError,
    RangeError,
    StepError,
)
from .flow import (
    FlowConfig,
    FlowResult,
    FlowSample,
    StabilityReport,
    residual,
    run_flow,
    stability_certificate,
)
from .obstructions import (
    DegenerationTable,
    ObstructionReport,
    SubsetRecord,
    TriangleAngleSpace,
    check_curvature_bounds,
    check_zero_curvature_obstructions,
    degeneration_limit_table,
    enumerate_subsets,
    subset_lower_bound,
    triangle_from_angles,
)
from .packing import (
    Background,
    PackingMetric,
    UCoords,
    all_edge_lengths,
    edge_length,
    from_u,
    inversive_from_length,
    to_u,
)
from .potential import (
    NewtonReport,
    PotentialContext,
    newton_solve,
    potential_gradient,
    potential_value,
    segment_integral,
)
