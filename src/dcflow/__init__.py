"""Discrete conformal structures on closed triangulated surfaces.

The package computes piecewise-flat and piecewise-hyperbolic metrics
from per-vertex factors, deforms them by curvature flows (Ricci and
Calabi families, with a singularity-free extended variant), and solves
for factors realizing a prescribed curvature.
"""

from .calculus import (
    EnergyValue,
    curvature_jacobian,
    face_corner_jacobians,
    segment_face_energies,
    surface_energies,
    triangle_energy,
    triangle_jacobian,
)
from .cli import (
    MeshDocument,
    document_from_objects,
    dump_document,
    format_trace,
    load_document,
    parse_document,
    write_trace,
)
from .errors import (
    BadFaceError,
    BadParameterError,
    DCFlowError,
    DegenerateFaceError,
    DegenerateTriangleError,
    DomainError,
    MaxIterationsError,
    MeshDocumentError,
    NoInteriorSolutionError,
    NonManifoldVertexError,
    NotClosedSurfaceError,
    NumericalDomainError,
    OverflowRangeError,
    QuadratureFailureError,
    TargetInadmissibleError,
)
from .flows import (
    FlowKind,
    FlowSpec,
    FlowTrace,
    StepOutcome,
    StepStatus,
    TargetValidation,
    TerminationReason,
    TraceRow,
    check_target,
    resolve_target,
    run_flow,
    step,
    vector_field,
)
from .geometry import (
    ConformalState,
    DegeneracyClass,
    Geometry,
    MetricReport,
    base_state,
    classify_triangle,
    coshl_bounds,
    curvature,
    edge_length,
    edge_lengths,
    extended_triangle_angles,
    f_to_u,
    gauss_bonnet_residual,
    triangle_angles,
    u_to_f,
    wall_reachability,
)
from .solve import (
    SolveReport,
    solve_prescribed,
)
from .surface import (
    TriangulatedSurface,
    WeightConfig,
    WeightValidation,
    build_surface,
    generate,
    validate_weights,
)

__version__ = "0.1.0"
