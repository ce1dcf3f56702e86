"""Exception types shared across the package.

Structural problems with the input complex get their own classes so callers
can distinguish "this is not a closed surface" from numerical trouble that
shows up later, once lengths and angles are being computed.
"""


class DCFlowError(Exception):
    """Base class for all package errors."""


class BadFaceError(DCFlowError):
    """A face is malformed: repeated vertex, out-of-range index, duplicate face."""


class NotClosedSurfaceError(DCFlowError):
    """Some edge does not bound exactly two faces."""


class NonManifoldVertexError(DCFlowError):
    """The faces around a vertex do not form a single cycle."""


class BadParameterError(DCFlowError):
    """A parameter is outside its documented range (weights, generator sizes, ...)."""


class DomainError(DCFlowError):
    """A coordinate lies outside the domain of the requested conversion."""


class NumericalDomainError(DCFlowError):
    """The weight conditions are violated: a non-positive l^2 or cosh(l) <= 1."""


class OverflowRangeError(DCFlowError):
    """A conformal exponent is too large to exponentiate in double precision."""


class DegenerateTriangleError(DCFlowError):
    """A triangle violates the strict triangle inequality and extension was not requested."""


class DegenerateFaceError(DegenerateTriangleError):
    """Some face of a surface is degenerate and extension was not requested."""

    def __init__(self, face_index: int, message: str = ""):
        self.face_index = face_index
        super().__init__(message or f"face {face_index} is degenerate")


class QuadratureFailureError(DCFlowError):
    """The energy quadrature did not reach the requested tolerance within budget."""


class TargetInadmissibleError(DCFlowError):
    """A prescribed curvature target violates the constraints of the chosen flow."""


class NoInteriorSolutionError(DCFlowError):
    """The optimizer converged onto the degenerate boundary instead of an interior point."""


class MaxIterationsError(DCFlowError):
    """The optimizer used up its iteration budget without meeting the tolerance."""


class MeshDocumentError(DCFlowError):
    """A mesh document failed to parse or carries inconsistent fields."""
