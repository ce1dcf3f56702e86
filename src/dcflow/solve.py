"""Direct prescribed-curvature solver.

Damped Newton iteration on the extended potential, whose gradient is
the extended curvature deficit.  The potential is convex, C1 on the
whole coordinate space, and C2 away from the degeneracy walls; in the
interior of a degenerate region the Hessian simply drops the blocks of
the degenerate faces.  When that sparse Hessian cannot be factored, or
its step is not a finite descent direction, the step is plain gradient
descent.  The Euclidean Hessian annihilates the all-ones vector, so its
system is solved with vertex 0 pinned and the step shifted to zero mean,
which keeps the coordinate sum at that of the initial guess.  The
certificate comes from shift-invert Lanczos with a fixed start vector.
The potential is integrated from the base state once; the line search
adds the increments along the short segments between iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import curvature_jacobian, segment_face_energies, surface_energies
from .errors import (
    BadParameterError,
    DomainError,
    MaxIterationsError,
    NoInteriorSolutionError,
    OverflowRangeError,
    QuadratureFailureError,
    TargetInadmissibleError,
)
from .flows import FlowKind, FlowSpec, check_target
from .geometry import ConformalState, Geometry, base_state, curvature
from .surface import TriangulatedSurface, WeightConfig

__all__ = ["SolveReport", "solve_prescribed"]

ARMIJO_CONSTANT = 1e-4
MAX_BACKTRACKS = 40
STEP_CAP = 10.0


@dataclass(frozen=True)
class SolveReport:
    """Solution state with convergence diagnostics.

    ``certificate`` is the smallest eigenvalue of the curvature
    Jacobian at the solution, restricted to the sum-zero subspace for
    Euclidean geometry; positivity certifies local strict convexity
    and hence local rigidity of the solution.  ``potential_history``
    holds the potential at the guess and after each accepted step, the
    latter chained from segment increments; an entry is nan while the
    from-base integral could not be evaluated, which each step retries.
    """

    state: ConformalState
    residual: float
    iterations: int
    certificate: float
    method: str  # "newton" or "gradient-descent"
    potential_history: tuple[float, ...]


def _restricted_smallest_eigenvalue(geometry, matrix):
    from scipy.sparse.linalg import eigsh

    # Euclidean: the two eigenvalues nearest sigma are the all-ones kernel's 0 and the answer
    k = 2 if geometry is Geometry.EUCLIDEAN else 1
    start = np.random.default_rng(0).uniform(-1.0, 1.0, matrix.shape[0])
    return float(np.max(eigsh(matrix, k, sigma=-1.0, v0=start, return_eigenvectors=False)))


def _newton_direction(geometry, matrix, gradient):
    """Sparse Newton step, or None when it is no finite descent direction."""
    from scipy.sparse.linalg import splu

    pinned = int(geometry is Geometry.EUCLIDEAN)  # vertex 0 stands in for the kernel
    try:  # symmetric: order for A + A^T, which keeps the fill low
        factor = splu(matrix[pinned:, pinned:].tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:  # exactly singular
        return None
    step = factor.solve(-gradient[pinned:])
    if pinned:
        step = np.concatenate(([0.0], step))
        step -= step.mean()
    if not np.all(np.isfinite(step)) or gradient @ step >= 0.0:
        return None
    return step


def solve_prescribed(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    geometry: Geometry,
    target,
    initial_guess: ConformalState | None = None,
    tolerance: float = 1e-10,
    max_iterations: int = 100,
) -> SolveReport:
    """Find conformal factors whose curvature equals the target.

    Raises TargetInadmissibleError when the target violates the
    admissibility constraints, NoInteriorSolutionError when the
    iteration converges to a generalized solution with degenerate
    faces, and MaxIterationsError when the budget runs out.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (surface.vertex_count,) or not np.all(np.isfinite(target)):
        raise BadParameterError("target must be a finite per-vertex vector")
    probe = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, geometry, target=target)
    validation = check_target(probe, surface)
    if not validation.ok:
        raise TargetInadmissibleError("; ".join(validation.violations))

    if initial_guess is None:
        state = base_state(geometry, weights.epsilon)
    else:
        if initial_guess.geometry is not geometry:
            raise BadParameterError("initial guess geometry mismatch")
        state = initial_guess
    base = base_state(geometry, state.epsilon)
    sum_reference = float(state.u.sum())
    cone_mask = state.epsilon == 1

    def potential_from_base(candidate):
        try:
            value = surface_energies(surface, weights, candidate, target=target, base=base)
        except QuadratureFailureError:
            return np.nan
        return value.potential

    def increment(u_from, u_to):
        step = u_to - u_from
        per_face = segment_face_energies(surface, weights, geometry, u_from, u_to)
        return 2.0 * np.pi * float(step.sum()) - float(per_face.sum()) - float(target @ step)

    def admissible_coordinates(u):
        if geometry is Geometry.HYPERBOLIC and np.any(u[cone_mask] >= 0.0):
            return False
        return True

    method = "newton"
    current = potential_from_base(state)
    history = [current]

    for iteration in range(max_iterations + 1):
        report = curvature(surface, weights, state, extended=True)
        gradient = report.curvature - target
        residual = float(np.max(np.abs(gradient)))
        if residual < tolerance:
            if report.degenerate_faces:
                raise NoInteriorSolutionError(
                    "converged to a generalized solution with degenerate faces "
                    f"{tuple(f for f, _ in report.degenerate_faces)}"
                )
            certificate = _restricted_smallest_eigenvalue(
                geometry, curvature_jacobian(surface, weights, state)
            )
            return SolveReport(
                state=state,
                residual=residual,
                iterations=iteration,
                certificate=certificate,
                method=method,
                potential_history=tuple(history),
            )
        if iteration == max_iterations:
            break

        hessian = curvature_jacobian(surface, weights, state, extended=True)
        direction = _newton_direction(geometry, hessian, gradient)
        method = "newton" if direction is not None else "gradient-descent"
        if direction is None:
            direction = -gradient
        slope = float(gradient @ direction)

        alpha = min(1.0, STEP_CAP / max(float(np.max(np.abs(direction))), 1e-12))
        accepted = None
        for _ in range(MAX_BACKTRACKS + 1):
            candidate_u = state.u + alpha * direction
            if geometry is Geometry.EUCLIDEAN:
                candidate_u -= (candidate_u.sum() - sum_reference) / len(candidate_u)
            if admissible_coordinates(candidate_u):
                try:
                    candidate = state.with_u(candidate_u)
                    change = increment(state.u, candidate_u)
                except (DomainError, OverflowRangeError, QuadratureFailureError):
                    change = None
                if change is not None and change <= ARMIJO_CONSTANT * alpha * slope:
                    accepted = (candidate, change)
                    break
            alpha *= 0.5
        if accepted is None:
            raise MaxIterationsError(
                f"line search stalled at iteration {iteration} "
                f"(residual {residual:.3e})"
            )
        state, change = accepted
        # an unknown running value retries the from-base integral
        current = current + change if np.isfinite(current) else potential_from_base(state)
        history.append(current)

    raise MaxIterationsError(
        f"no convergence after {max_iterations} iterations "
        f"(residual {residual:.3e})"
    )
