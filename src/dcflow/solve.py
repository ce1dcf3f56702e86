"""Direct prescribed-curvature solver.

Damped inexact Newton iteration on the extended potential, whose gradient is
the extended curvature deficit.  The potential is convex, C1 on the whole
coordinate space, and C2 away from the degeneracy walls; in the interior of
a degenerate region the Hessian drops the degenerate faces.  The step is CG
on H s = -g from 0 with Eisenstat-Walker forcing FORCING * min(1, ||g||),
which keeps the local convergence quadratic; on breakdown, or a step that
is no finite descent direction, it is plain gradient descent.  The
Euclidean H annihilates the all-ones vector, so CG runs on the sum-zero
subspace and the coordinate sum stays that of the initial guess.  The one
factorization of a solve is the certificate's: 1/theta for the top
eigenvalue theta of H^-1 on the sum-zero subspace, by fixed-start Lanczos
on H factored with vertex 0 pinned (Euclidean).

The line search needs curvature only.  Along a trial step s the
potential's derivative phi'(tau) = (K(u + tau s) - target) . s is
nondecreasing, so the right Riemann sum of phi' over [0, 1] bounds the
increment phi(1) - phi(0) from above, across degeneracy walls too; the
Armijo test runs on that bound with 2, 4 and then 8 nodes.  The
potential itself is integrated only when ``potential_history`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .calculus import _potential_chain, curvature_jacobian
from .errors import (
    BadParameterError,
    DomainError,
    MaxIterationsError,
    NoInteriorSolutionError,
    OverflowRangeError,
)
from .flows import FlowKind, FlowSpec, _admissible_target
from .geometry import ConformalState, Geometry, base_state, curvature
from .surface import TriangulatedSurface, WeightConfig

__all__ = ["SolveReport", "solve_prescribed"]

ARMIJO_CONSTANT = 1e-4
MAX_BACKTRACKS = 40
MAX_RIEMANN_NODES = 8
STEP_CAP = 10.0
FORCING = 1e-2  # CG's relative residual, times min(1, ||g||)
CG_FLOOR = 1e-3  # CG's absolute residual floor, times the solver tolerance
CG_ITERATIONS = 1000
# |theta - lambda| <= ||r|| <= tol * theta; ARPACK's default, eps, makes roundoff restart it
CERTIFICATE_TOL = 1e-12


@dataclass(frozen=True)
class SolveReport:
    """Solution state with convergence diagnostics.

    ``certificate`` is the smallest eigenvalue of the curvature
    Jacobian at the solution, restricted to the sum-zero subspace for
    Euclidean geometry; positivity certifies local strict convexity
    and hence local rigidity of the solution.  Its accuracy is the roundoff
    of the pinned solves, about machine epsilon times the condition number
    of the Jacobian (0.9e-12 to 1.9e-12 relative on a flat 100x100 torus),
    not ``CERTIFICATE_TOL``.  ``potential_history``
    holds the potential at the guess and after each accepted step: the
    first from the base state, the rest chained from segment
    increments.  It is integrated on first access, which raises
    QuadratureFailureError if the quadrature fails.
    """

    state: ConformalState
    residual: float
    iterations: int
    certificate: float
    method: str  # "newton" or "gradient-descent"
    # (surface, weights, target, accepted iterates' u) for potential_history
    _iterates: tuple = field(compare=False, repr=False)

    @cached_property
    def potential_history(self) -> tuple[float, ...]:
        surface, weights, target, iterates = self._iterates
        base = base_state(self.state.geometry, self.state.epsilon)
        return _potential_chain(surface, weights, base.geometry, target, base.u, iterates)


def _factor(matrix, pinned):
    """SuperLU factor of ``matrix`` without its first ``pinned`` rows and columns."""
    from scipy.sparse.linalg import splu

    # symmetric: order for A + A^T, which keeps the fill low
    return splu(matrix[pinned:, pinned:].tocsc(), permc_spec="MMD_AT_PLUS_A")


def _restricted_smallest_eigenvalue(geometry, matrix):
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    pinned = int(geometry is Geometry.EUCLIDEAN)
    try:
        factor = _factor(matrix, pinned)
    except RuntimeError:  # exactly singular: a kernel beyond the all-ones vector
        return 0.0

    def inverse(b):  # Euclidean: zero row sums make this H^+ on the sum-zero subspace
        b = b.ravel() - pinned * b.mean()
        x = np.zeros_like(b)
        x[pinned:] = factor.solve(b[pinned:])
        return x - pinned * x.mean()

    start = np.random.default_rng(0).uniform(-1.0, 1.0, matrix.shape[0])
    start -= pinned * start.mean()
    operator = LinearOperator(matrix.shape, matvec=inverse, dtype=np.float64)
    try:
        theta = eigsh(operator, 1, which="LA", v0=start, tol=CERTIFICATE_TOL)[0][0]
    except ArpackNoConvergence as exc:
        raise MaxIterationsError(f"the convexity certificate did not converge: {exc}")
    return float(1.0 / theta)


def _newton_direction(geometry, matrix, gradient, floor=0.0):
    """CG on H s = -g from 0 to ||H s + g|| <= max(FORCING min(1, ||g||) ||g||, floor).

    Any iterate is a descent direction on a positive semi-definite H, so the
    CG_ITERATIONS cap needs no fallback; p.Hp <= 0 or a step that is no finite
    descent direction gives None.
    """
    euclidean = geometry is Geometry.EUCLIDEAN  # then the kernel of H is the all-ones vector
    residual = (gradient.mean() if euclidean else 0.0) - gradient
    step, direction, rr = np.zeros_like(residual), residual.copy(), float(residual @ residual)
    stop = max((FORCING * min(1.0, np.sqrt(rr))) ** 2 * rr, floor * floor)
    for _ in range(CG_ITERATIONS):
        if not rr > stop:  # NaN stops too and fails the checks below
            break
        image = matrix @ direction
        curvature = float(direction @ image)
        if not curvature > 0.0:
            return None
        alpha = rr / curvature
        step += alpha * direction
        residual -= alpha * image
        rr, previous = float(residual @ residual), rr
        direction *= rr / previous
        direction += residual
    step -= step.mean() if euclidean else 0.0
    return step if np.all(np.isfinite(step)) and gradient @ step < 0.0 else None


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

    Raises BadParameterError unless ``tolerance`` > 0 and
    ``max_iterations`` >= 0, TargetInadmissibleError when the target
    violates the admissibility constraints, NoInteriorSolutionError
    when the iteration converges to a generalized solution with
    degenerate faces, and MaxIterationsError when a budget runs out.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (surface.vertex_count,) or not np.all(np.isfinite(target)):
        raise BadParameterError("target must be a finite per-vertex vector")
    if max_iterations < 0:
        raise BadParameterError("max_iterations must be non-negative")
    # the spec rejects a tolerance that is not positive, NaN included
    kind = FlowKind.EXTENDED_MODIFIED_RICCI
    probe = FlowSpec(kind, geometry, target=target, tolerance=tolerance)
    target = _admissible_target(probe, surface)

    if initial_guess is None:
        state = base_state(geometry, weights.epsilon)
    else:
        if initial_guess.geometry is not geometry:
            raise BadParameterError("initial guess geometry mismatch")
        state = initial_guess
    sum_reference = float(state.u.sum())

    def report_at(st):
        return curvature(surface, weights, st, extended=True)

    def certified(current, candidate, bound):
        # Report at the candidate when the right Riemann sum of phi' on
        # the segment, with 2, 4 or 8 nodes, is at most ``bound``; else None.
        step = candidate.u - current.u
        candidate_report = report_at(candidate)
        total = float((candidate_report.curvature - target) @ step)  # node tau = 1
        nodes = 1
        while nodes < MAX_RIEMANN_NODES:
            nodes *= 2
            for i in range(1, nodes, 2):  # the nodes not evaluated yet
                point = current.with_u(current.u + (i / nodes) * step)
                total += float((report_at(point).curvature - target) @ step)
            if total / nodes <= bound:
                return candidate_report
        return None

    method = "newton"
    iterates = [state.u.copy()]
    report = report_at(state)

    for iteration in range(max_iterations + 1):
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
                _iterates=(surface, weights, target, tuple(iterates)),
            )
        if iteration == max_iterations:
            break

        hessian = curvature_jacobian(surface, weights, state, extended=True)
        direction = _newton_direction(geometry, hessian, gradient, CG_FLOOR * tolerance)
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
            try:  # hyperbolic cone coordinates must stay negative
                candidate = state.with_u(candidate_u)
                accepted = certified(state, candidate, ARMIJO_CONSTANT * alpha * slope)
            except (DomainError, OverflowRangeError):
                accepted = None
            if accepted is not None:
                break
            alpha *= 0.5
        if accepted is None:
            raise MaxIterationsError(
                f"line search stalled at iteration {iteration} "
                f"(residual {residual:.3e})"
            )
        state, report = candidate, accepted
        iterates.append(state.u)

    raise MaxIterationsError(
        f"no convergence after {max_iterations} iterations "
        f"(residual {residual:.3e})"
    )
