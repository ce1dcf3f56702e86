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
eigenvalue theta of H^-1 on the sum-zero subspace, by fixed-start three-term
Lanczos (two vectors, no basis) on H factored with vertex 0 pinned (Euclidean),
stopped once the top Ritz pair's residual is at most CERTIFICATE_TOL * theta.

The line search needs curvature only.  Along a trial step s the
potential's derivative phi'(tau) = (K(u + tau s) - target) . s is
nondecreasing, so the right Riemann sum of phi' over [0, 1] bounds the
increment phi(1) - phi(0) from above, across degeneracy walls too, and no
finer grid raises it; the Armijo test runs on that bound with 1, 2, 4 and
then 8 nodes.  The potential is evaluated only when
``potential_history`` is read.  The target and the kernel's weights are
resolved once a solve, by ``flows._resolve`` as ``run_flow`` resolves them,
and each trial point is one kernel pass (``geometry._metric``) on that run.
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
from .flows import FlowKind, FlowSpec, _resolve
from .geometry import ConformalState, Geometry, _metric, base_state
from .surface import TriangulatedSurface, WeightConfig

__all__ = ["SolveReport", "solve_prescribed"]

ARMIJO_CONSTANT = 1e-4
MAX_BACKTRACKS = 40
MAX_RIEMANN_NODES = 8
STEP_CAP = 10.0
FORCING = 1e-2  # CG's relative residual, times min(1, ||g||)
CG_FLOOR = 1e-3  # CG's absolute residual floor, times the solver tolerance
CG_ITERATIONS = 1000
# Lanczos stops at |theta - lambda| <= ||r|| = beta_k |s_k| <= tol * theta
CERTIFICATE_TOL = 1e-12
CERTIFICATE_STEPS = 300  # Lanczos steps, each one pinned solve and O(V) memory


@dataclass(frozen=True)
class SolveReport:
    """Solution state with convergence diagnostics.

    ``certificate`` is the smallest eigenvalue of the curvature
    Jacobian at the solution, restricted to the sum-zero subspace for
    Euclidean geometry; positivity certifies local strict convexity
    and hence local rigidity of the solution.  Three-term Lanczos, in O(V)
    memory, stops within ``CERTIFICATE_TOL`` relative; the roundoff of the pinned
    solves, about machine epsilon times the condition number of the Jacobian, can
    be larger (1.5e-12 relative on a flat 100x100 torus).  ``potential_history``
    holds the potential at the guess and after each accepted step, from
    the base state: in closed form where calculus has one, else chained
    from segment increments.  It is evaluated on first access, which
    raises QuadratureFailureError if the quadrature fails.
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
    pinned = int(geometry is Geometry.EUCLIDEAN)
    try:
        factor = _factor(matrix, pinned)
    except RuntimeError:  # exactly singular: a kernel beyond the all-ones vector
        return 0.0
    from scipy.linalg.lapack import dstev  # scipy.sparse.linalg has loaded it for _factor

    start = np.random.default_rng(0).uniform(-1.0, 1.0, matrix.shape[0])
    start -= pinned * start.mean()
    v, previous, beta = start / np.linalg.norm(start), np.zeros_like(start), 0.0
    alphas, betas = [], []
    while len(alphas) < CERTIFICATE_STEPS:
        w = np.zeros_like(start)  # Euclidean: zero row sums make this H^+ on sum zero
        w[pinned:] = factor.solve(v[pinned:])
        w -= pinned * w.mean()
        w -= beta * previous
        alphas.append(float(v @ w))
        w -= alphas[-1] * v
        w -= pinned * w.mean()  # again: near a breakdown w is rounding, which must stay sum-zero
        beta = float(np.linalg.norm(w))
        ritz, vectors, info = dstev(alphas, betas or [0.0])  # the tridiagonal's, ascending
        if info:
            raise MaxIterationsError(f"the Ritz values of {len(alphas)} steps did not converge")
        converged = beta * abs(vectors[-1, -1]) <= CERTIFICATE_TOL * abs(ritz[-1])
        # a breakdown (beta = 0) or as many steps as the subspace has dimensions ends it
        if converged or len(alphas) == len(start) - pinned:
            return float(1.0 / ritz[-1])
        betas.append(beta)
        previous, v = v, w / beta
    raise MaxIterationsError(f"the convexity certificate did not converge in {len(alphas)} steps")


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

    Raises BadParameterError unless ``tolerance`` > 0, ``max_iterations`` >= 0
    and the target is a finite per-vertex vector, TargetInadmissibleError when
    the target violates the admissibility constraints, NoInteriorSolutionError
    when the iteration converges to a generalized solution with degenerate
    faces, and MaxIterationsError when a budget runs out.
    """
    if max_iterations < 0:
        raise BadParameterError("max_iterations must be non-negative")
    if target is None:  # the spec would read it as the kind's default target
        raise BadParameterError("target must be a finite per-vertex vector")
    # the spec rejects a tolerance that is not positive (NaN too) and a target that is not a
    # finite vector; _resolve rejects one of the wrong length
    probe = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, geometry, target=target, tolerance=tolerance)
    if initial_guess is None:
        state = base_state(geometry, weights.epsilon)
    elif initial_guess.geometry is not geometry:
        raise BadParameterError("initial guess geometry mismatch")
    else:
        state = initial_guess
    target, kernel = _resolve(probe, surface, weights, state)
    sum_reference = float(state.u.sum())

    def report_at(st):
        return _metric(surface, kernel, geometry, st.f, True)

    def certified(current, candidate, bound):
        # Report at the candidate when the right Riemann sum of phi' on
        # the segment, with 1, 2, 4 or 8 nodes, is at most ``bound``; else None.
        step = candidate.u - current.u
        candidate_report = report_at(candidate)
        total = float((candidate_report.curvature - target) @ step)  # node tau = 1
        nodes = 1
        while not total / nodes <= bound:  # NaN refines, and fails at the cap
            if nodes == MAX_RIEMANN_NODES:
                return None
            nodes *= 2
            for i in range(1, nodes, 2):  # the nodes not evaluated yet
                point = current.with_u(current.u + (i / nodes) * step)
                total += float((report_at(point).curvature - target) @ step)
        return candidate_report

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
            jacobian = curvature_jacobian(surface, weights, state, _pass=report)
            certificate = _restricted_smallest_eigenvalue(geometry, jacobian)
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

        hessian = curvature_jacobian(surface, weights, state, extended=True, _pass=report)
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
                f"line search stalled at iteration {iteration} (residual {residual:.3e})"
            )
        state, report = candidate, accepted
        iterates.append(state.u)

    raise MaxIterationsError(
        f"no convergence after {max_iterations} iterations (residual {residual:.3e})"
    )
