"""Curvature flows on the conformal factors.

Six vector fields share one driver: the Ricci family moves factors
against a curvature deficit, the Calabi family against the Laplacian of
one.  The extended Ricci variant evaluates curvature through the
constant extension of angles, so its trajectories pass through states
where faces violate the triangle inequality instead of blowing up
there.

Explicit Euler is the default integrator with classical RK4 as an
option.  A failed stage is rejected with the status the step reports
if it gives up: a wall gives DEGENERATED and an overflow ANOMALY, and
strict kinds retry both at half the step; a hyperbolic cone coordinate
reaching zero gives ANOMALY at once.  ``run_flow`` resolves the target
and the kernel's weights once per call, as a ``step`` or ``vector_field``
call of its own does; the kernel and the Jacobian enter their own
``np.errstate``.  Every accepted state gets one metric kernel pass
(``geometry._metric``): ``run_flow`` makes the start's, and ``step`` the
pass of each state it accepts (a strict kind's is its wall test; a pass
that fails rejects the step).  The pass and its deficit target - K serve
the residual check, the trace row and the first stage of the next step
(a Calabi step builds its Jacobian on the pass's lengths).  ``run_flow``
records rows in one place: at the start, every ``trace_stride`` steps
and at the last accepted state.  The flow never reads the potential it
decreases, so ``FlowTrace.energies`` evaluates the row potentials on
first read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .calculus import _potential_chain, curvature_jacobian
from .errors import (
    BadParameterError,
    DegenerateFaceError,
    DomainError,
    NumericalDomainError,
    OverflowRangeError,
    TargetInadmissibleError,
)
from .geometry import ConformalState, Geometry, _metric, _paired_kernel, base_state
from .surface import TriangulatedSurface, WeightConfig

__all__ = [
    "FlowKind",
    "FlowSpec",
    "FlowTrace",
    "StepOutcome",
    "StepStatus",
    "TargetValidation",
    "TerminationReason",
    "TraceRow",
    "check_target",
    "resolve_target",
    "run_flow",
    "step",
    "vector_field",
]

SUM_CHECK_TOL = 1e-8
CALABI_MARGIN_SLACK = 1e-8
DIVERGENCE_RESIDUAL = 1e8
MAX_HALVINGS = 20


class FlowKind(enum.Enum):
    RICCI = "ricci"
    NORMALIZED_RICCI = "normalized-ricci"
    MODIFIED_RICCI = "modified-ricci"
    EXTENDED_MODIFIED_RICCI = "extended-ricci"
    CALABI = "calabi"
    MODIFIED_CALABI = "modified-calabi"

    def __init__(self, value: str):  # plain attributes: a step reads them with no call
        self.is_extended = value == "extended-ricci"
        self.is_calabi = value.endswith("calabi")
        self.is_modified = value not in ("ricci", "calabi")


class TerminationReason(enum.Enum):
    CONVERGED = "converged"
    MAX_TIME = "max-time"
    DEGENERATED = "degenerated"
    DIVERGED = "diverged"


class StepStatus(enum.Enum):
    OK = "ok"
    DEGENERATED = "degenerated"
    ANOMALY = "anomaly"


_INTEGRATORS = ("euler", "rk4")


@dataclass(frozen=True)
class FlowSpec:
    """Flow configuration: the ODE kind plus integration policy.

    ``target`` defaults per kind (see resolve_target).
    """

    kind: FlowKind
    geometry: Geometry
    target: np.ndarray | None = None
    integrator: str = "euler"
    dt: float = 1e-2
    tolerance: float = 1e-10
    max_time: float = 500.0
    trace_stride: int = 10

    def __post_init__(self):
        if not isinstance(self.kind, FlowKind):
            raise BadParameterError(f"unknown flow kind: {self.kind!r}")
        if not isinstance(self.geometry, Geometry):
            raise BadParameterError(f"unknown geometry: {self.geometry!r}")
        if self.integrator not in _INTEGRATORS:
            raise BadParameterError(f"unknown integrator: {self.integrator!r}")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise BadParameterError("dt must be positive and finite")
        if not (self.tolerance > 0.0):
            raise BadParameterError("tolerance must be positive")
        if not (self.max_time > 0.0):
            raise BadParameterError("max_time must be positive")
        if self.trace_stride < 1:
            raise BadParameterError("trace_stride must be at least 1")
        if self.target is not None:
            arr = np.asarray(self.target, dtype=np.float64)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise BadParameterError("target must be a finite vector")
            object.__setattr__(self, "target", arr)


@dataclass(frozen=True)
class TargetValidation:
    violations: tuple[str, ...]
    _target: np.ndarray = field(default=None, compare=False, repr=False)  # read by _resolve

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class TraceRow:
    t: float
    u: np.ndarray
    curvature: np.ndarray
    residual: float
    sum_u: float
    calabi: float
    correction: float  # cumulative magnitude of sum-drift compensation

    def __eq__(self, other):  # value equality: the generated one fails on the arrays
        if not isinstance(other, TraceRow):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass(frozen=True)
class FlowTrace:
    rows: tuple[TraceRow, ...]
    termination: TerminationReason
    _path: tuple = field(default=None, compare=False, repr=False)  # read by energies

    @property
    def final_u(self) -> np.ndarray:
        return self.rows[-1].u

    @cached_property
    def energies(self) -> tuple[float, ...]:
        """Potential at each row, evaluated on first read: in closed form for Euclidean
        tangency packings and vertex scaling, else integrated, many row segments per
        integrand evaluation (which may raise QuadratureFailureError)."""
        surface, weights, geometry, base_u, target = self._path
        us = [row.u for row in self.rows]
        return _potential_chain(surface, weights, geometry, target, base_u, us)


@dataclass
class StepOutcome:
    status: StepStatus
    dt_used: float
    halvings: int = 0
    correction: float = 0.0
    _pass: tuple = field(default=None, compare=False, repr=False)  # read by run_flow


def resolve_target(spec: FlowSpec, surface: TriangulatedSurface) -> np.ndarray:
    """The per-vertex target curvature, applying per-kind defaults."""
    n = surface.vertex_count
    if spec.target is not None:
        if spec.target.shape != (n,):
            raise BadParameterError(
                f"target has shape {spec.target.shape}, expected ({n},)"
            )
        return spec.target.copy()
    average = 2.0 * np.pi * surface.euler_characteristic / n
    if spec.kind is FlowKind.RICCI:
        return np.zeros(n)
    if spec.kind is FlowKind.NORMALIZED_RICCI:
        return np.full(n, average)
    # modified and Calabi kinds aim at constant curvature by default
    if spec.geometry is Geometry.EUCLIDEAN:
        return np.full(n, average)
    return np.zeros(n)


def check_target(spec: FlowSpec, surface: TriangulatedSurface) -> TargetValidation:
    """Admissibility of the (resolved) target for the kind and geometry."""
    target = resolve_target(spec, surface)
    violations = []
    if np.any(target >= 2.0 * np.pi):
        worst = int(np.argmax(target))
        violations.append(
            f"target curvature must stay below 2*pi everywhere; "
            f"vertex {worst} has {target[worst]:.6g}"
        )
    degrees = surface.vertex_degrees  # = corners at v on a closed surface; each angle <= pi
    below = np.flatnonzero(target < (2 - degrees) * np.pi)
    if below.size:
        v, d = int(below[0]), int(degrees[below[0]])
        violations.append(
            f"vertex {v} has {d} corners, so its target curvature must be at least "
            f"2*pi - {d}*pi = {(2 - d) * np.pi:.6g}; got {target[v]:.6g}"
        )
    total = float(target.sum())
    chi_term = 2.0 * np.pi * surface.euler_characteristic
    if spec.geometry is Geometry.EUCLIDEAN:
        if spec.kind.is_modified and abs(total - chi_term) > SUM_CHECK_TOL:
            violations.append(
                f"Euclidean target must sum to 2*pi*chi = {chi_term:.6g}; "
                f"got {total:.6g}"
            )
    else:
        if total <= chi_term + SUM_CHECK_TOL:
            violations.append(
                f"hyperbolic target sum must exceed 2*pi*chi = {chi_term:.6g}; "
                f"got {total:.6g}"
            )
    return TargetValidation(tuple(violations), target)


def _resolve(spec: FlowSpec, surface: TriangulatedSurface, weights: WeightConfig, state) -> tuple:
    # the admissible target (else TargetInadmissibleError) and the kernel's weights, once per
    # run_flow, solve_prescribed, step or vector_field call, for a state of the spec's
    # geometry that fits the surface and the weights
    if state.geometry is not spec.geometry:
        raise BadParameterError("state geometry does not match the flow spec")
    validation = check_target(spec, surface)
    if not validation.ok:
        raise TargetInadmissibleError("; ".join(validation.violations))
    return validation._target, _paired_kernel(surface, weights, state)


def _field(spec, surface, weights, state, run, metric=None):
    # run: _resolve's (target, kernel); metric: a kernel pass at state (see step)
    kind, (target, kernel) = spec.kind, run
    if metric is None:
        metric = _metric(surface, kernel, state.geometry, state.f, kind.is_extended)
    if kind is FlowKind.RICCI:
        return -metric.curvature
    if not kind.is_calabi:
        return target - metric.curvature
    # Calabi kinds: Laplacian of the curvature deficit, on the lengths of the same pass
    lam = curvature_jacobian(surface, weights, state, _pass=metric)
    return -(lam @ (metric.curvature - target))


def vector_field(
    spec: FlowSpec,
    surface: TriangulatedSurface,
    weights: WeightConfig,
    state: ConformalState,
) -> np.ndarray:
    """Per-vertex velocity of the flow at one state."""
    return _field(spec, surface, weights, state, _resolve(spec, surface, weights, state))


def _rk4(spec, surface, weights, state, run, dt, k1):
    """The classical RK4 coordinates from k1 at ``state``; a failed stage raises its own error."""
    u0 = state.u

    def velocity(u):
        return _field(spec, surface, weights, state.with_u(u), run)

    k2 = velocity(u0 + 0.5 * dt * k1)
    k3 = velocity(u0 + 0.5 * dt * k2)
    k4 = velocity(u0 + dt * k3)
    return u0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(
    spec: FlowSpec,
    surface: TriangulatedSurface,
    weights: WeightConfig,
    state: ConformalState,
    dt: float | None = None,
    *,
    sum_reference: float | None = None,
    _run=None,
    _pass=None,
) -> tuple[ConformalState, StepOutcome]:
    """Advance one time step, halving near walls for strict kinds.

    Returns the new state with a StepOutcome; on DEGENERATED or ANOMALY
    the state is returned unchanged.  ``sum_reference`` is the
    coordinate sum the drift compensation restores (defaults to the
    current sum).  ``_run``: the caller's ``_resolve`` (run_flow resolves once per run; a
    call without it resolves its own); ``_pass``: its kernel pass at ``state`` (with the
    kind's ``extended`` flag) and the velocity there or None.  The new state's extended
    pass, a strict kind's wall test, goes out as ``StepOutcome._pass``.
    """
    kind, run = spec.kind, _run or _resolve(spec, surface, weights, state)
    metric, k1 = (None, None) if _pass is None else _pass
    calabi, extended = kind.is_calabi, kind.is_extended
    margin_floor = CALABI_MARGIN_SLACK if calabi else 0.0
    if calabi:
        if metric is None:
            metric = _metric(surface, run[1], spec.geometry, state.f, True)
        if metric.margins.min() <= margin_floor:
            # the curvature Laplacian has no continuous extension, so the
            # Calabi flow stops when a face gets this close to a wall
            return state, StepOutcome(status=StepStatus.DEGENERATED, dt_used=0.0)
    # these kinds conserve the coordinate sum: remove each step's discretization drift
    conserved = spec.geometry is Geometry.EUCLIDEAN and kind is not FlowKind.RICCI
    reference = float(state.u.sum()) if sum_reference is None else sum_reference
    halvings, dt_try, drift = 0, float(spec.dt if dt is None else dt), 0.0
    while True:
        try:  # a failed stage rejects the step with the status it reports if it gives up
            if k1 is None:  # the velocity at state, the same for every halving
                k1 = _field(spec, surface, weights, state, run, metric)
            if spec.integrator == "rk4":
                u_new = _rk4(spec, surface, weights, state, run, dt_try, k1)
            else:
                u_new = state.u + dt_try * k1
            if conserved:
                drift = (float(u_new.sum()) - reference) / surface.vertex_count
                u_new -= drift
            new_state = state.with_u(u_new)
            # extended: a strict kind's wall test, and where that passes its strict K too
            new_pass = _metric(surface, run[1], spec.geometry, new_state.f, True)
            if extended or not new_pass.margins.min() <= margin_floor:
                return new_state, StepOutcome(StepStatus.OK, dt_try, halvings, abs(drift), new_pass)
            status = StepStatus.DEGENERATED
        except DomainError:  # a hyperbolic cone coordinate reached 0: no retry
            return state, StepOutcome(status=StepStatus.ANOMALY, dt_used=0.0, halvings=halvings)
        except DegenerateFaceError:
            status = StepStatus.DEGENERATED
        except (NumericalDomainError, OverflowRangeError):
            status = StepStatus.ANOMALY
        if extended or halvings >= MAX_HALVINGS:
            return state, StepOutcome(status=status, dt_used=0.0, halvings=halvings)
        halvings += 1
        dt_try *= 0.5


def run_flow(
    spec: FlowSpec,
    surface: TriangulatedSurface,
    weights: WeightConfig,
    initial: ConformalState,
) -> FlowTrace:
    """Integrate the flow until convergence, degeneration, or timeout.

    Trace rows are recorded at the start, every ``trace_stride`` steps,
    and at the last accepted state; the run integrates no energy.
    """
    run = _resolve(spec, surface, weights, initial)
    target, kernel = run

    state = initial
    sum_reference = float(state.u.sum())
    base = base_state(spec.geometry, state.epsilon)
    path = (surface, weights, spec.geometry, base.u, target)
    rows = []
    cumulative_correction = 0.0

    def record(t, state, kvec, deficit, residual):
        u, calabi = state.u, 0.5 * float((deficit**2).sum())
        row = (t, u.copy(), kvec, residual, float(u.sum()), calabi, cumulative_correction)
        rows.append(TraceRow(*row))

    # each accepted state's one kernel pass and deficit target - K give the residual,
    # the trace row and, for the kinds that move by the deficit, the next velocity
    kind, extended = spec.kind, spec.kind.is_extended
    by_deficit = not kind.is_calabi and kind is not FlowKind.RICCI
    metric = _metric(surface, kernel, spec.geometry, state.f, extended)
    deficit = target - metric.curvature
    residual = float(np.abs(deficit).max())
    record(0.0, state, metric.curvature, deficit, residual)
    t, steps = 0.0, 0
    termination = TerminationReason.CONVERGED
    while not residual < spec.tolerance:  # a NaN residual never converges
        if t >= spec.max_time - 1e-12:
            termination = TerminationReason.MAX_TIME
            break
        here = (metric, deficit if by_deficit else None)
        state_new, outcome = step(
            spec, surface, weights, state, min(spec.dt, spec.max_time - t),
            sum_reference=sum_reference, _run=run, _pass=here,
        )  # fmt: skip
        if outcome.status is not StepStatus.OK:
            termination = (
                TerminationReason.DEGENERATED
                if outcome.status is StepStatus.DEGENERATED
                else TerminationReason.DIVERGED
            )
            break
        state = state_new
        t += outcome.dt_used
        steps += 1
        cumulative_correction += outcome.correction
        metric = outcome._pass
        deficit = target - metric.curvature
        residual = float(np.abs(deficit).max())
        if not residual <= DIVERGENCE_RESIDUAL:  # NaN too
            termination = TerminationReason.DIVERGED
            break
        if steps % spec.trace_stride == 0 and not residual < spec.tolerance:
            record(t, state, metric.curvature, deficit, residual)

    if rows[-1].t < t:
        record(t, state, metric.curvature, deficit, residual)
    return FlowTrace(tuple(rows), termination, path)
