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
reaching zero gives ANOMALY at once.  ``run_flow`` computes the
curvature of every accepted state once, for its residual check, its
trace row and the first stage of the next step, and records rows in
one place: at the start, every ``trace_stride`` steps and at the last
accepted state.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass

import numpy as np

from .calculus import curvature_jacobian, segment_face_energies
from .errors import (
    BadParameterError,
    DegenerateFaceError,
    DomainError,
    NumericalDomainError,
    OverflowRangeError,
    TargetInadmissibleError,
)
from .geometry import ConformalState, Geometry, _degeneracy, base_state, curvature, edge_lengths
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

    @property
    def is_extended(self) -> bool:
        return self is FlowKind.EXTENDED_MODIFIED_RICCI

    @property
    def is_calabi(self) -> bool:
        return self in (FlowKind.CALABI, FlowKind.MODIFIED_CALABI)

    @property
    def is_modified(self) -> bool:
        return self in (
            FlowKind.NORMALIZED_RICCI,
            FlowKind.MODIFIED_RICCI,
            FlowKind.EXTENDED_MODIFIED_RICCI,
            FlowKind.MODIFIED_CALABI,
        )


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

    ``target`` defaults per kind (see resolve_target).  When
    ``normalize_sum_to`` is set, Euclidean runs first mean-shift the
    initial factors to that coordinate sum and record the shift.
    """

    kind: FlowKind
    geometry: Geometry
    target: np.ndarray | None = None
    integrator: str = "euler"
    dt: float = 1e-2
    tolerance: float = 1e-10
    max_time: float = 500.0
    trace_stride: int = 10
    normalize_sum_to: float | None = None

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
    energy: float  # potential H at the row (extended form for extended kinds)
    calabi: float
    correction: float  # cumulative magnitude of sum-drift compensation


@dataclass(frozen=True)
class FlowTrace:
    rows: tuple[TraceRow, ...]
    termination: TerminationReason
    normalized_shift: float = 0.0

    @property
    def final_u(self) -> np.ndarray:
        return self.rows[-1].u


@dataclass(frozen=True)
class StepOutcome:
    status: StepStatus
    dt_used: float
    halvings: int = 0
    correction: float = 0.0


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
    return TargetValidation(tuple(violations))


def _admissible_target(spec: FlowSpec, surface: TriangulatedSurface) -> np.ndarray:
    """The resolved target; raises TargetInadmissibleError when it is inadmissible."""
    validation = check_target(spec, surface)
    if not validation.ok:
        raise TargetInadmissibleError("; ".join(validation.violations))
    return resolve_target(spec, surface)


def _field(spec, surface, weights, state, target, kvec=None):
    # ``kvec``: the caller's curvature at ``state`` (with the kind's ``extended`` flag)
    kind = spec.kind
    if kvec is None:
        kvec = curvature(surface, weights, state, extended=kind.is_extended).curvature
    if kind is FlowKind.RICCI:
        return -kvec
    if not kind.is_calabi:
        return target - kvec
    # Calabi kinds: Laplacian of the curvature deficit
    lam = curvature_jacobian(surface, weights, state)
    return -(lam @ (kvec - target))


def vector_field(
    spec: FlowSpec,
    surface: TriangulatedSurface,
    weights: WeightConfig,
    state: ConformalState,
) -> np.ndarray:
    """Per-vertex velocity of the flow at one state."""
    return _field(spec, surface, weights, state, _admissible_target(spec, surface))


def _min_margin(surface, weights, state):
    margin, _ = _degeneracy(edge_lengths(surface, weights, state)[surface.face_edges])
    return float(margin.min())


class _StepRejected(Exception):
    # ``status``: what the step reports if it gives up; ``final``: no retry
    def __init__(self, status: StepStatus, final: bool = False):
        super().__init__(status, final)
        self.status, self.final = status, final


@contextlib.contextmanager
def _rejecting():
    """Turn the error of a failed stage into the rejection of the step."""
    try:
        yield
    except DomainError as exc:  # a hyperbolic cone coordinate reached 0
        raise _StepRejected(StepStatus.ANOMALY, final=True) from exc
    except DegenerateFaceError as exc:
        raise _StepRejected(StepStatus.DEGENERATED) from exc
    except (NumericalDomainError, OverflowRangeError) as exc:
        raise _StepRejected(StepStatus.ANOMALY) from exc


def _advance(spec, surface, weights, state, dt, target, kvec=None):
    """One integrator pass to the new coordinates u; a failed stage raises its own error."""

    def velocity(st, kvec=None):
        return _field(spec, surface, weights, st, target, kvec)

    u0 = state.u
    k1 = velocity(state, kvec)
    if spec.integrator == "euler":
        return u0 + dt * k1
    k2 = velocity(state.with_u(u0 + 0.5 * dt * k1))
    k3 = velocity(state.with_u(u0 + 0.5 * dt * k2))
    k4 = velocity(state.with_u(u0 + dt * k3))
    return u0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(
    spec: FlowSpec,
    surface: TriangulatedSurface,
    weights: WeightConfig,
    state: ConformalState,
    dt: float | None = None,
    *,
    sum_reference: float | None = None,
    _target=None,
    _kvec=None,
) -> tuple[ConformalState, StepOutcome]:
    """Advance one time step, halving near walls for strict kinds.

    Returns the new state with a StepOutcome; on DEGENERATED or ANOMALY
    the state is returned unchanged.  ``sum_reference`` is the
    coordinate sum the drift compensation restores (defaults to the
    current sum).
    """
    if state.geometry is not spec.geometry:
        raise BadParameterError("state geometry does not match the flow spec")
    if dt is None:
        dt = spec.dt
    target = _admissible_target(spec, surface) if _target is None else _target

    margin_floor = CALABI_MARGIN_SLACK if spec.kind.is_calabi else 0.0
    if spec.kind.is_calabi and _min_margin(surface, weights, state) <= margin_floor:
        # the curvature Laplacian has no continuous extension, so the
        # Calabi flow stops when a face gets this close to a wall
        return state, StepOutcome(status=StepStatus.DEGENERATED, dt_used=0.0)
    # these kinds conserve the coordinate sum: remove each step's discretization drift
    conserved = spec.geometry is Geometry.EUCLIDEAN and spec.kind is not FlowKind.RICCI
    reference = float(state.u.sum()) if sum_reference is None else sum_reference
    halvings, dt_try, drift = 0, float(dt), 0.0
    while True:
        try:
            with _rejecting():
                u_new = _advance(spec, surface, weights, state, dt_try, target, _kvec)
                if conserved:
                    drift = (float(u_new.sum()) - reference) / surface.vertex_count
                    u_new -= drift
                new_state = state.with_u(u_new)
                strict = not spec.kind.is_extended
                if strict and _min_margin(surface, weights, new_state) <= margin_floor:
                    raise _StepRejected(StepStatus.DEGENERATED)
            break
        except _StepRejected as rejected:
            if rejected.final or spec.kind.is_extended or halvings >= MAX_HALVINGS:
                return state, StepOutcome(
                    status=rejected.status, dt_used=0.0, halvings=halvings
                )
            halvings += 1
            dt_try *= 0.5
    return new_state, StepOutcome(
        status=StepStatus.OK, dt_used=dt_try, halvings=halvings, correction=abs(drift)
    )


def run_flow(
    spec: FlowSpec,
    surface: TriangulatedSurface,
    weights: WeightConfig,
    initial: ConformalState,
) -> FlowTrace:
    """Integrate the flow until convergence, degeneration, or timeout.

    Trace rows are recorded at the start, every ``trace_stride`` steps,
    and at the last accepted state; the potential in each row is
    maintained by integrating the angle form along the inter-row
    segments.
    """
    if initial.geometry is not spec.geometry:
        raise BadParameterError("initial state geometry does not match the flow spec")
    target = _admissible_target(spec, surface)

    state = initial
    shift = 0.0
    if spec.normalize_sum_to is not None and spec.geometry is Geometry.EUCLIDEAN:
        shift = (spec.normalize_sum_to - float(state.u.sum())) / surface.vertex_count
        if shift != 0.0:
            state = state.with_u(state.u + shift)

    sum_reference = float(state.u.sum())
    base = base_state(spec.geometry, state.epsilon)
    # running value of E = 2 pi sum(u) - (face integrals from the base),
    # advanced along the segments between rows
    start = segment_face_energies(surface, weights, spec.geometry, base.u, state.u)
    energy = 2.0 * np.pi * float(state.u.sum()) - float(start.sum())
    rows = []
    cumulative_correction = 0.0

    def record(t, state, kvec):
        nonlocal energy
        u = state.u
        if rows:
            last_u = rows[-1].u
            segment = segment_face_energies(surface, weights, spec.geometry, last_u, u)
            energy += 2.0 * np.pi * float(u.sum() - last_u.sum()) - float(segment.sum())
        rows.append(
            TraceRow(
                t=t,
                u=u.copy(),
                curvature=kvec,
                residual=float(np.max(np.abs(kvec - target))),
                sum_u=float(u.sum()),
                energy=energy - float(target @ (u - base.u)),
                calabi=0.5 * float(np.sum((kvec - target) ** 2)),
                correction=cumulative_correction,
            )
        )

    kvec = curvature(surface, weights, state, extended=spec.kind.is_extended).curvature
    record(0.0, state, kvec)
    t, steps, residual = 0.0, 0, rows[-1].residual
    termination = TerminationReason.CONVERGED
    while not residual < spec.tolerance:  # a NaN residual never converges
        if t >= spec.max_time - 1e-12:
            termination = TerminationReason.MAX_TIME
            break
        dt = min(spec.dt, spec.max_time - t)
        state_new, outcome = step(
            spec, surface, weights, state, dt,
            sum_reference=sum_reference, _target=target, _kvec=kvec,
        )
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
        try:
            kvec = curvature(surface, weights, state, extended=spec.kind.is_extended).curvature
        except (NumericalDomainError, OverflowRangeError, DegenerateFaceError):
            return FlowTrace(tuple(rows), TerminationReason.DIVERGED, shift)
        residual = float(np.max(np.abs(kvec - target)))
        if not residual <= DIVERGENCE_RESIDUAL:  # NaN too
            termination = TerminationReason.DIVERGED
            break
        if steps % spec.trace_stride == 0 and not residual < spec.tolerance:
            record(t, state, kvec)

    if rows[-1].t < t:
        record(t, state, kvec)
    return FlowTrace(tuple(rows), termination, shift)
