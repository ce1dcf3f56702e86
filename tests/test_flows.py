"""Tests for the flow vector fields, stepping, and full runs."""

import collections
import contextlib
import functools
import warnings
import zlib

import numpy as np
import pytest

from dcflow import calculus, flows
from dcflow.calculus import (
    curvature_jacobian,
    face_corner_jacobians,
    surface_energies,
)
from dcflow.errors import (
    BadParameterError,
    DCFlowError,
    DegenerateFaceError,
    OverflowRangeError,
    QuadratureFailureError,
    TargetInadmissibleError,
)
from dcflow.flows import (
    FlowKind,
    FlowSpec,
    StepStatus,
    TerminationReason,
    TraceRow,
    check_target,
    resolve_target,
    run_flow,
    step,
    vector_field,
)
from dcflow.geometry import (
    ConformalState,
    Geometry,
    _kernel_weights,
    _metric,
    base_state,
    classify_triangle,
    curvature,
    edge_lengths,
)
from dcflow.solve import solve_prescribed
from dcflow.surface import WeightConfig, generate

from conftest import fd_gradient, mismatched_inputs, random_admissible_state


def tetra_setup():
    surface = generate("tetrahedron")
    weights = WeightConfig.uniform(surface, 1, 1.0)
    return surface, weights


def torus_setup():
    surface = generate("torus_grid", 3, 3)
    weights = WeightConfig.uniform(surface, 0, 1.0)
    return surface, weights


def mixed_torus_setup():
    # eps = 0 and 1 mixed: the potential has no closed form, so the quadrature integrates it
    surface = generate("torus_grid", 3, 3)
    return surface, WeightConfig(np.arange(9) % 2, np.ones(surface.edge_count))


def spike_push(surface):
    """Zero-sum target shift that raises vertex 4's neighbours against it.

    Near its wall a spike at vertex 4 has corner angles near pi, so its
    curvature nears the bound 2 pi - 6 pi; lowering its own target would
    leave the admissible range, so its target stays and its neighbours rise.
    """
    around = np.unique(surface.edges[np.any(surface.edges == 4, axis=1)])
    push = np.zeros(surface.vertex_count)
    push[around] = 1.0
    push[4] = 0.0
    rest = push == 0.0
    rest[4] = False
    push[rest] = -push.sum() / rest.sum()
    return push


def genus2_setup(epsilon=0):
    surface = generate("genus2")
    weights = WeightConfig.uniform(surface, epsilon, 1.0)
    return surface, weights


@functools.lru_cache(maxsize=None)
def wall_straddles():
    """(surface, weights, lo, hi) for 80 pairs of states on adjacent floats of one u_v.

    Both use a 3x3 torus with eps = 1 and eta = 2, and one coordinate u_v
    is bisected to the two adjacent floats straddling the wall as
    ``classify_triangle`` sees it: every face is nondegenerate at lo and
    some face is degenerate at hi.

    - 40 Euclidean: criterion 9's wall, where both ends of edge 0 at
      log(4 + 3 sqrt 2) make the two faces on that edge degenerate;
      u_v is an end of edge 0 on a noisy background, in [wall - 0.5,
      wall + 0.5].
    - 40 hyperbolic: u = -1 + N(0, 0.05^2) and u_v = u_0 in [-6, -0.01];
      a small e^{f_v} makes the faces at v degenerate at v.
    """
    surface = generate("torus_grid", 3, 3)
    weights = WeightConfig.uniform(surface, 1, 2.0)
    i, j = surface.edges[0]
    wall = np.log(4.0 + 3.0 * np.sqrt(2.0))
    rng = np.random.default_rng(71)

    def degenerate(state):
        a = edge_lengths(surface, weights, state)[surface.face_edges]
        return any(
            classify_triangle(state.geometry, l[2], l[1], l[0]).is_degenerate for l in a
        )

    def straddle(geometry, u, v, ok, bad):
        def state_at(x):
            w = u.copy()
            w[v] = x
            return ConformalState(geometry, weights.epsilon, w)

        assert not degenerate(state_at(ok)) and degenerate(state_at(bad))
        while np.nextafter(ok, bad) != bad:
            mid = 0.5 * (ok + bad)
            if degenerate(state_at(mid)):
                bad = mid
            else:
                ok = mid
        return surface, weights, state_at(ok), state_at(bad)

    straddles = []
    for _ in range(40):
        u = rng.normal(0.0, 0.02, surface.vertex_count)
        u[j] += wall
        straddles.append(straddle(Geometry.EUCLIDEAN, u, i, wall - 0.5, wall + 0.5))
    for _ in range(40):
        u = -1.0 + rng.normal(0.0, 0.05, surface.vertex_count)
        straddles.append(straddle(Geometry.HYPERBOLIC, u, 0, -0.01, -6.0))
    return tuple(straddles)


class TestFlowSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(BadParameterError):
            FlowSpec(FlowKind.RICCI, Geometry.EUCLIDEAN, dt=0.0)
        with pytest.raises(BadParameterError):
            FlowSpec(FlowKind.RICCI, Geometry.EUCLIDEAN, integrator="heun")
        with pytest.raises(BadParameterError):
            FlowSpec(FlowKind.RICCI, Geometry.EUCLIDEAN, trace_stride=0)
        with pytest.raises(BadParameterError):
            FlowSpec(FlowKind.RICCI, Geometry.EUCLIDEAN, target=np.array([1.0, np.nan]))
        with pytest.raises(BadParameterError):
            FlowSpec("ricci", Geometry.EUCLIDEAN)

    def test_rejects_a_time_budget_that_is_not_positive(self):
        for max_time in (0.0, -1.0, np.nan):
            with pytest.raises(BadParameterError, match="^max_time must be positive$"):
                FlowSpec(FlowKind.RICCI, Geometry.EUCLIDEAN, max_time=max_time)

    def test_rejects_a_geometry_that_is_not_a_geometry(self):
        with pytest.raises(BadParameterError, match="^unknown geometry: 'euclidean'$"):
            FlowSpec(FlowKind.RICCI, "euclidean")

    def test_resolve_target_rejects_a_target_of_the_wrong_length(self):
        surface, _ = tetra_setup()
        spec = FlowSpec(FlowKind.RICCI, Geometry.EUCLIDEAN, target=np.zeros(3))
        with pytest.raises(BadParameterError, match=r"^target has shape \(3,\), expected \(4,\)$"):
            resolve_target(spec, surface)

    def test_default_targets(self):
        surface, _ = tetra_setup()
        euclidean = FlowSpec(FlowKind.RICCI, Geometry.EUCLIDEAN)
        assert np.array_equal(resolve_target(euclidean, surface), np.zeros(4))
        normalized = FlowSpec(FlowKind.NORMALIZED_RICCI, Geometry.EUCLIDEAN)
        assert np.allclose(resolve_target(normalized, surface), np.pi)
        genus2, _ = genus2_setup()
        hyper = FlowSpec(FlowKind.MODIFIED_RICCI, Geometry.HYPERBOLIC)
        assert np.array_equal(resolve_target(hyper, genus2), np.zeros(15))


class TestCheckTarget:
    def test_euclidean_sum_condition(self):
        torus, _ = torus_setup()
        tetra, _ = tetra_setup()
        zero9 = FlowSpec(FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.zeros(9))
        zero4 = FlowSpec(FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.zeros(4))
        assert check_target(zero9, torus).ok  # sum 0 = 2 pi chi(torus)
        report = check_target(zero4, tetra)
        assert not report.ok and "sum" in report.violations[0]

    def test_hyperbolic_sum_condition(self):
        genus2, _ = genus2_setup()
        spec = FlowSpec(FlowKind.MODIFIED_RICCI, Geometry.HYPERBOLIC, target=np.zeros(15))
        assert check_target(spec, genus2).ok  # 0 > -4 pi
        # the averaged target sits exactly on 2 pi chi and must fail
        normalized = FlowSpec(FlowKind.NORMALIZED_RICCI, Geometry.HYPERBOLIC)
        assert not check_target(normalized, genus2).ok

    def test_pointwise_upper_bound(self):
        tetra, _ = tetra_setup()
        target = np.array([7.0, 4.0 * np.pi - 7.0, 0.0, 0.0])
        spec = FlowSpec(FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=target)
        report = check_target(spec, tetra)
        assert not report.ok and "2*pi" in report.violations[0]

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_pointwise_lower_bound(self, geometry):
        # six corners meet at each vertex of a torus grid, each angle at most
        # pi, so no generalized metric has K_v < 2 pi - 6 pi = -4 pi
        surface = generate("torus_grid", 6, 6)
        weights = WeightConfig.uniform(surface, 1, 1.0)
        target = np.full(36, 13.0 / 35.0 + (geometry is Geometry.HYPERBOLIC))
        target[0] = -13.0
        spec = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, geometry, target=target)
        report = check_target(spec, surface)
        assert report.violations == (
            "vertex 0 has 6 corners, so its target curvature must be at least "
            f"2*pi - 6*pi = {-4.0 * np.pi:.6g}; got -13",
        )
        with pytest.raises(TargetInadmissibleError, match="vertex 0 .* -12.5664"):
            run_flow(spec, surface, weights, base_state(geometry, weights.epsilon))
        target[0] = -4.0 * np.pi  # on the bound: admitted
        target[1:] = (4.0 * np.pi + (geometry is Geometry.HYPERBOLIC)) / 35.0
        assert check_target(FlowSpec(spec.kind, geometry, target=target), surface).ok

    def test_plain_euclidean_kinds_skip_sum_condition(self):
        tetra, _ = tetra_setup()
        spec = FlowSpec(FlowKind.RICCI, Geometry.EUCLIDEAN)  # target 0, sum != 4 pi
        assert check_target(spec, tetra).ok


class TestVectorField:
    def test_equilibrium_fields_vanish(self):
        surface, weights = tetra_setup()
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, np.zeros(4))
        for kind in (
            FlowKind.NORMALIZED_RICCI,
            FlowKind.MODIFIED_RICCI,
            FlowKind.EXTENDED_MODIFIED_RICCI,
            FlowKind.CALABI,
            FlowKind.MODIFIED_CALABI,
        ):
            target = np.full(4, np.pi) if kind.is_modified else None
            spec = FlowSpec(kind, Geometry.EUCLIDEAN, target=target)
            velocity = vector_field(spec, surface, weights, state)
            assert np.max(np.abs(velocity)) < 1e-13, kind

    def test_ricci_field_is_negative_curvature(self):
        surface, weights = torus_setup()
        rng = np.random.default_rng(61)
        state = random_admissible_state(surface, weights, Geometry.EUCLIDEAN, rng)
        spec = FlowSpec(FlowKind.RICCI, Geometry.EUCLIDEAN)
        velocity = vector_field(spec, surface, weights, state)
        report = curvature(surface, weights, state)
        assert np.allclose(velocity, -report.curvature, atol=1e-14)

    def test_calabi_field_is_laplacian_of_deficit(self):
        surface, weights = torus_setup()
        rng = np.random.default_rng(62)
        state = random_admissible_state(surface, weights, Geometry.EUCLIDEAN, rng)
        spec = FlowSpec(FlowKind.MODIFIED_CALABI, Geometry.EUCLIDEAN, target=np.zeros(9))
        velocity = vector_field(spec, surface, weights, state)
        lam = curvature_jacobian(surface, weights, state)
        report = curvature(surface, weights, state)
        assert np.allclose(velocity, -(lam @ report.curvature), atol=1e-13)

    def test_extended_field_uses_extended_curvature(self):
        surface, weights = torus_setup()
        u = np.zeros(9)
        u[4] = -3.0  # all six faces at vertex 4 are past their wall
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.zeros(9)
        )
        velocity = vector_field(spec, surface, weights, state)
        report = curvature(surface, weights, state, extended=True)
        assert report.degenerate_faces
        assert np.allclose(velocity, -report.curvature, atol=1e-14)

    def test_strict_field_rejects_degenerate_state(self):
        surface, weights = torus_setup()
        u = np.zeros(9)
        u[4] = -3.0
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
        for kind in (FlowKind.MODIFIED_RICCI, FlowKind.MODIFIED_CALABI):
            spec = FlowSpec(kind, Geometry.EUCLIDEAN, target=np.zeros(9))
            with pytest.raises(DegenerateFaceError):
                vector_field(spec, surface, weights, state)

    def test_inadmissible_target_rejected(self):
        surface, weights = tetra_setup()
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, np.zeros(4))
        spec = FlowSpec(FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.zeros(4))
        with pytest.raises(TargetInadmissibleError):
            vector_field(spec, surface, weights, state)


@pytest.mark.parametrize("entry", [step, run_flow, vector_field])
def test_calabi_at_a_far_hyperbolic_cone_warns_nothing(entry):
    # at f = 360 the lengths are finite but the Jacobian's e^{2f} overflows; the flows enter
    # no errstate, so the Jacobian enters its own.  Only the warnings are asserted here
    surface = generate("torus_grid", 4, 4)
    weights = WeightConfig.uniform(surface, 1, 1.0)
    f = np.zeros(16)
    f[5] = 360.0
    state = ConformalState.from_f(Geometry.HYPERBOLIC, weights.epsilon, f)
    spec = FlowSpec(FlowKind.MODIFIED_CALABI, Geometry.HYPERBOLIC, target=np.full(16, 0.1))
    with warnings.catch_warnings(), contextlib.suppress(DCFlowError):
        warnings.simplefilter("error")
        entry(spec, surface, weights, state)


class TestStep:
    def test_zero_field_leaves_state_unchanged(self):
        surface, weights = tetra_setup()
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, np.zeros(4))
        spec = FlowSpec(
            FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.full(4, np.pi)
        )
        new_state, outcome = step(spec, surface, weights, state)
        assert outcome.status is StepStatus.OK
        assert np.array_equal(new_state.u, state.u)

    def test_euler_local_error_is_second_order(self):
        surface, weights = tetra_setup()
        rng = np.random.default_rng(63)
        u0 = rng.normal(0.0, 0.1, 4)
        u0 -= u0.mean()
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
        spec = FlowSpec(
            FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.full(4, np.pi)
        )

        def richardson_gap(dt):
            one, _ = step(spec, surface, weights, state, dt)
            half, _ = step(spec, surface, weights, state, dt / 2)
            half2, _ = step(spec, surface, weights, half, dt / 2)
            return np.max(np.abs(one.u - half2.u))

        gaps = richardson_gap(1e-2), richardson_gap(5e-3)
        ratio = gaps[0] / gaps[1]
        assert 3.0 < ratio < 5.0  # halving dt quarters the defect

    def test_geometry_mismatch_rejected(self):
        surface, weights = tetra_setup()
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, np.zeros(4))
        spec = FlowSpec(FlowKind.RICCI, Geometry.HYPERBOLIC)
        with pytest.raises(BadParameterError):
            step(spec, surface, weights, state)

    def test_degenerates_when_halving_cannot_escape(self):
        # a state a hair inside a wall, with a target crafted so the
        # field pushes straight through it: every halved step still
        # lands degenerate
        surface, weights = torus_setup()
        u = np.zeros(9)
        u[4] = -2.0 * np.log(2.0) + 1e-9
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
        report = curvature(surface, weights, state)
        push = spike_push(surface)  # shrink the spike further
        target = report.curvature + push
        spec = FlowSpec(FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=target)
        new_state, outcome = step(spec, surface, weights, state, 1e-2)
        assert outcome.status is StepStatus.DEGENERATED
        assert outcome.halvings == 20
        assert new_state is state

    def test_extended_kind_crosses_wall_without_halving(self):
        surface, weights = torus_setup()
        u = np.zeros(9)
        u[4] = -2.0 * np.log(2.0) + 1e-9
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
        report = curvature(surface, weights, state, extended=True)
        push = spike_push(surface)
        target = report.curvature + push
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=target
        )
        new_state, outcome = step(spec, surface, weights, state, 1e-2)
        assert outcome.status is StepStatus.OK
        assert outcome.halvings == 0
        assert curvature(surface, weights, new_state, extended=True).degenerate_faces

    def test_calabi_margin_slack_degenerates(self):
        surface, weights = torus_setup()
        u = np.zeros(9)
        u[4] = -2.0 * np.log(2.0) + 1e-9  # margin ~ 1e-9, inside the 1e-8 slack
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
        spec = FlowSpec(FlowKind.CALABI, Geometry.EUCLIDEAN)
        _, outcome = step(spec, surface, weights, state, 1e-2)
        assert outcome.status is StepStatus.DEGENERATED

    def test_wall_tests_agree_at_adjacent_floats(self):
        # ask every wall test which faces are degenerate on each side
        for surface, weights, lo_state, hi_state in wall_straddles():
            for state, side in ((lo_state, False), (hi_state, True)):
                a = edge_lengths(surface, weights, state)[surface.face_edges]
                faces = [
                    f
                    for f in range(surface.face_count)
                    if classify_triangle(state.geometry, a[f, 2], a[f, 1], a[f, 0]).is_degenerate
                ]
                assert bool(faces) is side
                kernel = _kernel_weights(state.geometry, weights)
                strict_flow = _metric(surface, kernel, state.geometry, state.f, True)
                assert bool(strict_flow.margins.min() <= 0.0) is side
                if not side:
                    curvature(surface, weights, state, extended=False)
                    face_corner_jacobians(surface, weights, state, extended=False)
                    continue
                with pytest.raises(DegenerateFaceError) as raised:
                    curvature(surface, weights, state, extended=False)
                assert raised.value.face_index == faces[0]
                with pytest.raises(DegenerateFaceError) as raised:
                    face_corner_jacobians(surface, weights, state, extended=False)
                assert raised.value.face_index == faces[0]

    def test_jacobian_blocks_finite_beside_walls(self):
        # on the nondegenerate side of a wall a margin can be a few ulp, where
        # an angle rounds to 0 and sin(theta) with it
        for surface, weights, lo_state, _ in wall_straddles():
            blocks = face_corner_jacobians(surface, weights, lo_state, extended=False)
            assert np.all(np.isfinite(blocks))

    def test_hyperbolic_anomaly_on_sign_violation(self):
        surface, weights = genus2_setup(epsilon=1)
        state = base_state(Geometry.HYPERBOLIC, weights.epsilon)
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI,
            Geometry.HYPERBOLIC,
            target=np.zeros(15),
            dt=50.0,  # one huge step drives cone coordinates past zero
        )
        new_state, outcome = step(spec, surface, weights, state)
        assert outcome.status is StepStatus.ANOMALY
        assert new_state is state

    def test_strict_kind_gives_up_at_once_on_sign_violation(self):
        # a cone coordinate past zero is no wall: a strict kind must not
        # halve its way back, but report the anomaly at the first try
        surface, weights = genus2_setup(epsilon=1)
        state = base_state(Geometry.HYPERBOLIC, weights.epsilon)
        spec = FlowSpec(
            FlowKind.MODIFIED_RICCI, Geometry.HYPERBOLIC, target=np.zeros(15), dt=50.0
        )
        new_state, outcome = step(spec, surface, weights, state)
        assert outcome.status is StepStatus.ANOMALY
        assert outcome.halvings == 0
        assert new_state is state

    def test_strict_rk4_stage_past_a_wall_halves_the_step(self, monkeypatch):
        # 1e-3 before a wall, the first RK4 stages at dt = 0.01 land past it: the stage's
        # strict pass raises DegenerateFaceError, and the step halves until every stage is
        # clear (four times), then accepts a nondegenerate state
        surface, weights, lo, hi = wall_straddles()[0]
        v = int(np.flatnonzero(lo.u != hi.u)[0])
        u = lo.u.copy()
        u[v] -= 1e-3
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
        push = np.full(surface.vertex_count, -1.0 / surface.vertex_count)
        push[v] += 1.0  # toward the wall, and zero-sum
        target = curvature(surface, weights, state).curvature + push
        spec = FlowSpec(
            FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=target, integrator="rk4", dt=0.01
        )
        raised, real_metric = [], flows._metric

        def recording_metric(*args, **kwargs):
            try:
                return real_metric(*args, **kwargs)
            except DegenerateFaceError as error:
                raised.append(error)
                raise

        monkeypatch.setattr(flows, "_metric", recording_metric)
        new_state, outcome = step(spec, surface, weights, state)
        assert len(raised) == outcome.halvings == 4
        assert outcome.status is StepStatus.OK
        assert outcome.dt_used == 0.01 / 16
        assert not curvature(surface, weights, new_state, extended=True).degenerate_faces

    def test_drift_compensation_records_correction(self):
        surface, weights = torus_setup()
        rng = np.random.default_rng(64)
        u0 = rng.normal(0.0, 0.1, 9)
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
        spec = FlowSpec(FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.zeros(9))
        new_state, outcome = step(spec, surface, weights, state)
        assert outcome.status is StepStatus.OK
        assert abs(new_state.u.sum() - u0.sum()) < 1e-14
        assert outcome.correction >= 0.0


class TestRunFlow:
    @pytest.mark.parametrize("mismatch", sorted(mismatched_inputs()))
    def test_rejects_mismatched_inputs(self, mismatch):
        # an eps = 0 state on eps = 1 weights once ran the wrong ODE to "convergence"
        surface, weights, state = mismatched_inputs()[mismatch]
        target = np.full(surface.vertex_count, 0.1)
        spec = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.HYPERBOLIC, target=target)
        for entry in (run_flow, step, vector_field):
            with pytest.raises(BadParameterError, match=mismatch):
                entry(spec, surface, weights, state)

    def test_entries_reject_a_state_of_the_other_geometry(self):
        # vector_field once returned a Euclidean velocity from a hyperbolic state's exponents
        surface, weights = tetra_setup()
        state = base_state(Geometry.HYPERBOLIC, weights.epsilon)
        spec = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.full(4, np.pi))
        for entry in (run_flow, step, vector_field):
            with pytest.raises(BadParameterError, match="geometry"):
                entry(spec, surface, weights, state)

    def test_equilibrium_converges_at_time_zero(self):
        surface, weights = tetra_setup()
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, np.zeros(4))
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.full(4, np.pi)
        )
        trace = run_flow(spec, surface, weights, state)
        assert trace.termination is TerminationReason.CONVERGED
        assert len(trace.rows) == 1 and trace.rows[0].t == 0.0

    def test_tetrahedron_extended_converges_to_uniform(self):
        surface, weights = tetra_setup()
        rng = np.random.default_rng(65)
        u0 = rng.normal(0.0, 0.15, 4)
        u0 -= u0.mean()
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.full(4, np.pi)
        )
        trace = run_flow(
            spec, surface, weights, ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
        )
        assert trace.termination is TerminationReason.CONVERGED
        assert trace.rows[-1].residual < 1e-10
        assert np.max(np.abs(trace.final_u)) < 1e-8  # symmetry fixes the limit

    def test_degenerate_start_converges(self):
        surface, weights = torus_setup()
        u0 = np.zeros(9)
        u0[4] = -4.0
        u0 -= u0.mean()
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
        assert curvature(surface, weights, state, extended=True).degenerate_faces
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.zeros(9)
        )
        trace = run_flow(spec, surface, weights, state)
        assert trace.termination is TerminationReason.CONVERGED
        assert np.max(np.abs(trace.final_u)) < 1e-8
        energies = trace.energies
        assert np.max(np.diff(energies)) <= 1e-8

    def test_hyperbolic_extended_converges(self):
        surface, weights = genus2_setup()
        rng = np.random.default_rng(66)
        u0 = rng.normal(0.0, 0.2, 15)
        state = ConformalState(Geometry.HYPERBOLIC, weights.epsilon, u0)
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.HYPERBOLIC, target=np.zeros(15)
        )
        trace = run_flow(spec, surface, weights, state)
        assert trace.termination is TerminationReason.CONVERGED
        assert trace.rows[-1].residual < 1e-10
        energies = trace.energies
        assert np.max(np.diff(energies)) <= 1e-8

    def test_sum_conservation_along_trace(self):
        surface, weights = torus_setup()
        rng = np.random.default_rng(67)
        u0 = rng.normal(0.0, 0.2, 9)
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.zeros(9)
        )
        trace = run_flow(
            spec, surface, weights, ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
        )
        sums = np.array([row.sum_u for row in trace.rows])
        assert np.max(np.abs(sums - sums[0])) < 1e-9

    def test_calabi_energy_monotone(self):
        surface, weights = torus_setup()
        rng = np.random.default_rng(68)
        u0 = rng.normal(0.0, 0.1, 9)
        u0 -= u0.mean()
        spec = FlowSpec(FlowKind.CALABI, Geometry.EUCLIDEAN)
        trace = run_flow(
            spec, surface, weights, ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
        )
        assert trace.termination is TerminationReason.CONVERGED
        values = [row.calabi for row in trace.rows]
        assert np.max(np.diff(values)) <= 1e-10

    def test_max_time_reported(self):
        surface, weights = tetra_setup()
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, np.zeros(4))
        spec = FlowSpec(FlowKind.RICCI, Geometry.EUCLIDEAN, max_time=0.5)
        trace = run_flow(spec, surface, weights, state)
        assert trace.termination is TerminationReason.MAX_TIME
        assert abs(trace.rows[-1].t - 0.5) < 1e-9

    def test_diverges_on_absurd_step(self):
        surface, weights = tetra_setup()
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI,
            Geometry.EUCLIDEAN,
            target=np.full(4, np.pi),
            dt=1e4,
        )
        state = ConformalState(
            Geometry.EUCLIDEAN, weights.epsilon, np.array([0.3, -0.1, 0.2, -0.4])
        )
        trace = run_flow(spec, surface, weights, state)
        assert trace.termination is TerminationReason.DIVERGED

    def test_a_failed_pass_ends_the_trace_at_the_last_accepted_state(self, monkeypatch):
        # step makes each new state's kernel pass: one that overflows rejects the step, and
        # the DIVERGED trace still ends with a row at the last accepted state (t = 0.24)
        surface = generate("torus_grid", 4, 4)
        weights = WeightConfig.uniform(surface, 1, 1.0)
        u = np.random.default_rng(75).normal(0.0, 0.3, 16)
        start = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u - u.mean())
        spec = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.zeros(16))
        every = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.zeros(16),
            max_time=0.3, trace_stride=1,
        )  # fmt: skip
        rows = run_flow(every, surface, weights, start).rows
        passes, real_metric = [], flows._metric

        def overflowing_metric(*args, **kwargs):
            passes.append(args[3])
            if len(passes) == 26:  # the start's pass, then those of 24 accepted steps
                raise OverflowRangeError("forced")
            return real_metric(*args, **kwargs)

        monkeypatch.setattr(flows, "_metric", overflowing_metric)
        trace = run_flow(spec, surface, weights, start)
        assert trace.termination is TerminationReason.DIVERGED
        assert len(passes) == 26
        assert [round(row.t, 12) for row in trace.rows] == [0.0, 0.1, 0.2, 0.24]
        assert trace.rows == (rows[0], rows[10], rows[20], rows[24])

    def test_a_residual_past_the_divergence_bound_ends_the_run(self, monkeypatch):
        # a pass whose deficit exceeds DIVERGENCE_RESIDUAL ends the run DIVERGED at the
        # state it was made at, which the last row records (the extended angles keep every
        # real deficit far below the bound, so a patched pass stands in for one)
        surface, weights = tetra_setup()
        state = ConformalState(
            Geometry.EUCLIDEAN, weights.epsilon, np.array([0.3, -0.1, 0.2, -0.4])
        )
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.full(4, np.pi)
        )
        passes, real_metric = [], flows._metric

        def diverging_metric(*args, **kwargs):
            report = real_metric(*args, **kwargs)
            passes.append(report)
            if len(passes) == 4:  # the start's pass, then the third step's
                return report._replace(curvature=report.curvature + 2.0 * flows.DIVERGENCE_RESIDUAL)
            return report

        monkeypatch.setattr(flows, "_metric", diverging_metric)
        trace = run_flow(spec, surface, weights, state)
        assert trace.termination is TerminationReason.DIVERGED
        assert len(passes) == 4
        assert [round(row.t, 12) for row in trace.rows] == [0.0, 0.03]
        assert trace.rows[-1].residual > flows.DIVERGENCE_RESIDUAL

    def test_degenerated_run(self):
        surface, weights = torus_setup()
        u = np.zeros(9)
        u[4] = -2.0 * np.log(2.0) + 1e-9
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
        report = curvature(surface, weights, state)
        push = spike_push(surface)
        spec = FlowSpec(
            FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=report.curvature + push
        )
        trace = run_flow(spec, surface, weights, state)
        assert trace.termination is TerminationReason.DEGENERATED

    def test_degenerated_run_records_last_accepted_state(self, monkeypatch):
        # a start further from the wall takes several steps before no
        # halving can keep the spike face open; the trace then ends with a
        # row at the last accepted state, off the stride
        surface, weights = torus_setup()
        u = np.zeros(9)
        u[4] = -2.0 * np.log(2.0) + 1e-3
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
        push = spike_push(surface)
        target = curvature(surface, weights, state).curvature + push
        spec = FlowSpec(FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=target, trace_stride=3)
        accepted = []
        real_step = flows.step

        def recording_step(*args, **kwargs):
            new_state, outcome = real_step(*args, **kwargs)
            if outcome.status is StepStatus.OK:
                accepted.append((outcome.dt_used, new_state))
            return new_state, outcome

        monkeypatch.setattr(flows, "step", recording_step)
        trace = run_flow(spec, surface, weights, state)
        assert trace.termination is TerminationReason.DEGENERATED
        assert len(accepted) > 5 and len(accepted) % 3 != 0
        t = 0.0
        for dt_used, _ in accepted:
            t += dt_used
        last = trace.rows[-1]
        assert last.t == t
        assert np.array_equal(last.u, accepted[-1][1].u)
        expected = curvature(surface, weights, accepted[-1][1]).curvature
        assert np.array_equal(last.curvature, expected)

    def test_trace_times_strictly_increasing(self):
        surface, weights = tetra_setup()
        rng = np.random.default_rng(69)
        u0 = rng.normal(0.0, 0.1, 4)
        u0 -= u0.mean()
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI,
            Geometry.EUCLIDEAN,
            target=np.full(4, np.pi),
            trace_stride=7,
        )
        trace = run_flow(
            spec, surface, weights, ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
        )
        times = [row.t for row in trace.rows]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_bitwise_determinism(self):
        surface, weights = torus_setup()
        rng = np.random.default_rng(70)
        u0 = rng.normal(0.0, 0.15, 9)
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.zeros(9)
        )
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
        first = run_flow(spec, surface, weights, state)
        second = run_flow(spec, surface, weights, state)
        assert first.termination is second.termination
        assert len(first.rows) == len(second.rows)
        for a, b in zip(first.rows, second.rows):
            assert a.t == b.t
            assert np.array_equal(a.u, b.u)
        assert first == second
        assert first.energies == second.energies

    @pytest.mark.parametrize(
        "setup, geometry",
        [(mixed_torus_setup, Geometry.EUCLIDEAN), (genus2_setup, Geometry.HYPERBOLIC)],
    )
    def test_run_integrates_nothing_until_energies_read(self, setup, geometry, monkeypatch):
        # the flow never reads its potential; the trace integrates it on first read
        def no_quadrature(*args, **kwargs):
            raise AssertionError("run_flow ran the energy quadrature")

        surface, weights = setup()
        n = surface.vertex_count
        u0 = np.random.default_rng(72).normal(0.0, 0.2, n)
        u0 -= u0.mean()
        state = ConformalState(geometry, weights.epsilon, u0)
        spec = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, geometry, target=np.zeros(n))
        with monkeypatch.context() as patched:
            patched.setattr(calculus, "_integrate_face_energies", no_quadrature)
            trace = run_flow(spec, surface, weights, state)
        assert trace.termination is TerminationReason.CONVERGED
        energies = trace.energies
        assert len(energies) == len(trace.rows)

        def from_base(u):
            return surface_energies(surface, weights, state.with_u(u), target=np.zeros(n)).potential

        assert energies[0] == from_base(trace.rows[0].u)
        assert abs(energies[-1] - from_base(trace.final_u)) < 1e-9

    def test_unreachable_target_fails_only_on_energy_read(self):
        # each of K_0 = K_1 = -10 clears its single-vertex bound 2 pi - 6 pi,
        # but their sum lies below the pair's bound 4 pi - 10 pi (10 faces
        # meet the edge 01), so u_0 and u_1 escape; the run ends on its own
        # terms, and only reading the row energies may fail, with a
        # quadrature error
        surface = generate("torus_grid", 6, 6)
        weights = WeightConfig.uniform(surface, 1, 1.0)
        target = np.full(36, 20.0 / 34.0)
        target[:2] = -10.0
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=target, max_time=100.0
        )
        start = base_state(Geometry.EUCLIDEAN, weights.epsilon)
        trace = run_flow(spec, surface, weights, start)
        assert trace.termination is TerminationReason.MAX_TIME
        try:
            energies = trace.energies
        except QuadratureFailureError:
            return
        assert len(energies) == len(trace.rows)

    def test_rk4_matches_fine_euler(self):
        surface, weights = tetra_setup()
        rng = np.random.default_rng(71)
        u0 = rng.normal(0.0, 0.01, 4)
        u0 -= u0.mean()
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
        target = np.full(4, np.pi)
        kwargs = dict(target=target, max_time=1.0, tolerance=1e-16)
        coarse = FlowSpec(
            FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, integrator="rk4", dt=1e-2, **kwargs
        )
        fine = FlowSpec(
            FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, integrator="euler", dt=1e-2 / 256, **kwargs
        )
        end_rk4 = run_flow(coarse, surface, weights, state).final_u
        end_euler = run_flow(fine, surface, weights, state).final_u
        assert np.max(np.abs(end_rk4 - end_euler)) < 1e-6

    @pytest.mark.parametrize(
        "kind, integrator, per_step",
        [
            (FlowKind.EXTENDED_MODIFIED_RICCI, "euler", [True]),
            (FlowKind.MODIFIED_RICCI, "rk4", [False, False, False, True]),
        ],
        ids=["extended-euler", "modified-rk4"],
    )
    def test_curvature_calls_per_step(self, monkeypatch, kind, integrator, per_step):
        # each accepted state's metric kernel pass serves its trace row and the
        # first stage of the next step, so one per step plus one at the start for
        # Euler.  The extended kind evaluates every pass extended; the strict RK4
        # step makes three strict stage calls, then its wall test, an extended
        # pass that it hands on.  The start energy is a segment integral, so
        # calculus computes no curvature at all
        surface, weights = torus_setup()
        calls, energy_calls = [], []
        real_curvature, real_metric = calculus.curvature, flows._metric

        def counting_curvature(*args, **kwargs):
            calls.append(kwargs.get("extended"))
            return real_curvature(*args, **kwargs)

        def counting_metric(*args, **kwargs):
            calls.append(args[4] if len(args) > 4 else kwargs["extended"])
            return real_metric(*args, **kwargs)

        def counting_energy_curvature(*args, **kwargs):
            energy_calls.append(kwargs.get("extended"))
            return real_curvature(*args, **kwargs)

        # flows evaluates K through _metric alone; a curvature binding there is counted too
        monkeypatch.setattr(flows, "curvature", counting_curvature, raising=False)
        monkeypatch.setattr(flows, "_metric", counting_metric)
        monkeypatch.setattr(calculus, "curvature", counting_energy_curvature)
        u0 = np.random.default_rng(72).normal(0.0, 0.1, 9)
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0 - u0.mean())
        spec = FlowSpec(
            kind,
            Geometry.EUCLIDEAN,
            target=np.zeros(9),
            integrator=integrator,
            dt=0.1,
            tolerance=1e-8,
            trace_stride=1,
        )
        trace = run_flow(spec, surface, weights, state)
        assert trace.termination is TerminationReason.CONVERGED
        steps = len(trace.rows) - 1
        assert steps > 10
        assert calls == [kind.is_extended] + per_step * steps
        assert energy_calls == []

        # a run stopped by max_time between two stride rows takes its last
        # row's curvature from its last step, so it makes no extra call
        calls.clear()
        short = FlowSpec(
            kind,
            Geometry.EUCLIDEAN,
            target=np.zeros(9),
            integrator=integrator,
            dt=0.1,
            tolerance=1e-8,
            max_time=0.5,
            trace_stride=4,
        )
        trace = run_flow(short, surface, weights, state)
        assert trace.termination is TerminationReason.MAX_TIME
        assert [round(row.t, 12) for row in trace.rows] == [0.0, 0.4, 0.5]
        assert calls == [kind.is_extended] + per_step * 5
        assert energy_calls == []

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_rows_are_the_exact_euler_recurrence(self, geometry):
        # every row, bit for bit, is the hand loop u <- u + dt (target - K(u)) over the
        # public extended curvature; the Euclidean loop also removes each step's drift of
        # the coordinate sum, the hyperbolic one does not
        surface = generate("torus_grid", 4, 4)
        weights = WeightConfig.uniform(surface, 1, 1.0)
        n, u = 16, np.random.default_rng(74).normal(0.0, 0.3, 16)
        if geometry is Geometry.EUCLIDEAN:
            target, start = np.zeros(n), ConformalState(geometry, weights.epsilon, u - u.mean())
        else:
            target, start = np.full(n, 0.1), ConformalState.from_f(geometry, weights.epsilon, u)
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, geometry, target=target, dt=0.05,
            tolerance=1e-9, trace_stride=1,
        )  # fmt: skip
        trace = run_flow(spec, surface, weights, start)
        assert trace.termination is TerminationReason.CONVERGED
        assert len(trace.rows) > 100

        state, t, correction, reference, rows = start, 0.0, 0.0, float(start.u.sum()), []
        while True:
            k = curvature(surface, weights, state, extended=True).curvature
            residual = float(np.max(np.abs(k - target)))
            calabi = 0.5 * float(np.sum((k - target) ** 2))
            rows.append((t, state.u, k, residual, float(state.u.sum()), calabi, correction))
            if residual < spec.tolerance:
                break
            dt = min(spec.dt, spec.max_time - t)
            u = state.u + dt * (target - k)
            if geometry is Geometry.EUCLIDEAN:
                drift = (float(u.sum()) - reference) / n
                u -= drift
                correction += abs(drift)
            state, t = state.with_u(u), t + dt
        assert len(trace.rows) == len(rows)
        for row, expected in zip(trace.rows, rows):
            assert row == TraceRow(*expected)
        # __eq__ returns NotImplemented for another type, so == falls back to identity
        assert (trace.rows[0] == 1) is False and trace.rows[0] != 1

    def test_one_step_state_and_pass_per_accepted_step(self, monkeypatch):
        # what the benchmark's tracer counts: run_flow calls flows.step and
        # ConformalState.with_u once per accepted step, and the metric kernel once
        # per accepted state plus once at the start.  The input is the benchmark's
        # flow_smooth workload at seed 1 (perfbench/workloads.py), 3607 steps
        surface = generate("torus_grid", 10, 10)
        weights = WeightConfig.uniform(surface, 1, 1.0)
        rng = np.random.default_rng([1, zlib.crc32(b"flow_smooth")])
        u = rng.normal(0.0, 0.3, surface.vertex_count)
        start = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u - u.mean())
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN,
            target=np.zeros(surface.vertex_count), tolerance=1e-8,
        )  # fmt: skip
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[name] += 1
                if name == "step" and result[1].status is StepStatus.OK:
                    calls["accepted"] += 1
                return result

            return wrapper

        monkeypatch.setattr(flows, "step", counted("step", flows.step))
        monkeypatch.setattr(ConformalState, "with_u", counted("with_u", ConformalState.with_u))
        monkeypatch.setattr(flows, "_metric", counted("metric", flows._metric))
        trace = run_flow(spec, surface, weights, start)
        assert trace.termination is TerminationReason.CONVERGED
        assert calls["step"] == calls["accepted"] == calls["with_u"] == 3607
        assert calls["metric"] == calls["accepted"] + 1

    def test_geometry_mismatch_rejected(self):
        surface, weights = tetra_setup()
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, np.zeros(4))
        spec = FlowSpec(FlowKind.RICCI, Geometry.HYPERBOLIC)
        with pytest.raises(BadParameterError):
            run_flow(spec, surface, weights, state)

    def test_inadmissible_target_rejected(self):
        surface, weights = tetra_setup()
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, np.zeros(4))
        spec = FlowSpec(FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.zeros(4))
        with pytest.raises(TargetInadmissibleError):
            run_flow(spec, surface, weights, state)

    @pytest.mark.parametrize("entry", ["run_flow", "solve_prescribed"])
    def test_target_resolved_once_per_call(self, entry, monkeypatch):
        # the admissibility check and the run read one resolved copy of the target
        surface, weights = torus_setup()
        u = np.random.default_rng(7).normal(0.0, 0.2, surface.vertex_count)
        state, target = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u), np.zeros(9)
        calls, resolve = [], flows.resolve_target
        monkeypatch.setattr(flows, "resolve_target", lambda *a: calls.append(a) or resolve(*a))
        if entry == "run_flow":
            spec = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=target)
            assert run_flow(spec, surface, weights, state).termination is TerminationReason.CONVERGED
        else:
            solve_prescribed(surface, weights, Geometry.EUCLIDEAN, target, initial_guess=state)
        assert len(calls) == 1


class TestGradientFlowIdentities:
    def test_modified_ricci_descends_potential(self):
        # along the flow, dH/dt = grad H . du/dt = -sum (K - Kbar)^2
        surface, weights = torus_setup()
        rng = np.random.default_rng(72)
        state = random_admissible_state(surface, weights, Geometry.EUCLIDEAN, rng)
        target = np.zeros(9)
        spec = FlowSpec(FlowKind.MODIFIED_RICCI, Geometry.EUCLIDEAN, target=target)
        velocity = vector_field(spec, surface, weights, state)

        def potential_of(u):
            st = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
            return surface_energies(surface, weights, st, target=target).potential

        grad = fd_gradient(potential_of, state.u, 1e-6)
        report = curvature(surface, weights, state)
        derivative = float(grad @ velocity)
        expected = -float(np.sum((report.curvature - target) ** 2))
        assert abs(derivative - expected) < 1e-8

    def test_modified_calabi_descends_calabi_energy(self):
        surface, weights = torus_setup()
        rng = np.random.default_rng(73)
        state = random_admissible_state(surface, weights, Geometry.EUCLIDEAN, rng)
        target = np.zeros(9)
        spec = FlowSpec(FlowKind.MODIFIED_CALABI, Geometry.EUCLIDEAN, target=target)
        velocity = vector_field(spec, surface, weights, state)

        def calabi_of(u):
            st = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
            report = curvature(surface, weights, st)
            return 0.5 * float(np.sum((report.curvature - target) ** 2))

        grad = fd_gradient(calabi_of, state.u, 1e-6)
        assert np.max(np.abs(velocity + grad)) < 1e-8

    def test_local_exponential_convergence(self):
        # log residual along the tail of a converging run is linear
        surface, weights = tetra_setup()
        rng = np.random.default_rng(74)
        u0 = rng.normal(0.0, 0.05, 4)
        u0 -= u0.mean()
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.full(4, np.pi)
        )
        trace = run_flow(
            spec, surface, weights, ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
        )
        assert trace.termination is TerminationReason.CONVERGED
        times = np.array([row.t for row in trace.rows])
        logres = np.log([row.residual for row in trace.rows])
        tail = slice(len(times) // 2, None)
        slope, intercept = np.polyfit(times[tail], logres[tail], 1)
        fitted = slope * times[tail] + intercept
        ss_res = np.sum((logres[tail] - fitted) ** 2)
        ss_tot = np.sum((logres[tail] - logres[tail].mean()) ** 2)
        assert slope < 0.0
        assert 1.0 - ss_res / ss_tot > 0.99
