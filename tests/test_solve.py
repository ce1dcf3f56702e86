"""Tests for the direct prescribed-curvature solver."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import dcflow
from dcflow import (
    BadParameterError,
    ConformalState,
    FlowKind,
    FlowSpec,
    Geometry,
    MaxIterationsError,
    NoInteriorSolutionError,
    TargetInadmissibleError,
    TerminationReason,
    WeightConfig,
    base_state,
    curvature,
    curvature_jacobian,
    generate,
    run_flow,
    solve_prescribed,
    surface_energies,
)
from dcflow import calculus as calculus_module
from dcflow import solve as solve_module

from conftest import random_admissible_state


def torus_setup():
    surface = generate("torus_grid", 3, 3)
    weights = WeightConfig.uniform(surface, 0, 1.0)
    return surface, weights


def cone_torus_setup():
    # epsilon = 1, eta = 2 puts the degeneracy walls at finite coordinates
    surface = generate("torus_grid", 3, 3)
    weights = WeightConfig.uniform(surface, 1, 2.0)
    return surface, weights


def genus2_setup(epsilon=0, eta=1.0):
    surface = generate("genus2")
    weights = WeightConfig.uniform(surface, epsilon, eta)
    return surface, weights


def degenerate_cone_state(surface, weights):
    """Two adjacent large factors push both faces of that edge past a wall."""
    i, j = surface.edges[0]
    u = np.zeros(surface.vertex_count)
    u[i] = 3.0
    u[j] = 3.0
    state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
    assert curvature(surface, weights, state, extended=True).degenerate_faces
    return state


class TestSolveBasics:
    def test_equilibrium_guess_returns_immediately(self):
        surface = generate("tetrahedron")
        weights = WeightConfig.uniform(surface, 1, 1.0)
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, np.zeros(4))
        target = curvature(surface, weights, state).curvature
        report = solve_prescribed(
            surface, weights, Geometry.EUCLIDEAN, target, initial_guess=state
        )
        assert report.iterations == 0
        assert report.residual < 1e-12
        np.testing.assert_array_equal(report.state.u, state.u)

    def test_flat_torus_from_random_guess(self):
        surface, weights = torus_setup()
        rng = np.random.default_rng(40)
        guess = ConformalState(
            Geometry.EUCLIDEAN, weights.epsilon, rng.normal(0.0, 0.4, surface.vertex_count)
        )
        report = solve_prescribed(
            surface,
            weights,
            Geometry.EUCLIDEAN,
            np.zeros(surface.vertex_count),
            initial_guess=guess,
        )
        assert report.residual < 1e-10
        # the flat solution on the uniform grid is a constant factor
        assert np.ptp(report.state.u) < 1e-9
        assert report.method == "newton"
        assert report.certificate > 1e-8

    def test_achieved_curvature_matches_target(self):
        surface, weights = genus2_setup()
        rng = np.random.default_rng(41)
        target = rng.normal(0.0, 0.2, surface.vertex_count)
        target += (-4.0 * np.pi + 2.0 - target.sum()) / surface.vertex_count
        report = solve_prescribed(surface, weights, Geometry.HYPERBOLIC, target)
        achieved = curvature(surface, weights, report.state).curvature
        assert np.max(np.abs(achieved - target)) < 1e-10

    def test_default_guess_is_base_state(self):
        surface, weights = genus2_setup()
        report = solve_prescribed(
            surface, weights, Geometry.HYPERBOLIC, np.zeros(surface.vertex_count)
        )
        assert report.residual < 1e-10
        assert report.certificate > 0.0

    def test_cusp_solution_stays_in_cone(self):
        surface, weights = genus2_setup(epsilon=1, eta=1.2)
        report = solve_prescribed(
            surface, weights, Geometry.HYPERBOLIC, np.zeros(surface.vertex_count)
        )
        assert report.residual < 1e-10
        assert np.all(report.state.u < 0.0)

    def test_report_fields(self):
        surface, weights = torus_setup()
        report = solve_prescribed(
            surface, weights, Geometry.EUCLIDEAN, np.zeros(surface.vertex_count)
        )
        assert isinstance(report.iterations, int)
        assert isinstance(report.potential_history, tuple)
        assert len(report.potential_history) == report.iterations + 1
        assert report.method in ("newton", "gradient-descent")


class TestSolveInvariance:
    def test_euclidean_translation_equivariance(self):
        surface, weights = torus_setup()
        rng = np.random.default_rng(42)
        u0 = rng.normal(0.0, 0.3, surface.vertex_count)
        shift = 0.7
        low = solve_prescribed(
            surface,
            weights,
            Geometry.EUCLIDEAN,
            np.zeros(surface.vertex_count),
            initial_guess=ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0),
        )
        high = solve_prescribed(
            surface,
            weights,
            Geometry.EUCLIDEAN,
            np.zeros(surface.vertex_count),
            initial_guess=ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0 + shift),
        )
        assert np.max(np.abs(high.state.u - (low.state.u + shift))) < 1e-9

    def test_euclidean_sum_is_pinned_to_guess(self):
        surface, weights = torus_setup()
        rng = np.random.default_rng(43)
        u0 = rng.normal(0.0, 0.3, surface.vertex_count)
        report = solve_prescribed(
            surface,
            weights,
            Geometry.EUCLIDEAN,
            np.zeros(surface.vertex_count),
            initial_guess=ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0),
        )
        assert abs(report.state.u.sum() - u0.sum()) < 1e-12

    def test_hyperbolic_rigidity_across_guesses(self):
        surface, weights = genus2_setup()
        rng = np.random.default_rng(44)
        reports = [
            solve_prescribed(
                surface,
                weights,
                Geometry.HYPERBOLIC,
                np.zeros(surface.vertex_count),
                initial_guess=ConformalState(
                    Geometry.HYPERBOLIC, weights.epsilon, rng.normal(0.0, 0.3, surface.vertex_count)
                ),
            )
            for _ in range(2)
        ]
        gap = np.max(np.abs(reports[0].state.u - reports[1].state.u))
        assert gap < 1e-8

    def test_euclidean_rigidity_on_shared_hyperplane(self):
        surface, weights = torus_setup()
        rng = np.random.default_rng(45)
        u0 = rng.normal(0.0, 0.3, surface.vertex_count)
        u1 = rng.normal(0.0, 0.3, surface.vertex_count)
        u1 += (u0.sum() - u1.sum()) / surface.vertex_count
        reports = [
            solve_prescribed(
                surface,
                weights,
                Geometry.EUCLIDEAN,
                np.zeros(surface.vertex_count),
                initial_guess=ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u),
            )
            for u in (u0, u1)
        ]
        assert np.max(np.abs(reports[0].state.u - reports[1].state.u)) < 1e-8

    def test_deterministic_reruns(self):
        surface, weights = genus2_setup()
        rng = np.random.default_rng(46)
        guess = ConformalState(
            Geometry.HYPERBOLIC, weights.epsilon, rng.normal(0.0, 0.3, surface.vertex_count)
        )
        a = solve_prescribed(
            surface, weights, Geometry.HYPERBOLIC, np.zeros(surface.vertex_count), initial_guess=guess
        )
        b = solve_prescribed(
            surface, weights, Geometry.HYPERBOLIC, np.zeros(surface.vertex_count), initial_guess=guess
        )
        np.testing.assert_array_equal(a.state.u, b.state.u)
        assert a.potential_history == b.potential_history


class TestSolveDegenerate:
    def test_recovers_from_degenerate_guess(self):
        surface, weights = cone_torus_setup()
        guess = degenerate_cone_state(surface, weights)
        report = solve_prescribed(
            surface,
            weights,
            Geometry.EUCLIDEAN,
            np.zeros(surface.vertex_count),
            initial_guess=guess,
        )
        assert report.residual < 1e-10
        assert not curvature(surface, weights, report.state, extended=True).degenerate_faces
        assert np.ptp(report.state.u) < 1e-9

    def test_generalized_target_raises_no_interior_solution(self):
        surface, weights = cone_torus_setup()
        boundary = degenerate_cone_state(surface, weights)
        target = curvature(surface, weights, boundary, extended=True).curvature
        assert abs(target.sum()) < 1e-10
        assert np.all(target < 2.0 * np.pi)
        guess = ConformalState(
            Geometry.EUCLIDEAN,
            weights.epsilon,
            np.full(surface.vertex_count, boundary.u.mean()),
        )
        with pytest.raises(NoInteriorSolutionError):
            solve_prescribed(
                surface, weights, Geometry.EUCLIDEAN, target, initial_guess=guess
            )

    def test_potential_history_decreases(self):
        surface, weights = cone_torus_setup()
        guess = degenerate_cone_state(surface, weights)
        report = solve_prescribed(
            surface,
            weights,
            Geometry.EUCLIDEAN,
            np.zeros(surface.vertex_count),
            initial_guess=guess,
        )
        history = [v for v in report.potential_history if np.isfinite(v)]
        assert len(history) == len(report.potential_history)
        assert all(b <= a + 1e-8 for a, b in zip(history, history[1:]))


class TestSolveErrors:
    def test_wrong_euclidean_sum_rejected(self):
        surface, weights = torus_setup()
        with pytest.raises(TargetInadmissibleError):
            solve_prescribed(
                surface, weights, Geometry.EUCLIDEAN, np.full(surface.vertex_count, 0.1)
            )

    def test_pointwise_bound_rejected(self):
        surface, weights = torus_setup()
        target = np.zeros(surface.vertex_count)
        target[0] = 7.0
        target[1:] = -7.0 / (surface.vertex_count - 1)
        with pytest.raises(TargetInadmissibleError):
            solve_prescribed(surface, weights, Geometry.EUCLIDEAN, target)

    def test_pointwise_lower_bound_rejected(self):
        # the target that once ran out of iterations: K_0 = -13 < 2 pi - 6 pi
        surface = generate("torus_grid", 6, 6)
        weights = WeightConfig.uniform(surface, 1, 1.0)
        target = np.full(36, 13.0 / 35.0)
        target[0] = -13.0
        with pytest.raises(TargetInadmissibleError, match=r"vertex 0 .* = -12\.5664; got -13"):
            solve_prescribed(surface, weights, Geometry.EUCLIDEAN, target)

    def test_hyperbolic_sum_bound_rejected(self):
        surface, weights = genus2_setup()
        with pytest.raises(TargetInadmissibleError):
            solve_prescribed(
                surface, weights, Geometry.HYPERBOLIC, np.full(surface.vertex_count, -2.0)
            )

    def test_bad_target_shape(self):
        surface, weights = torus_setup()
        with pytest.raises(BadParameterError):
            solve_prescribed(surface, weights, Geometry.EUCLIDEAN, np.zeros(3))

    def test_nonfinite_target(self):
        surface, weights = torus_setup()
        target = np.zeros(surface.vertex_count)
        target[0] = np.nan
        with pytest.raises(BadParameterError):
            solve_prescribed(surface, weights, Geometry.EUCLIDEAN, target)

    def test_guess_geometry_mismatch(self):
        surface, weights = torus_setup()
        guess = ConformalState.from_f(
            Geometry.HYPERBOLIC, weights.epsilon, np.zeros(surface.vertex_count)
        )
        with pytest.raises(BadParameterError):
            solve_prescribed(
                surface,
                weights,
                Geometry.EUCLIDEAN,
                np.zeros(surface.vertex_count),
                initial_guess=guess,
            )

    @pytest.mark.parametrize(
        "limits",
        [{"max_iterations": -1}, {"tolerance": 0.0}, {"tolerance": np.nan}, {"tolerance": -1e-9}],
        ids=["max-iterations-negative", "tolerance-zero", "tolerance-nan", "tolerance-negative"],
    )
    def test_bad_limits_rejected(self, limits):
        # checked before any iteration: a zero tolerance must not read as a
        # stalled line search, nor a negative budget as a crash
        surface, weights = torus_setup()
        guess = ConformalState(
            Geometry.EUCLIDEAN, weights.epsilon, np.linspace(-0.2, 0.2, surface.vertex_count)
        )
        target = np.zeros(surface.vertex_count)
        with pytest.raises(BadParameterError):
            solve_prescribed(
                surface, weights, Geometry.EUCLIDEAN, target, initial_guess=guess, **limits
            )

    def test_max_iterations_exhausted(self):
        surface, weights = torus_setup()
        rng = np.random.default_rng(47)
        guess = ConformalState(
            Geometry.EUCLIDEAN, weights.epsilon, rng.normal(0.0, 0.4, surface.vertex_count)
        )
        with pytest.raises(MaxIterationsError):
            solve_prescribed(
                surface,
                weights,
                Geometry.EUCLIDEAN,
                np.zeros(surface.vertex_count),
                initial_guess=guess,
                max_iterations=1,
            )


class TestSolveFlowAgreement:
    def test_solver_matches_extended_flow_limit(self):
        surface = generate("tetrahedron")
        weights = WeightConfig.uniform(surface, 1, 1.0)
        target = np.full(surface.vertex_count, np.pi)
        rng = np.random.default_rng(48)
        guess = ConformalState(
            Geometry.EUCLIDEAN, weights.epsilon, rng.normal(0.0, 0.3, surface.vertex_count)
        )
        report = solve_prescribed(
            surface, weights, Geometry.EUCLIDEAN, target, initial_guess=guess
        )
        spec = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=target)
        trace = run_flow(spec, surface, weights, guess)
        assert trace.termination is TerminationReason.CONVERGED
        u_flow = trace.final_u
        u_solve = report.state.u
        aligned = (u_solve - u_solve.mean()) - (u_flow - u_flow.mean())
        assert np.max(np.abs(aligned)) < 1e-7

    def test_solver_matches_hyperbolic_flow_limit(self):
        surface, weights = genus2_setup()
        target = np.zeros(surface.vertex_count)
        rng = np.random.default_rng(49)
        guess = ConformalState(
            Geometry.HYPERBOLIC, weights.epsilon, rng.normal(0.0, 0.2, surface.vertex_count)
        )
        report = solve_prescribed(
            surface, weights, Geometry.HYPERBOLIC, target, initial_guess=guess
        )
        spec = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.HYPERBOLIC, target=target)
        trace = run_flow(spec, surface, weights, guess)
        assert trace.termination is TerminationReason.CONVERGED
        assert np.max(np.abs(report.state.u - trace.final_u)) < 1e-7


def dense_certificate(geometry, matrix):
    """Reference certificate: the dense spectrum, projected onto sum zero."""
    dense = matrix.toarray()
    n = dense.shape[0]
    if geometry is Geometry.EUCLIDEAN:
        projector = np.eye(n) - np.full((n, n), 1.0 / n)
        return float(np.linalg.eigvalsh(projector @ dense @ projector)[1])
    return float(np.linalg.eigvalsh(dense)[0])


def random_euclidean_guess(surface, weights, seed, scale=0.3):
    u = np.random.default_rng(seed).normal(0.0, scale, surface.vertex_count)
    return ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)


def tetrahedron_case():
    surface = generate("tetrahedron")  # n = 4: the two wanted eigenvalues of four
    weights = WeightConfig.uniform(surface, 1, 1.0)
    guess = random_euclidean_guess(surface, weights, 48)
    return surface, weights, Geometry.EUCLIDEAN, np.full(4, np.pi), guess


def torus_6x6_case():
    surface = generate("torus_grid", 6, 6)
    weights = WeightConfig.uniform(surface, 1, 1.0)
    guess = random_euclidean_guess(surface, weights, 50)
    return surface, weights, Geometry.EUCLIDEAN, np.zeros(surface.vertex_count), guess


def degenerate_cone_case():
    surface, weights = cone_torus_setup()
    guess = degenerate_cone_state(surface, weights)
    return surface, weights, Geometry.EUCLIDEAN, np.zeros(surface.vertex_count), guess


def genus2_case():
    surface, weights = genus2_setup()
    return surface, weights, Geometry.HYPERBOLIC, np.zeros(surface.vertex_count), None


def flat_torus_20x20_case():
    # the flat start already solves K = 0; lambda_1 has multiplicity 6 there
    surface = generate("torus_grid", 20, 20)
    weights = WeightConfig.uniform(surface, 1, 1.0)
    return surface, weights, Geometry.EUCLIDEAN, np.zeros(surface.vertex_count), None


def hyperbolic_torus_10x10_case():
    surface = generate("torus_grid", 10, 10)
    weights = WeightConfig.uniform(surface, 1, 1.0)
    rng = np.random.default_rng(53)
    state = random_admissible_state(surface, weights, Geometry.HYPERBOLIC, rng, scale=0.3)
    target = curvature(surface, weights, state).curvature  # admissible: it is attained
    return surface, weights, Geometry.HYPERBOLIC, target, None


class TestSparseCertificate:
    @pytest.mark.parametrize(
        "case",
        [
            tetrahedron_case,
            torus_6x6_case,
            genus2_case,
            flat_torus_20x20_case,
            hyperbolic_torus_10x10_case,
        ],
        ids=lambda c: c.__name__,
    )
    def test_matches_dense_projected_spectrum(self, case):
        surface, weights, geometry, target, guess = case()
        report = solve_prescribed(surface, weights, geometry, target, initial_guess=guess)
        jacobian = curvature_jacobian(surface, weights, report.state)
        reference = dense_certificate(geometry, jacobian)
        assert reference > 0.0
        assert abs(report.certificate - reference) <= 1e-9 * reference
        # a fixed start vector: the same input gives the same bits
        again = solve_module._restricted_smallest_eigenvalue(geometry, jacobian)
        assert again == report.certificate

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_exactly_singular_factor_gives_zero(self, geometry):
        # an integer-weighted graph Laplacian with two components: even with
        # vertex 0 pinned, the second component's kernel is an exact zero pivot
        ends = np.array([[0, 1], [1, 2], [2, 3], [0, 2], [4, 5], [5, 6], [4, 6]])
        weight = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 1.0, 3.0])
        adjacency = sp.coo_matrix((weight, (ends[:, 0], ends[:, 1])), shape=(7, 7))
        adjacency = adjacency + adjacency.T
        laplacian = (sp.diags(np.ravel(adjacency.sum(axis=1))) - adjacency).tocsr()
        certificate = solve_module._restricted_smallest_eigenvalue(geometry, laplacian)
        assert certificate <= 1e-12

    def test_no_convergence_is_a_named_error(self, monkeypatch, tmp_path, capsys):
        import scipy.sparse.linalg as sparse_linalg

        def stalled(matrix, k, **kwargs):
            raise sparse_linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence (301 iterations, 0/1 eigenvectors converged)",
                np.zeros(0), np.zeros((matrix.shape[0], 0)),
            )  # fmt: skip

        monkeypatch.setattr(sparse_linalg, "eigsh", stalled)
        surface, weights, geometry, target, guess = torus_6x6_case()
        with pytest.raises(MaxIterationsError, match="the convexity certificate did not converge"):
            solve_prescribed(surface, weights, geometry, target, initial_guess=guess)
        mesh = str(tmp_path / "t.json")
        assert dcflow.cli.main(["gen", "torus_grid", "3", "3", "--out", mesh]) == 0
        capsys.readouterr()
        assert dcflow.cli.main(["solve", mesh, "--target", "const:0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the convexity certificate did not converge: ARPACK error")
        assert err.count("\n") == 1


class TestSparseNewtonStep:
    @pytest.mark.parametrize("scale", [0.2, 1e-4])
    def test_step_meets_its_forcing(self, scale):
        # CG stops at ||H s + g|| <= FORCING min(1, ||g||) ||g||: loose far from a
        # solution, quadratically tight near one
        surface, weights = torus_setup()
        state = random_euclidean_guess(surface, weights, 51, scale=scale)
        gradient = curvature(surface, weights, state).curvature  # sums to zero on a torus
        hessian = curvature_jacobian(surface, weights, state, extended=True)
        step = solve_module._newton_direction(Geometry.EUCLIDEAN, hessian, gradient)
        norm = np.linalg.norm(gradient - gradient.mean())
        assert abs(step.sum()) < 1e-12
        assert gradient @ step < 0.0
        forcing = solve_module.FORCING * min(1.0, norm)
        assert np.linalg.norm(hessian @ step + gradient) <= forcing * norm * (1.0 + 1e-9)
        exact = np.linalg.lstsq(hessian.toarray(), -gradient, rcond=None)[0]
        exact -= exact.mean()
        assert np.linalg.norm(step - exact) <= 10.0 * forcing * np.linalg.norm(exact)

    def test_floor_stops_at_the_solver_tolerance(self):
        surface, weights = torus_setup()
        state = random_euclidean_guess(surface, weights, 51, scale=0.2)
        gradient = curvature(surface, weights, state).curvature
        hessian = curvature_jacobian(surface, weights, state, extended=True)
        step = solve_module._newton_direction(Geometry.EUCLIDEAN, hessian, gradient, floor=0.5)
        residual = np.linalg.norm(hessian @ step + gradient)
        assert solve_module.FORCING * np.linalg.norm(gradient) < residual <= 0.5

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_nan_block_falls_back(self, geometry):
        surface, weights = torus_setup()
        state = random_euclidean_guess(surface, weights, 52, scale=0.2)
        gradient = curvature(surface, weights, state).curvature
        hessian = curvature_jacobian(surface, weights, state, extended=True).tolil()
        face = next(f for f in surface.faces if 0 not in f)  # survives the pin
        for r in face:
            for c in face:
                hessian[r, c] = np.nan
        assert solve_module._newton_direction(geometry, hessian.tocsr(), gradient) is None

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_two_dimensional_kernel_still_steps(self, geometry):
        # two disjoint triangle Laplacians: PSD with the two indicator kernels; the
        # gradient lies in the range, where CG from 0 finds the exact solution
        block = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        matrix = sp.block_diag([block, block], format="csr")
        gradient = np.array([1.0, -1.0, 0.0, 0.5, 0.0, -0.5])
        step = solve_module._newton_direction(geometry, matrix, gradient)
        assert np.max(np.abs(matrix @ step + gradient)) < 1e-15
        assert gradient @ step < 0.0
        assert abs(step.sum()) < 1e-15

    def test_negative_curvature_falls_back(self):
        # an indefinite matrix: CG meets p.Hp < 0 and gives no step
        matrix = sp.diags([1.0, -2.0]).tocsr()
        assert solve_module._newton_direction(Geometry.HYPERBOLIC, matrix, np.ones(2)) is None

    def test_solve_steps_past_a_nan_hessian(self, monkeypatch):
        original = solve_module.curvature_jacobian
        corrupted = []

        def first_hessian_nan(surface, weights, state, extended=False):
            matrix = original(surface, weights, state, extended=extended)
            if extended and not corrupted:
                corrupted.append(True)
                matrix = matrix.tolil()
                matrix[1, 1] = np.nan
                matrix = matrix.tocsr()
            return matrix

        monkeypatch.setattr(solve_module, "curvature_jacobian", first_hessian_nan)
        surface, weights = torus_setup()
        report = solve_prescribed(
            surface,
            weights,
            Geometry.EUCLIDEAN,
            np.zeros(surface.vertex_count),
            initial_guess=random_euclidean_guess(surface, weights, 53, scale=0.2),
        )
        assert corrupted
        assert report.residual < 1e-10
        assert np.all(np.isfinite(report.potential_history))


class TestNewtonCG:
    @pytest.mark.parametrize(
        "case",
        [torus_6x6_case, degenerate_cone_case, genus2_case, hyperbolic_torus_10x10_case],
        ids=lambda c: c.__name__,
    )
    def test_one_factorization_per_solve(self, case, monkeypatch):
        # the Newton steps run CG; only the convexity certificate factors H
        calls = []

        def counting(matrix, pinned):
            calls.append(matrix.shape)
            return factor(matrix, pinned)

        factor = solve_module._factor
        monkeypatch.setattr(solve_module, "_factor", counting)
        surface, weights, geometry, target, guess = case()
        report = solve_prescribed(surface, weights, geometry, target, initial_guess=guess)
        assert report.iterations > 1
        assert report.residual < 1e-10
        assert report.method == "newton"
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "case", [torus_6x6_case, hyperbolic_torus_10x10_case], ids=lambda c: c.__name__
    )
    def test_identical_solves_are_bit_identical(self, case):
        surface, weights, geometry, target, guess = case()
        if guess is None:
            guess = random_admissible_state(
                surface, weights, geometry, np.random.default_rng(54), scale=0.3
            )
        reports = [
            solve_prescribed(surface, weights, geometry, target, initial_guess=guess)
            for _ in range(2)
        ]
        assert reports[0].iterations > 1
        np.testing.assert_array_equal(reports[0].state.u, reports[1].state.u)
        assert reports[0].certificate == reports[1].certificate


class TestPotentialHistory:
    @pytest.mark.parametrize(
        "case", [torus_6x6_case, degenerate_cone_case], ids=lambda c: c.__name__
    )
    def test_running_value_matches_from_base(self, case):
        surface, weights, _, target, guess = case()
        base = base_state(Geometry.EUCLIDEAN, weights.epsilon)
        report = solve_prescribed(
            surface, weights, Geometry.EUCLIDEAN, target, initial_guess=guess
        )
        assert report.iterations > 1
        first = surface_energies(surface, weights, guess, target=target, base=base)
        last = surface_energies(surface, weights, report.state, target=target, base=base)
        assert report.potential_history[0] == first.potential
        assert abs(report.potential_history[-1] - last.potential) < 1e-9

    @pytest.mark.parametrize(
        "case", [torus_6x6_case, degenerate_cone_case], ids=lambda c: c.__name__
    )
    def test_solve_integrates_nothing_until_read(self, case, monkeypatch):
        # the line search needs curvature only; the potential is integrated
        # when the history is first read
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the solve loop ran the energy quadrature")

        surface, weights, _, target, guess = case()
        with monkeypatch.context() as patched:
            patched.setattr(calculus_module, "_integrate_face_energies", no_quadrature)
            report = solve_prescribed(
                surface, weights, Geometry.EUCLIDEAN, target, initial_guess=guess
            )
        assert report.residual < 1e-10
        base = base_state(Geometry.EUCLIDEAN, weights.epsilon)
        first = surface_energies(surface, weights, guess, target=target, base=base)
        last = surface_energies(surface, weights, report.state, target=target, base=base)
        history = report.potential_history
        assert len(history) == report.iterations + 1
        assert history[0] == first.potential
        assert abs(history[-1] - last.potential) < 1e-9
        assert all(b <= a + 1e-8 for a, b in zip(history, history[1:]))


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.sparse and the solver's sparse linear algebra are imported
    # where they are used, so every CLI start-up skips them
    package_root = str(Path(dcflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    code = (
        "import sys, dcflow; "
        "print([m for m in ('scipy.linalg', 'scipy.sparse', 'scipy.sparse.linalg') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
