"""Acceptance checks: one test per headline property, at desk scale.

Each test prints a single PASS line with its measured margin and
asserts its stated runtime budget, so a verbose run doubles as an
acceptance report.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from dcflow import (
    ConformalState,
    FlowKind,
    FlowSpec,
    Geometry,
    TerminationReason,
    WeightConfig,
    coshl_bounds,
    curvature,
    curvature_jacobian,
    edge_length,
    extended_triangle_angles,
    gauss_bonnet_residual,
    generate,
    run_flow,
    solve_prescribed,
    surface_energies,
    triangle_energy,
    validate_weights,
)
from dcflow.geometry import _angles, _degeneracy, _kernel_weights, _shape

from conftest import fd_gradient, fd_jacobian, random_admissible_state

ACCEPTANCE_MESHES = [
    ("tetrahedron", ()),
    ("octahedron", ()),
    ("torus_grid", (3, 3)),
    ("genus2", ()),
]


def random_weights(surface, rng):
    """Random epsilon/eta satisfying both weight conditions (all eta > 0)."""
    weights = WeightConfig(
        rng.integers(0, 2, surface.vertex_count),
        rng.uniform(0.5, 2.0, surface.edge_count),
    )
    assert validate_weights(surface, weights).ok
    return weights


def report(name: str, elapsed: float, budget: float | None, detail: str):
    line = f"criterion {name}: PASS ({detail}"
    if budget is not None:
        line += f"; {elapsed:.1f}s of {budget:.0f}s budget"
    print(line + ")")


def tail_fit(trace):
    """Slope and R^2 of log-residual over the second half of a trace."""
    rows = [row for row in trace.rows if row.residual > 0.0]
    times = np.array([row.t for row in rows])
    logres = np.log([row.residual for row in rows])
    tail = slice(len(times) // 2, None)
    assert len(times[tail]) >= 5
    slope, intercept = np.polyfit(times[tail], logres[tail], 1)
    fitted = slope * times[tail] + intercept
    ss_res = np.sum((logres[tail] - fitted) ** 2)
    ss_tot = np.sum((logres[tail] - logres[tail].mean()) ** 2)
    return slope, 1.0 - ss_res / ss_tot


def run_extended_and_check(surface, weights, geometry, target, start, equilibrium=None):
    """One extended-flow run with every criterion-4 assertion applied."""
    spec = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, geometry, target=target)
    trace = run_flow(spec, surface, weights, start)
    assert trace.termination is TerminationReason.CONVERGED
    rows = trace.rows
    assert rows[-1].residual < 1e-10
    energies = trace.energies
    assert all(b <= a + 1e-8 for a, b in zip(energies, energies[1:]))
    sums = np.array([row.sum_u for row in rows])
    drift = float(np.max(np.abs(sums - float(start.u.sum()))))
    assert drift < 1e-9
    if equilibrium is not None:
        gap = float(np.max(np.abs(trace.final_u - equilibrium)))
        assert gap < 1e-7
    return trace


class TestAcceptance:
    def test_criterion_1_gauss_bonnet_exactness(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for kind, dims in ACCEPTANCE_MESHES:
            surface = generate(kind, *dims)
            for geometry in (Geometry.EUCLIDEAN, Geometry.HYPERBOLIC):
                weights = random_weights(surface, rng)
                for _ in range(100):
                    state = random_admissible_state(surface, weights, geometry, rng)
                    rep = curvature(surface, weights, state)
                    residual = abs(gauss_bonnet_residual(rep, surface.euler_characteristic))
                    worst = max(worst, residual)
                    assert residual < 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        report("1 Gauss-Bonnet exactness", elapsed, 5.0,
               f"800 states, worst |residual| {worst:.2e} < 1e-10")

    def test_criterion_2_jacobian_structure(self):
        start = time.perf_counter()
        rng = np.random.default_rng(102)
        worst_sym = worst_kernel = worst_fd = 0.0
        for kind, dims in ACCEPTANCE_MESHES:
            surface = generate(kind, *dims)
            n = surface.vertex_count
            projector = np.eye(n) - np.full((n, n), 1.0 / n)
            for geometry in (Geometry.EUCLIDEAN, Geometry.HYPERBOLIC):
                weights = random_weights(surface, rng)
                for _ in range(100):
                    state = random_admissible_state(surface, weights, geometry, rng)
                    dense = curvature_jacobian(surface, weights, state).toarray()
                    sym = float(np.max(np.abs(dense - dense.T)))
                    worst_sym = max(worst_sym, sym)
                    assert sym < 1e-8
                    if geometry is Geometry.EUCLIDEAN:
                        kernel = float(np.max(np.abs(dense @ np.ones(n))))
                        worst_kernel = max(worst_kernel, kernel)
                        assert kernel < 1e-9
                        restricted = np.linalg.eigvalsh(projector @ dense @ projector)
                        assert restricted[1] > 1e-10
                    else:
                        np.linalg.cholesky(dense)  # raises if not positive definite

                    def strict_curvature(u):
                        return curvature(surface, weights, state.with_u(u)).curvature

                    fd = fd_jacobian(strict_curvature, state.u)
                    gap = float(np.max(np.abs(fd - dense)))
                    worst_fd = max(worst_fd, gap)
                    assert gap < 1e-5
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        report("2 Jacobian structure", elapsed, 30.0,
               f"800 states; symmetry {worst_sym:.1e}, kernel {worst_kernel:.1e}, "
               f"FD gap {worst_fd:.1e}")

    def test_criterion_3_energy_gradient(self):
        start = time.perf_counter()
        rng = np.random.default_rng(103)
        setups = [
            ("tetrahedron", (), 1, 1.0, Geometry.EUCLIDEAN),
            ("torus_grid", (3, 3), 0, 1.0, Geometry.EUCLIDEAN),
            ("genus2", (), 0, 1.0, Geometry.HYPERBOLIC),
            ("genus2", (), 1, 1.2, Geometry.HYPERBOLIC),
        ]
        worst_grad = 0.0
        for kind, dims, eps, eta, geometry in setups:
            surface = generate(kind, *dims)
            weights = WeightConfig.uniform(surface, eps, eta)
            for _ in range(5):
                state = random_admissible_state(surface, weights, geometry, rng)

                def energy_of(u):
                    fixed = state.with_u(u)
                    return surface_energies(surface, weights, fixed, extended=True).energy

                grad = fd_gradient(energy_of, state.u)
                k = curvature(surface, weights, state).curvature
                gap = float(np.max(np.abs(grad - k)))
                worst_grad = max(worst_grad, gap)
                assert gap < 1e-5

        # path independence through a wall: two-leg integral equals direct
        worst_path = 0.0
        eps3 = (1, 1, 1)
        eta3 = (2.0, 2.0, 2.0)
        for geometry in (Geometry.EUCLIDEAN, Geometry.HYPERBOLIC):
            for _ in range(10):
                sign = -1.0 if geometry is Geometry.HYPERBOLIC else 1.0
                u0 = sign * rng.uniform(0.1, 0.4, 3)
                u1 = u0 + rng.normal(0.0, 0.5, 3)
                u1[0] += sign * 3.0  # push one coordinate far so walls can appear
                mid = 0.5 * (u0 + u1) + rng.normal(0.0, 0.1, 3)
                if geometry is Geometry.HYPERBOLIC:
                    u1 = np.minimum(u1, -1e-3)
                    mid = np.minimum(mid, -1e-3)
                direct = triangle_energy(
                    geometry, eps3, eta3, u1, base_triple=u0, extended=True
                )
                legs = triangle_energy(
                    geometry, eps3, eta3, mid, base_triple=u0, extended=True
                ) + triangle_energy(geometry, eps3, eta3, u1, base_triple=mid, extended=True)
                worst_path = max(worst_path, abs(direct - legs))
                assert abs(direct - legs) < 1e-9

        # translation identities (Euclidean)
        t = 0.37
        u = rng.normal(0.0, 0.5, 3)
        face_shift = triangle_energy(
            Geometry.EUCLIDEAN, eps3, eta3, u + t, base_triple=u, extended=True
        )
        assert abs(face_shift - t * np.pi) < 1e-9
        worst_total = 0.0
        for kind, dims in [("tetrahedron", ()), ("torus_grid", (3, 3)), ("genus2", ())]:
            surface = generate(kind, *dims)
            weights = WeightConfig.uniform(surface, 0, 1.0)
            state = random_admissible_state(surface, weights, Geometry.EUCLIDEAN, rng)
            shifted = state.with_u(state.u + t)
            e0 = surface_energies(surface, weights, state, extended=True).energy
            e1 = surface_energies(surface, weights, shifted, extended=True).energy
            expected = 2.0 * t * np.pi * surface.euler_characteristic
            worst_total = max(worst_total, abs(e1 - e0 - expected))
            assert abs(e1 - e0 - expected) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        report("3 energy gradient", elapsed, 30.0,
               f"20 FD states gap {worst_grad:.1e}; path independence {worst_path:.1e}; "
               f"translations {worst_total:.1e}")

    def test_criterion_4_extended_flow_convergence(self):
        start = time.perf_counter()
        rng = np.random.default_rng(104)
        worst_slope, worst_r2 = 0.0, 1.0

        setups = [
            ("tetrahedron", (), 1, 1.0, np.pi),
            ("torus_grid", (3, 3), 0, 1.0, 0.0),
        ]
        for kind, dims, eps, eta, kbar in setups:
            surface = generate(kind, *dims)
            n = surface.vertex_count
            weights = WeightConfig.uniform(surface, eps, eta)
            target = np.full(n, kbar)
            for _ in range(20):
                u0 = rng.normal(0.0, 1.0, n)
                u0 *= rng.uniform(0.1, 0.5) / np.linalg.norm(u0)
                startstate = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
                trace = run_extended_and_check(
                    surface, weights, Geometry.EUCLIDEAN, target, startstate,
                    equilibrium=np.full(n, u0.mean()),
                )
                slope, r2 = tail_fit(trace)
                assert slope < 0.0
                assert r2 > 0.99
                worst_slope = min(worst_slope, slope)
                worst_r2 = min(worst_r2, r2)

        # the cusp torus admits genuinely degenerate starts
        surface = generate("torus_grid", 3, 3)
        n = surface.vertex_count
        weights = WeightConfig.uniform(surface, 0, 1.0)
        u0 = np.zeros(n)
        u0[4] = -4.0
        u0 -= u0.mean()
        degenerate_start = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
        assert curvature(surface, weights, degenerate_start, extended=True).degenerate_faces
        run_extended_and_check(
            surface, weights, Geometry.EUCLIDEAN, np.zeros(n), degenerate_start,
            equilibrium=np.full(n, u0.mean()),
        )

        # every factor assignment is admissible on the eps=1, eta=1 tetrahedron
        # (margins are 2 e^{f_c} > 0), so its stress case is a large-norm start
        surface = generate("tetrahedron")
        weights = WeightConfig.uniform(surface, 1, 1.0)
        u0 = np.array([3.0, -1.5, 0.5, -2.0])
        big_start = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0)
        run_extended_and_check(
            surface, weights, Geometry.EUCLIDEAN, np.full(4, np.pi), big_start,
            equilibrium=np.full(4, u0.mean()),
        )

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        report("4 extended flow convergence", elapsed, 60.0,
               f"42 runs converged; steepest tail slope {worst_slope:.2f}, "
               f"min R^2 {worst_r2:.4f}")

    def test_criterion_5_hyperbolic_convergence(self):
        start = time.perf_counter()
        rng = np.random.default_rng(105)
        surface = generate("genus2")
        n = surface.vertex_count
        weights = WeightConfig.uniform(surface, 0, 1.0)
        target = np.zeros(n)
        solved = solve_prescribed(surface, weights, Geometry.HYPERBOLIC, target)
        assert solved.residual < 1e-10
        worst = 0.0
        for _ in range(5):
            u0 = rng.normal(0.0, 0.2, n)
            spec = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.HYPERBOLIC, target=target)
            trace = run_flow(
                spec, surface, weights, ConformalState(Geometry.HYPERBOLIC, weights.epsilon, u0)
            )
            assert trace.termination is TerminationReason.CONVERGED
            gap = float(np.max(np.abs(trace.final_u - solved.state.u)))
            worst = max(worst, gap)
            assert gap < 1e-7
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        report("5 hyperbolic convergence", elapsed, 120.0,
               f"solver residual {solved.residual:.1e}; 5 flows within {worst:.1e} of solution")

    def test_criterion_6_calabi_local_stability(self):
        start = time.perf_counter()
        rng = np.random.default_rng(106)
        setups = [
            ("tetrahedron", (), 1, 1.0, FlowKind.MODIFIED_CALABI),
            ("torus_grid", (3, 3), 0, 1.0, FlowKind.CALABI),
        ]
        runs = 0
        for kind, dims, eps, eta, flow_kind in setups:
            surface = generate(kind, *dims)
            n = surface.vertex_count
            weights = WeightConfig.uniform(surface, eps, eta)
            for _ in range(3):
                u0 = rng.normal(0.0, 1.0, n)
                u0 *= 0.04 / np.linalg.norm(u0)  # inside the stability neighborhood
                spec = FlowSpec(flow_kind, Geometry.EUCLIDEAN)
                trace = run_flow(
                    spec, surface, weights,
                    ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0),
                )
                assert trace.termination is TerminationReason.CONVERGED
                assert trace.rows[-1].residual < 1e-10
                values = [row.calabi for row in trace.rows]
                assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
                runs += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        report("6 Calabi local stability", elapsed, 30.0,
               f"{runs} perturbed runs converged with monotone Calabi energy")

    def test_criterion_7_uniqueness_and_rigidity(self):
        start = time.perf_counter()
        rng = np.random.default_rng(107)

        # bitwise determinism of a full flow
        surface = generate("torus_grid", 3, 3)
        n = surface.vertex_count
        weights = WeightConfig.uniform(surface, 0, 1.0)
        u0 = rng.normal(0.0, 0.3, n)
        spec = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=np.zeros(n))
        first = run_flow(spec, surface, weights, ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0))
        second = run_flow(spec, surface, weights, ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0))
        assert len(first.rows) == len(second.rows)
        for a, b in zip(first.rows, second.rows):
            np.testing.assert_array_equal(a.u, b.u)

        # integrator-independence of the limit: RK4 vs fine Euler
        tetra = generate("tetrahedron")
        tw = WeightConfig.uniform(tetra, 1, 1.0)
        v0 = ConformalState(Geometry.EUCLIDEAN, tw.epsilon, rng.normal(0.0, 0.3, 4))
        target = np.full(4, np.pi)
        horizon = 2.0
        coarse = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=target,
            integrator="rk4", dt=1e-2, max_time=horizon, tolerance=1e-14,
            trace_stride=1_000_000,
        )
        fine = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, target=target,
            integrator="euler", dt=1e-2 / 256.0, max_time=horizon, tolerance=1e-14,
            trace_stride=1_000_000,
        )
        gap_rk = float(np.max(np.abs(
            run_flow(coarse, tetra, tw, v0).final_u - run_flow(fine, tetra, tw, v0).final_u
        )))
        assert gap_rk < 1e-6

        # solver rigidity under guess changes
        guesses = [
            ConformalState(Geometry.EUCLIDEAN, weights.epsilon, rng.normal(0.0, 0.3, n))
            for _ in range(2)
        ]
        reports = [
            solve_prescribed(surface, weights, Geometry.EUCLIDEAN, np.zeros(n), initial_guess=g)
            for g in guesses
        ]
        projected = [r.state.u - r.state.u.mean() for r in reports]
        gap_euc = float(np.max(np.abs(projected[0] - projected[1])))
        assert gap_euc < 1e-8
        g2 = generate("genus2")
        gw = WeightConfig.uniform(g2, 0, 1.0)
        hyp = [
            solve_prescribed(
                g2, gw, Geometry.HYPERBOLIC, np.zeros(g2.vertex_count),
                initial_guess=ConformalState(
                    Geometry.HYPERBOLIC, gw.epsilon, rng.normal(0.0, 0.3, g2.vertex_count)
                ),
            )
            for _ in range(2)
        ]
        gap_hyp = float(np.max(np.abs(hyp[0].state.u - hyp[1].state.u)))
        assert gap_hyp < 1e-8

        elapsed = time.perf_counter() - start
        report("7 uniqueness and rigidity", elapsed, None,
               f"bitwise reruns; RK4 vs fine Euler {gap_rk:.1e}; "
               f"solver gaps {gap_euc:.1e} (E) / {gap_hyp:.1e} (H)")

    def test_criterion_8_hyperbolic_inequalities(self):
        start = time.perf_counter()
        rng = np.random.default_rng(108)
        min_low = np.inf
        min_high = np.inf
        for _ in range(1000):
            eps_j = int(rng.integers(0, 2))
            eta = float(rng.uniform(0.05, 3.0))
            fi, fj = rng.uniform(-2.0, 2.0, 2)
            si, sj = np.exp(fi), np.exp(fj)
            ci = float(np.hypot(1.0, si))
            cj = float(np.hypot(1.0, sj)) if eps_j else 1.0
            coshl = ci * cj + eta * si * sj
            base = ci * cj + si * sj
            lam, mu = coshl_bounds(eps_j, eta)
            min_low = min(min_low, coshl - lam * base)
            min_high = min(min_high, mu * base - coshl)
            assert lam * base <= coshl <= mu * base

        worst_angle = 0.0
        for _ in range(1000):
            eta3 = rng.uniform(0.5, 2.0, 3)
            f = np.array([10.0 + rng.uniform(0.0, 3.0), *rng.uniform(-1.0, 1.0, 2)])
            a = np.empty(3)
            for c in range(3):
                p, q = (c + 1) % 3, (c + 2) % 3
                a[c] = edge_length(Geometry.HYPERBOLIC, 1, 1, eta3[c], f[p], f[q])
            theta = extended_triangle_angles(Geometry.HYPERBOLIC, a[2], a[1], a[0])
            worst_angle = max(worst_angle, theta[0])
            assert theta[0] < 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        report("8 hyperbolic inequalities", elapsed, 5.0,
               f"1000 length samples (slacks {min_low:.1e}/{min_high:.1e}); "
               f"1000 decay samples, max angle {worst_angle:.1e}")

    def test_criterion_9_extension_continuity(self):
        start = time.perf_counter()
        rng = np.random.default_rng(109)
        surface = generate("torus_grid", 3, 3)
        weights = WeightConfig.uniform(surface, 1, 2.0)
        i, j = surface.edges[0]
        wall = np.log(4.0 + 3.0 * np.sqrt(2.0))  # two equal factors degenerate here
        spacing = 1e-4
        ts = np.arange(0.0, 1.0 + spacing / 2.0, spacing)

        crossing_paths = 0
        worst = 0.0
        attempts = 0
        while crossing_paths < 20:
            attempts += 1
            assert attempts < 400
            center = rng.normal(0.0, 0.02, surface.vertex_count)
            center[i] += wall
            center[j] += wall
            direction = rng.normal(0.0, 1.0, surface.vertex_count)
            direction /= np.linalg.norm(direction)
            u0 = center - 0.05 * direction
            u1 = center + 0.05 * direction
            u_path = (1.0 - ts)[:, None] * u0 + ts[:, None] * u1
            kernel = _kernel_weights(Geometry.EUCLIDEAN, weights)
            _, _, a, m = _shape(surface._plan, kernel, Geometry.EUCLIDEAN, u_path.T)  # u = f
            deg = _degeneracy(m)[1].T
            crossings = int(np.sum((deg[1:] >= 0) != (deg[:-1] >= 0)))
            if crossings == 0:
                continue
            crossing_paths += 1
            theta = np.moveaxis(_angles(Geometry.EUCLIDEAN, a, m), -1, 0)  # (T, 3, F)
            jump = float(np.max(np.abs(np.diff(theta, axis=0))))
            worst = max(worst, jump)
            assert jump < 1e-2
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report("9 extension continuity", elapsed, 10.0,
               f"20 wall-crossing paths at spacing 1e-4, max jump {worst:.2e}")
