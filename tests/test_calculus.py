"""Tests for angle Jacobians and path-integral energies."""

from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from dcflow import calculus, geometry
from dcflow.calculus import (
    _TRIANGLE,
    curvature_jacobian,
    face_corner_jacobians,
    segment_face_energies,
    surface_energies,
    triangle_energy,
    triangle_jacobian,
)
from dcflow.errors import (
    BadParameterError,
    DegenerateFaceError,
    DegenerateTriangleError,
)
from dcflow.geometry import (
    ConformalState,
    Geometry,
    base_state,
    curvature,
    edge_lengths,
    extended_triangle_angles,
    triangle_angles,
)
from dcflow.surface import WeightConfig, generate

from conftest import (
    fd_gradient,
    fd_jacobian,
    make_setup,
    mismatched_inputs,
    random_admissible_state,
)

GEOMETRIES = [Geometry.EUCLIDEAN, Geometry.HYPERBOLIC]


def random_triple(geometry, rng):
    """Weights and coordinates of one face, kept away from walls."""
    for _ in range(100):
        eps3 = rng.integers(0, 2, 3)
        eta3 = rng.uniform(0.4, 2.0, 3)
        if geometry is Geometry.HYPERBOLIC:
            u3 = np.where(eps3 == 1, -rng.uniform(0.3, 1.5, 3), rng.uniform(-0.5, 0.5, 3))
        else:
            u3 = rng.uniform(-0.5, 0.5, 3)
        a = triangle_lengths(geometry, eps3, eta3, u3)
        margins = np.array([a[(c + 1) % 3] + a[(c + 2) % 3] - a[c] for c in range(3)])
        if margins.min() > 0.1:
            return eps3, eta3, u3
    raise AssertionError("no admissible triple found")


def triangle_lengths(geometry, eps3, eta3, u3):
    # a[c] is opposite corner c
    state = ConformalState(geometry, eps3, u3)
    return edge_lengths(_TRIANGLE, WeightConfig(eps3, eta3), state)


def face_angles(geometry, eps3, eta3, u3):
    a = triangle_lengths(geometry, eps3, eta3, u3)
    # a[c] is opposite corner c; triangle_angles takes side-named lengths
    return triangle_angles(geometry, a[2], a[1], a[0])


class TestFiniteDifferenceHelpers:
    def test_gradient_of_quadratic(self):
        fn = lambda x: x[0] ** 2 + 3.0 * x[1] - x[0] * x[2]
        x = np.array([1.5, -0.3, 2.0])
        got = fd_gradient(fn, x, 1e-6)
        want = np.array([2 * 1.5 - 2.0, 3.0, -1.5])
        assert np.allclose(got, want, atol=1e-9)

    def test_jacobian_of_linear_map(self):
        mat = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
        got = fd_jacobian(lambda x: mat @ x, np.array([0.7, -0.2]), 1e-6)
        assert np.allclose(got, mat, atol=1e-9)


class TestTriangleJacobian:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_matches_finite_differences(self, geometry):
        rng = np.random.default_rng(21)
        for _ in range(10):
            eps3, eta3, u3 = random_triple(geometry, rng)
            jac = triangle_jacobian(geometry, eps3, eta3, u3)
            ref = fd_jacobian(lambda u: face_angles(geometry, eps3, eta3, u), u3, 1e-6)
            assert np.max(np.abs(jac - ref)) < 1e-7

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_symmetry(self, geometry):
        rng = np.random.default_rng(22)
        for _ in range(20):
            eps3, eta3, u3 = random_triple(geometry, rng)
            jac = triangle_jacobian(geometry, eps3, eta3, u3)
            assert np.max(np.abs(jac - jac.T)) < 1e-12

    def test_euclidean_kernel_is_uniform_scaling(self):
        # shifting all three factors together rescales the triangle,
        # so every angle derivative row sums to zero
        rng = np.random.default_rng(23)
        for _ in range(20):
            eps3, eta3, u3 = random_triple(Geometry.EUCLIDEAN, rng)
            jac = triangle_jacobian(Geometry.EUCLIDEAN, eps3, eta3, u3)
            assert np.max(np.abs(jac @ np.ones(3))) < 1e-12
            eigs = np.linalg.eigvalsh(jac)
            assert eigs[-1] < 1e-12
            assert eigs[1] < -1e-10

    def test_hyperbolic_negative_definite(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            eps3, eta3, u3 = random_triple(Geometry.HYPERBOLIC, rng)
            eigs = np.linalg.eigvalsh(triangle_jacobian(Geometry.HYPERBOLIC, eps3, eta3, u3))
            assert eigs[-1] < 0.0

    def test_degenerate_shape_rejected(self):
        # cusp face with one factor far below the wall
        with pytest.raises(DegenerateTriangleError):
            triangle_jacobian(
                Geometry.EUCLIDEAN,
                np.zeros(3, dtype=np.int64),
                np.ones(3),
                np.array([-3.0, 0.0, 0.0]),
            )


class TestCurvatureJacobian:
    @pytest.mark.parametrize("kind,dims", [("tetrahedron", ()), ("torus_grid", (3, 3))])
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_matches_finite_differences(self, kind, dims, geometry):
        epsilon = 1 if geometry is Geometry.HYPERBOLIC else 0
        surface, weights, _ = make_setup(kind, dims, epsilon, 1.0, geometry)
        rng = np.random.default_rng(31)
        state = random_admissible_state(surface, weights, geometry, rng)
        mat = curvature_jacobian(surface, weights, state).toarray()

        def curvature_of(u):
            st = ConformalState(geometry, weights.epsilon, u)
            return curvature(surface, weights, st).curvature

        ref = fd_jacobian(curvature_of, state.u, 1e-6)
        assert np.max(np.abs(mat - ref)) < 1e-6
        assert np.max(np.abs(mat - mat.T)) < 1e-11

    def test_euclidean_semidefinite_with_ones_kernel(self):
        surface, weights, _ = make_setup("torus_grid", (3, 3), 0, 1.0, Geometry.EUCLIDEAN)
        rng = np.random.default_rng(32)
        for _ in range(5):
            state = random_admissible_state(surface, weights, Geometry.EUCLIDEAN, rng)
            mat = curvature_jacobian(surface, weights, state).toarray()
            ones = np.ones(surface.vertex_count)
            assert np.max(np.abs(mat @ ones)) < 1e-11
            eigs = np.linalg.eigvalsh(mat)
            assert eigs[0] > -1e-11
            assert eigs[1] > 1e-8  # kernel is exactly one-dimensional

    def test_hyperbolic_positive_definite(self):
        surface, weights, _ = make_setup("genus2", (), 1, 1.0, Geometry.HYPERBOLIC)
        rng = np.random.default_rng(33)
        for _ in range(5):
            state = random_admissible_state(surface, weights, Geometry.HYPERBOLIC, rng)
            mat = curvature_jacobian(surface, weights, state).toarray()
            np.linalg.cholesky(mat)  # raises if not positive definite

    def test_assembles_per_face_jacobians(self):
        surface, weights, _ = make_setup("octahedron", (), 1, 1.0, Geometry.EUCLIDEAN)
        rng = np.random.default_rng(34)
        state = random_admissible_state(surface, weights, Geometry.EUCLIDEAN, rng)
        per_face = face_corner_jacobians(surface, weights, state)
        dense = np.zeros((6, 6))
        for face, block in zip(surface.faces, per_face):
            for r in range(3):
                for c in range(3):
                    dense[face[r], face[c]] -= block[r, c]
        mat = curvature_jacobian(surface, weights, state).toarray()
        assert np.max(np.abs(mat - dense)) < 1e-14

    def test_face_jacobians_match_single_face_operation(self):
        surface, weights, _ = make_setup("tetrahedron", (), 1, 1.0, Geometry.HYPERBOLIC)
        rng = np.random.default_rng(35)
        state = random_admissible_state(surface, weights, Geometry.HYPERBOLIC, rng)
        per_face = face_corner_jacobians(surface, weights, state)
        for face, edges, block in zip(surface.faces, surface.face_edges, per_face):
            single = triangle_jacobian(
                Geometry.HYPERBOLIC,
                weights.epsilon[face],
                weights.eta[edges],
                state.u[face],
            )
            assert np.max(np.abs(single - block)) < 1e-14

    @pytest.mark.parametrize("extended", [False, True])
    def test_margins_computed_once_per_call(self, extended, monkeypatch):
        # the wall test and the Heron core share one margin computation
        surface, weights, _ = make_setup("torus_grid", (4, 4), 1, 1.0, Geometry.EUCLIDEAN)
        rng = np.random.default_rng(36)
        state = random_admissible_state(surface, weights, Geometry.EUCLIDEAN, rng)
        real_margins, calls = geometry._margins, []

        def counting_margins(a):
            calls.append(a.shape)
            return real_margins(a)

        monkeypatch.setattr(calculus, "_margins", counting_margins, raising=False)
        monkeypatch.setattr(geometry, "_margins", counting_margins)
        face_corner_jacobians(surface, weights, state, extended=extended)
        assert calls == [(5, len(surface.faces))]

    def test_degenerate_state_rejected(self):
        surface, weights, _ = make_setup("torus_grid", (3, 3), 0, 1.0, Geometry.EUCLIDEAN)
        u = np.zeros(9)
        u[4] = -3.0
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
        with pytest.raises(DegenerateFaceError):
            curvature_jacobian(surface, weights, state)


REFERENCE_BLOCKS = Path(__file__).parent / "data" / "jacobian_blocks.npz"


def near_wall(surface, weights, geometry, clear, past, halvings=12):
    """A state between 2^-halvings and twice that short of a wall, on the segment from
    ``clear``, where every face is nondegenerate, to ``past``, where some face is past
    its wall (t = 1); the closest face's margin is then about 1e-4 of its perimeter.
    """
    def degenerate(t):
        state = ConformalState(geometry, weights.epsilon, clear + t * (past - clear))
        return bool(curvature(surface, weights, state, extended=True).degenerate_faces)

    lo, hi = 0.0, 1.0
    assert not degenerate(lo) and degenerate(hi)
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if degenerate(mid) else (mid, hi)
    return ConformalState(geometry, weights.epsilon, clear + (2 * lo - hi) * (past - clear))


def jacobian_cases():
    """(surface, weights, state, extended) by name: both geometries, random and near-wall states.

    The ``degenerate`` cases have faces past their walls and take the extended
    Jacobian; the others are strictly nondegenerate.
    """
    cases = {}
    for geometry in GEOMETRIES:
        rng = np.random.default_rng(11)
        surface = generate("torus_grid", 5, 5)
        weights = WeightConfig(rng.integers(0, 2, 25), rng.uniform(0.5, 2.0, surface.edge_count))
        u = rng.normal(0.0, 0.1, 25)
        if geometry is Geometry.HYPERBOLIC:
            u[weights.epsilon == 1] = -np.abs(u[weights.epsilon == 1]) - 0.1
        cases[f"{geometry.value}-random"] = (surface, weights, ConformalState(geometry, weights.epsilon, u), False)

        weights = WeightConfig.uniform(surface, 0, 1.0)
        u = rng.normal(0.0, 0.3, 25)
        u[[4, 12]] = -3.0
        if geometry is Geometry.HYPERBOLIC:
            u -= 0.5
        cases[f"{geometry.value}-degenerate"] = (surface, weights, ConformalState(geometry, weights.epsilon, u), True)

    # eps = 1, eta = 2 puts the walls of a 3x3 torus at finite coordinates
    surface = generate("torus_grid", 3, 3)
    weights = WeightConfig.uniform(surface, 1, 2.0)
    rng = np.random.default_rng(71)
    clear = rng.normal(0.0, 0.05, 9)
    i, j = surface.edges[0]
    clear[[i, j]] = np.log(4.0 + 3.0 * np.sqrt(2.0)) - 0.5  # both ends of edge 0 drive its faces
    past = clear.copy()
    past[[i, j]] += 1.0
    state = near_wall(surface, weights, Geometry.EUCLIDEAN, clear, past)
    cases["euclidean-near-wall"] = (surface, weights, state, False)
    clear = -1.0 + rng.normal(0.0, 0.05, 9)
    clear[0] = -0.01  # a small e^{f_0} makes the faces at vertex 0 degenerate there
    past = clear.copy()
    past[0] = -6.0
    state = near_wall(surface, weights, Geometry.HYPERBOLIC, clear, past)
    cases["hyperbolic-near-wall"] = (surface, weights, state, False)
    return cases


def mp_face_jacobian(geometry, eps3, eta3, u3):
    """d(theta)/d(u) of one face by mpmath at 40 digits: the cosine rule, differentiated numerically."""
    mp.mp.dps = 40
    eta3, u3 = [mp.mpf(float(v)) for v in eta3], [mp.mpf(float(v)) for v in u3]

    def angles(u):
        x = [mp.exp(-mp.log(mp.sinh(-v)) if geometry is Geometry.HYPERBOLIC and e else v)
             for v, e in zip(u, eps3)]  # fmt: skip
        if geometry is Geometry.EUCLIDEAN:
            a = [mp.sqrt(eps3[p] * x[p] ** 2 + eps3[q] * x[q] ** 2 + 2 * h * x[p] * x[q])
                 for p, q, h in zip((1, 2, 0), (2, 0, 1), eta3)]  # fmt: skip
            return [mp.acos((a[(c + 1) % 3] ** 2 + a[(c + 2) % 3] ** 2 - a[c] ** 2)
                            / (2 * a[(c + 1) % 3] * a[(c + 2) % 3])) for c in range(3)]  # fmt: skip
        cosh = [mp.sqrt((1 + eps3[p] * x[p] ** 2) * (1 + eps3[q] * x[q] ** 2)) + h * x[p] * x[q]
                for p, q, h in zip((1, 2, 0), (2, 0, 1), eta3)]  # fmt: skip
        sinh = [mp.sqrt(ch * ch - 1) for ch in cosh]
        return [mp.acos((cosh[(c + 1) % 3] * cosh[(c + 2) % 3] - cosh[c])
                        / (sinh[(c + 1) % 3] * sinh[(c + 2) % 3])) for c in range(3)]  # fmt: skip

    def shifted(col, t):
        return angles([v + t if c == col else v for c, v in enumerate(u3)])

    return np.array([[float(mp.diff(lambda t: shifted(col, t)[r], 0)) for col in range(3)]
                     for r in range(3)])  # fmt: skip


class TestEdgeWeightJacobian:
    """The Jacobian as one weight per edge and a diagonal, on a cached CSR pattern.

    ``REFERENCE_BLOCKS`` holds the blocks of ``jacobian_cases`` as the face-major
    chain-rule core (the product d(theta)/d(a) . d(a)/d(u) of two 3x3 matrices
    per face) computed them before the edge-weight form replaced it.
    """

    @pytest.mark.parametrize("name", sorted(jacobian_cases()))
    def test_matches_recorded_blocks(self, name):
        surface, weights, state, extended = jacobian_cases()[name]
        blocks = face_corner_jacobians(surface, weights, state, extended=extended)
        reference = np.load(REFERENCE_BLOCKS)[name]
        assert np.max(np.abs(blocks - reference)) <= 1e-14 * np.max(np.abs(reference))

    @pytest.mark.parametrize("name", [n for n in sorted(jacobian_cases()) if "degenerate" not in n])
    def test_as_accurate_as_recorded_blocks(self, name):
        # against mpmath, no worse than the recorded core beyond an ulp or so; beside
        # a wall both inherit the rounding of the margins they share
        surface, weights, state, _ = jacobian_cases()[name]
        exact = np.array([
            mp_face_jacobian(state.geometry, weights.epsilon[face], weights.eta[edges], state.u[face])
            for face, edges in zip(surface.faces, surface.face_edges)
        ])  # fmt: skip
        blocks = face_corner_jacobians(surface, weights, state)
        reference = np.load(REFERENCE_BLOCKS)[name]
        scale = np.max(np.abs(exact))
        error, recorded = (np.max(np.abs(b - exact)) / scale for b in (blocks, reference))
        assert error <= recorded + 1e-15

    @pytest.mark.parametrize("name", sorted(jacobian_cases()))
    def test_matches_finite_differences(self, name):
        surface, weights, state, extended = jacobian_cases()[name]
        mat = curvature_jacobian(surface, weights, state, extended=extended).toarray()

        def curvature_of(u):
            return curvature(surface, weights, state.with_u(u), extended=extended).curvature

        ref = fd_jacobian(curvature_of, state.u, 1e-7)
        assert np.max(np.abs(mat - ref)) < 5e-8 * np.max(np.abs(mat))

    @pytest.mark.parametrize("name", sorted(jacobian_cases()))
    def test_bitwise_symmetric(self, name):
        surface, weights, state, extended = jacobian_cases()[name]
        mat = curvature_jacobian(surface, weights, state, extended=extended)
        np.testing.assert_array_equal(mat.toarray(), mat.T.toarray())
        blocks = face_corner_jacobians(surface, weights, state, extended=extended)
        np.testing.assert_array_equal(blocks, blocks.transpose(0, 2, 1))

    @pytest.mark.parametrize("name", sorted(jacobian_cases()))
    def test_built_on_a_callers_pass_bit_for_bit(self, name):
        # without _pass the call makes the extended pass itself; a caller's extended pass,
        # or where every face is clear a strict one, gives the same matrix bit for bit
        surface, weights, state, extended = jacobian_cases()[name]
        own = curvature_jacobian(surface, weights, state, extended)
        passes = [curvature(surface, weights, state, extended=True)]
        assert bool(passes[0].degenerate_faces) is ("degenerate" in name)
        if not extended:
            passes.append(curvature(surface, weights, state))
        for report in passes:
            given = curvature_jacobian(surface, weights, state, extended, _pass=report)
            for part in ("data", "indices", "indptr"):
                assert getattr(given, part).tobytes() == getattr(own, part).tobytes()

    @pytest.mark.parametrize("name", [n for n in sorted(jacobian_cases()) if "euclidean" in n])
    def test_euclidean_row_sums_vanish(self, name):
        surface, weights, state, extended = jacobian_cases()[name]
        mat = curvature_jacobian(surface, weights, state, extended=extended)
        rows = mat @ np.ones(surface.vertex_count)
        assert np.max(np.abs(rows)) <= 8 * np.finfo(float).eps * np.max(np.abs(mat.data))

    @pytest.mark.parametrize("name", [n for n in sorted(jacobian_cases()) if "degenerate" in n])
    def test_degenerate_faces_contribute_nothing(self, name):
        surface, weights, state, _ = jacobian_cases()[name]
        corner = curvature(surface, weights, state, extended=True).degenerate_corner
        blocks = face_corner_jacobians(surface, weights, state, extended=True)
        assert not np.any(blocks[corner >= 0])
        dense = np.zeros((surface.vertex_count,) * 2)
        for face, block in zip(surface.faces[corner < 0], blocks[corner < 0]):
            dense[np.ix_(face, face)] -= block
        mat = curvature_jacobian(surface, weights, state, extended=True).toarray()
        assert np.max(np.abs(mat - dense)) <= 1e-14 * np.max(np.abs(dense))

    @pytest.mark.parametrize("name", [n for n in sorted(jacobian_cases()) if "degenerate" in n])
    def test_strict_raises_at_first_degenerate_face(self, name):
        surface, weights, state, _ = jacobian_cases()[name]
        first = curvature(surface, weights, state, extended=True).degenerate_faces[0][0]
        for jacobian in (curvature_jacobian, face_corner_jacobians):
            with pytest.raises(DegenerateFaceError) as raised:
                jacobian(surface, weights, state)
            assert raised.value.face_index == first

    def test_pattern_is_shared_and_read_only(self):
        surface, weights, state, _ = jacobian_cases()["euclidean-random"]
        first, second = (curvature_jacobian(surface, weights, state) for _ in range(2))
        assert np.shares_memory(first.indices, second.indices)
        assert np.shares_memory(first.indptr, second.indptr)
        assert first.has_canonical_format
        with pytest.raises(ValueError):
            first.indices[0] = 0


class TestTriangleEnergy:
    def test_zero_at_base(self):
        assert triangle_energy(
            Geometry.EUCLIDEAN, np.array([1, 0, 1]), np.ones(3), np.zeros(3)
        ) == 0.0

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_gradient_is_angle_vector(self, geometry):
        rng = np.random.default_rng(41)
        eps3, eta3, u3 = random_triple(geometry, rng)
        grad = fd_gradient(
            lambda u: triangle_energy(geometry, eps3, eta3, u), u3, 1e-6
        )
        assert np.allclose(grad, face_angles(geometry, eps3, eta3, u3), atol=1e-7)

    def test_epsilon_is_checked_not_truncated(self):
        with pytest.raises(BadParameterError):
            triangle_energy(Geometry.EUCLIDEAN, [1, 1, 0.5], np.ones(3), [0.1, 0.0, 0.0])

    def test_euclidean_translation_adds_pi(self):
        eps3 = np.array([1, 0, 1])
        eta3 = np.array([0.8, 1.2, 0.9])
        u3 = np.array([0.1, -0.2, 0.05])
        t = 0.37
        before = triangle_energy(Geometry.EUCLIDEAN, eps3, eta3, u3)
        after = triangle_energy(Geometry.EUCLIDEAN, eps3, eta3, u3 + t)
        assert abs(after - before - np.pi * t) < 1e-10

    def test_translation_holds_across_walls(self):
        eps3 = np.zeros(3, dtype=np.int64)
        eta3 = np.ones(3)
        u3 = np.array([-3.0, 0.2, -0.1])
        t = 0.05  # small enough that the shifted path still crosses
        before = triangle_energy(Geometry.EUCLIDEAN, eps3, eta3, u3, extended=True)
        after = triangle_energy(Geometry.EUCLIDEAN, eps3, eta3, u3 + t, extended=True)
        assert abs(after - before - np.pi * t) < 1e-9

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_path_independence_through_walls(self, geometry):
        # the extension makes the angle form exact on the whole space,
        # so integrating via an intermediate state changes nothing
        if geometry is Geometry.EUCLIDEAN:
            eps3 = np.zeros(3, dtype=np.int64)
            base = np.zeros(3)
            target = np.array([-3.0, 0.2, -0.1])
            waypoint = np.array([-0.5, 0.6, -0.8])
        else:
            eps3 = np.array([1, 0, 1])
            base = base_state(geometry, eps3).u
            target = base + np.array([-2.5, 0.3, -0.4])
            waypoint = base + np.array([-0.7, -0.5, 0.2])
        eta3 = np.array([1.5, 0.7, 1.1])
        direct = triangle_energy(geometry, eps3, eta3, target, extended=True)
        via = triangle_energy(
            geometry, eps3, eta3, waypoint, extended=True
        ) + triangle_energy(
            geometry, eps3, eta3, target, base_triple=waypoint, extended=True
        )
        assert abs(direct - via) < 1e-9

    def test_gradient_beyond_wall_is_flat_angles(self):
        eps3 = np.zeros(3, dtype=np.int64)
        eta3 = np.ones(3)
        u3 = np.array([-3.0, 0.2, -0.1])  # corner 0 degenerate
        grad = fd_gradient(
            lambda u: triangle_energy(Geometry.EUCLIDEAN, eps3, eta3, u, extended=True),
            u3,
            1e-6,
        )
        assert np.allclose(grad, [np.pi, 0.0, 0.0], atol=1e-8)

    def test_strict_mode_rejects_crossing_path(self):
        with pytest.raises(DegenerateTriangleError):
            triangle_energy(
                Geometry.EUCLIDEAN,
                np.zeros(3, dtype=np.int64),
                np.ones(3),
                np.array([-3.0, 0.2, -0.1]),
                extended=False,
            )

    def test_extended_agrees_with_strict_inside(self):
        rng = np.random.default_rng(42)
        for geometry in GEOMETRIES:
            eps3, eta3, u3 = random_triple(geometry, rng)
            strict = triangle_energy(geometry, eps3, eta3, u3, extended=False)
            extended = triangle_energy(geometry, eps3, eta3, u3, extended=True)
            assert abs(strict - extended) < 1e-10

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_concave_along_segments(self, geometry):
        # d^2/dt^2 of the face energy is the angle Jacobian quadratic
        # form, which is never positive; midpoint values certify it
        rng = np.random.default_rng(43)
        eps3, eta3, u3 = random_triple(geometry, rng)
        direction = rng.normal(0.0, 1.0, 3)
        if geometry is Geometry.HYPERBOLIC:
            direction = np.where(eps3 == 1, -np.abs(direction), direction)
        values = [
            triangle_energy(geometry, eps3, eta3, u3 + t * direction, extended=True)
            for t in np.linspace(0.0, 2.0, 9)
        ]
        second = np.diff(values, 2)
        assert np.max(second) < 1e-8


class TestSurfaceEnergies:
    @pytest.mark.parametrize("mismatch", sorted(mismatched_inputs()))
    def test_mismatched_inputs_rejected_before_integrating(self, mismatch, monkeypatch):
        surface, weights, state = mismatched_inputs()[mismatch]
        monkeypatch.setattr(calculus, "_integrate_face_energies", None)  # never reached
        for base in (None, state):
            with pytest.raises(BadParameterError, match=mismatch):
                surface_energies(surface, weights, state, base=base)

    def test_energy_gradient_is_curvature_euclidean(self):
        surface, weights, _ = make_setup("torus_grid", (3, 3), 0, 1.0, Geometry.EUCLIDEAN)
        rng = np.random.default_rng(51)
        state = random_admissible_state(surface, weights, Geometry.EUCLIDEAN, rng)

        def energy_of(u):
            st = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
            return surface_energies(surface, weights, st).energy

        grad = fd_gradient(energy_of, state.u, 1e-6)
        report = curvature(surface, weights, state)
        assert np.max(np.abs(grad - report.curvature)) < 1e-6

    def test_energy_gradient_is_curvature_hyperbolic(self):
        surface, weights, _ = make_setup("octahedron", (), 1, 1.0, Geometry.HYPERBOLIC)
        rng = np.random.default_rng(52)
        state = random_admissible_state(surface, weights, Geometry.HYPERBOLIC, rng)

        def energy_of(u):
            st = ConformalState(Geometry.HYPERBOLIC, weights.epsilon, u)
            return surface_energies(surface, weights, st).energy

        grad = fd_gradient(energy_of, state.u, 1e-6)
        report = curvature(surface, weights, state)
        assert np.max(np.abs(grad - report.curvature)) < 1e-6

    def test_potential_gradient_at_degenerate_state(self):
        # extended potential stays differentiable across walls with
        # gradient equal to extended curvature minus the target
        surface, weights, _ = make_setup("torus_grid", (3, 3), 0, 1.0, Geometry.EUCLIDEAN)
        rng = np.random.default_rng(53)
        u = rng.normal(0.0, 0.1, 9)
        u[4] = -3.0
        u -= u.mean()
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
        report = curvature(surface, weights, state, extended=True)
        assert report.degenerate_faces  # the state really is past a wall
        target = np.zeros(9)

        def potential_of(uv):
            st = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, uv)
            return surface_energies(surface, weights, st, target=target).potential

        grad = fd_gradient(potential_of, u, 1e-6)
        assert np.max(np.abs(grad - (report.curvature - target))) < 1e-5

    def test_translation_shifts_by_euler_characteristic(self):
        t = 0.2
        for kind, dims, chi in [("tetrahedron", (), 2), ("torus_grid", (3, 3), 0)]:
            surface, weights, _ = make_setup(kind, dims, 0, 1.0, Geometry.EUCLIDEAN)
            rng = np.random.default_rng(54)
            u = rng.normal(0.0, 0.2, surface.vertex_count)
            u[0] = -2.5  # force wall crossings along the base path
            before = surface_energies(
                surface, weights, ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
            ).energy
            after = surface_energies(
                surface,
                weights,
                ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u + t),
            ).energy
            assert abs(after - before - 2.0 * np.pi * chi * t) < 1e-8

    def test_hyperbolic_potential_uses_base_offset(self):
        surface, weights, base = make_setup("genus2", (), 1, 1.0, Geometry.HYPERBOLIC)
        rng = np.random.default_rng(55)
        state = random_admissible_state(surface, weights, Geometry.HYPERBOLIC, rng)
        target = np.full(15, -0.5)
        value = surface_energies(surface, weights, state, target=target)
        expected = value.energy - target @ (state.u - base.u)
        assert abs(value.potential - expected) < 1e-12

    def test_calabi_value(self):
        surface, weights, _ = make_setup("tetrahedron", (), 1, 1.0, Geometry.EUCLIDEAN)
        rng = np.random.default_rng(56)
        state = random_admissible_state(surface, weights, Geometry.EUCLIDEAN, rng)
        target = np.full(4, np.pi)
        value = surface_energies(surface, weights, state, target=target)
        report = curvature(surface, weights, state, extended=True)
        assert abs(value.calabi - 0.5 * np.sum((target - report.curvature) ** 2)) < 1e-12

    def test_energy_is_convex_along_segments(self):
        surface, weights, _ = make_setup("torus_grid", (3, 3), 0, 1.0, Geometry.EUCLIDEAN)
        rng = np.random.default_rng(57)
        u0 = rng.normal(0.0, 0.2, 9)
        direction = rng.normal(0.0, 1.0, 9)
        values = [
            surface_energies(
                surface,
                weights,
                ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u0 + t * direction),
            ).energy
            for t in np.linspace(-1.0, 1.0, 9)
        ]
        assert np.min(np.diff(values, 2)) > -1e-8

    def test_strict_mode_rejects_crossing_path(self):
        surface, weights, _ = make_setup("torus_grid", (3, 3), 0, 1.0, Geometry.EUCLIDEAN)
        u = np.zeros(9)
        u[4] = -3.0
        state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
        with pytest.raises(DegenerateFaceError):
            surface_energies(surface, weights, state, extended=False)

    def test_per_face_sum_matches_energy(self):
        surface, weights, _ = make_setup("icosahedron", (), 1, 1.0, Geometry.EUCLIDEAN)
        rng = np.random.default_rng(58)
        state = random_admissible_state(surface, weights, Geometry.EUCLIDEAN, rng)
        value = surface_energies(surface, weights, state)
        recomputed = 2.0 * np.pi * state.u.sum() - value.per_face.sum()
        assert abs(value.energy - recomputed) < 1e-12

    def test_segment_chaining_matches_from_base(self):
        surface, weights, _ = make_setup("torus_grid", (3, 3), 0, 1.0, Geometry.EUCLIDEAN)
        rng = np.random.default_rng(59)
        u1 = rng.normal(0.0, 0.2, 9)
        u1[3] = -2.4  # waypoint beyond a wall
        u2 = u1 + rng.normal(0.0, 0.3, 9)
        direct = surface_energies(
            surface, weights, ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u2)
        ).per_face
        chained = segment_face_energies(
            surface, weights, Geometry.EUCLIDEAN, np.zeros(9), u1
        ) + segment_face_energies(surface, weights, Geometry.EUCLIDEAN, u1, u2)
        assert np.max(np.abs(chained - direct)) < 1e-9


class TestClausen:
    def test_matches_mpmath_on_a_period(self):
        # within a few 1e-16 of Cl_2 on [0, 2 pi], plus the slope log|2 sin(x/2)| of Cl_2
        # times the rounding of x: the period is read as 2 * np.pi, which matters near it
        x = np.linspace(0.0, 2.0 * np.pi, 2001)
        with mp.workdps(30):
            exact = [mp.clsin(2, mp.mpf(v)) for v in x]
            error = np.array([float(abs(e - mp.mpf(c))) for e, c in zip(exact, calculus._clausen(x))])
        slope = np.abs(np.log(np.maximum(np.abs(2.0 * np.sin(0.5 * x)), 1e-300)))
        assert np.all(error <= np.finfo(float).eps * (2.0 + x * slope))
        assert np.max(error[x < 6.0]) < 1e-15

    def test_exact_zeros_and_symmetry(self):
        assert calculus._clausen(np.array([0.0, np.pi, 2.0 * np.pi])).tolist() == [0.0] * 3
        x = np.linspace(0.1, 6.0, 60)
        assert np.max(np.abs(calculus._clausen(2.0 * np.pi - x) + calculus._clausen(x))) < 1e-14
        catalan = calculus._clausen(np.array([np.pi / 2]))[0]
        assert catalan == pytest.approx(0.915965594177219, abs=1e-16)

    def test_pair_series_matches_two_calls(self):
        # tangency packings evaluate Cl_2(x) + Cl_2(pi - x), symmetric about pi / 2, from one
        # series with coefficients derived from the same literals
        x = np.linspace(0.0, np.pi, 2001)
        folded = np.minimum(x, np.pi - x)
        pair = calculus._clausen_series(folded, calculus._CLAUSEN_PAIR, 1.0 + np.log(2.0))
        two_calls = calculus._clausen(x) + calculus._clausen(np.pi - x)
        assert np.max(np.abs(pair - two_calls)) < 2e-15
        assert pair[0] == pair[-1] == 0.0
