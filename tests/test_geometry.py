"""Metric layer: coordinates, lengths, angles, extension, curvature."""

from __future__ import annotations

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import MESH_KINDS, make_setup, mismatched_inputs, random_admissible_state
from dcflow import (
    BadParameterError,
    ConformalState,
    DegenerateFaceError,
    DegenerateTriangleError,
    DomainError,
    Geometry,
    NumericalDomainError,
    OverflowRangeError,
    WeightConfig,
    base_state,
    classify_triangle,
    coshl_bounds,
    curvature,
    edge_length,
    edge_lengths,
    extended_triangle_angles,
    f_to_u,
    gauss_bonnet_residual,
    generate,
    triangle_angles,
    u_to_f,
    wall_reachability,
)
from dcflow.geometry import _degeneracy, _kernel_weights, _margins, _metric, _shape

EU = Geometry.EUCLIDEAN
HY = Geometry.HYPERBOLIC


# ---------------------------------------------------------------------------
# coordinates


def test_euclidean_coordinates_are_identity():
    rng = np.random.default_rng(0)
    u = rng.normal(size=10)
    eps = rng.integers(0, 2, size=10)
    assert np.allclose(u_to_f(EU, eps, u), u)
    assert np.allclose(f_to_u(EU, eps, u), u)


def test_hyperbolic_cusp_coordinates_are_identity():
    rng = np.random.default_rng(1)
    f = rng.normal(size=10)
    eps = np.zeros(10, dtype=int)
    assert np.allclose(u_to_f(HY, eps, f), f)
    assert np.allclose(f_to_u(HY, eps, f), f)


def test_hyperbolic_cone_coordinate_at_f_zero():
    # independent inversion through C = (1 + e^{2u}) / (1 - e^{2u})
    u = f_to_u(HY, 1, 0.0)
    assert abs(u - np.log(np.sqrt(2.0) - 1.0)) < 1e-15
    c = (1.0 + np.exp(2.0 * u)) / (1.0 - np.exp(2.0 * u))
    f = 0.5 * np.log(c * c - 1.0)
    assert abs(f) < 1e-9


def test_hyperbolic_cone_round_trip():
    u = -np.geomspace(1e-6, 10.0, 101)
    f = u_to_f(HY, np.ones(101, dtype=int), u)
    back = f_to_u(HY, np.ones(101, dtype=int), f)
    assert np.max(np.abs(back - u)) < 1e-12
    # independent check against the closed form through C; the direct C
    # formula itself loses digits once e^{2u} underflows toward 0, so
    # compare where it is well conditioned
    window = u > -5.0
    c = (1.0 + np.exp(2.0 * u[window])) / (1.0 - np.exp(2.0 * u[window]))
    assert np.max(np.abs(f[window] - 0.5 * np.log(c * c - 1.0))) < 1e-9


def test_cone_round_trip_matches_mpmath_over_the_whole_range():
    # f -> u -> f at cone vertices for every |f| <= F_CAP, against mpmath at 50 digits;
    # log1p(-e^{-2x}) in log sinh lost f from f = 20 on and overflowed at f = 40
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    f = np.concatenate([np.linspace(-700.0, 700.0, 281), rng.uniform(-700.0, 700.0, 120)])
    eps = np.ones(f.size, dtype=int)
    u = f_to_u(HY, eps, f)
    back = u_to_f(HY, eps, u)
    with mp.workdps(50):
        u_exact = [float(-mp.asinh(mp.exp(-mp.mpf(x)))) for x in f]
        f_exact = [float(-mp.log(mp.sinh(-mp.mpf(x)))) for x in u]
    for ours, exact in ((u, u_exact), (back, f_exact), (back, f)):
        ulps = np.abs(ours - exact) / np.spacing(np.maximum(np.abs(exact), 1.0))
        assert ulps.max() <= 2.0


def test_cone_coordinates_must_be_negative():
    with pytest.raises(DomainError):
        u_to_f(HY, 1, 0.0)
    with pytest.raises(DomainError):
        ConformalState(HY, np.array([1, 0]), np.array([0.5, 0.0]))


def test_exponent_cap():
    with pytest.raises(OverflowRangeError):
        f_to_u(HY, 1, 701.0)
    with pytest.raises(OverflowRangeError):
        u_to_f(HY, 1, -1e-320)
    with pytest.raises(OverflowRangeError):
        ConformalState(EU, np.array([0]), np.array([701.0]))


def test_state_epsilon_is_checked_not_truncated():
    # 1.9 would have become 1 in the integer cast
    with pytest.raises(BadParameterError):
        ConformalState(EU, [1.9, 0, 1], np.zeros(3))
    with pytest.raises(BadParameterError):
        base_state(HY, [1.9, 0, 1])
    assert ConformalState(EU, [1.0, 0.0, 1.0], np.zeros(3)).epsilon.tolist() == [1, 0, 1]


@pytest.mark.parametrize("convert", [u_to_f, f_to_u])
@pytest.mark.parametrize("geometry", [EU, HY])
def test_coordinate_conversions_check_epsilon(convert, geometry):
    # a cast would read 1.9 as 1 and 0.5 as 0, and convert with the truncated values
    with pytest.raises(BadParameterError, match=r"epsilon values \[0.5, 1.9\]"):
        convert(geometry, [1.9, 0.5, 1], [-1.0, -1.0, -1.0])
    u = [-1.0, -1.0]
    assert np.array_equal(convert(geometry, [1.0, 0.0], u), convert(geometry, [1, 0], u))


@pytest.mark.parametrize("convert", [u_to_f, f_to_u])
@pytest.mark.parametrize("geometry", [EU, HY])
def test_coordinate_conversions_want_one_epsilon_per_row(convert, geometry):
    # numpy read a mismatch as an IndexError (hyperbolic) or not at all (Euclidean)
    for eps in ([1, 1, 1], [1]):
        with pytest.raises(BadParameterError, match=rf"shape \({len(eps)},\) .* shape \(2,\)"):
            convert(geometry, eps, [-1.0, -2.0])
    u = [-1.0, -2.0]  # a scalar epsilon keeps applying to every row
    assert np.array_equal(convert(geometry, 1, u), convert(geometry, [1, 1], u))


@pytest.mark.parametrize("u", [-1e308, -np.finfo(np.float64).max])
def test_a_far_cone_coordinate_names_its_cause(u):
    # 2u overflowed in log sinh and warned before the range check named the cause
    entries = (
        lambda: u_to_f(HY, 1, u),
        lambda: ConformalState(HY, [1], [u]),
        lambda: base_state(HY, [1]).with_u(np.array([u])),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for enter in entries:
            with pytest.raises(OverflowRangeError, match="exceeds"):
                enter()


def test_with_u_validates_u_with_the_same_error_types():
    # with_u checks only the new coordinates; each bad input keeps its cause
    eu = ConformalState(EU, np.ones(3, dtype=int), np.zeros(3))
    hy = base_state(HY, np.array([1, 1, 0]))
    for state in (eu, hy):
        for bad in ([np.nan, -1.0, 0.0], [-1.0, np.inf, 0.0], [-1.0, -1.0, -np.inf]):
            with pytest.raises(BadParameterError):
                state.with_u(np.array(bad))
        for shape in ((2,), (4,), (3, 1)):
            with pytest.raises(BadParameterError):
                state.with_u(-np.ones(shape))
    for cone in ([0.0, -1.0, 0.0], [-1.0, 0.5, 0.0]):
        with pytest.raises(DomainError):
            hy.with_u(np.array(cone))
    for far in ([0.0, 701.0, 0.0], [-701.0, 0.0, 0.0]):
        with pytest.raises(OverflowRangeError):
            eu.with_u(np.array(far))
    # an eps = 0 vertex with |u| > 700, and a cone coordinate so close to 0 that f > 700
    for far in ([-1.0, -1.0, 701.0], [-1e-320, -1.0, 0.0]):
        with pytest.raises(OverflowRangeError):
            hy.with_u(np.array(far))
    u = np.array([-0.5, -2.0, 0.3])
    moved = hy.with_u(u)
    assert moved.epsilon is hy.epsilon
    assert np.array_equal(moved.f, ConformalState(HY, hy.epsilon, u).f)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("geometry", [EU, HY])
def test_non_finite_coordinates_give_the_same_error_at_every_entry(geometry, bad):
    # a NaN or inf is a bad parameter wherever it enters, not an exponent past F_CAP
    eps = np.array([1, 1])
    entries = (
        lambda: u_to_f(geometry, eps, [-1.0, bad]),
        lambda: f_to_u(geometry, eps, [0.0, bad]),
        lambda: edge_length(geometry, 1, 1, 1.0, bad, 0.0),
        lambda: ConformalState.from_f(geometry, eps, [0.0, bad]),
        lambda: ConformalState(geometry, eps, [-1.0, bad]),
        lambda: base_state(geometry, eps).with_u(np.array([-1.0, bad])),
    )
    for enter in entries:
        with pytest.raises(BadParameterError, match="non-finite"):
            enter()


# ---------------------------------------------------------------------------
# edge lengths


def test_length_examples():
    assert edge_length(EU, 1, 1, 1.0, 0.0, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert edge_length(EU, 0, 0, 1.0, 0.0, 0.0) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert edge_length(HY, 1, 1, 1.0, 0.0, 0.0) == pytest.approx(np.arccosh(3.0), abs=1e-14)


def test_length_closed_forms_cusp_case():
    rng = np.random.default_rng(3)
    f_i, f_j = rng.normal(size=20), rng.normal(size=20)
    eta = rng.uniform(0.1, 2.0, size=20)
    l_eu = edge_length(EU, 0, 0, eta, f_i, f_j)
    assert np.allclose(l_eu, np.sqrt(2.0 * eta) * np.exp(0.5 * (f_i + f_j)), atol=1e-12)
    l_hy = edge_length(HY, 0, 0, eta, f_i, f_j)
    assert np.allclose(np.cosh(l_hy), 1.0 + eta * np.exp(f_i + f_j), atol=1e-10)


def test_euclidean_scaling_invariance():
    surface, weights, state = make_setup("octahedron", epsilon=1, eta=0.8)
    rng = np.random.default_rng(4)
    u = rng.normal(0, 0.1, surface.vertex_count)
    t = 0.37
    l0 = edge_lengths(surface, weights, state.with_u(u))
    l1 = edge_lengths(surface, weights, state.with_u(u + t))
    assert np.allclose(l1, np.exp(t) * l0, rtol=1e-13)
    r0 = curvature(surface, weights, state.with_u(u))
    r1 = curvature(surface, weights, state.with_u(u + t))
    assert np.allclose(r0.angles, r1.angles, atol=1e-12)


def test_length_domain_violation_raises():
    with pytest.raises(NumericalDomainError):
        edge_length(EU, 0, 0, -1.0, 0.0, 0.0)
    with pytest.raises(NumericalDomainError):
        edge_length(HY, 0, 0, -0.5, 0.0, 0.0)


def test_length_overflow_raises():
    with pytest.raises(OverflowRangeError):
        edge_length(EU, 1, 1, 1.0, 600.0, 600.0)


def test_the_kernel_enters_its_own_errstate():
    # a bare kernel pass, under no caller's errstate: e^{2f} squared overflows at f = 360,
    # and the length check, not a RuntimeWarning, names the cause
    surface = generate("torus_grid", 4, 4)
    weights = WeightConfig.uniform(surface, 1, 1.0)
    f = np.zeros(16)
    f[5] = 360.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowRangeError, match="euclidean length overflow"):
            _metric(surface, _kernel_weights(EU, weights), EU, f, False)


def oracle_euclidean_length(eps_i, eps_j, eta, f_i, f_j):
    """The Euclidean length formula evaluated at 60 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        f_i, f_j, eta = mp.mpf(float(f_i)), mp.mpf(float(f_j)), mp.mpf(float(eta))
        rad = eps_i * mp.exp(2 * f_i) + eps_j * mp.exp(2 * f_j) + 2 * eta * mp.exp(f_i + f_j)
        return float(mp.sqrt(rad))


def lengths_of_pairs(eps_i, eps_j, eta, f_i, f_j):
    # the per-edge kernel on a complex of separate edges (2k, 2k + 1) and no face
    f = np.column_stack([f_i, f_j]).ravel()
    epsilon = np.tile([eps_i, eps_j], len(f_i))
    plan = SimpleNamespace(ends=np.arange(f.size).reshape(-1, 2).T, corners=np.zeros((5, 0), int))
    kernel = _kernel_weights(EU, WeightConfig(epsilon, np.full(len(f_i), eta)))
    return _shape(plan, kernel, EU, f)[1]


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eps_i, eps_j", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_euclidean_lengths_match_oracle_over_full_range(eps_i, eps_j, eta):
    # e^f is taken once per vertex and multiplied out, so the lengths must
    # stay within a few ulp across the whole range, mixed magnitudes included
    values = (-350.0, -1.0, 0.0, 1.0, 350.0)
    pairs = [(a, b) for a in values for b in values] + [(300.0, -300.0), (-300.0, 300.0)]
    f_i, f_j = np.array(pairs).T
    want = np.array([oracle_euclidean_length(eps_i, eps_j, eta, a, b) for a, b in pairs])
    for got in (
        edge_length(EU, eps_i, eps_j, eta, f_i, f_j),
        lengths_of_pairs(eps_i, eps_j, eta, f_i, f_j),
    ):
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))


def test_euclidean_length_errors_keep_their_cause():
    with pytest.raises(OverflowRangeError):
        edge_length(EU, 1, 1, 1.0, 400.0, 400.0)
    with pytest.raises(OverflowRangeError):
        lengths_of_pairs(1, 1, 1.0, np.array([400.0]), np.array([400.0]))
    with pytest.raises(NumericalDomainError):
        edge_length(EU, 0, 0, -1.0, 0.0, 0.0)
    with pytest.raises(NumericalDomainError):
        lengths_of_pairs(0, 0, -1.0, np.array([0.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# triangle angles


def test_equilateral_angles():
    th = triangle_angles(EU, 1.0, 1.0, 1.0)
    assert np.allclose(th, np.pi / 3.0, atol=1e-15)
    l = np.arccosh(3.0)
    th = triangle_angles(HY, l, l, l)
    assert np.allclose(th, np.arccos(0.75), atol=1e-12)


def test_right_triangle():
    th_i, th_j, th_k = triangle_angles(EU, 3.0, 4.0, 5.0)
    assert th_i == pytest.approx(np.pi / 2.0, abs=1e-14)
    assert th_i + th_j + th_k == pytest.approx(np.pi, abs=1e-14)


def test_euclidean_angle_sum_is_pi():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.uniform(0.2, 3.0, size=2)
        c = rng.uniform(abs(a - b) + 1e-3, a + b - 1e-3)
        th = triangle_angles(EU, a, b, c)
        assert abs(sum(th) - np.pi) < 1e-12


def test_hyperbolic_angle_sum_below_pi():
    rng = np.random.default_rng(6)
    for _ in range(200):
        a, b = rng.uniform(0.2, 3.0, size=2)
        c = rng.uniform(abs(a - b) + 1e-3, a + b - 1e-3)
        th = triangle_angles(HY, a, b, c)
        assert sum(th) < np.pi
        assert min(th) > 0.0


def test_large_length_angles_stay_finite():
    # lengths whose cosh overflows must give finite angles
    th = triangle_angles(HY, 800.0, 800.0, 800.0)
    assert np.all(np.isfinite(th))
    assert sum(th) < 1e-6


def test_degenerate_triangle_raises_without_extension():
    with pytest.raises(DegenerateTriangleError):
        triangle_angles(EU, 1.0, 1.0, 2.5)
    with pytest.raises(DegenerateTriangleError):
        triangle_angles(EU, 1.0, 1.0, 2.0)  # boundary counts as degenerate


def test_classification():
    assert not classify_triangle(EU, 1.0, 1.0, 1.0).is_degenerate
    s2 = np.sqrt(2.0)
    cls = classify_triangle(EU, s2, s2, 3.0 * s2)
    assert cls.corner == 0
    assert classify_triangle(EU, 3.0 * s2, s2, s2).corner == 2
    assert classify_triangle(EU, s2, 3.0 * s2, s2).corner == 1
    assert classify_triangle(EU, 1.0, 1.0, 2.0).corner == 0
    with pytest.raises(BadParameterError):
        classify_triangle(EU, -1.0, 1.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
@pytest.mark.parametrize("op", [triangle_angles, extended_triangle_angles, classify_triangle])
def test_single_triangle_ops_reject_bad_lengths(op, bad):
    for geometry in (EU, HY):
        for lengths in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(BadParameterError):
                op(geometry, *lengths)


@pytest.mark.parametrize("case", ["clear", "one wall", "nan"])
def test_wall_test_is_one_formula_on_clear_and_degenerate_faces(case):
    # every face clear takes a shortcut; its corners and dtype match the general rule
    a = np.random.default_rng(8).uniform(1.0, 1.5, size=(3, 40))  # corner-major
    if case == "one wall":
        a[:, 7] = (1.0, 3.0, 1.0)
    elif case == "nan":
        a[0, 3] = np.nan
    m = _margins(a[[0, 1, 2, 0, 1]])  # rolled rows
    margin, corner = _degeneracy(m)
    assert np.array_equal(margin, m.min(axis=0), equal_nan=True)
    expected = np.where(margin <= 0.0, m.argmin(axis=0), -1)
    assert corner.dtype == expected.dtype == np.intp
    assert np.array_equal(corner, expected)
    assert list(np.nonzero(corner >= 0)[0]) == ([7] if case == "one wall" else [])


def test_at_most_one_degenerate_corner():
    rng = np.random.default_rng(7)
    lengths = rng.uniform(0.05, 4.0, size=(500, 3))
    for a, b, c in lengths:
        m = [b + c - a, a + c - b, a + b - c]
        assert sum(1 for x in m if x <= 0) <= 1


def test_extended_angles_match_strict_inside():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a, b = rng.uniform(0.2, 3.0, size=2)
        c = rng.uniform(abs(a - b) + 1e-3, a + b - 1e-3)
        for geom in (EU, HY):
            strict = triangle_angles(geom, a, b, c)
            ext = extended_triangle_angles(geom, a, b, c)
            assert np.allclose(strict, ext, atol=0.0)


def test_extended_angles_on_walls():
    s2 = np.sqrt(2.0)
    assert extended_triangle_angles(EU, s2, s2, 3.0 * s2) == (np.pi, 0.0, 0.0)
    assert extended_triangle_angles(EU, 3.0 * s2, s2, s2) == (0.0, 0.0, np.pi)
    assert extended_triangle_angles(HY, 1.0, 1.0, 2.5) == (np.pi, 0.0, 0.0)


def test_extension_is_continuous_across_wall():
    # single face, cusp weights: l_pq = sqrt(2) exp((u_p + u_q)/2); the wall
    # at corner i sits where l_jk = l_ij + l_ik
    def angles(u):
        l_ij = edge_length(EU, 0, 0, 1.0, u[0], u[1])
        l_ik = edge_length(EU, 0, 0, 1.0, u[0], u[2])
        l_jk = edge_length(EU, 0, 0, 1.0, u[1], u[2])
        return np.array(extended_triangle_angles(EU, l_ij, l_ik, l_jk))

    crossing = -2.0 * np.log(2.0)
    ts = np.arange(crossing - 0.05, crossing + 0.05, 1e-5)
    vals = np.array([angles(np.array([t, 0.0, 0.0])) for t in ts])
    jumps = np.abs(np.diff(vals, axis=0)).max()
    assert jumps < 1e-2
    # extension really reaches pi at the wall
    assert vals[0, 0] == np.pi
    assert vals[-1, 0] < np.pi


# ---------------------------------------------------------------------------
# angles against a high-precision oracle


def oracle_angles(geometry, a):
    """Angles opposite the lengths ``a`` by the cosine rule at 80 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        a = [mp.mpf(float(x)) for x in a]
        out = []
        for c in range(3):
            x, y, z = a[c], a[(c + 1) % 3], a[(c + 2) % 3]
            if geometry is EU:
                cos = (y * y + z * z - x * x) / (2 * y * z)
            else:
                cos = (mp.cosh(y) * mp.cosh(z) - mp.cosh(x)) / (mp.sinh(y) * mp.sinh(z))
            out.append(float(mp.acos(cos)))
    return np.array(out)


def shapes(margins):
    """Opposite lengths a_c = (m_{c+1} + m_{c+2}) / 2 of triangles with margins m."""
    m = np.asarray(margins, dtype=np.float64)
    return 0.5 * (m[..., [1, 2, 0]] + m[..., [2, 0, 1]])


def angles_of(op, geometry, a):
    # the single-triangle ops take side-named lengths (l_ij, l_ik, l_jk)
    return np.array(op(geometry, a[2], a[1], a[0]))


@pytest.mark.parametrize("op", [triangle_angles, extended_triangle_angles])
@pytest.mark.parametrize("geometry", [EU, HY])
def test_angles_match_oracle_at_every_scale(geometry, op):
    # every margin at least 1e-3 of the perimeter
    rng = np.random.default_rng(12)
    for scale in (1e-9, 1e-6, 1e-3, 1.0, 10.0, 100.0):
        for a in scale * shapes(rng.uniform(0.004, 1.0, size=(20, 3))):
            got = angles_of(op, geometry, a)
            assert np.max(np.abs(got - oracle_angles(geometry, a))) < 1e-13


@pytest.mark.parametrize("op", [triangle_angles, extended_triangle_angles])
def test_euclidean_angles_at_extreme_scales(op):
    rng = np.random.default_rng(13)
    for a in shapes(rng.uniform(0.004, 1.0, size=(20, 3))):
        want = oracle_angles(EU, a)
        for scale in (1e-300, 1e300):
            assert np.max(np.abs(angles_of(op, EU, scale * a) - want)) < 1e-13


@pytest.mark.parametrize("op", [triangle_angles, extended_triangle_angles])
@pytest.mark.parametrize("length", [1e-6, 1e-9])
def test_tiny_hyperbolic_equilateral_angles(op, length):
    got = angles_of(op, HY, np.full(3, length))
    assert np.max(np.abs(got - oracle_angles(HY, np.full(3, length)))) < 1e-15
    assert np.max(np.abs(got - np.pi / 3.0)) < 1e-12


@pytest.mark.parametrize("op", [triangle_angles, extended_triangle_angles])
@pytest.mark.parametrize("geometry", [EU, HY])
def test_needle_angles_match_oracle(geometry, op):
    # flat triangles (one margin small, an angle near pi) and needles (two
    # small margins, one short side), smallest margin 1e-14..1e-4 of the
    # perimeter, at every corner
    rng = np.random.default_rng(14)
    for rel in 10.0 ** np.arange(-14, -3):
        for small in (1, 2):
            for corner in range(3):
                m = rng.uniform(0.2, 1.0, size=3)
                m[:small] = rel * m[small:].sum() / (1.0 - small * rel)
                a = shapes(np.roll(m, corner))
                got = angles_of(op, geometry, a)
                assert np.max(np.abs(got - oracle_angles(geometry, a))) < 1e-6


def test_wall_reachability_blocks_tangency_weights():
    # eps = 1 with eta = 1 has eta^2 - eps*eps = 0: no wall is reachable
    assert np.all(wall_reachability([1, 1, 1], [1.0, 1.0, 1.0]) == 0.0)
    rng = np.random.default_rng(9)
    for _ in range(300):
        f = rng.normal(0.0, 2.0, size=3)
        l_ij = edge_length(EU, 1, 1, 1.0, f[0], f[1])
        l_ik = edge_length(EU, 1, 1, 1.0, f[0], f[2])
        l_jk = edge_length(EU, 1, 1, 1.0, f[1], f[2])
        assert not classify_triangle(EU, l_ij, l_ik, l_jk).is_degenerate


@pytest.mark.parametrize("geometry", [EU, HY])
def test_non_obtuse_circle_patterns_reach_no_wall(geometry):
    # eps = 1 at every vertex and every eta in [0, 1]: at 60 digits no margin of a face
    # is non-positive for exponents up to |f| = 30, the premise on which
    # calculus._clear_of_walls certifies such weights without bounding a length
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(27)
    corners = np.array([0.0, 1.0, 30.0, -30.0])
    etas = np.vstack([rng.uniform(0.0, 1.0, (600, 3)), rng.choice([0.0, 1.0], (200, 3))])
    fs = np.vstack([rng.uniform(-30.0, 30.0, (600, 3)), rng.choice(corners, (200, 3))])
    with mp.workdps(60):
        for eta, f in zip(etas, rng.permutation(fs)):
            x = [mp.exp(mp.mpf(float(v))) for v in f]

            def length(i, j, e):
                cross = 2 * mp.mpf(e) * x[i] * x[j]
                if geometry is EU:
                    return mp.sqrt(x[i] ** 2 + x[j] ** 2 + cross)
                return mp.acosh(mp.sqrt((1 + x[i] ** 2) * (1 + x[j] ** 2)) + cross / 2)

            a = [length(1, 2, eta[0]), length(0, 2, eta[1]), length(0, 1, eta[2])]
            assert min(a[(c + 1) % 3] + a[(c + 2) % 3] - a[c] for c in range(3)) > 0


def test_wall_reachability_values():
    a = wall_reachability([0, 0, 0], [1.0, 2.0, 0.5])
    assert np.allclose(a, [1.0, 4.0, 0.25])
    a = wall_reachability([1, 1, 0], [1.0, 1.0, 1.0])
    # corner 0 faces edge {1,2}: eta^2 - eps_1*eps_2 = 1 - 0 = 1
    assert np.allclose(a, [1.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# curvature


@pytest.mark.parametrize("mismatch", sorted(mismatched_inputs()))
def test_curvature_and_lengths_reject_mismatched_inputs(mismatch):
    surface, weights, state = mismatched_inputs()[mismatch]
    for extended in (False, True):
        with pytest.raises(BadParameterError, match=mismatch):
            curvature(surface, weights, state, extended=extended)
    with pytest.raises(BadParameterError, match=mismatch):
        edge_lengths(surface, weights, state)


def test_tetrahedron_curvature_is_pi():
    surface, weights, state = make_setup("tetrahedron", epsilon=1, eta=1.0)
    report = curvature(surface, weights, state)
    assert np.allclose(report.curvature, np.pi, atol=1e-14)
    assert abs(gauss_bonnet_residual(report, 2)) < 1e-13
    assert report.face_areas is None


def test_torus_curvature_is_zero():
    surface, weights, state = make_setup("torus_grid", (3, 3), epsilon=0, eta=1.0)
    report = curvature(surface, weights, state)
    assert np.max(np.abs(report.curvature)) < 1e-13
    assert abs(gauss_bonnet_residual(report, 0)) < 1e-13


def test_hyperbolic_report_carries_areas():
    surface, weights, state = make_setup(
        "genus2", epsilon=0, eta=1.0, geometry=HY
    )
    report = curvature(surface, weights, state)
    assert report.face_areas is not None
    assert np.all(report.face_areas > 0.0)
    assert report.total_area == pytest.approx(report.face_areas.sum())
    assert abs(gauss_bonnet_residual(report, -2)) < 1e-12


@pytest.mark.parametrize("kind,dims", MESH_KINDS)
@pytest.mark.parametrize("geometry", [EU, HY])
def test_gauss_bonnet_random_states(kind, dims, geometry):
    rng = np.random.default_rng(10)
    surface, weights, _ = make_setup(kind, dims, epsilon=1, eta=1.0, geometry=geometry)
    for _ in range(10):
        state = random_admissible_state(surface, weights, geometry, rng)
        report = curvature(surface, weights, state)
        assert abs(gauss_bonnet_residual(report, surface.euler_characteristic)) < 1e-10


def test_forced_degenerate_face():
    surface = generate("tetrahedron")
    eta = np.ones(surface.edge_count)
    eta[surface.edge_id(1, 2)] = 9.0
    weights = WeightConfig(epsilon=np.ones(4, dtype=int), eta=eta)
    state = ConformalState(EU, weights.epsilon, np.zeros(4))
    with pytest.raises(DegenerateFaceError):
        curvature(surface, weights, state, extended=False)
    report = curvature(surface, weights, state, extended=True)
    face_012 = next(f for f in range(surface.face_count) if set(surface.faces[f]) == {0, 1, 2})
    face_123 = next(f for f in range(surface.face_count) if set(surface.faces[f]) == {1, 2, 3})
    assert (face_012, 0) in report.degenerate_faces
    assert (face_123, 2) in report.degenerate_faces
    # the degenerate face contributes exactly pi at its wide corner
    assert report.angles[face_012, 0] == np.pi
    assert report.angles[face_012, 1] == 0.0
    # extended totals still satisfy the closed-surface angle count
    assert abs(gauss_bonnet_residual(report, 2)) < 1e-12


def test_extended_euclidean_angle_rows_sum_to_pi():
    rng = np.random.default_rng(11)
    surface, weights, state = make_setup("torus_grid", (3, 3), epsilon=0, eta=1.0)
    for _ in range(20):
        u = rng.normal(0.0, 1.2, surface.vertex_count)
        report = curvature(surface, weights, state.with_u(u), extended=True)
        assert np.allclose(report.angles.sum(axis=1), np.pi, atol=1e-10)
        assert abs(gauss_bonnet_residual(report, 0)) < 1e-10


def test_base_state_matches_factors():
    eps = np.array([1, 0, 1, 0])
    st = base_state(HY, eps)
    assert np.allclose(st.f, 0.0, atol=1e-15)
    st = base_state(EU, eps)
    assert np.allclose(st.u, 0.0)


# ---------------------------------------------------------------------------
# length bounds and angle decay


@pytest.mark.parametrize(
    "eps_j,eta,lam,mu",
    [
        (1, 1.0, 1.0, 2.0),
        (1, -0.5, 0.25, 1.5),
        (0, 0.3, 0.3, 1.3),
        (1, 2.0, 1.0, 3.0),
    ],
)
def test_coshl_bounds_values(eps_j, eta, lam, mu):
    got = coshl_bounds(eps_j, eta)
    assert got == (lam, mu)


def test_coshl_bounds_rejects_bad_hypotheses():
    with pytest.raises(BadParameterError):
        coshl_bounds(0, -0.1)
    with pytest.raises(BadParameterError):
        coshl_bounds(0, 0.0)
    with pytest.raises(BadParameterError):
        coshl_bounds(1, -1.0)
    with pytest.raises(BadParameterError):
        coshl_bounds(2, 1.0)


def test_coshl_bounds_hold_on_samples():
    rng = np.random.default_rng(12)
    for _ in range(300):
        eps_j = int(rng.integers(0, 2))
        eta = rng.uniform(-0.95, 3.0) if eps_j == 1 else rng.uniform(0.05, 3.0)
        lam, mu = coshl_bounds(eps_j, eta)
        f_i, f_j = rng.uniform(-5.0, 5.0, size=2)
        l = edge_length(HY, 1, eps_j, eta, f_i, f_j)
        s_i, c_i = np.exp(f_i), np.hypot(1.0, np.exp(f_i))
        s_j = np.exp(f_j)
        c_j = np.hypot(1.0, s_j) if eps_j == 1 else 1.0
        ref = c_i * c_j + s_i * s_j
        assert lam * ref <= np.cosh(l) * (1.0 + 1e-12)
        assert np.cosh(l) <= mu * ref * (1.0 + 1e-12)


def test_cone_angle_decays_with_large_exponent():
    rng = np.random.default_rng(13)
    for _ in range(200):
        f_i = rng.uniform(10.0, 20.0)
        f_j, f_k = rng.uniform(-1.0, 1.0, size=2)
        eps_j, eps_k = rng.integers(0, 2, size=2)
        eta = rng.uniform(0.1, 2.0)
        l_ij = edge_length(HY, 1, eps_j, eta, f_i, f_j)
        l_ik = edge_length(HY, 1, eps_k, eta, f_i, f_k)
        l_jk = edge_length(HY, eps_j, eps_k, eta, f_j, f_k)
        th = extended_triangle_angles(HY, l_ij, l_ik, l_jk)
        assert th[0] < 1e-3
