"""The energy quadrature against an independent integrator, and its failure bound."""

import functools

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from dcflow import calculus
from dcflow.calculus import QUADRATURE_TOL, segment_face_energies
from dcflow.errors import QuadratureFailureError
from dcflow.geometry import ConformalState, Geometry, curvature

from conftest import make_setup, random_admissible_state
from test_solve import cone_torus_setup, degenerate_cone_state


def oracle_face_energies(surface, weights, geometry, u_from, u_to):
    """Per-face integrals of theta . du by QUADPACK, one face at a time.

    The integrand comes from the public ``curvature`` report, and every
    face whose triangle-inequality margin changes sign along the path has
    its crossing located by Brent's method and passed as a breakpoint.
    Returns the integrals and the number of crossings.
    """
    du = u_to - u_from

    @functools.lru_cache(maxsize=None)
    def report(t):
        state = ConformalState(geometry, weights.epsilon, u_from + t * du)
        return curvature(surface, weights, state, extended=True)

    def margin(face, t):
        a = report(t).lengths[surface.face_edges[face]]
        return min(a[(c + 1) % 3] + a[(c + 2) % 3] - a[c] for c in range(3))

    values, crossings = [], 0
    for face, corners in enumerate(surface.faces):
        points = None
        if (margin(face, 0.0) > 0.0) != (margin(face, 1.0) > 0.0):
            points = [brentq(lambda t: margin(face, t), 0.0, 1.0, xtol=1e-15)]
            crossings += 1
        value, error = quad(
            lambda t: report(t).angles[face] @ du[corners],
            0.0,
            1.0,
            epsabs=1e-13,
            epsrel=0.0,
            points=points,
            limit=200,
        )
        assert error < 1e-12
        values.append(value)
    return np.array(values), crossings


def random_path(kind, dims, geometry, seed):
    """Strict path between two random nondegenerate states, eps = 1."""
    surface, weights, _ = make_setup(kind, dims, epsilon=1, geometry=geometry)
    rng = np.random.default_rng(seed)
    a, b = (random_admissible_state(surface, weights, geometry, rng) for _ in range(2))
    return surface, weights, geometry, a.u, b.u, False


def smooth_euclidean_path():
    return random_path("torus_grid", (4, 4), Geometry.EUCLIDEAN, 11)


def hyperbolic_path():
    return random_path("genus2", (), Geometry.HYPERBOLIC, 12)


def wall_crossing_path():
    surface, weights = cone_torus_setup()
    end = degenerate_cone_state(surface, weights)
    return surface, weights, Geometry.EUCLIDEAN, np.zeros(surface.vertex_count), end.u, True


@pytest.mark.filterwarnings("error", category=IntegrationWarning)
@pytest.mark.parametrize(
    "path", [smooth_euclidean_path, hyperbolic_path, wall_crossing_path], ids=lambda p: p.__name__
)
def test_face_energies_match_quadpack(path):
    surface, weights, geometry, u_from, u_to, extended = path()
    ours = segment_face_energies(surface, weights, geometry, u_from, u_to, extended=extended)
    oracle, crossings = oracle_face_energies(surface, weights, geometry, u_from, u_to)
    assert (crossings > 0) == extended
    assert np.max(np.abs(ours - oracle)) < QUADRATURE_TOL


def count_evaluations(monkeypatch):
    """Node counts of the integrand evaluations segment_face_energies makes."""
    sizes = []
    energy_evaluator = calculus._energy_evaluator

    def counting_evaluator(*args):
        evaluate = energy_evaluator(*args)

        def counted(ts):
            sizes.append(ts.size)
            return evaluate(ts)

        return counted

    monkeypatch.setattr(calculus, "_energy_evaluator", counting_evaluator)
    return sizes


def test_certified_segment_is_one_evaluation(monkeypatch):
    # a short step certified clear of walls, whose two anchored halves both
    # converge at n = 8, evaluates n = 4 and n = 8 on both in a single call
    surface, weights, _ = make_setup("torus_grid", (4, 4))
    rng = np.random.default_rng(31)
    u_from = rng.normal(0.0, 0.1, surface.vertex_count)
    u_to = u_from + rng.normal(0.0, 0.01, surface.vertex_count)
    eps, eta = weights.epsilon, weights.eta
    assert calculus._clear_of_walls(Geometry.EUCLIDEAN, surface, eps, eta, u_from, u_to - u_from)
    sizes = count_evaluations(monkeypatch)
    per_face = segment_face_energies(surface, weights, Geometry.EUCLIDEAN, u_from, u_to)
    assert sizes == [2 * (4 + 8)]
    oracle, _ = oracle_face_energies(surface, weights, Geometry.EUCLIDEAN, u_from, u_to)
    assert np.max(np.abs(per_face - oracle)) < QUADRATURE_TOL


@pytest.mark.filterwarnings("error", category=IntegrationWarning)
def test_wall_crossing_path_batches_each_round(monkeypatch):
    # several smooth pieces between wall crossings share each round's call
    surface, weights, geometry, u_from, u_to, extended = wall_crossing_path()
    sizes = count_evaluations(monkeypatch)
    ours = segment_face_energies(surface, weights, geometry, u_from, u_to, extended=extended)
    rounds = len(sizes)
    assert 1 < rounds <= 4
    assert max(sizes) <= calculus._PIECE_CAP
    oracle, crossings = oracle_face_energies(surface, weights, geometry, u_from, u_to)
    assert crossings > 0
    assert np.max(np.abs(ours - oracle)) < QUADRATURE_TOL


def random_segments(kind, dims, geometry, seed):
    """Seeded segments from admissible states by steps in f of several sizes.

    eps = 1 and eta = 2, so walls are reachable and the longer steps cross them.
    """
    surface, weights, _ = make_setup(kind, dims, epsilon=1, eta=2.0, geometry=geometry)
    rng = np.random.default_rng(seed)
    segments = []
    for scale in (0.03, 0.1, 0.3, 1.0, 3.0) * 4:
        start = random_admissible_state(surface, weights, geometry, rng)
        end = ConformalState.from_f(
            geometry, weights.epsilon, start.f + rng.normal(0.0, scale, surface.vertex_count)
        )
        segments.append((start.u, end.u))
    return surface, weights, geometry, segments


@pytest.mark.parametrize(
    "kind, dims, geometry",
    [("torus_grid", (6, 6), Geometry.EUCLIDEAN), ("genus2", (), Geometry.HYPERBOLIC)],
    ids=["euclidean-torus", "hyperbolic-genus2"],
)
def test_wall_certificate_is_sound(monkeypatch, kind, dims, geometry):
    # where the length bounds certify a segment, no margin on a fine grid may
    # be non-positive, and skipping the scan must not change a single bit
    surface, weights, geometry, segments = random_segments(kind, dims, geometry, 21)
    eps, eta = weights.epsilon, weights.eta
    grid = np.linspace(0.0, 1.0, 4097)
    certified, refused, energies = 0, 0, []
    for u_from, u_to in segments:
        du = u_to - u_from
        if calculus._clear_of_walls(geometry, surface, eps, eta, u_from, du):
            certified += 1
            lengths = calculus._segment_shape(geometry, surface, eps, eta, u_from, du, grid)
            margins = calculus._degeneracy(lengths)[0]
            assert np.all(margins > 0.0)
            strict = segment_face_energies(surface, weights, geometry, u_from, u_to, extended=False)
        else:
            refused += 1
            strict = None
        extended = segment_face_energies(surface, weights, geometry, u_from, u_to)
        energies.append((extended, strict))
    assert certified >= 8 and refused >= 8

    monkeypatch.setattr(calculus, "_clear_of_walls", lambda *args: False)
    for (u_from, u_to), (extended, strict) in zip(segments, energies):
        scanned = segment_face_energies(surface, weights, geometry, u_from, u_to)
        assert scanned.tobytes() == extended.tobytes()
        if strict is not None:
            scanned = segment_face_energies(
                surface, weights, geometry, u_from, u_to, extended=False
            )
            assert scanned.tobytes() == strict.tobytes()


def test_wall_certificate_refuses_a_crossing():
    surface, weights, geometry, u_from, u_to, _ = wall_crossing_path()
    eps, eta = weights.epsilon, weights.eta
    assert not calculus._clear_of_walls(geometry, surface, eps, eta, u_from, u_to - u_from)


def right_riemann_sums(surface, weights, geometry, u_from, u_to):
    """(1/m) sum_{i=1..m} phi'(i/m) for m = 2, 4, 8, with phi'(t) = K(u_from + t du) . du."""
    du = u_to - u_from

    def slope(t):
        state = ConformalState(geometry, weights.epsilon, u_from + t * du)
        return float(curvature(surface, weights, state, extended=True).curvature @ du)

    return [sum(slope(i / m) for i in range(1, m + 1)) / m for m in (2, 4, 8)]


@pytest.mark.parametrize(
    "path", [smooth_euclidean_path, hyperbolic_path, wall_crossing_path], ids=lambda p: p.__name__
)
def test_right_riemann_sums_bound_the_increment(path):
    # phi' is nondecreasing along any segment (the potential is convex and
    # C1, walls included), so refining the right Riemann sum can only lower
    # it, and it never drops below the increment the quadrature computes
    surface, weights, geometry, u_from, u_to, extended = path()
    per_face = segment_face_energies(surface, weights, geometry, u_from, u_to, extended=extended)
    increment = 2.0 * np.pi * float((u_to - u_from).sum()) - float(per_face.sum())
    r2, r4, r8 = right_riemann_sums(surface, weights, geometry, u_from, u_to)
    assert r2 >= r4 >= r8 >= increment - 1e-10


def test_nonconvergent_integrand_fails_within_piece_cap(monkeypatch):
    # seeded noise on the integrand defeats every rule, so the quadrature
    # must give up at the piece cap without building anything larger
    assert calculus._PIECE_CAP <= 1 << 10
    rules, sizes = [], []
    gauss_rule = calculus._gauss_rule
    energy_evaluator = calculus._energy_evaluator
    rng = np.random.default_rng(13)

    def recording_rule(n):
        rules.append(n)
        return gauss_rule(n)

    def noisy_evaluator(*args):
        evaluate = energy_evaluator(*args)

        def noisy(ts):
            vals = evaluate(ts)
            sizes.append(vals.shape[-1])
            return vals + rng.normal(0.0, 1e-3, vals.shape)

        return noisy

    monkeypatch.setattr(calculus, "_gauss_rule", recording_rule)
    monkeypatch.setattr(calculus, "_energy_evaluator", noisy_evaluator)
    surface, weights, state = make_setup("torus_grid", (3, 3))
    u = np.random.default_rng(14).normal(0.0, 0.2, surface.vertex_count)
    with pytest.raises(QuadratureFailureError):
        segment_face_energies(surface, weights, Geometry.EUCLIDEAN, state.u, u)
    assert max(rules) == calculus._PIECE_CAP
    assert max(sizes) <= calculus._PIECE_CAP
