"""The energy quadrature against an independent integrator, and its failure bound."""

import functools
import zlib

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from dcflow import calculus
from dcflow.calculus import QUADRATURE_TOL, segment_face_energies
from dcflow.errors import BadParameterError, QuadratureFailureError
from dcflow.flows import FlowKind, FlowSpec, run_flow
from dcflow.geometry import ConformalState, Geometry, _kernel_weights, curvature
from dcflow.surface import WeightConfig, generate

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


def vertex_scaling_face_function(surface, weights, u):
    """Per-face F(u) = sum_c (theta_c lambda_c / 2 + L(theta_c)) for eps = 0, at 20 digits.

    lambda_c = log(2 eta_c) + u_{c+1} + u_{c+2} is twice the log of the length opposite
    corner c, and L(x) = Cl_2(2x) / 2 is Milnor's Lobachevsky function.  By
    Bobenko-Pinkall-Springborn, dF/du_c = (pi - theta_c) / 2, walls included with the
    extended angles, which the cosine rule clamped to [-1, 1] gives past a wall.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 20
    values = []
    for corners, edges in zip(surface.faces, surface.face_edges):
        lam = [
            mp.log(2 * mp.mpf(weights.eta[edges[c]]))
            + mp.mpf(u[corners[(c + 1) % 3]]) + mp.mpf(u[corners[(c + 2) % 3]])
            for c in range(3)
        ]
        length = [mp.exp(x / 2) for x in lam]
        total = mp.mpf(0)
        for c in range(3):
            a, b, opposite = length[(c + 1) % 3], length[(c + 2) % 3], length[c]
            theta = mp.acos(min(max((a * a + b * b - opposite**2) / (2 * a * b), -1), 1))
            total += theta * lam[c] / 2 + mp.clsin(2, 2 * theta) / 2
        values.append(total)
    return values


def test_vertex_scaling_energies_match_the_closed_form():
    # on a whole eps = 0 torus, along a short certified segment and a long one through
    # walls, each face's integral is pi sum(du) - 2 (F(u_to) - F(u_from))
    surface, weights, _ = make_setup("torus_grid", (4, 4), epsilon=0)
    geometry, eps = Geometry.EUCLIDEAN, weights.epsilon
    kernel = _kernel_weights(geometry, weights)
    rng = np.random.default_rng(27)
    u_from = random_admissible_state(surface, weights, geometry, rng).u
    ends = {"clear": u_from + rng.normal(0.0, 0.05, u_from.size), "walls": 3.0 * u_from}
    at_start = vertex_scaling_face_function(surface, weights, u_from)
    for name, u_to in ends.items():
        column = u_from[:, None], (u_to - u_from)[:, None]
        certified = calculus._clear_of_walls(geometry, surface, kernel, *column)[0]
        assert certified == (name == "clear")
        at_end = vertex_scaling_face_function(surface, weights, u_to)
        rise = (u_to - u_from)[surface.faces].sum(axis=1)
        exact = [float(np.pi * r - 2 * (b - a)) for r, a, b in zip(rise, at_start, at_end)]
        ours = segment_face_energies(surface, weights, geometry, u_from, u_to)
        assert np.max(np.abs(ours - exact)) < QUADRATURE_TOL, name
    end = ConformalState(geometry, eps, ends["walls"])
    assert curvature(surface, weights, end, extended=True).degenerate_faces


@pytest.mark.parametrize("offset", [0.0, 1e-14, 1e-10, 1e-6])
def test_segments_from_just_before_a_wall_converge(offset):
    # a lone eps = 0 triangle from u_0 = -log 4 + offset, where its margin opposite corner 0
    # is 0 or just above it, back to the flat triangle: the integrand has a square-root
    # branch point at or just before the start, which halves anchored at the segment's
    # ends absorb and a single Gauss rule on the segment does not (it stalls at 1024 nodes)
    weights = WeightConfig(np.zeros(3, dtype=int), np.ones(3))
    start, end = np.array([-np.log(4.0) + offset, 0.0, 0.0]), np.zeros(3)
    ours = calculus.triangle_energy(Geometry.EUCLIDEAN, [0] * 3, [1.0] * 3, end, start, True)
    at_start, at_end = (
        vertex_scaling_face_function(calculus._TRIANGLE, weights, u)[0] for u in (start, end)
    )
    exact = float(np.pi * (end - start).sum() - 2 * (at_end - at_start))
    assert abs(ours - exact) < QUADRATURE_TOL


def count_evaluations(monkeypatch):
    """Node counts of the integrand evaluations segment_face_energies makes."""
    sizes = []
    energy_evaluator = calculus._energy_evaluator

    def counting_evaluator(*args):
        evaluate = energy_evaluator(*args)

        def counted(ts, seg):
            sizes.append(ts.size)
            return evaluate(ts, seg)

        return counted

    monkeypatch.setattr(calculus, "_energy_evaluator", counting_evaluator)
    return sizes


def test_segment_energies_reject_inputs_that_do_not_fit_the_surface():
    # ends of the wrong size raised IndexError or numpy's broadcast ValueError, and
    # weights one eta short a broadcast ValueError
    surface, weights, _ = make_setup("torus_grid", (4, 4))
    geometry, u = Geometry.EUCLIDEAN, np.zeros(surface.vertex_count)
    short = WeightConfig(weights.epsilon, weights.eta[:-1])
    with pytest.raises(BadParameterError, match="eta length does not match edge count"):
        segment_face_energies(surface, short, geometry, u, u + 0.1)
    for u_from, u_to in [(u[:5], u + 0.1), (u, np.zeros(17)), (u, np.zeros((16, 1)))]:
        with pytest.raises(BadParameterError, match="the segment's ends have shapes"):
            segment_face_energies(surface, weights, geometry, u_from, u_to)


def test_certified_segment_is_one_evaluation(monkeypatch):
    # with weights that reach no wall a short step is one piece on [0, 1]; it
    # converges at n = 8, so it evaluates n = 4 and n = 8 in a single call
    surface, weights, _ = make_setup("torus_grid", (4, 4))
    rng = np.random.default_rng(31)
    u_from = rng.normal(0.0, 0.1, surface.vertex_count)
    u_to = u_from + rng.normal(0.0, 0.01, surface.vertex_count)
    kernel = _kernel_weights(Geometry.EUCLIDEAN, weights)
    column = u_from[:, None], (u_to - u_from)[:, None]
    assert calculus._clear_of_walls(Geometry.EUCLIDEAN, surface, kernel, *column)
    sizes = count_evaluations(monkeypatch)
    per_face = segment_face_energies(surface, weights, Geometry.EUCLIDEAN, u_from, u_to)
    assert sizes == [4 + 8]
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


def never_clear(geometry, mesh, kernel, u0, du):
    """A wall certificate that refuses every column, so that every segment is scanned."""
    return np.zeros(du.shape[1:], dtype=bool)


def random_segments(kind, dims, geometry, seed, eta=2.0):
    """Seeded segments from admissible states by steps in f of several sizes.

    eps = 1 and eta = 2, so walls are reachable and the longer steps cross them.
    """
    surface, weights, _ = make_setup(kind, dims, epsilon=1, eta=eta, geometry=geometry)
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
    kernel = _kernel_weights(geometry, weights)
    grid = np.linspace(0.0, 1.0, 4097)
    certified, refused, energies = 0, 0, []
    for u_from, u_to in segments:
        du = u_to - u_from
        columns, seg = (u_from[:, None], du[:, None]), np.zeros(grid.size, dtype=int)
        if calculus._clear_of_walls(geometry, surface, kernel, *columns):
            certified += 1
            _, m = calculus._segment_shape(geometry, surface, kernel, *columns, grid, seg)
            margins = calculus._degeneracy(m)[0]
            assert np.all(margins > 0.0)
            strict = segment_face_energies(surface, weights, geometry, u_from, u_to, extended=False)
        else:
            refused += 1
            strict = None
        extended = segment_face_energies(surface, weights, geometry, u_from, u_to)
        energies.append((extended, strict))
    assert certified >= 8 and refused >= 8

    monkeypatch.setattr(calculus, "_clear_of_walls", never_clear)
    for (u_from, u_to), (extended, strict) in zip(segments, energies):
        scanned = segment_face_energies(surface, weights, geometry, u_from, u_to)
        assert scanned.tobytes() == extended.tobytes()
        if strict is not None:
            scanned = segment_face_energies(
                surface, weights, geometry, u_from, u_to, extended=False
            )
            assert scanned.tobytes() == strict.tobytes()


@pytest.mark.parametrize(
    "kind, dims, geometry",
    [("torus_grid", (6, 6), Geometry.EUCLIDEAN), ("genus2", (), Geometry.HYPERBOLIC)],
    ids=["euclidean-torus", "hyperbolic-genus2"],
)
def test_batched_wall_certificate_matches_single_calls(kind, dims, geometry):
    # each column gets the verdict of its own call, slack included
    surface, weights, geometry, segments = random_segments(kind, dims, geometry, 22)
    kernel = _kernel_weights(geometry, weights)
    u0 = np.stack([u_from for u_from, _ in segments], axis=1)
    du = np.stack([u_to for _, u_to in segments], axis=1) - u0
    certify = functools.partial(calculus._clear_of_walls, geometry, surface, kernel)
    batched = certify(u0, du)
    single = [certify(a[:, None], (b - a)[:, None])[0] for a, b in segments]
    assert batched.tolist() == single
    assert 0 < sum(single) < len(single)
    f_ends = np.stack([u0, u0 + du], axis=1) if geometry is Geometry.EUCLIDEAN else None
    if f_ends is not None:
        lo, hi = calculus._edge_length_bounds(geometry, kernel, surface.edges, f_ends)
        assert lo.shape == hi.shape == (surface.edge_count, len(segments))


def test_potential_chain_certifies_in_chunks(monkeypatch):
    # the quadrature's chain integrates its segments in chunks whose first doubling round
    # (4 + 8 nodes a segment) is one integrand evaluation, with the values of one
    # segment_face_energies call a segment (these weights, eps = eta = 1, give the
    # potential chain a closed form, whose oracle this chain is)
    surface, weights, state = make_setup("torus_grid", (4, 4))
    geometry, base_u = Geometry.EUCLIDEAN, state.u
    steps = np.random.default_rng(23).normal(0.0, 0.02, (70, surface.vertex_count))
    us = list(base_u + np.cumsum(steps, axis=0))
    target = np.zeros(surface.vertex_count)
    expected, energy = [], None
    for u_from, u_to in zip([base_u, *us[:-1]], us):
        per_face = segment_face_energies(surface, weights, geometry, u_from, u_to)
        rise = float(u_to.sum() - u_from.sum()) if energy is not None else float(u_to.sum())
        step = 2.0 * np.pi * rise - float(per_face.sum())
        energy = step if energy is None else energy + step
        expected.append(energy - float(target @ (u_to - base_u)))
    batches, integrate = [], calculus._integrate_face_energies

    def counting_integrate(geometry, mesh, weights, u0, u1, extended):
        batches.append(u0.shape[1:])
        return integrate(geometry, mesh, weights, u0, u1, extended)

    monkeypatch.setattr(calculus, "_integrate_face_energies", counting_integrate)
    sizes = count_evaluations(monkeypatch)
    values = calculus._quadrature_chain(surface, weights, geometry, target, base_u, us)
    assert list(values) == expected
    per_call = calculus._CALL_SIZE // (12 * len(surface.faces))
    assert batches == [(per_call,), (len(us) - per_call,)]
    assert sizes == [12 * per_call, 12 * (len(us) - per_call)]


@pytest.mark.parametrize("epsilon", [1, 0], ids=["tangency", "vertex-scaling"])
def test_closed_form_rows_do_not_depend_on_their_chunk(epsilon):
    # the closed-form chain evaluates its rows in chunks of at most _CALL_SIZE corners;
    # each row, walls crossed or not, gets the bits it gets alone
    surface, weights, _ = make_setup("torus_grid", (6, 6), epsilon=epsilon)
    geometry, target, base_u = Geometry.EUCLIDEAN, np.ones(36) / 36, np.zeros(36)
    scales = np.linspace(0.02, 0.8, 100)[:, None]
    us = list(np.random.default_rng(29).normal(0.0, 1.0, (100, 36)) * scales)
    if epsilon == 0:
        states = [ConformalState(geometry, weights.epsilon, u) for u in us]
        walls = [curvature(surface, weights, state, True).degenerate_faces for state in states]
        assert 0 < sum(map(bool, walls)) < len(us)
    assert calculus._CALL_SIZE // (3 * len(surface.faces)) < len(us)
    together = calculus._potential_chain(surface, weights, geometry, target, base_u, us)
    for u, value in zip(us, together):
        assert calculus._potential_chain(surface, weights, geometry, target, base_u, [u]) == (value,)


@pytest.mark.parametrize(
    "kind, dims, geometry",
    [("torus_grid", (6, 6), Geometry.EUCLIDEAN), ("genus2", (), Geometry.HYPERBOLIC)],
    ids=["euclidean-torus", "hyperbolic-genus2"],
)
def test_segment_values_do_not_depend_on_their_batch(monkeypatch, kind, dims, geometry):
    # clear, scanned, wall-crossing and zero segments integrated together in one chunk
    # give each segment the bits it gets alone
    surface, weights, geometry, segments = random_segments(kind, dims, geometry, 26)
    segments.insert(3, (segments[2][0], segments[2][0]))
    u0, u1 = (np.stack(ends, axis=1) for ends in zip(*segments))
    kernel = _kernel_weights(geometry, weights)
    clear = calculus._clear_of_walls(geometry, surface, kernel, u0, u1 - u0)
    assert 0 < clear.sum() < len(segments) - 1
    cuts, locate_crossings = [], calculus._locate_crossings

    def counting_crossings(*args):
        cuts.append(len(locate_crossings(*args)))
        return locate_crossings(*args)

    monkeypatch.setattr(calculus, "_locate_crossings", counting_crossings)
    together = calculus._integrate_face_energies(geometry, surface, weights, u0, u1, True)
    assert 0 < cuts.count(0) < len(cuts)
    for (u_from, u_to), values in zip(segments, together):
        alone = segment_face_energies(surface, weights, geometry, u_from, u_to)
        assert values.tobytes() == alone.tobytes()


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
def test_kernel_weights_resolved_once_per_call(monkeypatch, geometry):
    # the integrand, the wall scan and the bisection run on the kernel weights that
    # _integrate_face_energies resolves once, and the closed-form chain on its own one
    resolved, kernel_weights = [], calculus._kernel_weights

    def counted(*args):
        resolved.append(args)
        return kernel_weights(*args)

    monkeypatch.setattr(calculus, "_kernel_weights", counted)
    surface, weights, geometry, segments = random_segments("torus_grid", (6, 6), geometry, 26)
    u0, u1 = (np.stack(ends, axis=1) for ends in zip(*segments))
    sizes = count_evaluations(monkeypatch)
    calculus._integrate_face_energies(geometry, surface, weights, u0, u1, True)
    assert len(sizes) > 1
    assert len(resolved) == 1
    if geometry is Geometry.EUCLIDEAN:  # tangency packings have a closed form
        surface, weights, _ = make_setup("torus_grid", (6, 6))
        us = list(np.random.default_rng(29).normal(0.0, 0.3, (100, 36)))
        assert calculus._CALL_SIZE // (3 * len(surface.faces)) < len(us)  # several chunks
        resolved.clear()
        calculus._potential_chain(surface, weights, geometry, np.zeros(36), np.zeros(36), us)
        assert len(resolved) == 1


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
def test_one_piece_segments_do_not_depend_on_their_batch(geometry):
    # with weights that reach no wall (eps = eta = 1) every segment is one piece, short
    # and long ones together in one chunk; each gets the bits it gets alone
    surface, weights, geometry, segments = random_segments("torus_grid", (4, 4), geometry, 28, 1.0)
    u0, u1 = (np.stack(ends, axis=1) for ends in zip(*segments))
    together = calculus._integrate_face_energies(geometry, surface, weights, u0, u1, True)
    for (u_from, u_to), values in zip(segments, together):
        alone = segment_face_energies(surface, weights, geometry, u_from, u_to)
        assert values.tobytes() == alone.tobytes()


def test_wall_certificate_refuses_a_crossing():
    surface, weights, geometry, u_from, u_to, _ = wall_crossing_path()
    kernel = _kernel_weights(geometry, weights)
    column = u_from[:, None], (u_to - u_from)[:, None]
    assert not calculus._clear_of_walls(geometry, surface, kernel, *column)


def test_weights_certify_a_non_obtuse_pattern(monkeypatch):
    # with eps = 1 and every eta in [0, 1] no wall is reachable, so the integration
    # certifies every segment from the weights alone, with no length bound and no wall
    # certificate.  On flow_smooth's long seed-1 start segment (base -> start) the 65-point
    # scan of an uncertified segment finds every margin positive: it would cut nothing and
    # raise nothing, so the pieces, and the bits, would be the same
    surface = generate("torus_grid", 10, 10)
    weights, geometry = WeightConfig.uniform(surface, 1, 1.0), Geometry.EUCLIDEAN
    u = np.random.default_rng([1, zlib.crc32(b"flow_smooth")]).normal(0.0, 0.3, 100)
    u_from, u_to = np.zeros(100), u - u.mean()
    kernel = _kernel_weights(geometry, weights)

    def no_bounds(*args):
        raise AssertionError("the length bounds ran")

    monkeypatch.setattr(calculus, "_edge_length_bounds", no_bounds)
    monkeypatch.setattr(calculus, "_clear_of_walls", no_bounds)
    u0, u1 = np.stack([u_from] * 2, axis=1), np.stack([u_to] * 2, axis=1)  # two columns
    for extended in (True, False):
        alone = segment_face_energies(surface, weights, geometry, u_from, u_to, extended=extended)
        both = calculus._integrate_face_energies(geometry, surface, weights, u0, u1, extended)
        assert both[0].tobytes() == both[1].tobytes() == alone.tobytes()
    grid, seg = np.linspace(0.0, 1.0, 65), np.zeros(65, dtype=int)
    columns = u_from[:, None], (u_to - u_from)[:, None]
    _, m = calculus._segment_shape(geometry, surface, kernel, *columns, grid, seg)
    assert np.all(calculus._degeneracy(m)[0] > 0.0)


def one_crossing_at_a_time(margins_at, grid, margins):
    """Reference bisection: each sign change of the scan on its own, one point per call."""
    sign = margins > 0.0
    cuts = []
    for face, cell in zip(*np.nonzero(sign[:, 1:] != sign[:, :-1])):
        lo, hi, want = grid[cell], grid[cell + 1], sign[face, cell]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (margins_at(np.array([mid]))[face, 0] > 0.0) == want:
                lo = mid
            else:
                hi = mid
        cuts.append(0.5 * (lo + hi))
    return sorted(c for c in cuts if 1e-14 < c < 1.0 - 1e-14)


def test_batched_bisection_matches_one_crossing_at_a_time():
    # bisecting all sign changes of a segment together gives the cuts of the one-at-a-time
    # bisection bit for bit, in margin calls no larger than the 65-point scan
    grid, sizes, crossings = np.linspace(0.0, 1.0, 65), [], 0
    surface, weights, geometry, u_from, u_to, _ = wall_crossing_path()
    cases = [(surface, weights, geometry, [(u_from, u_to)])]
    cases += [random_segments("torus_grid", (6, 6), geometry, 24) for geometry in Geometry]
    for surface, weights, geometry, segments in cases:
        kernel = _kernel_weights(geometry, weights)
        for u_from, u_to in segments:

            def margins_at(ts):
                sizes.append(ts.size)
                columns, seg = (u_from[:, None], (u_to - u_from)[:, None]), np.zeros(ts.size, int)
                m = calculus._segment_shape(geometry, surface, kernel, *columns, ts, seg)
                return calculus._degeneracy(m[1])[0]

            margins = margins_at(grid)
            cuts = calculus._locate_crossings(margins_at, grid, margins)
            assert cuts == one_crossing_at_a_time(margins_at, grid, margins)
            crossings += len(cuts)
    assert crossings > 20
    assert max(sizes) == grid.size

    # more sign changes than scan points: each round takes them in calls of at most 65
    roots = np.random.default_rng(25).uniform(0.0, 1.0, 200)
    sizes.clear()

    def linear(ts):
        sizes.append(ts.size)
        return roots[:, None] - ts

    cuts = calculus._locate_crossings(linear, grid, linear(grid))
    assert sizes == [65] + [65, 65, 65, 5] * 60
    assert cuts == one_crossing_at_a_time(linear, grid, linear(grid))
    assert len(cuts) == 200


def test_vertex_scaling_energy_read_bisects_each_segment_at_once(monkeypatch):
    # the seeded vertex-scaling flow (eps = 0, eta = 1) writes 375 rows and crosses 62 walls
    # in three row segments; the quadrature's chain along them (the oracle of the closed
    # form that trace.energies reads) evaluates the kernel 364 times: three scans, 60
    # bisection rounds a crossing segment and the chunked quadrature rounds
    surface = generate("torus_grid", 10, 10)
    weights, geometry = WeightConfig.uniform(surface, 0, 1.0), Geometry.EUCLIDEAN
    u = np.random.default_rng(2).normal(0.0, 0.8, 100)
    start = ConformalState(geometry, weights.epsilon, u - u.mean())
    spec = FlowSpec(FlowKind.EXTENDED_MODIFIED_RICCI, geometry, np.zeros(100), tolerance=1e-8)
    trace = run_flow(spec, surface, weights, start)
    assert len(trace.rows) == 375
    sizes, cuts = [], []
    segment_shape, locate_crossings = calculus._segment_shape, calculus._locate_crossings

    def counting_shape(geometry, mesh, kernel, u0, du, ts, seg):
        sizes.append(ts.size)
        return segment_shape(geometry, mesh, kernel, u0, du, ts, seg)

    def counting_crossings(*args):
        found = locate_crossings(*args)
        cuts.append(len(found))
        return found

    monkeypatch.setattr(calculus, "_segment_shape", counting_shape)
    monkeypatch.setattr(calculus, "_locate_crossings", counting_crossings)
    surface, weights, geometry, base_u, target = trace._path
    us = [row.u for row in trace.rows]
    chained = calculus._quadrature_chain(surface, weights, geometry, target, base_u, us)
    crossing_segments = [n for n in cuts if n]
    assert sum(crossing_segments) == 62 and len(crossing_segments) == 3
    assert len(sizes) == 364
    assert np.max(np.abs(np.subtract(trace.energies, chained))) < 1e-12


def right_riemann_sums(surface, weights, geometry, u_from, u_to):
    """(1/m) sum_{i=1..m} phi'(i/m) for m = 1, 2, 4, 8, with phi'(t) = K(u_from + t du) . du."""
    du = u_to - u_from

    def slope(t):
        state = ConformalState(geometry, weights.epsilon, u_from + t * du)
        return float(curvature(surface, weights, state, extended=True).curvature @ du)

    return [sum(slope(i / m) for i in range(1, m + 1)) / m for m in (1, 2, 4, 8)]


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
    r1, r2, r4, r8 = right_riemann_sums(surface, weights, geometry, u_from, u_to)
    assert r1 >= r2 >= r4 >= r8 >= increment - 1e-10


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

        def noisy(ts, seg):
            vals = evaluate(ts, seg)
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
