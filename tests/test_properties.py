"""Property tests drawn by hypothesis."""

import numpy as np
import pytest

from dcflow import calculus
from dcflow.calculus import QUADRATURE_TOL, segment_face_energies
from dcflow.geometry import ConformalState, Geometry, _kernel_weights, curvature
from dcflow.surface import WeightConfig

from conftest import make_setup

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

MESH = ("torus_grid", (3, 3))
VERTEX_COUNT = 9


@st.composite
def admissible_loops(draw):
    """Weights and three states a, b, c; eps = 1 hyperbolic vertices get u < 0."""
    geometry = draw(st.sampled_from([Geometry.EUCLIDEAN, Geometry.HYPERBOLIC]))
    epsilon = draw(st.sampled_from([0, 1]))
    eta = draw(st.floats(0.5, 2.0))
    if geometry is Geometry.HYPERBOLIC and epsilon == 1:
        coordinate = st.floats(-2.0, -0.05)
    else:
        coordinate = st.floats(-1.0, 1.0)
    state = st.lists(coordinate, min_size=VERTEX_COUNT, max_size=VERTEX_COUNT).map(np.array)
    return geometry, epsilon, eta, draw(state), draw(state), draw(state)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(admissible_loops())
def test_face_energies_are_closed_around_triangles(loop):
    # the extended angle form is closed, so the per-face integrals around
    # a -> b -> c -> a vanish whatever walls the three segments cross
    geometry, epsilon, eta, a, b, c = loop
    surface, weights, _ = make_setup(*MESH, epsilon=epsilon, eta=eta, geometry=geometry)
    assert surface.vertex_count == VERTEX_COUNT
    total = sum(
        segment_face_energies(surface, weights, geometry, start, end)
        for start, end in ((a, b), (b, c), (c, a))
    )
    assert np.max(np.abs(total)) < 3 * QUADRATURE_TOL


@st.composite
def closed_form_segments(draw):
    """Euclidean weights with a closed-form potential and a segment's two ends: a tangency
    packing (eps = eta = 1), or vertex scaling (eps = 0, eta per edge) whose end has one
    vertex at u = -3, past the walls of the faces around it."""
    surface, _, _ = make_setup(*MESH)
    scaling = draw(st.booleans())
    eta = st.lists(st.floats(0.5, 2.0), min_size=surface.edge_count, max_size=surface.edge_count)
    eta = np.array(draw(eta)) if scaling else np.ones(surface.edge_count)
    weights = WeightConfig(np.full(VERTEX_COUNT, int(not scaling)), eta)
    state = st.lists(st.floats(-1.0, 1.0), min_size=VERTEX_COUNT, max_size=VERTEX_COUNT)
    start, end = np.array(draw(state)), np.array(draw(state))
    if scaling:
        end[draw(st.integers(0, VERTEX_COUNT - 1))] = -3.0
    return surface, weights, start, end


@settings(max_examples=25, deadline=None, derandomize=True)
@given(closed_form_segments())
def test_closed_form_face_energies_match_the_quadrature(segment):
    # the closed-form face potentials differ along a segment by its quadrature, walls and all
    surface, weights, start, end = segment
    geometry = Geometry.EUCLIDEAN
    if not weights.epsilon.any():
        end_state = ConformalState(geometry, weights.epsilon, end)
        assert curvature(surface, weights, end_state, extended=True).degenerate_faces
    ends = np.stack([start, end], axis=1)
    kernel = _kernel_weights(geometry, weights)
    potentials = calculus._face_potentials(surface, weights, kernel, geometry, ends)
    oracle = segment_face_energies(surface, weights, geometry, start, end)
    assert np.max(np.abs(potentials[:, 1] - potentials[:, 0] - oracle)) < QUADRATURE_TOL
