"""Property tests drawn by hypothesis."""

import numpy as np
import pytest

from dcflow.calculus import QUADRATURE_TOL, segment_face_energies
from dcflow.geometry import Geometry

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
