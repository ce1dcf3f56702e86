"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from dcflow import ConformalState, Geometry, WeightConfig, generate

MESH_KINDS = [
    ("tetrahedron", ()),
    ("octahedron", ()),
    ("icosahedron", ()),
    ("torus_grid", (3, 3)),
    ("genus2", ()),
]


def make_setup(kind, dims=(), epsilon=1, eta=1.0, geometry=Geometry.EUCLIDEAN):
    """Surface + uniform weights + base state for one mesh kind."""
    surface = generate(kind, *dims)
    weights = WeightConfig.uniform(surface, epsilon, eta)
    if geometry is Geometry.EUCLIDEAN:
        state = ConformalState(geometry, weights.epsilon, np.zeros(surface.vertex_count))
    else:
        state = ConformalState.from_f(geometry, weights.epsilon, np.zeros(surface.vertex_count))
    return surface, weights, state


def mismatched_inputs():
    """(surface, weights, state) by name on a 4x4 torus with hyperbolic eps = eta = 1, each
    with one mismatch: a state built with eps = 0, a state of 5 vertices, or one eta short.
    Each state alone is valid, so only a check of the pairing can reject it.
    """
    surface = generate("torus_grid", 4, 4)
    weights = WeightConfig.uniform(surface, 1, 1.0)
    short = WeightConfig(weights.epsilon, weights.eta[:-1])
    hyperbolic = Geometry.HYPERBOLIC
    return {
        "epsilon": (surface, weights, ConformalState(hyperbolic, np.zeros(16), np.zeros(16))),
        "state": (surface, weights, ConformalState(hyperbolic, np.ones(5), -np.ones(5))),
        "eta": (surface, short, ConformalState(hyperbolic, weights.epsilon, -np.ones(16))),
    }


def random_admissible_state(surface, weights, geometry, rng, scale=0.2, max_tries=200):
    """Random state near the base with every face strictly nondegenerate."""
    from dcflow import curvature

    n = surface.vertex_count
    for _ in range(max_tries):
        u = rng.normal(0.0, scale, size=n)
        if geometry is Geometry.HYPERBOLIC:
            base = ConformalState.from_f(geometry, weights.epsilon, np.zeros(n))
            u = base.u + u
            if np.any((weights.epsilon == 1) & (u >= 0.0)):
                continue
        state = ConformalState(geometry, weights.epsilon, u)
        report = curvature(surface, weights, state, extended=True)
        if not np.any(report.degenerate_corner >= 0):
            return state
    raise RuntimeError("could not sample an admissible state")


def fd_gradient(fn, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (fn(hi) - fn(lo)) / (2.0 * step)
    return out


def fd_jacobian(fn, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector function, columns by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        cols.append((np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2.0 * step))
    return np.stack(cols, axis=-1)
