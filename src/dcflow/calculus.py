"""Derivatives and energies of the angle data.

The angle Jacobian of one triangle factors through the chain

    d(theta) / d(u) = d(theta)/d(lengths) . d(lengths)/d(f) . d(f)/d(u)

with the cosine-rule derivatives on the left and d(f_c)/d(u_c) = 1
except at hyperbolic cone corners, where it equals C_c.

Energies are line integrals of the (closed) angle one-form along the
straight segment from a base state.  The integrand is continuous but
only piecewise smooth when the segment crosses a degeneracy wall, so
the quadrature first locates every wall crossing by bisection and then
runs doubling Gauss-Legendre rules on each smooth piece.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateFaceError,
    DegenerateTriangleError,
    QuadratureFailureError,
)
from .geometry import (
    ConformalState,
    Geometry,
    _angles_opposite,
    _degenerate_corners,
    base_state,
    curvature,
    edge_length,
    u_to_f,
)
from .surface import TriangulatedSurface, WeightConfig

__all__ = [
    "EnergyValue",
    "curvature_jacobian",
    "face_corner_jacobians",
    "fd_gradient",
    "fd_jacobian",
    "segment_face_energies",
    "surface_energies",
    "triangle_energy",
    "triangle_jacobian",
]

QUADRATURE_TOL = 1e-10
_PIECE_CAP = 1 << 10
_TOTAL_CAP = 1 << 20


# ---------------------------------------------------------------------------
# Jacobians


def _face_lengths(geometry, eps3, eta3, f3):
    # a[..., c] is the length of the edge opposite corner c.
    cols = []
    for c in range(3):
        p, q = (c + 1) % 3, (c + 2) % 3
        cols.append(
            edge_length(geometry, eps3[..., p], eps3[..., q], eta3[..., c], f3[..., p], f3[..., q])
        )
    return np.stack(cols, axis=-1)


def _corner_jacobian_core(geometry, eps3, eta3, f3, a, theta):
    """d(theta)/d(u) as (..., 3, 3) arrays; assumes nondegenerate shapes."""
    eps3 = np.asarray(eps3, dtype=np.float64)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    if geometry is Geometry.EUCLIDEAN:
        d_base = a / (
            np.take(a, [1, 2, 0], axis=-1) * np.take(a, [2, 0, 1], axis=-1) * sin_t
        )
    else:
        sh = np.sinh(a)
        d_base = sh / (
            np.take(sh, [1, 2, 0], axis=-1) * np.take(sh, [2, 0, 1], axis=-1) * sin_t
        )

    shape = a.shape[:-1]
    t_mat = np.zeros(shape + (3, 3))
    for r in range(3):
        for e in range(3):
            if r == e:
                t_mat[..., r, e] = d_base[..., r]
            else:
                t_mat[..., r, e] = -d_base[..., r] * cos_t[..., 3 - r - e]

    s3 = np.exp(f3)
    if geometry is Geometry.EUCLIDEAN:
        phi = np.ones_like(f3)
    else:
        c3 = np.where(eps3 == 1.0, np.hypot(1.0, s3), 1.0)
        phi = c3

    l_mat = np.zeros(shape + (3, 3))
    for e in range(3):
        p, q = (e + 1) % 3, (e + 2) % 3
        if geometry is Geometry.EUCLIDEAN:
            dlp = (eps3[..., p] * s3[..., p] ** 2 + eta3[..., e] * s3[..., p] * s3[..., q]) / a[..., e]
            dlq = (eps3[..., q] * s3[..., q] ** 2 + eta3[..., e] * s3[..., p] * s3[..., q]) / a[..., e]
        else:
            sh_e = np.sinh(a[..., e])
            dlp = (
                eps3[..., p] * s3[..., p] ** 2 * c3[..., q] / c3[..., p]
                + eta3[..., e] * s3[..., p] * s3[..., q]
            ) / sh_e
            dlq = (
                eps3[..., q] * s3[..., q] ** 2 * c3[..., p] / c3[..., q]
                + eta3[..., e] * s3[..., p] * s3[..., q]
            ) / sh_e
        l_mat[..., e, p] = dlp * phi[..., p]
        l_mat[..., e, q] = dlq * phi[..., q]

    return t_mat @ l_mat


def triangle_jacobian(geometry: Geometry, epsilon_triple, eta_triple, u_triple) -> np.ndarray:
    """3x3 matrix d(theta_i, theta_j, theta_k)/d(u_i, u_j, u_k) for one face.

    ``eta_triple[c]`` weights the edge opposite corner c.  Symmetric;
    negative semi-definite with a one-dimensional kernel spanned by
    (1, 1, 1) for Euclidean triangles and negative definite for
    hyperbolic ones.  Raises DegenerateTriangleError on a wall.
    """
    eps3 = np.asarray(epsilon_triple, dtype=np.float64)
    eta3 = np.asarray(eta_triple, dtype=np.float64)
    u3 = np.asarray(u_triple, dtype=np.float64)
    f3 = np.asarray(u_to_f(geometry, eps3.astype(np.int64), u3))
    a = _face_lengths(geometry, eps3, eta3, f3)
    deg = _degenerate_corners(a)
    if int(deg) >= 0:
        raise DegenerateTriangleError("angle Jacobian undefined on a degeneracy wall")
    theta = _angles_opposite(geometry, a, deg)
    return _corner_jacobian_core(geometry, eps3, eta3, f3, a, theta)


def face_corner_jacobians(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    state: ConformalState,
    extended: bool = False,
) -> np.ndarray:
    """Per-face angle Jacobians, shape (F, 3, 3).

    Raises DegenerateFaceError when any face sits on or past a wall,
    unless ``extended`` is set, in which case degenerate faces get zero
    blocks: the extended angles are constant there, so zero is their
    derivative everywhere inside the degenerate region.
    """
    eps3 = weights.epsilon[surface.faces].astype(np.float64)
    eta3 = weights.eta[surface.face_edges]
    f3 = state.f[surface.faces]
    a = _face_lengths(state.geometry, eps3, eta3, f3)
    deg = _degenerate_corners(a)
    if np.any(deg >= 0):
        if not extended:
            face = int(np.nonzero(deg >= 0)[0][0])
            raise DegenerateFaceError(face, "angle Jacobian undefined on a degeneracy wall")
        out = np.zeros((len(surface.faces), 3, 3))
        good = deg < 0
        if np.any(good):
            theta = _angles_opposite(state.geometry, a[good], deg[good])
            out[good] = _corner_jacobian_core(
                state.geometry, eps3[good], eta3[good], f3[good], a[good], theta
            )
        return out
    theta = _angles_opposite(state.geometry, a, deg)
    return _corner_jacobian_core(state.geometry, eps3, eta3, f3, a, theta)


def curvature_jacobian(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    state: ConformalState,
    extended: bool = False,
) -> sp.csr_matrix:
    """Sparse d(K)/d(u); adjacency-structured, symmetric.

    Positive semi-definite with kernel spanned by the all-ones vector
    for Euclidean states, positive definite for hyperbolic ones.  With
    ``extended`` set, degenerate faces contribute nothing, matching the
    derivative of the extended curvature inside degenerate regions.
    """
    jac = face_corner_jacobians(surface, weights, state, extended=extended)
    n = surface.vertex_count
    rows = np.repeat(surface.faces, 3, axis=1).ravel()  # r index varies slower
    cols = np.tile(surface.faces, (1, 3)).ravel()
    data = -jac.reshape(len(surface.faces), 9).ravel()
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    return mat.tocsr()


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


# ---------------------------------------------------------------------------
# energies


@dataclass(frozen=True)
class EnergyValue:
    """Energies of one state relative to a base state.

    ``energy`` is 2 pi sum(u) minus the summed per-face integrals;
    its u-gradient is the curvature.  ``potential`` subtracts the target
    term so that its gradient is K - target.  ``calabi`` is
    0.5 * sum (target - K)^2 at the state.  With ``extended`` set the
    integrand uses extended angles and all quantities are the continuous
    extensions.
    """

    energy: float
    potential: float
    calabi: float
    per_face: np.ndarray
    base_u: np.ndarray
    extended: bool


def _energy_evaluator(geometry, eps3, eta3, u0_3, u1_3, extended):
    du3 = u1_3 - u0_3
    eps_int = eps3.astype(np.int64)

    def evaluate(ts):
        ts = np.asarray(ts, dtype=np.float64)
        u_t = u0_3[..., None] + ts * du3[..., None]  # (F, 3, T)
        f_t = np.asarray(u_to_f(geometry, eps_int[..., None], u_t))
        cols = []
        for c in range(3):
            p, q = (c + 1) % 3, (c + 2) % 3
            cols.append(
                edge_length(
                    geometry,
                    eps3[:, p, None],
                    eps3[:, q, None],
                    eta3[:, c, None],
                    f_t[:, p, :],
                    f_t[:, q, :],
                )
            )
        a = np.stack(cols, axis=-1)  # (F, T, 3)
        margins = np.min(
            np.stack(
                [a[..., (c + 1) % 3] + a[..., (c + 2) % 3] - a[..., c] for c in range(3)],
                axis=-1,
            ),
            axis=-1,
        )  # (F, T)
        deg = _degenerate_corners(a)
        theta = _angles_opposite(geometry, a, deg)
        vals = np.einsum("ftc,fc->ft", theta, du3)
        return vals, margins

    return evaluate


class _PathDegeneracy(Exception):
    """Internal: the strict integration path touched a wall."""

    def __init__(self, face: int):
        super().__init__(face)
        self.face = face


def _locate_crossings(evaluate, grid, margins):
    # margins: (F, T) on the scan grid; returns sorted interior cut points
    sign = margins > 0.0
    cuts = []
    flips = np.nonzero(sign[:, 1:] != sign[:, :-1])
    for face, cell in zip(*flips):
        lo, hi = grid[cell], grid[cell + 1]
        want = sign[face, cell]  # margin sign at lo
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            _, m = evaluate(np.array([mid]))
            if (m[face, 0] > 0.0) == want:
                lo = mid
            else:
                hi = mid
        cuts.append(0.5 * (lo + hi))
    return sorted(c for c in cuts if 1e-14 < c < 1.0 - 1e-14)


@functools.lru_cache(maxsize=None)
def _gauss_rule(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gauss_anchored(evaluate, anchor, far, tol, budget):
    """Doubling Gauss-Legendre from ``anchor`` to ``far``.

    Substitutes t = anchor + sign * s^2 so that the square-root approach
    of an extended angle to a wall sitting exactly at the anchor becomes
    smooth; away from walls the substitution is a harmless
    reparametrization.
    """
    sign = 1.0 if far >= anchor else -1.0
    span = np.sqrt(abs(far - anchor))
    n = 4
    prev = None
    while True:
        x, w = _gauss_rule(n)
        s_nodes = span * x
        vals, _ = evaluate(anchor + sign * s_nodes**2)
        total = vals @ (2.0 * span * w * s_nodes)
        if prev is not None and np.max(np.abs(total - prev)) < tol:
            return total, n
        if n >= min(_PIECE_CAP, budget):
            raise QuadratureFailureError(f"energy quadrature did not converge with {n} nodes")
        prev = total
        n *= 2


def _integrate_face_energies(geometry, eps3, eta3, u0_3, u1_3, extended, tol):
    """Per-face path integrals of the angle form along the straight segment."""
    if np.array_equal(u0_3, u1_3):
        return np.zeros(len(eps3))
    evaluate = _energy_evaluator(geometry, eps3, eta3, u0_3, u1_3, extended)
    grid = np.linspace(0.0, 1.0, 65)
    _, margins = evaluate(grid)
    if not extended and np.any(margins <= 0.0):
        face = int(np.nonzero(np.any(margins <= 0.0, axis=1))[0][0])
        raise _PathDegeneracy(face)
    cuts = _locate_crossings(evaluate, grid, margins) if extended else []
    knots = [0.0] + cuts + [1.0]
    total = np.zeros(len(eps3))
    budget = _TOTAL_CAP
    piece_tol = tol / (2 * len(knots))
    for t0, t1 in zip(knots[:-1], knots[1:]):
        mid = 0.5 * (t0 + t1)
        for anchor, far in ((t0, mid), (t1, mid)):
            piece, used = _gauss_anchored(evaluate, anchor, far, piece_tol, budget)
            total += piece
            budget -= used
            if budget <= 0:
                raise QuadratureFailureError("energy quadrature exceeded its budget")
    return total


def triangle_energy(
    geometry: Geometry,
    epsilon_triple,
    eta_triple,
    u_triple,
    base_triple=None,
    extended: bool = False,
    tol: float = QUADRATURE_TOL,
) -> float:
    """Path integral of theta . du for one face from a base corner triple.

    Without ``extended`` the straight path must stay nondegenerate
    (checked by sampling).  The value changes by exactly pi * t when all
    three corners shift by t in the Euclidean case.
    """
    eps3 = np.asarray(epsilon_triple, dtype=np.float64).reshape(1, 3)
    eta3 = np.asarray(eta_triple, dtype=np.float64).reshape(1, 3)
    u1 = np.asarray(u_triple, dtype=np.float64).reshape(1, 3)
    if base_triple is None:
        eps_int = eps3.astype(np.int64).ravel()
        u0 = np.asarray(
            base_state(geometry, eps_int).u, dtype=np.float64
        ).reshape(1, 3)
    else:
        u0 = np.asarray(base_triple, dtype=np.float64).reshape(1, 3)
    try:
        vals = _integrate_face_energies(geometry, eps3, eta3, u0, u1, extended, tol)
    except _PathDegeneracy as exc:
        raise DegenerateTriangleError(
            "integration path leaves the nondegenerate region"
        ) from exc
    return float(vals[0])


def segment_face_energies(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    geometry: Geometry,
    u_from,
    u_to,
    extended: bool = True,
    tol: float = QUADRATURE_TOL,
) -> np.ndarray:
    """Per-face integrals of theta . du along the straight segment.

    The angle form is closed, so chaining segments reproduces the
    from-base integrals; flow traces use this for incremental energy
    updates instead of re-integrating from the base at every row.
    """
    u_from = np.asarray(u_from, dtype=np.float64)
    u_to = np.asarray(u_to, dtype=np.float64)
    eps3 = weights.epsilon[surface.faces].astype(np.float64)
    eta3 = weights.eta[surface.face_edges]
    try:
        return _integrate_face_energies(
            geometry, eps3, eta3, u_from[surface.faces], u_to[surface.faces], extended, tol
        )
    except _PathDegeneracy as exc:
        raise DegenerateFaceError(
            exc.face, "integration path leaves the nondegenerate region"
        ) from exc


def surface_energies(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    state: ConformalState,
    target=None,
    base: ConformalState | None = None,
    extended: bool = True,
    tol: float = QUADRATURE_TOL,
) -> EnergyValue:
    """Whole-surface energies at one state.

    Raises DegenerateFaceError in strict mode when the segment from the
    base crosses or touches a wall.
    """
    geometry = state.geometry
    if base is None:
        base = base_state(geometry, state.epsilon)
    if target is None:
        target = np.zeros(surface.vertex_count)
    target = np.asarray(target, dtype=np.float64)

    eps3 = weights.epsilon[surface.faces].astype(np.float64)
    eta3 = weights.eta[surface.face_edges]
    u0_3 = base.u[surface.faces]
    u1_3 = state.u[surface.faces]
    try:
        per_face = _integrate_face_energies(geometry, eps3, eta3, u0_3, u1_3, extended, tol)
    except _PathDegeneracy as exc:
        raise DegenerateFaceError(
            exc.face, "integration path leaves the nondegenerate region"
        ) from exc

    energy = 2.0 * np.pi * float(state.u.sum()) - float(per_face.sum())
    if geometry is Geometry.EUCLIDEAN:
        potential = energy - float(target @ state.u)
    else:
        potential = energy - float(target @ (state.u - base.u))
    report = curvature(surface, weights, state, extended=extended)
    calabi = 0.5 * float(np.sum((target - report.curvature) ** 2))
    return EnergyValue(
        energy=energy,
        potential=potential,
        calabi=calabi,
        per_face=per_face,
        base_u=base.u.copy(),
        extended=extended,
    )
