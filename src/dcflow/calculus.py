"""Derivatives and energies of the angle data.

The angle Jacobian of one triangle factors through the chain

    d(theta) / d(u) = d(theta)/d(lengths) . d(lengths)/d(f) . d(f)/d(u)

with the cosine-rule derivatives on the left, their sin(theta) from Heron,
and d(f_c)/d(u_c) = 1 except at hyperbolic cone corners, where it is C_c.

Energies are line integrals of the (closed) angle one-form along the
straight segment from a base state.  The integrand is continuous but
only piecewise smooth when the segment crosses a degeneracy wall.  The
quadrature first bounds every edge length over the segment; when the
bounds certify every face clear of its walls, the segment is one smooth
piece.  Only otherwise do a scan and a bisection that evaluate triangle
margins alone locate the wall crossings.  Doubling Gauss-Legendre rules
then run on the two halves of each smooth piece, all halves of one
doubling round in one batched evaluation of the integrand.

Lengths, margins, degeneracy and angles all come from the kernel in
``geometry``; the integrand evaluates them per vertex (u -> f and e^f),
per edge and per face, and a lone triangle runs as a one-face complex.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFaceError, QuadratureFailureError
from .geometry import (
    ConformalState,
    Geometry,
    _angles_opposite,
    _degeneracy,
    _edge_length_bounds,
    _edge_lengths,
    _margins,
    base_state,
    curvature,
    edge_lengths,
    u_to_f,
)
from .surface import TriangulatedSurface, WeightConfig

__all__ = [
    "EnergyValue",
    "curvature_jacobian",
    "face_corner_jacobians",
    "segment_face_energies",
    "surface_energies",
    "triangle_energy",
    "triangle_jacobian",
]

QUADRATURE_TOL = 1e-10
_PIECE_CAP = 1 << 10
_TOTAL_CAP = 1 << 20


class _Mesh(NamedTuple):
    faces: np.ndarray
    edges: np.ndarray
    face_edges: np.ndarray


# A lone triangle as a one-face complex: edge c is opposite corner c.
_TRIANGLE = _Mesh(
    faces=np.array([[0, 1, 2]]),
    edges=np.array([[1, 2], [0, 2], [0, 1]]),
    face_edges=np.array([[0, 1, 2]]),
)


# ---------------------------------------------------------------------------
# Jacobians


def _corner_jacobian_core(geometry, eps3, eta3, f3, a):
    """d(theta)/d(u) as (..., 3, 3) arrays; assumes nondegenerate shapes."""
    eps3 = np.asarray(eps3, dtype=np.float64)
    s3 = np.exp(f3)
    # Heron: b1 b2 sin(theta_c) = P^2 sqrt(x0 x1 x2) / 2 (Euclidean) and
    # sinh b1 sinh b2 sin(theta_c) = e^{P/2} E^2 sqrt(x0 x1 x2) / 2 with
    # E = -expm1(-P), on the scaled margins x of _angles_opposite, so no
    # product overflows and nothing divides by a sin(theta) rounded to 0
    m = _margins(a)
    perim = a[..., :1] + a[..., 1:2] + a[..., 2:]
    if geometry is Geometry.EUCLIDEAN:
        x = m / perim
        d_base = 2.0 * (a / perim) / (perim * np.sqrt(x[..., :1] * x[..., 1:2] * x[..., 2:]))
        c3, dl_scale = np.ones_like(f3), a
    else:
        # sinh a_c = e^{P/2} e^{-m_c/2} (-expm1(-2 a_c)) / 2
        scale = -np.expm1(-perim)
        x = -np.expm1(-m) / scale
        heron = scale * scale * np.sqrt(x[..., :1] * x[..., 1:2] * x[..., 2:])
        d_base = -np.exp(-0.5 * m) * np.expm1(-2.0 * a) / heron
        c3, dl_scale = np.where(eps3 == 1.0, np.hypot(1.0, s3), 1.0), np.sinh(a)

    cos_t, t_mat = np.cos(_angles_opposite(geometry, a, m)), np.zeros(a.shape[:-1] + (3, 3))
    for r in range(3):
        for e in range(3):
            t_mat[..., r, e] = d_base[..., r] if r == e else -d_base[..., r] * cos_t[..., 3 - r - e]

    # d(l_e)/d(u_i) at both ends i of edge e, with d(f_i)/d(u_i) = C_i
    l_mat = np.zeros(a.shape[:-1] + (3, 3))
    for e in range(3):
        p, q = (e + 1) % 3, (e + 2) % 3
        cross = eta3[..., e] * s3[..., p] * s3[..., q]
        for i, j in ((p, q), (q, p)):
            dl = (eps3[..., i] * s3[..., i] ** 2 * c3[..., j] / c3[..., i] + cross) / dl_scale[..., e]
            l_mat[..., e, i] = dl * c3[..., i]
    return t_mat @ l_mat


def triangle_jacobian(geometry: Geometry, epsilon_triple, eta_triple, u_triple) -> np.ndarray:
    """3x3 matrix d(theta_i, theta_j, theta_k)/d(u_i, u_j, u_k) for one face.

    ``eta_triple[c]`` weights the edge opposite corner c.  Symmetric;
    negative semi-definite with a one-dimensional kernel spanned by
    (1, 1, 1) for Euclidean triangles and negative definite for
    hyperbolic ones.  Raises DegenerateTriangleError on a wall.
    """
    weights = WeightConfig(epsilon_triple, eta_triple)
    state = ConformalState(geometry, weights.epsilon, u_triple)
    return face_corner_jacobians(_TRIANGLE, weights, state)[0]


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
    a = edge_lengths(surface, weights, state)[surface.face_edges]
    _, deg = _degeneracy(a)
    if not extended and np.any(deg >= 0):
        face = int(np.nonzero(deg >= 0)[0][0])
        raise DegenerateFaceError(face, "angle Jacobian undefined on a degeneracy wall")
    out = np.zeros((len(surface.faces), 3, 3))
    good = deg < 0 if np.any(deg >= 0) else slice(None)  # a slice copies nothing
    out[good] = _corner_jacobian_core(state.geometry, eps3[good], eta3[good], f3[good], a[good])
    return out


def curvature_jacobian(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    state: ConformalState,
    extended: bool = False,
) -> "scipy.sparse.csr_matrix":
    """Sparse d(K)/d(u); adjacency-structured, symmetric.

    Positive semi-definite with kernel spanned by the all-ones vector
    for Euclidean states, positive definite for hyperbolic ones.  With
    ``extended`` set, degenerate faces contribute nothing, matching the
    derivative of the extended curvature inside degenerate regions.
    """
    import scipy.sparse as sp  # on first use, so importing the package skips it

    jac = face_corner_jacobians(surface, weights, state, extended=extended)
    n = surface.vertex_count
    rows = np.repeat(surface.faces, 3, axis=1).ravel()  # r index varies slower
    cols = np.tile(surface.faces, (1, 3)).ravel()
    data = -jac.reshape(len(surface.faces), 9).ravel()
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    return mat.tocsr()


# ---------------------------------------------------------------------------
# energies


@dataclass(frozen=True)
class EnergyValue:
    """Energies of one state relative to a base state.

    ``energy`` is 2 pi sum(u) minus the summed per-face integrals;
    its u-gradient is the curvature.  ``potential`` subtracts
    target . (u - base u), so that its gradient is K - target.  ``calabi`` is
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


def _segment_shape(geometry, mesh, epsilon, eta, u0, du, ts):
    # Opposite lengths (F, T, 3) at u0 + ts * du, per vertex (u -> f), per
    # edge (lengths) and per face; the wall scan and the bisection take
    # their margins, the quadrature their angles.
    u_t = u0[:, None] + ts * du[:, None]
    f_t = np.asarray(u_to_f(geometry, np.asarray(epsilon)[:, None], u_t))
    lengths = _edge_lengths(geometry, epsilon, eta, mesh.edges, f_t)  # (E, T)
    # gather corner by corner into a contiguous (F, T, 3) block, so no
    # (F, 3, T) copy is alive while the angles are evaluated
    a = np.empty((len(mesh.faces), ts.size, 3))
    for c in range(3):
        a[..., c] = lengths[mesh.face_edges[:, c]]
    return a


def _energy_evaluator(geometry, mesh, epsilon, eta, u0, du):
    # ``mesh`` is a surface or the one-face _TRIANGLE
    du3 = du[mesh.faces]

    def evaluate(ts):
        a = _segment_shape(geometry, mesh, epsilon, eta, u0, du, ts)
        return np.einsum("ftc,fc->ft", _angles_opposite(geometry, a), du3)

    return evaluate


def _clear_of_walls(geometry, mesh, epsilon, eta, u0, du):
    # True when the length bounds keep every margin on u0 + t du, t in [0, 1],
    # above its own rounding error; the ends are evaluated as in _segment_shape
    u_ends = u0[:, None] + np.array([0.0, 1.0]) * du[:, None]
    f_ends = np.asarray(u_to_f(geometry, np.asarray(epsilon)[:, None], u_ends))
    bounds = _edge_length_bounds(geometry, epsilon, eta, mesh.edges, f_ends)
    lo, hi = (b[mesh.face_edges] for b in bounds)
    margin = lo[:, [1, 2, 0]] + lo[:, [2, 0, 1]] - hi
    rounding = 8.0 * np.finfo(np.float64).eps * hi.sum(axis=1, keepdims=True)
    return bool(np.all(margin > rounding))


def _locate_crossings(margins_at, grid, margins):
    # margins: (F, T) on the scan grid; returns sorted interior cut points
    sign = margins > 0.0
    cuts = []
    flips = np.nonzero(sign[:, 1:] != sign[:, :-1])
    for face, cell in zip(*flips):
        lo, hi = grid[cell], grid[cell + 1]
        want = sign[face, cell]  # margin sign at lo
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (margins_at(np.array([mid]))[face, 0] > 0.0) == want:
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


def _anchored_rule(anchor, far, n):
    """Nodes and weights of the n-point Gauss-Legendre rule from ``anchor`` to ``far``.

    Substitutes t = anchor + sign * s^2 so that the square-root approach
    of an extended angle to a wall sitting exactly at the anchor becomes
    smooth; away from walls the substitution is a harmless
    reparametrization.
    """
    x, w = _gauss_rule(n)
    sign = 1.0 if far >= anchor else -1.0
    span = np.sqrt(abs(far - anchor))
    s_nodes = span * x
    return anchor + sign * s_nodes**2, 2.0 * span * w * s_nodes


def _gauss_doubling(evaluate, halves, tol):
    """Sum of doubling Gauss-Legendre integrals over the anchored ``halves``.

    Round one evaluates n = 4 and n = 8 on every half (anchor, far), each
    later round n = 2k on the halves whose last two rules differ by ``tol``
    or more, in one ``evaluate`` call of at most _PIECE_CAP nodes (chunked
    by whole halves).
    """
    accepted, prev = [None] * len(halves), [None] * len(halves)
    pending, ns = list(range(len(halves))), (4, 8)
    while pending and ns[-1] <= _PIECE_CAP:
        per_call = max(1, _PIECE_CAP // sum(ns))
        for start in range(0, len(pending), per_call):
            batch = [(h, n) for h in pending[start : start + per_call] for n in ns]
            rules = [_anchored_rule(*halves[h], n) for h, n in batch]
            vals = evaluate(np.concatenate([nodes for nodes, _ in rules]))
            col = 0
            for (h, n), (_, weights) in zip(batch, rules):
                integral = vals[:, col : col + n] @ weights
                col += n
                if prev[h] is not None and np.max(np.abs(integral - prev[h])) < tol:
                    accepted[h] = (integral, n)
                prev[h] = integral
        pending = [h for h in pending if accepted[h] is None]
        ns = (2 * ns[-1],)
    # summed in knot order: a half fails when a rule short of its accepted one
    # reached the smaller of _PIECE_CAP and the budget the halves before it left
    total, budget = 0.0, _TOTAL_CAP
    for piece, used in (a or (None, 2 * _PIECE_CAP) for a in accepted):
        limit = min(_PIECE_CAP, budget)
        if not used // 2 < limit:
            raise QuadratureFailureError(f"energy quadrature did not converge within {limit} nodes")
        total += piece
        budget -= used
        if budget <= 0:
            raise QuadratureFailureError("energy quadrature exceeded its budget")
    return total


def _integrate_face_energies(geometry, mesh, epsilon, eta, u0, u1, extended, tol):
    """Per-face path integrals of the angle form along the straight segment.

    A segment the length bounds certify clear of every wall is one smooth
    piece; otherwise a 65-point margin scan and a bisection cut it at its
    wall crossings.  Raises DegenerateFaceError without ``extended`` when
    the path touches a wall.
    """
    if np.array_equal(u0, u1):
        return np.zeros(len(mesh.faces))
    du = u1 - u0
    cuts = []
    if not _clear_of_walls(geometry, mesh, epsilon, eta, u0, du):
        def margins_at(ts):
            return _degeneracy(_segment_shape(geometry, mesh, epsilon, eta, u0, du, ts))[0]

        grid = np.linspace(0.0, 1.0, 65)
        margins = margins_at(grid)
        if not extended and np.any(margins <= 0.0):
            face = int(np.nonzero(np.any(margins <= 0.0, axis=1))[0][0])
            raise DegenerateFaceError(face, "integration path leaves the nondegenerate region")
        cuts = _locate_crossings(margins_at, grid, margins) if extended else []
    evaluate = _energy_evaluator(geometry, mesh, epsilon, eta, u0, du)
    knots = [0.0] + cuts + [1.0]
    # each smooth piece splits at its midpoint into two halves anchored at its knots
    halves = [(t, 0.5 * (t0 + t1)) for t0, t1 in zip(knots[:-1], knots[1:]) for t in (t0, t1)]
    return _gauss_doubling(evaluate, halves, tol / (2 * len(knots)))


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
    eps = np.asarray(epsilon_triple, dtype=np.float64).astype(np.int64).reshape(3)
    eta = np.asarray(eta_triple, dtype=np.float64).reshape(3)
    u1 = np.asarray(u_triple, dtype=np.float64).reshape(3)
    if base_triple is None:
        u0 = base_state(geometry, eps).u
    else:
        u0 = np.asarray(base_triple, dtype=np.float64).reshape(3)
    vals = _integrate_face_energies(geometry, _TRIANGLE, eps, eta, u0, u1, extended, tol)
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
    return _integrate_face_energies(
        geometry,
        surface,
        weights.epsilon,
        weights.eta,
        np.asarray(u_from, dtype=np.float64),
        np.asarray(u_to, dtype=np.float64),
        extended,
        tol,
    )


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
    per_face = _integrate_face_energies(
        geometry, surface, weights.epsilon, weights.eta, base.u, state.u, extended, tol
    )

    energy = 2.0 * np.pi * float(state.u.sum()) - float(per_face.sum())
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
