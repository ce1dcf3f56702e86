"""Derivatives and energies of the angle data.

The curvature Jacobian dK/du is a weighted graph Laplacian plus a diagonal:
in a face d(theta_i)/d(u_j) = d(theta_j)/d(u_i) (Glickenstein's h_ij,k / l_ij in
the Euclidean case), so each edge carries one weight, summed over its two
faces.  Each face's three edge and three diagonal shares come from the chain
rule through the cosine rule, in both geometries, with the sines and cosines
of its angles taken from the triangle margins; ``bincount`` sums them into the
data of a CSR pattern cached on the surface.

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

import numpy as np

from .errors import DegenerateFaceError, QuadratureFailureError
from .geometry import (
    ConformalState,
    Geometry,
    _angles,
    _degeneracy,
    _edge_length_bounds,
    _edge_lengths,
    _margins,
    _vertex_terms,
    base_state,
    curvature,
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
_CERTIFY_CAP = 32  # segments per wall certificate call, fewer above 2048 vertices
_TOTAL_CAP = 1 << 20


# A lone triangle as a one-face complex: edge c is opposite corner c and bounds the face.
_TRIANGLE = TriangulatedSurface(
    vertex_count=3,
    faces=np.array([[0, 1, 2]]),
    edges=np.array([[1, 2], [0, 2], [0, 1]]),
    face_edges=np.array([[0, 1, 2]]),
    edge_faces=np.zeros((3, 1), dtype=np.int64),
    vertex_degrees=np.full(3, 2),
)


# ---------------------------------------------------------------------------
# Jacobians


def _face_shares(surface, weights, geometry, f, extended):
    """The faces' shares of dK/du, (6, F), in the bins of ``_plan.bins``.

    Row c is -d(theta_c)/d(u_c); row 3 + c is -d(theta_c)/d(u_{c+1}), for the edge
    opposite corner c + 2.  With d_c = d(theta_c)/d(a_c) and P, Q the edges at c
    opposite c + 1 and c + 2, d(theta_{c+1})/d(u_c) = d_{c+1} (dP/du_c - cos(theta_c)
    dQ/du_c) and d(theta_c)/d(u_c) = -d_c (cos(theta_{c+2}) dP/du_c + cos(theta_{c+1})
    dQ/du_c).  On the scaled margins x of ``geometry._angles`` (X = x0 x1 x2, w_c = 1
    or e^{-m_c}), cos(theta_c) = (x_c^2 - w_c X) / (x_c^2 + w_c X) and Heron gives
    d_c = 2 a_c / (P^2 sqrt(X)) or -e^{-m_c/2} expm1(-2 a_c) / (expm1(-P)^2 sqrt(X)):
    nothing divides by a sin(theta) rounded to 0.  Degenerate faces get zeros with
    ``extended``; without it the first one raises DegenerateFaceError.
    """
    plan, euclidean = surface._plan, geometry is Geometry.EUCLIDEAN
    with np.errstate(over="ignore", invalid="ignore"):  # the length checks reject it
        terms = _vertex_terms(geometry, weights.epsilon.astype(np.float64), f)
        x, w = (t.take(plan.ends) for t in terms)
    lengths = _edge_lengths(geometry, plan.ends, weights, f, (x, w))
    a = lengths.take(plan.corners)
    m = _margins(a)
    bad = np.flatnonzero(_degeneracy(m)[1] >= 0)
    if bad.size and not extended:
        raise DegenerateFaceError(int(bad[0]), "angle Jacobian undefined on a degeneracy wall")
    cross = weights.eta * x[0] * x[1]
    if euclidean:  # dl/du at both ends of every edge, (2, E), in the memory of x
        tangent = np.add(w, cross, out=x)
    else:
        eps_x2 = weights.epsilon * np.exp(2.0 * f)
        tangent = np.multiply(eps_x2.take(plan.ends), w[::-1], out=x)
        tangent += cross * w
        lengths = np.sinh(lengths)
    tangent /= lengths
    dp, dq = shares = tangent.take(plan.tangents)  # dP/du_c, dQ/du_c, made into the shares
    del terms, lengths, x, w, cross, tangent  # fewer arrays alive: less heap to fault in
    with np.errstate(**({"divide": "ignore", "invalid": "ignore"} if bad.size else {})):
        perim = a[0] + a[1] + a[2]
        scale = perim if euclidean else -np.expm1(-perim)
        r = (m if euclidean else -np.expm1(-m)) / scale
        product = r[0] * r[1] * r[2]
        heron = (0.5 if euclidean else 1.0) * scale * scale * np.sqrt(product)
        d, wx = a, product  # d_c = d[c] / heron, rolled like a
        if not euclidean:
            wx = np.exp(-0.5 * m)
            d = (wx * -np.expm1(-2.0 * a[:3])).take([0, 1, 2, 0, 1], axis=0)
            wx *= wx
            wx *= product
        r *= r
        cos = ((r - wx) / (r + wx)).take([0, 1, 2, 0, 1], axis=0)
        np.multiply(cos[1:4], dq, out=r)
        dq *= cos[:3]
        dq -= dp
        dq *= d[1:4]
        dp *= cos[2:5]
        dp += r
        dp *= d[:3]
        shares /= heron
    shares = shares.reshape(6, -1)
    shares[:, bad] = 0.0
    return shares


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
    """Per-face angle Jacobians, shape (F, 3, 3), each exactly symmetric.

    Raises DegenerateFaceError when any face sits on or past a wall,
    unless ``extended`` is set, in which case degenerate faces get zero
    blocks: the extended angles are constant there, so zero is their
    derivative everywhere inside the degenerate region.
    """
    shares = _face_shares(surface, weights, state.geometry, state.f, extended)
    out = np.empty((len(surface.faces), 3, 3))
    for c in range(3):
        out[:, c, c] = -shares[c]
        out[:, c, (c + 1) % 3] = out[:, (c + 1) % 3, c] = -shares[3 + c]
    return out


def curvature_jacobian(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    state: ConformalState,
    extended: bool = False,
) -> "scipy.sparse.csr_matrix":
    """Sparse d(K)/d(u): one weight per edge at (i, j) and (j, i), plus the diagonal.

    Bit for bit symmetric.  Positive semi-definite with kernel spanned by the
    all-ones vector (zero row sums) for Euclidean states, positive definite for
    hyperbolic ones.  With ``extended`` set, degenerate faces contribute
    nothing, matching the derivative of the extended curvature inside
    degenerate regions; without it the first one raises DegenerateFaceError.
    """
    import scipy.sparse as sp  # on first use, so importing the package skips it

    plan, n = surface._plan, surface.vertex_count
    shares = _face_shares(surface, weights, state.geometry, state.f, extended)
    sums = np.bincount(plan.bins.ravel(), shares.ravel(), len(surface.edges) + n)
    return sp.csr_matrix((sums.take(plan.entries), plan.indices, plan.indptr), shape=(n, n))


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


def _segment_shape(geometry, mesh, weights, u0, du, ts):
    # Rolled opposite lengths (5, F, T) at u0 + ts * du on the mesh's plan; the wall
    # scan and the bisection take their margins, the quadrature their angles
    u_t = u0[:, None] + ts * du[:, None]
    f_t = np.asarray(u_to_f(geometry, weights.epsilon[:, None], u_t))
    lengths = _edge_lengths(geometry, mesh._plan.ends, weights, f_t)  # (E, T)
    return lengths.take(mesh._plan.corners, axis=0)


def _energy_evaluator(geometry, mesh, weights, u0, du):
    # ``mesh`` is a surface or the one-face _TRIANGLE
    du3 = du[mesh.faces]

    def evaluate(ts):
        a = _segment_shape(geometry, mesh, weights, u0, du, ts)
        # einsum's rounding depends on the layout: it sums contiguous (F, T, 3) angles
        theta = np.ascontiguousarray(np.moveaxis(_angles(geometry, a, _margins(a)), 0, -1))
        return np.einsum("ftc,fc->ft", theta, du3)

    return evaluate


def _clear_of_walls(geometry, mesh, epsilon, eta, u0, du):
    # True when the length bounds keep every margin on u0 + t du, t in [0, 1], above its
    # own rounding error, for each column of (V, S) u0 and du; ends as in _segment_shape
    trailing = (1,) * (du.ndim - 1)
    u_ends = u0[:, None] + np.array([0.0, 1.0]).reshape(2, *trailing) * du[:, None]
    f_ends = u_to_f(geometry, np.reshape(epsilon, (-1, 1, *trailing)), u_ends)
    bounds = _edge_length_bounds(geometry, epsilon, eta, mesh.edges, f_ends)
    lo, hi = (b[mesh.face_edges] for b in bounds)
    margin = lo[:, [1, 2, 0]] + lo[:, [2, 0, 1]] - hi
    rounding = 8.0 * np.finfo(np.float64).eps * hi.sum(axis=1, keepdims=True)
    return np.all(margin > rounding, axis=(0, 1))


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


def _integrate_face_energies(geometry, mesh, weights, u0, u1, extended, tol, clear=None):
    """Per-face path integrals of the angle form along the straight segment.

    A segment the length bounds certify clear of every wall is one smooth
    piece; otherwise a 65-point margin scan and a bisection cut it at its
    wall crossings (``clear``: the certificate's verdict, or None).  Raises
    DegenerateFaceError without ``extended`` when the path touches a wall.
    """
    if np.array_equal(u0, u1):
        return np.zeros(len(mesh.faces))
    du = u1 - u0
    cuts = []
    if clear is None:
        clear = _clear_of_walls(geometry, mesh, weights.epsilon, weights.eta, u0, du)
    if not clear:
        def margins_at(ts):
            return _degeneracy(_margins(_segment_shape(geometry, mesh, weights, u0, du, ts)))[0]

        grid = np.linspace(0.0, 1.0, 65)
        margins = margins_at(grid)
        if not extended and np.any(margins <= 0.0):
            face = int(np.nonzero(np.any(margins <= 0.0, axis=1))[0][0])
            raise DegenerateFaceError(face, "integration path leaves the nondegenerate region")
        cuts = _locate_crossings(margins_at, grid, margins) if extended else []
    evaluate = _energy_evaluator(geometry, mesh, weights, u0, du)
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
    weights = WeightConfig(eps, np.asarray(eta_triple, dtype=np.float64).reshape(3))
    u1 = np.asarray(u_triple, dtype=np.float64).reshape(3)
    if base_triple is None:
        u0 = base_state(geometry, eps).u
    else:
        u0 = np.asarray(base_triple, dtype=np.float64).reshape(3)
    vals = _integrate_face_energies(geometry, _TRIANGLE, weights, u0, u1, extended, tol)
    return float(vals[0])


def segment_face_energies(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    geometry: Geometry,
    u_from,
    u_to,
    extended: bool = True,
    tol: float = QUADRATURE_TOL,
    *,
    _clear=None,
) -> np.ndarray:
    """Per-face integrals of theta . du along the straight segment.

    The angle form is closed, so chaining segments reproduces the
    from-base integrals; ``_potential_chain`` uses this for incremental
    updates instead of re-integrating from the base at every point.
    """
    u0, u1 = (np.asarray(u, dtype=np.float64) for u in (u_from, u_to))
    return _integrate_face_energies(geometry, surface, weights, u0, u1, extended, tol, _clear)


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
    per_face = _integrate_face_energies(geometry, surface, weights, base.u, state.u, extended, tol)

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


def _potential_chain(surface, weights, geometry, target, base_u, us):
    """Extended potential at each point of ``us``, chained along straight segments.

    The first value is integrated from ``base_u`` as in ``surface_energies``.
    """
    starts, clear = [base_u, *us[:-1]], []
    per_call = max(1, min(_CERTIFY_CAP, (1 << 16) // len(base_u)))
    for k in range(0, len(us), per_call):  # the wall certificate, per_call segments a call
        u0, u1 = (np.stack(u[k : k + per_call], axis=1) for u in (starts, us))
        clear.extend(_clear_of_walls(geometry, surface, weights.epsilon, weights.eta, u0, u1 - u0))
    per_face = segment_face_energies(surface, weights, geometry, base_u, us[0], _clear=clear[0])
    energy = 2.0 * np.pi * float(us[0].sum()) - float(per_face.sum())
    values = [energy - float(target @ (us[0] - base_u))]
    for u_from, u_to, certified in zip(us, us[1:], clear[1:]):
        per_face = segment_face_energies(surface, weights, geometry, u_from, u_to, _clear=certified)
        energy += 2.0 * np.pi * float(u_to.sum() - u_from.sum()) - float(per_face.sum())
        values.append(energy - float(target @ (u_to - base_u)))
    return tuple(values)
