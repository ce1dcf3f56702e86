"""Derivatives and energies of the angle data.

The curvature Jacobian dK/du is a weighted graph Laplacian plus a diagonal:
in a face d(theta_i)/d(u_j) = d(theta_j)/d(u_i) (Glickenstein's h_ij,k / l_ij in
the Euclidean case), so each edge carries one weight, summed over its two
faces.  Each face's three edge and three diagonal shares come from the chain
rule through the cosine rule, in both geometries, with the sines and cosines
of its angles taken from the triangle margins; ``bincount`` sums them into the
data of a CSR pattern cached on the surface.

Energies are line integrals of the (closed) angle one-form along straight
segments, many at a time.  Weights with every eps = 1 and every eta in [0, 1]
reach no degeneracy wall, so each segment is one Gauss-Legendre piece.  Other
weights: length bounds certify a segment clear of walls, and only otherwise do
a margin scan and a bisection of all its sign changes locate the crossings,
where the integrand is only piecewise smooth; the parts between crossings split
into halves anchored at their ends.  Doubling rules run on all pieces together.

Lengths, margins, degeneracy and angles all come from the kernel in
``geometry``; the integrand evaluates them per vertex (u -> f and e^f),
per edge and per face, and a lone triangle runs as a one-face complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import BadParameterError, DegenerateFaceError, QuadratureFailureError
from .geometry import (
    ConformalState,
    Geometry,
    _angles,
    _degeneracy,
    _edge_length_bounds,
    _kernel_weights,
    _paired_kernel,
    _shape,
    _u_to_f,
    _vertex_terms,
    base_state,
    curvature,
)
from .surface import TriangulatedSurface, WeightConfig, _check_sizes

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
_CALL_SIZE = 1 << 14  # faces x nodes per integrand evaluation, beyond one piece's rules


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


def _face_shares(surface, weights, f, report, extended):
    """The faces' shares of dK/du, (6, F), in the bins of ``_plan.bins``.

    Row c is -d(theta_c)/d(u_c); row 3 + c is -d(theta_c)/d(u_{c+1}), for the edge
    opposite corner c + 2.  With d_c = d(theta_c)/d(a_c) and P, Q the edges at c
    opposite c + 1 and c + 2, d(theta_{c+1})/d(u_c) = d_{c+1} (dP/du_c - cos(theta_c)
    dQ/du_c) and d(theta_c)/d(u_c) = -d_c (cos(theta_{c+2}) dP/du_c + cos(theta_{c+1})
    dQ/du_c).  On the scaled margins x of ``geometry._angles`` (X = x0 x1 x2, w_c = 1
    or e^{-m_c}), cos(theta_c) = (x_c^2 - w_c X) / (x_c^2 + w_c X) and Heron gives
    d_c = 2 a_c / (P^2 sqrt(X)) or -e^{-m_c/2} expm1(-2 a_c) / (expm1(-P)^2 sqrt(X)):
    nothing divides by a sin(theta) rounded to 0.  ``report`` is the kernel pass at f.
    Degenerate faces get zeros with ``extended``; without it the first one raises
    DegenerateFaceError.
    """
    plan, euclidean = surface._plan, report.geometry is Geometry.EUCLIDEAN
    bad = np.flatnonzero(report.degenerate_corner >= 0)
    if bad.size and not extended:
        raise DegenerateFaceError(int(bad[0]), "angle Jacobian undefined on a degeneracy wall")
    # e^{2f} overflows past a hyperbolic f of 354.9, and a degenerate face divides by 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore" if bad.size else None):
        # the pass's lengths are finite, so the vertex terms that made them are too
        x, w = (t.take(plan.ends) for t in _vertex_terms(report.geometry, weights.epsilon, f))
        lengths, a, m = report.lengths, report.lengths.take(plan.corners), report.margins
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
        del lengths, x, w, cross, tangent  # fewer arrays alive: less heap to fault in
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
    report = curvature(surface, weights, state, extended=True)
    shares = _face_shares(surface, weights, state.f, report, extended)
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
    *,
    _pass=None,
) -> "scipy.sparse.csr_matrix":
    """Sparse d(K)/d(u): one weight per edge at (i, j) and (j, i), plus the diagonal.

    Bit for bit symmetric.  Positive semi-definite with kernel spanned by the
    all-ones vector (zero row sums) for Euclidean states, positive definite for
    hyperbolic ones.  With ``extended`` set, degenerate faces contribute
    nothing, matching the derivative of the extended curvature inside
    degenerate regions; without it the first one raises DegenerateFaceError.
    ``_pass``: the caller's ``MetricReport`` at ``state``, else one from ``curvature``.
    """
    import scipy.sparse as sp  # on first use, so importing the package skips it

    plan, n = surface._plan, surface.vertex_count
    report = _pass or curvature(surface, weights, state, extended=True)
    shares = _face_shares(surface, weights, state.f, report, extended)
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


def _segment_shape(geometry, mesh, weights, u0, du, ts, seg):
    # Rolled opposite lengths (5, F, T) and margins (3, F, T) on the mesh's plan: node k at
    # u0 + ts[k] du in column seg[k] (or seg[0] for all) of the (V, S) u0 and du
    u_t = u0[:, seg] + ts * du[:, seg]
    f_t = _u_to_f(geometry, weights.epsilon, u_t)
    return _shape(mesh._plan, _kernel_weights(geometry, weights), geometry, f_t)[2:]


def _energy_evaluator(geometry, mesh, weights, u0, du):
    # theta . du, (F, T), node by node, so no value depends on the rest of its call
    du3 = du.take(mesh.faces.T, axis=0)  # du at corner c of every face, (3, F, S)

    def evaluate(ts, seg):
        theta = _angles(geometry, *_segment_shape(geometry, mesh, weights, u0, du, ts, seg))
        theta *= du3[:, :, seg]
        return theta[0] + theta[1] + theta[2]

    return evaluate


def _reach_no_wall(epsilon, eta):
    # no wall is reachable in either geometry: every eps = 1, every eta in [0, 1]
    return np.all(epsilon == 1) and np.all((0.0 <= eta) & (eta <= 1.0))


def _clear_of_walls(geometry, mesh, epsilon, eta, u0, du):
    # True when the length bounds keep every margin on u0 + t du, t in [0, 1], above its
    # own rounding error, for each column of (V, S) u0 and du (weights that reach no wall
    # certify every segment without a bound); ends as in _segment_shape
    if _reach_no_wall(epsilon, eta):
        return np.full(du.shape[1:], True)
    u_ends = u0[:, None] + np.array([[0.0], [1.0]]) * du[:, None]  # (V, 2, S)
    f_ends = _u_to_f(geometry, epsilon, u_ends)
    bounds = _edge_length_bounds(geometry, epsilon, eta, mesh.edges, f_ends)
    lo, hi = (b[mesh.face_edges] for b in bounds)
    margin = lo[:, [1, 2, 0]] + lo[:, [2, 0, 1]] - hi
    rounding = 8.0 * np.finfo(np.float64).eps * hi.sum(axis=1, keepdims=True)
    return np.all(margin > rounding, axis=(0, 1))


def _locate_crossings(margins_at, grid, margins):
    # margins: (F, T) on the scan grid; returns sorted interior cut points.  All sign
    # changes are bisected together, each round in margins_at calls of at most T points
    sign = margins > 0.0
    face, cell = np.nonzero(sign[:, 1:] != sign[:, :-1])
    lo, hi, want = grid[cell], grid[cell + 1], sign[face, cell]  # want: the sign at lo
    calls = [np.arange(k, min(k + len(grid), len(cell))) for k in range(0, len(cell), len(grid))]
    above = np.empty(len(cell), dtype=bool)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        for col in calls:
            above[col] = margins_at(mid[col])[face[col], col - col[0]] > 0.0
        lo, hi = np.where(above == want, mid, lo), np.where(above == want, hi, mid)
    cuts = 0.5 * (lo + hi)
    return np.sort(cuts[(1e-14 < cuts) & (cuts < 1.0 - 1e-14)]).tolist()


@lru_cache(maxsize=None)
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


def _gauss_doubling(evaluate, pieces, out, columns):
    """Adds to row s of ``out`` the doubling Gauss-Legendre integrals of segment s's pieces.

    A piece (s, rule, tol) runs ``rule(n)`` at n = 4 and 8, then n = 2k while its last
    two rules differ by tol or more.  A round's pieces, of every segment, share
    ``evaluate`` calls of at most ``columns`` nodes (or one piece's rules), chunked by
    whole pieces.  Each segment sums its pieces in knot order and fails as it would alone.
    """
    accepted, prev = [None] * len(pieces), [None] * len(pieces)
    pending, ns = list(range(len(pieces))), (4, 8)
    while pending and ns[-1] <= _PIECE_CAP:
        per_call = max(1, columns // sum(ns))
        for start in range(0, len(pending), per_call):
            batch = [(p, n) for p in pending[start : start + per_call] for n in ns]
            rules = [pieces[p][1](n) for p, n in batch]
            seg = np.repeat([pieces[p][0] for p, _ in batch], [n for _, n in batch])
            vals = evaluate(np.concatenate([nodes for nodes, _ in rules]), seg)
            col = 0
            for (p, n), (_, weights) in zip(batch, rules):
                integral = vals[:, col : col + n] @ weights
                col += n
                if prev[p] is not None and np.max(np.abs(integral - prev[p])) < pieces[p][2]:
                    accepted[p] = (integral, n)
                prev[p] = integral
        pending = [p for p in pending if accepted[p] is None]
        ns = (2 * ns[-1],)
    # a piece fails when a rule short of its accepted one reached the smaller of
    # _PIECE_CAP and the budget its segment's earlier pieces left
    budget = [_TOTAL_CAP] * len(out)
    for (s, _, _), (piece, used) in zip(pieces, (a or (None, 2 * _PIECE_CAP) for a in accepted)):
        limit = min(_PIECE_CAP, budget[s])
        if not used // 2 < limit:
            raise QuadratureFailureError(f"energy quadrature did not converge within {limit} nodes")
        out[s] += piece
        budget[s] -= used
        if budget[s] <= 0:
            raise QuadratureFailureError("energy quadrature exceeded its budget")
    return out


def _integrate_face_energies(geometry, mesh, weights, u0, u1, extended):
    """Per-face path integrals of the angle form along S straight segments, (S, F).

    ``u0`` and ``u1`` hold the ends as (V, S) columns.  Weights that reach no wall make
    each segment one piece on [0, 1].  Otherwise a segment splits at its wall cuts (if
    the length bounds leave it uncertified), each part into two halves anchored at its
    knots, since a wall at or just past an end stalls a single rule.  Each piece runs to
    QUADRATURE_TOL / (2 * knot count); nodes are evaluated one by one, so a segment's
    bits do not depend on the others.  Raises DegenerateFaceError without ``extended`` on a wall.
    """
    du, eps, eta, pieces = u1 - u0, weights.epsilon, weights.eta, []
    moving = np.flatnonzero(np.any(du != 0.0, axis=0))
    clear = _clear_of_walls(geometry, mesh, eps, eta, u0[:, moving], du[:, moving])
    analytic = _reach_no_wall(eps, eta)
    for s, certified in zip(moving.tolist(), clear.tolist()):
        cuts = []
        if not certified:
            def margins_at(ts):
                return _degeneracy(_segment_shape(geometry, mesh, weights, u0, du, ts, [s])[1])[0]

            grid = np.linspace(0.0, 1.0, 65)
            margins = margins_at(grid)
            if not extended and np.any(margins <= 0.0):
                face = int(np.nonzero(np.any(margins <= 0.0, axis=1))[0][0])
                raise DegenerateFaceError(face, "integration path leaves the nondegenerate region")
            cuts = _locate_crossings(margins_at, grid, margins) if extended else []
        knots = [0.0] + cuts + [1.0]
        halves = [(t, 0.5 * (t0 + t1)) for t0, t1 in zip(knots[:-1], knots[1:]) for t in (t0, t1)]
        rules = [_gauss_rule] if analytic else [partial(_anchored_rule, *h) for h in halves]
        pieces += [(s, rule, QUADRATURE_TOL / (2 * len(knots))) for rule in rules]
    evaluate = _energy_evaluator(geometry, mesh, weights, u0, du)
    out = np.zeros((du.shape[1], len(mesh.faces)))
    return _gauss_doubling(evaluate, pieces, out, min(_PIECE_CAP, _CALL_SIZE // len(mesh.faces)))


def triangle_energy(
    geometry: Geometry,
    epsilon_triple,
    eta_triple,
    u_triple,
    base_triple=None,
    extended: bool = False,
) -> float:
    """Path integral of theta . du for one face from a base corner triple.

    Without ``extended`` the straight path must stay nondegenerate
    (checked by sampling).  The value changes by exactly pi * t when all
    three corners shift by t in the Euclidean case.
    """
    weights = WeightConfig(np.reshape(epsilon_triple, 3), np.reshape(eta_triple, 3))
    u0 = base_state(geometry, weights.epsilon).u if base_triple is None else base_triple
    u0, u1 = (np.reshape(u, 3) for u in (u0, u_triple))
    return float(segment_face_energies(_TRIANGLE, weights, geometry, u0, u1, extended)[0])


def segment_face_energies(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    geometry: Geometry,
    u_from,
    u_to,
    extended: bool = True,
) -> np.ndarray:
    """Per-face integrals of theta . du along the straight segment.

    The angle form is closed, so chaining segments reproduces the from-base integrals;
    ``_potential_chain`` integrates its segments in chunks, each to the bits this
    returns.  Raises BadParameterError when the weights or either end do not fit the surface.
    """
    _check_sizes(surface, weights)
    u0, u1 = (np.asarray(u, dtype=np.float64) for u in (u_from, u_to))
    if not u0.shape == u1.shape == (surface.vertex_count,):
        sizes = f"shapes {u0.shape} and {u1.shape}, the surface {surface.vertex_count} vertices"
        raise BadParameterError(f"the segment's ends have {sizes}")
    ends = u0[:, None], u1[:, None]
    return _integrate_face_energies(geometry, surface, weights, *ends, extended)[0]


def surface_energies(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    state: ConformalState,
    target=None,
    base: ConformalState | None = None,
    extended: bool = True,
) -> EnergyValue:
    """Whole-surface energies at one state.

    Raises DegenerateFaceError in strict mode when the segment from the
    base crosses or touches a wall, and BadParameterError when the weights
    and either state do not fit the surface or each other.
    """
    geometry = state.geometry
    if base is None:
        base = base_state(geometry, state.epsilon)
    for end in (base, state):  # before the integration, which would fail less clearly
        _paired_kernel(surface, weights, end)
    if target is None:
        target = np.zeros(surface.vertex_count)
    target = np.asarray(target, dtype=np.float64)
    per_face = segment_face_energies(surface, weights, geometry, base.u, state.u, extended)

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

    The first value is integrated from ``base_u`` as in ``surface_energies``.  Chunks of
    segments fill one _CALL_SIZE evaluation in their first round, at 12 nodes a segment.
    """
    starts, per_call = [base_u, *us[:-1]], max(1, _CALL_SIZE // (12 * len(surface.faces)))
    energy, values = 0.0, []
    for k in range(0, len(us), per_call):
        u0, u1 = (np.stack(u[k : k + per_call], axis=1) for u in (starts, us))
        chunk = _integrate_face_energies(geometry, surface, weights, u0, u1, True)
        for u_from, u_to, per_face in zip(starts[k:], us[k : k + per_call], chunk):
            rise = u_to.sum() - (u_from.sum() if values else 0.0)
            energy += 2.0 * np.pi * float(rise) - float(per_face.sum())
            values.append(energy - float(target @ (u_to - base_u)))
    return tuple(values)
