"""Metric layer: factors, edge lengths, inner angles, curvature.

Every vertex carries a conformal exponent f_i.  Euclidean edges get

    l_ij = sqrt(eps_i e^{2 f_i} + eps_j e^{2 f_j} + 2 eta_ij e^{f_i + f_j})

and hyperbolic edges get

    cosh l_ij = C_i C_j + eta_ij S_i S_j,   S_i = e^{f_i},  C_i = sqrt(1 + eps_i S_i^2).

Flows act on a second coordinate u_i: equal to f_i except at hyperbolic
vertices with eps_i = 1, where u_i = -asinh(e^{-f_i}) ranges over the
negative reals.  Hyperbolic evaluation always goes through (S_i, C_i)
computed from f; u is converted first.

A triangle is degenerate when one of its margins a_{c+1} + a_{c+2} - a_c
(a_c opposite corner c) is non-positive, equality included.  Angles come
from half-angle formulas on the margins clamped at zero, in both
geometries; at a zero margin they give pi at the offending corner and
zero at the other two, which is the continuous extension across the
wall that every derived quantity (curvature, areas) accepts.

This module is the one per-face metric kernel of the package: lengths
come from ``_lengths`` on the per-vertex terms of ``_vertex_terms``
(per edge through ``_edge_lengths``), bounds on them along a segment from
``_edge_length_bounds``, margins from ``_margins``, the wall test (min
margin, degenerate corner) from ``_degeneracy``, and angles from
``_angles_opposite``.  Curvature, the Jacobians, the energy quadrature
and the strict-flow wall check all call these; none recomputes them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameterError,
    DegenerateFaceError,
    DegenerateTriangleError,
    DomainError,
    NumericalDomainError,
    OverflowRangeError,
)
from .surface import TriangulatedSurface, WeightConfig

__all__ = [
    "Geometry",
    "ConformalState",
    "DegeneracyClass",
    "MetricReport",
    "base_state",
    "classify_triangle",
    "coshl_bounds",
    "curvature",
    "edge_length",
    "edge_lengths",
    "extended_triangle_angles",
    "f_to_u",
    "gauss_bonnet_residual",
    "triangle_angles",
    "u_to_f",
    "wall_reachability",
]

# |f| beyond this cannot be exponentiated in double precision.
F_CAP = 700.0


class Geometry(enum.Enum):
    """Background geometry of the triangles."""

    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"

    @property
    def background_curvature(self) -> float:
        return 0.0 if self is Geometry.EUCLIDEAN else -1.0


def _check_f_range(f: np.ndarray) -> None:
    if not np.abs(f).max(initial=0.0) <= F_CAP:  # one reduction; NaN and inf fail too
        raise OverflowRangeError(f"conformal exponent exceeds |f| <= {F_CAP}")


def _logsinh(x: np.ndarray) -> np.ndarray:
    # log(sinh(x)) for x > 0 without overflow.
    return x - np.log(2.0) + np.log1p(-np.exp(-2.0 * x))


def u_to_f(geometry: Geometry, epsilon, u):
    """Convert flow coordinates to conformal exponents.

    Hyperbolic vertices with eps = 1 require u < 0; there
    f = -log(sinh(-u)).  Everywhere else f = u.
    """
    u = np.asarray(u, dtype=np.float64)
    epsilon = np.asarray(epsilon, dtype=np.int64)
    if geometry is Geometry.EUCLIDEAN:
        _check_f_range(u)
        return u.copy()
    f = u.copy()
    mask = np.broadcast_to(epsilon == 1, u.shape)
    if np.any(mask & ~(u < 0.0)):
        raise DomainError("hyperbolic eps=1 coordinates must satisfy u < 0")
    with np.errstate(divide="ignore"):
        f[mask] = -_logsinh(-u[mask])
    _check_f_range(f)
    return f if f.shape else float(f)


def f_to_u(geometry: Geometry, epsilon, f):
    """Inverse of u_to_f: u = -asinh(e^{-f}) at hyperbolic eps=1 vertices."""
    f = np.asarray(f, dtype=np.float64)
    _check_f_range(f)
    epsilon = np.asarray(epsilon, dtype=np.int64)
    if geometry is Geometry.EUCLIDEAN:
        return f.copy()
    u = f.copy()
    mask = np.broadcast_to(epsilon == 1, f.shape)
    u[mask] = -np.arcsinh(np.exp(-f[mask]))
    return u if u.shape else float(u)


@dataclass(frozen=True)
class ConformalState:
    """Flow coordinates u for every vertex, with derived exponents cached.

    The epsilon array travels with the state because the u <-> f
    conversion depends on it vertex by vertex.
    """

    geometry: Geometry
    epsilon: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "epsilon", np.asarray(self.epsilon, dtype=np.int64))
        self._set_u(self.u)

    def _set_u(self, u) -> None:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != self.epsilon.shape:
            raise BadParameterError("epsilon and u must have matching shapes")
        if not np.isfinite(u).all():
            raise BadParameterError("u contains non-finite values")
        # u_to_f raises DomainError / OverflowRangeError for out-of-range coordinates
        self.__dict__.update(u=u, _f=u_to_f(self.geometry, self.epsilon, u))

    @property
    def f(self) -> np.ndarray:
        return self._f

    @classmethod
    def from_f(cls, geometry: Geometry, epsilon, f) -> "ConformalState":
        return cls(geometry, epsilon, f_to_u(geometry, np.asarray(epsilon), f))

    def with_u(self, u) -> "ConformalState":
        """The state at coordinates ``u``; epsilon was validated with ``self``."""
        state = object.__new__(type(self))
        state.__dict__.update(geometry=self.geometry, epsilon=self.epsilon)
        state._set_u(u)
        return state


def base_state(geometry: Geometry, epsilon) -> ConformalState:
    """Reference state: u = 0 for Euclidean, f = 0 for hyperbolic."""
    epsilon = np.asarray(epsilon, dtype=np.int64)
    if geometry is Geometry.EUCLIDEAN:
        return ConformalState(geometry, epsilon, np.zeros(epsilon.shape))
    return ConformalState.from_f(geometry, epsilon, np.zeros(epsilon.shape))


# ---------------------------------------------------------------------------
# lengths


def _vertex_terms(geometry: Geometry, eps, f):
    # (x, w) per vertex, gathered per edge: x = e^f, w = eps x^2 (Euclidean) or C (hyperbolic)
    x = np.exp(f)
    if geometry is Geometry.EUCLIDEAN:
        return x, eps * x**2
    return x, np.where(eps == 1.0, np.hypot(1.0, x), 1.0)


def _lengths(geometry: Geometry, w_i, w_j, eta, x_i, x_j) -> np.ndarray:
    # Unchecked core of every length, on the _vertex_terms of both ends (from |f| <= F_CAP);
    # the caller ignores overflow and invalid values, which the checks below reject
    if geometry is Geometry.EUCLIDEAN:
        rad = w_i + w_j + 2.0 * eta * x_i * x_j
        if not np.isfinite(rad.max()):  # max propagates NaN
            raise OverflowRangeError("euclidean length overflow")
        if rad.min() <= 0.0:
            raise NumericalDomainError(
                "non-positive squared length; weight conditions violated"
            )
        return np.sqrt(rad)
    ch = w_i * w_j + eta * x_i * x_j
    if not np.isfinite(ch.max()):
        raise OverflowRangeError("hyperbolic length overflow")
    if ch.min() <= 1.0:
        raise NumericalDomainError("cosh(length) <= 1; weight conditions violated")
    return np.arccosh(ch)


def edge_length(geometry: Geometry, eps_i, eps_j, eta, f_i, f_j):
    """Length of one edge from the exponents at its ends.  Broadcasts."""
    f_i = np.asarray(f_i, dtype=np.float64)
    f_j = np.asarray(f_j, dtype=np.float64)
    _check_f_range(f_i)
    _check_f_range(f_j)
    with np.errstate(over="ignore", invalid="ignore"):
        x_i, w_i = _vertex_terms(geometry, np.asarray(eps_i, dtype=np.float64), f_i)
        x_j, w_j = _vertex_terms(geometry, np.asarray(eps_j, dtype=np.float64), f_j)
        out = _lengths(geometry, w_i, w_j, np.asarray(eta, dtype=np.float64), x_i, x_j)
    return out if out.shape else float(out)


def _edge_lengths(geometry: Geometry, epsilon, eta, edges, f) -> np.ndarray:
    """Lengths of ``edges`` from per-vertex exponents ``f`` of shape (V, ...).

    ``eta`` holds one weight per edge; the result has shape (E, ...),
    broadcasting over the trailing axes of ``f``.
    """
    f = np.asarray(f, dtype=np.float64)
    column = (-1,) + (1,) * (f.ndim - 1)
    i, j = edges[:, 0], edges[:, 1]
    eta = np.asarray(eta, dtype=np.float64).reshape(column)
    with np.errstate(over="ignore", invalid="ignore"):
        x, w = _vertex_terms(geometry, np.asarray(epsilon, dtype=np.float64).reshape(column), f)
        return _lengths(geometry, w[i], w[j], eta, x[i], x[j])


def _edge_length_bounds(geometry: Geometry, epsilon, eta, edges, f_ends):
    """Bounds (lo, hi) on every length of ``edges`` along a segment in u.

    ``f_ends`` (V, 2) holds the exponents at its two ends.  u_to_f is
    increasing, so each f, e^f and C lie between their end values, and
    the length formula in interval arithmetic (a term with a negative
    weight takes the opposite end) bounds every length on the segment.
    The bounds are widened by the formula's rounding error, which grows
    with |f|, so they hold for lengths evaluated in floating point too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        eps = np.asarray(epsilon, dtype=np.float64)[:, None]
        x, w = _vertex_terms(geometry, eps, np.sort(f_ends, axis=1))  # low end, high end
        i, j = edges[:, 0], edges[:, 1]
        eta = np.asarray(eta, dtype=np.float64)[:, None]
        if geometry is Geometry.EUCLIDEAN:
            terms = [w[i], w[j], 2.0 * eta * x[i] * x[j]]
        else:
            terms = [w[i] * w[j], eta * x[i] * x[j]]
        ends = np.sort(terms, axis=-1)  # (term, E, end)
        slack = 32.0 * np.spacing(1.0 + np.abs(f_ends).max()) * np.abs(ends).sum(axis=(0, 2))
        lo = ends[..., 0].sum(axis=0) - slack
        hi = ends[..., 1].sum(axis=0) + slack
        if geometry is Geometry.EUCLIDEAN:
            return np.sqrt(np.maximum(lo, 0.0)), np.sqrt(hi)
        return np.arccosh(np.maximum(lo, 1.0)), np.arccosh(hi)


def edge_lengths(
    surface: TriangulatedSurface, weights: WeightConfig, state: ConformalState
) -> np.ndarray:
    """Lengths of all edges in canonical edge order."""
    return _edge_lengths(
        state.geometry, weights.epsilon, weights.eta, surface.edges, state.f
    )


# ---------------------------------------------------------------------------
# angles and degeneracy


@dataclass(frozen=True)
class DegeneracyClass:
    """Which corner, if any, a triangle is degenerate at.

    ``corner`` is 0, 1 or 2 in the (i, j, k) order of the triangle ops,
    or None for a nondegenerate triangle.
    """

    corner: int | None = None

    @property
    def is_degenerate(self) -> bool:
        return self.corner is not None


def _margins(a: np.ndarray) -> np.ndarray:
    """Margins m_c = a[c+1] + a[c+2] - a[c] of the triangle inequalities.

    ``a[..., c]`` is the length opposite corner c, so m_c is the slack of
    the inequality whose long side faces c.  The three margins sum to the
    perimeter, and at most one of them can be non-positive at a time.
    Callers that have them pass them to the wall test and the angles as ``m``.
    """
    m = np.empty_like(a)
    for c in range(3):  # column arithmetic: no fancy-index copies
        np.add(a[..., (c + 1) % 3], a[..., (c + 2) % 3], out=m[..., c])
    m -= a
    return m


def _degeneracy(a: np.ndarray, m: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The one wall test: (min margin, degenerate corner) of each triangle.

    A triangle is degenerate at the corner whose margin is non-positive;
    the corner is -1 when every margin is positive.
    """
    m = _margins(a) if m is None else m
    # column by column: numpy reduces a length-3 inner axis slowly
    margin = np.minimum(np.minimum(m[..., 0], m[..., 1]), m[..., 2])
    return margin, np.where(margin <= 0.0, m.argmin(axis=-1), -1)


def _angles_opposite(geometry: Geometry, a: np.ndarray, m: np.ndarray | None = None) -> np.ndarray:
    """Angles at the three corners given opposite lengths a[..., 0:3].

    Half-angle formulas on the margins clamped at 0: with P the perimeter,
    x_c = m_c / P (Euclidean) or expm1(-m_c) / expm1(-P) (hyperbolic)
    lies in [0, 1], and

        tan^2(theta_c / 2) = w_c x_{c+1} x_{c+2} / x_c,

    with w_c = 1 (Euclidean) or e^{-m_c} (hyperbolic: the sinh(s - a)
    form with its e^{y/2} factors cancelled, so nothing overflows).  A
    zero margin gives exactly pi at its corner and 0 at the other two:
    the extension across the wall is the formula itself.
    """
    m = np.maximum(_margins(a) if m is None else m, 0.0)
    perim = a[..., :1] + a[..., 1:2] + a[..., 2:]
    if geometry is Geometry.EUCLIDEAN:
        r = np.sqrt(m / perim)
        num = np.empty_like(r)
        for c in range(3):  # column arithmetic, as in _margins
            np.multiply(r[..., (c + 1) % 3], r[..., (c + 2) % 3], out=num[..., c])
    else:
        r = np.sqrt(np.expm1(-m) / np.expm1(-perim))
        num = np.exp(-0.5 * m)
        for c in range(3):
            num[..., c] *= r[..., (c + 1) % 3]
            num[..., c] *= r[..., (c + 2) % 3]
    return 2.0 * np.arctan2(num, r)


def _triangle(l_ij, l_ik, l_jk) -> tuple[np.ndarray, int]:
    # Opposite lengths and degenerate corner of one triangle given by
    # side-named lengths; the shared entry of the single-triangle ops.
    a = np.stack([np.asarray(x, dtype=np.float64) for x in (l_jk, l_ik, l_ij)], axis=-1)
    if not np.all(np.isfinite(a) & (a > 0.0)):
        raise BadParameterError("lengths must be positive and finite")
    return a, int(_degeneracy(a)[1])


def classify_triangle(geometry: Geometry, l_ij, l_ik, l_jk) -> DegeneracyClass:
    """Locate the degenerate corner of a triangle, if any.

    The predicate is the same in both geometries: corner q is degenerate
    when the opposite edge is at least as long as the other two combined.
    """
    _, corner = _triangle(l_ij, l_ik, l_jk)
    return DegeneracyClass(corner=None if corner < 0 else corner)


def triangle_angles(geometry: Geometry, l_ij, l_ik, l_jk):
    """Inner angles (theta_i, theta_j, theta_k) of a nondegenerate triangle."""
    corner = classify_triangle(geometry, l_ij, l_ik, l_jk).corner
    if corner is not None:
        raise DegenerateTriangleError(
            f"triangle degenerate at corner {corner}; use the extended angles"
        )
    return extended_triangle_angles(geometry, l_ij, l_ik, l_jk)


def extended_triangle_angles(geometry: Geometry, l_ij, l_ik, l_jk):
    """Angles extended by constants across degenerate shapes.

    Inside the nondegenerate region these are the ordinary angles; at a
    triangle degenerate at q the value is pi at q and 0 at the other two
    corners, which is the continuous limit.
    """
    a, _ = _triangle(l_ij, l_ik, l_jk)
    return tuple(float(theta) for theta in _angles_opposite(geometry, a))


def wall_reachability(eps_triple, eta_triple) -> np.ndarray:
    """Per-corner indicator eta_st^2 - eps_s eps_t for one face.

    ``eta_triple[c]`` is the weight of the edge opposite corner c.
    Positive entries mark corners whose degeneracy wall can actually be
    reached by some choice of exponents; non-positive entries make that
    corner's wall empty.
    """
    eps = np.asarray(eps_triple, dtype=np.float64)
    eta = np.asarray(eta_triple, dtype=np.float64)
    out = np.empty(3)
    for c in range(3):
        out[c] = eta[c] ** 2 - eps[(c + 1) % 3] * eps[(c + 2) % 3]
    return out


# ---------------------------------------------------------------------------
# curvature


@dataclass(frozen=True)
class MetricReport:
    """Everything the metric determines at one state.

    ``angles[f, c]`` is the inner angle at corner c of face f (corners
    follow the sorted vertex order of the face row).  For hyperbolic
    surfaces ``face_areas`` holds the angle deficits pi - sum(angles)
    and ``total_area`` their sum; both are None for Euclidean surfaces.
    ``degenerate_corner`` is -1 for nondegenerate faces, else the corner
    index the face is degenerate at.
    """

    geometry: Geometry
    extended: bool
    lengths: np.ndarray
    angles: np.ndarray
    degenerate_corner: np.ndarray
    curvature: np.ndarray
    face_areas: np.ndarray | None
    total_area: float | None

    @property
    def degenerate_faces(self) -> tuple:
        """(face_index, corner) pairs for every degenerate face."""
        rows = np.nonzero(self.degenerate_corner >= 0)[0]
        return tuple((int(f), int(self.degenerate_corner[f])) for f in rows)


def curvature(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    state: ConformalState,
    extended: bool = False,
) -> MetricReport:
    """Angle sums and curvature K_i = 2 pi - sum of angles at i.

    With ``extended`` set, degenerate faces contribute their constant
    extended angles; otherwise the first degenerate face raises
    DegenerateFaceError.
    """
    lengths = edge_lengths(surface, weights, state)
    a = lengths[surface.face_edges]
    m = _margins(a)
    _, deg = _degeneracy(a, m)
    if not extended and np.any(deg >= 0):
        face = int(np.nonzero(deg >= 0)[0][0])
        raise DegenerateFaceError(face)
    angles = _angles_opposite(state.geometry, a, m)
    acc = np.bincount(
        surface.faces.ravel(), weights=angles.ravel(), minlength=surface.vertex_count
    )
    k = 2.0 * np.pi - acc
    if state.geometry is Geometry.HYPERBOLIC:
        face_areas = np.pi - angles.sum(axis=1)
        total_area = float(face_areas.sum())
    else:
        face_areas = None
        total_area = None
    return MetricReport(
        geometry=state.geometry,
        extended=extended,
        lengths=lengths,
        angles=angles,
        degenerate_corner=deg,
        curvature=k,
        face_areas=face_areas,
        total_area=total_area,
    )


def gauss_bonnet_residual(report: MetricReport, euler_characteristic: int) -> float:
    """Total curvature minus its topological value; zero in exact arithmetic."""
    total = float(report.curvature.sum())
    area = report.total_area or 0.0
    return total - 2.0 * np.pi * euler_characteristic + report.geometry.background_curvature * area


# ---------------------------------------------------------------------------
# length bounds


def coshl_bounds(eps_j: int, eta: float) -> tuple[float, float]:
    """Two-sided bounds for cosh(l_ij) when eps_i = 1.

    Returns (lam, mu) with
        lam * (C_i C_j + S_i S_j) <= cosh l_ij <= mu * (C_i C_j + S_i S_j)
    valid for every pair of exponents.  Requires the edge weight
    condition between the endpoints, i.e. eta > -1 when eps_j = 1 and
    eta > 0 when eps_j = 0.
    """
    if eps_j not in (0, 1):
        raise BadParameterError("eps_j must be 0 or 1")
    eta = float(eta)
    if eps_j * 1 + eta <= 0.0:
        raise BadParameterError("edge weight condition eps_i eps_j + eta > 0 fails")
    mu = 1.0 + abs(eta)
    if eta > 0.0:
        lam = min(1.0, eta)
    else:
        lam = 0.5 * (1.0 + eta)
    return lam, mu
