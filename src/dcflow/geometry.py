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

``_metric`` is the one metric kernel of the package: one pass from the
exponents f to lengths, margins, angles and curvature, on a plan cached
per surface (``TriangulatedSurface._plan``).  The plan's ``ends`` gather
the per-vertex terms x and w of ``_vertex_terms`` at both ends of every
edge; one take of its ``corners`` gives the lengths opposite corners 0,
1, 2, 0, 1 of every face.  So the pass is corner-major: the margins
(``_margins``), the wall test (``_degeneracy``) and the angles
(``_angles``) are operations on whole (3, F) rows.  Each elementwise
operation and each per-vertex sum is the one the face-major (F, 3)
formulas make, in the same order, and the angles go back to (F, 3) order
before ``bincount`` sums them, so the layout changes no bit.
Curvature, the energy integrand and the strict-flow wall test take every
quantity from these functions; the Jacobians take the lengths, terms and
margins, and their cosines from the same scaled margins.  Only the length formula
can overflow or go invalid; the functions that evaluate it run under one
``np.errstate`` and its checks reject what did.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

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

# The length evaluators run under this: their checks reject what overflowed or went
# invalid.  As a decorator it keeps its state per call, so nested calls are safe.
_quiet = np.errstate(over="ignore", invalid="ignore")


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
        euclidean = self.geometry is Geometry.EUCLIDEAN  # f = u: one reduction checks both
        if not (np.abs(u).max(initial=0.0) <= F_CAP if euclidean else np.isfinite(u).all()):
            if not np.isfinite(u).all():
                raise BadParameterError("u contains non-finite values")
            _check_f_range(u)
        # u_to_f raises DomainError / OverflowRangeError for out-of-range coordinates
        f = u.copy() if euclidean else u_to_f(self.geometry, self.epsilon, u)
        self.__dict__.update(u=u, _f=f)

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
    # Core of every length, on the _vertex_terms of both ends (|f| <= F_CAP); the
    # checks reject what overflowed or went invalid
    if geometry is Geometry.EUCLIDEAN:
        rad = w_i + w_j + 2.0 * eta * x_i * x_j
        if not math.isfinite(rad.max()):  # max propagates NaN
            raise OverflowRangeError("euclidean length overflow")
        if rad.min() <= 0.0:
            raise NumericalDomainError("non-positive squared length; weight conditions violated")
        return np.sqrt(rad)
    ch = w_i * w_j + eta * x_i * x_j
    if not math.isfinite(ch.max()):
        raise OverflowRangeError("hyperbolic length overflow")
    if ch.min() <= 1.0:
        raise NumericalDomainError("cosh(length) <= 1; weight conditions violated")
    return np.arccosh(ch)


@_quiet
def edge_length(geometry: Geometry, eps_i, eps_j, eta, f_i, f_j):
    """Length of one edge from the exponents at its ends.  Broadcasts."""
    f_i = np.asarray(f_i, dtype=np.float64)
    f_j = np.asarray(f_j, dtype=np.float64)
    _check_f_range(f_i)
    _check_f_range(f_j)
    x_i, w_i = _vertex_terms(geometry, np.asarray(eps_i, dtype=np.float64), f_i)
    x_j, w_j = _vertex_terms(geometry, np.asarray(eps_j, dtype=np.float64), f_j)
    out = _lengths(geometry, w_i, w_j, np.asarray(eta, dtype=np.float64), x_i, x_j)
    return out if out.shape else float(out)


@_quiet
def _edge_lengths(geometry: Geometry, ends, weights: WeightConfig, f, terms=None) -> np.ndarray:
    """Lengths (E, ...) from per-vertex exponents ``f`` (V, ...).

    ``ends`` (2, E), a surface's ``_plan.ends``, gathers the per-vertex terms x and
    w at both ends of every edge, unless the caller passes them as ``terms``; the
    result broadcasts over the trailing axes of f.
    """
    column = (-1,) + (1,) * (f.ndim - 1)
    if terms is None:
        eps = weights.epsilon.astype(np.float64).reshape(column)
        terms = (t.take(ends, axis=0) for t in _vertex_terms(geometry, eps, f))
    x, w = terms
    return _lengths(geometry, w[0], w[1], weights.eta.reshape(column), x[0], x[1])


@_quiet
def _edge_length_bounds(geometry: Geometry, epsilon, eta, edges, f_ends):
    """Bounds (lo, hi) on every length of ``edges`` along a segment in u.

    ``f_ends`` (V, 2) holds the exponents at its two ends; (V, 2, S) those of S
    segments, bounded one by one.  u_to_f is increasing, so each f, e^f and C lie
    between their end values, and the length formula in interval arithmetic (a term
    with a negative weight takes the opposite end) bounds every length on the segment.
    The bounds are widened by the formula's rounding error, which grows with |f|, so
    they hold for lengths evaluated in floating point too.
    """
    trailing = (1,) * (f_ends.ndim - 1)
    eps = np.asarray(epsilon, dtype=np.float64).reshape(-1, *trailing)
    x, w = _vertex_terms(geometry, eps, np.sort(f_ends, axis=1))  # low end, high end
    i, j = edges[:, 0], edges[:, 1]
    eta = np.asarray(eta, dtype=np.float64).reshape(-1, *trailing)
    if geometry is Geometry.EUCLIDEAN:
        terms = [w[i], w[j], 2.0 * eta * x[i] * x[j]]
    else:
        terms = [w[i] * w[j], eta * x[i] * x[j]]
    ends = np.sort(terms, axis=2)  # (term, E, end, segment)
    size = np.spacing(1.0 + np.abs(f_ends).max(axis=(0, 1)))  # per segment
    slack = 32.0 * size * np.abs(ends).sum(axis=(0, 2))
    lo = ends[:, :, 0].sum(axis=0) - slack
    hi = ends[:, :, 1].sum(axis=0) + slack
    if geometry is Geometry.EUCLIDEAN:
        return np.sqrt(np.maximum(lo, 0.0)), np.sqrt(hi)
    return np.arccosh(np.maximum(lo, 1.0)), np.arccosh(hi)


def edge_lengths(
    surface: TriangulatedSurface, weights: WeightConfig, state: ConformalState
) -> np.ndarray:
    """Lengths of all edges in canonical edge order."""
    return _edge_lengths(state.geometry, surface._plan.ends, weights, state.f)


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
    """Margins m_c = a_{c+1} + a_{c+2} - a_c of the triangle inequalities, shape (3, ...).

    ``a`` is rolled: its rows hold the lengths opposite corners 0, 1, 2, 0, 1
    (the plan's ``corners``), so each term is a row window with no copy.
    m_c is the slack of the inequality whose long side faces c.  The margins
    sum to the perimeter, and at most one of them can be non-positive.
    """
    m = a[1:4] + a[2:5]
    return np.subtract(m, a[:3], out=m)


def _degeneracy(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one wall test: (min margin, degenerate corner) of each triangle from margins m.

    A triangle is degenerate at the corner whose margin is non-positive;
    the corner is -1 when every margin is positive.
    """
    margin = np.minimum(np.minimum(m[0], m[1]), m[2])
    if margin.min() > 0.0:  # every face clear (a NaN fails the test)
        return margin, np.full(margin.shape, -1, dtype=np.intp)
    return margin, np.where(margin <= 0.0, m.argmin(axis=0), -1)


def _angles(geometry: Geometry, a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Angles (3, ...) at the three corners from rolled lengths ``a`` and margins ``m``.

    Half-angle formulas on the margins clamped at 0: with P the perimeter,
    x_c = m_c / P (Euclidean) or expm1(-m_c) / expm1(-P) (hyperbolic)
    lies in [0, 1], and

        tan^2(theta_c / 2) = w_c x_{c+1} x_{c+2} / x_c,

    with w_c = 1 (Euclidean) or e^{-m_c} (hyperbolic: the sinh(s - a)
    form with its e^{y/2} factors cancelled, so nothing overflows).  A
    zero margin gives exactly pi at its corner and 0 at the other two:
    the extension across the wall is the formula itself.
    """
    r, perim = np.maximum(m, 0.0), a[0] + a[1] + a[2]  # in place below: few arrays alive
    euclidean = geometry is Geometry.EUCLIDEAN
    num = np.empty_like(r) if euclidean else np.exp(-0.5 * r)
    if not euclidean:
        np.expm1(-r, out=r)
        perim = np.expm1(-perim)
    np.sqrt(np.divide(r, perim, out=r), out=r)
    for c in range(3):  # row arithmetic: no rolled copy of r
        if euclidean:
            np.multiply(r[(c + 1) % 3], r[(c + 2) % 3], out=num[c, ...])
        else:
            num[c] *= r[(c + 1) % 3]
            num[c] *= r[(c + 2) % 3]
    half = np.arctan2(num, r, out=num)
    return np.multiply(half, 2.0, out=half)


def _triangle(l_ij, l_ik, l_jk) -> tuple[np.ndarray, np.ndarray, int]:
    # Rolled opposite lengths, margins and degenerate corner of one triangle given by
    # side-named lengths; the shared entry of the single-triangle ops.
    a = np.array([l_jk, l_ik, l_ij], dtype=np.float64)
    if not np.all(np.isfinite(a) & (a > 0.0)):
        raise BadParameterError("lengths must be positive and finite")
    a = a[[0, 1, 2, 0, 1]]
    m = _margins(a)
    return a, m, int(_degeneracy(m)[1])


def classify_triangle(geometry: Geometry, l_ij, l_ik, l_jk) -> DegeneracyClass:
    """Locate the degenerate corner of a triangle, if any.

    The predicate is the same in both geometries: corner q is degenerate
    when the opposite edge is at least as long as the other two combined.
    """
    corner = _triangle(l_ij, l_ik, l_jk)[2]
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
    a, m, _ = _triangle(l_ij, l_ik, l_jk)
    return tuple(float(theta) for theta in _angles(geometry, a, m))


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


class _Metric(NamedTuple):
    # one kernel pass: margins m (3, F) corner-major, angles (F, 3)
    lengths: np.ndarray
    m: np.ndarray
    angles: np.ndarray
    curvature: np.ndarray


def _metric(
    surface: TriangulatedSurface, weights: WeightConfig, geometry: Geometry, f, extended: bool
) -> _Metric:
    """The metric kernel: lengths, margins, angles and K from exponents f in one pass.

    Without ``extended`` the first degenerate face raises DegenerateFaceError."""
    plan = surface._plan
    lengths = _edge_lengths(geometry, plan.ends, weights, f)
    a = lengths.take(plan.corners)
    m = _margins(a)
    if not extended and m.min() <= 0.0:  # the wall test's shortcut: some face is degenerate
        raise DegenerateFaceError(int(np.nonzero(_degeneracy(m)[1] >= 0)[0][0]))
    angles = np.ascontiguousarray(_angles(geometry, a, m).T)  # (F, 3): bincount's order
    acc = np.bincount(plan.faces, weights=angles.ravel(), minlength=surface.vertex_count)
    return _Metric(lengths, m, angles, 2.0 * np.pi - acc)


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
    metric = _metric(surface, weights, state.geometry, state.f, extended)
    areas = np.pi - metric.angles.sum(axis=1) if state.geometry is Geometry.HYPERBOLIC else None
    return MetricReport(
        state.geometry, extended, metric.lengths, metric.angles, _degeneracy(metric.m)[1],
        metric.curvature, areas, None if areas is None else float(areas.sum()),
    )  # fmt: skip


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
