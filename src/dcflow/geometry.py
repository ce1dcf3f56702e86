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
exponents f to a ``MetricReport`` of lengths, margins, angles and
curvature, on a plan cached per surface (``TriangulatedSurface._plan``);
``curvature`` is the pass with the weights resolved.  Its first half,
``_shape``, gathers the per-vertex terms x and w of ``_vertex_terms`` at
both ends of every edge (the plan's ``ends``) and takes the lengths
opposite corners 0, 1, 2, 0, 1 of every face (its ``corners``).  So the
pass is corner-major: the margins (``_margins``), the wall test
(``_degeneracy``) and the angles (``_angles``) are operations on whole
(3, F) rows.  Each elementwise operation and each per-vertex sum is the
one the face-major (F, 3) formulas make, in the same order, and the
angles go back to (F, 3) order before ``bincount`` sums them, so the
layout changes no bit.  The energy integrand takes every quantity from
these functions, and every Jacobian is built on the caller's report.
Only the length formula can overflow or go invalid: the three functions
that run it enter ``_quiet`` themselves, and their checks reject what did.
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
from .surface import TriangulatedSurface, WeightConfig, _check_sizes, _checked_epsilon

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

# The length formula runs under this, entered by the three functions that run it
# (_shape, edge_length, _edge_length_bounds): its checks reject what overflowed or went
# invalid.  As a decorator it keeps its state per call, so nested calls are safe.
_quiet = np.errstate(over="ignore", invalid="ignore")


class Geometry(enum.Enum):
    """Background geometry of the triangles."""

    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"

    @property
    def background_curvature(self) -> float:
        return 0.0 if self is Geometry.EUCLIDEAN else -1.0


def _check_f_range(f: np.ndarray, given: np.ndarray) -> None:
    """The one coordinate check (one reduction when it passes): a NaN or inf in ``given``,
    the coordinates f came from, is BadParameterError, other |f| > F_CAP OverflowRangeError."""
    if not np.abs(f).max(initial=0.0) <= F_CAP:  # NaN and inf fail too
        if not np.isfinite(given).all():
            raise BadParameterError("coordinates contain non-finite values")
        raise OverflowRangeError(f"conformal exponent exceeds |f| <= {F_CAP}")


def _cone_f(u: np.ndarray) -> np.ndarray:
    # -log(sinh(-u)) for u < 0 with no cancellation nor overflow (2u capped where expm1 is -1)
    return (u + np.log(2.0)) - np.log(-np.expm1(2.0 * np.maximum(u, -F_CAP)))


def u_to_f(geometry: Geometry, epsilon, u):
    """Convert flow coordinates to conformal exponents.

    Hyperbolic vertices with eps = 1 require u < 0 (DomainError); there f = -log(sinh(-u)).
    Everywhere else f = u.  Epsilon other than a scalar or one 0 or 1 per row of u, and
    non-finite u, raise BadParameterError; |f| > F_CAP raises OverflowRangeError.
    """
    f = _u_to_f(geometry, _paired_epsilon(epsilon, u), u)
    return np.array(f) if f.shape else float(f)


def _paired_epsilon(epsilon, x) -> np.ndarray:
    # the checked epsilon: a scalar or one entry per row of the coordinates x, as _u_to_f reads it
    eps, shape = _checked_epsilon(epsilon), np.shape(x)
    if eps.ndim and eps.shape != shape[:1]:
        raise BadParameterError(f"epsilon of shape {eps.shape} for coordinates of shape {shape}")
    return eps


def _u_to_f(geometry: Geometry, epsilon: np.ndarray, u) -> np.ndarray:
    """The one u -> f conversion, on a checked epsilon with one entry per row of u: a
    Euclidean f is u itself, checked in one reduction; hyperbolic eps = 1 rows (a row
    mask) need u < 0, else DomainError; ``_check_f_range`` names the rest."""
    u = np.asarray(u, dtype=np.float64)
    if geometry is Geometry.EUCLIDEAN:
        _check_f_range(u, u)
        return u
    cone = epsilon == 1
    v, f = u[cone], u.copy()
    if not (v < 0.0).all():  # NaN fails too
        if not np.isfinite(v).all():
            _check_f_range(v, u)  # raises BadParameterError
        raise DomainError("hyperbolic eps=1 coordinates must satisfy u < 0")
    f[cone] = _cone_f(v)
    _check_f_range(f, u)
    return f


def f_to_u(geometry: Geometry, epsilon, f):
    """Inverse of u_to_f: u = -asinh(e^{-f}) at hyperbolic eps=1 vertices; raises alike."""
    f = np.asarray(f, dtype=np.float64)
    _check_f_range(f, f)
    cone, u = _paired_epsilon(epsilon, f) == 1, f.copy()
    if geometry is Geometry.HYPERBOLIC:
        u[cone] = -np.arcsinh(np.exp(-f[cone]))
    return u if u.shape else float(u)


@dataclass(frozen=True)
class ConformalState:
    """Flow coordinates u for every vertex, with derived exponents cached.

    The epsilon array travels with the state because the u <-> f conversion
    (``_u_to_f``, raising as ``u_to_f``) depends on it vertex by vertex.  A
    Euclidean state's f is its u, which may be the caller's array: edit neither in place.
    """

    geometry: Geometry
    epsilon: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _checked_epsilon(self.epsilon))
        self._set_u(self.u)

    def _set_u(self, u) -> None:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != self.epsilon.shape:
            raise BadParameterError("epsilon and u must have matching shapes")
        self.__dict__.update(u=u, _f=_u_to_f(self.geometry, self.epsilon, u))

    @property
    def f(self) -> np.ndarray:
        return self._f

    @classmethod
    def from_f(cls, geometry: Geometry, epsilon, f) -> "ConformalState":
        return cls(geometry, epsilon, f_to_u(geometry, epsilon, f))

    def with_u(self, u) -> "ConformalState":
        """The state at coordinates ``u``; epsilon was validated with ``self``."""
        state = object.__new__(type(self))
        state.__dict__.update(geometry=self.geometry, epsilon=self.epsilon)
        state._set_u(u)
        return state


def base_state(geometry: Geometry, epsilon) -> ConformalState:
    """Reference state: u = 0 for Euclidean, f = 0 for hyperbolic."""
    epsilon = _checked_epsilon(epsilon)
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


def _kernel_weights(geometry: Geometry, weights: WeightConfig) -> tuple:
    # (eps as floats (V,), cross weight c (E,): 2 eta or eta) as the length formula reads
    # them; made per call, never cached on the config, whose arrays a caller may edit
    cross = 2.0 * weights.eta if geometry is Geometry.EUCLIDEAN else weights.eta
    return weights.epsilon.astype(np.float64), cross


def _paired_kernel(surface: TriangulatedSurface, weights: WeightConfig, state) -> tuple:
    # _kernel_weights for state; BadParameterError unless the weights and the state fit
    # the surface, and the state's epsilon, from which its f follows, is the weights'
    _check_sizes(surface, weights)
    if not np.array_equal(state.epsilon, weights.epsilon):
        if state.u.shape != weights.epsilon.shape:
            sizes = f"{state.u.size} vertices, the surface {surface.vertex_count}"
            raise BadParameterError(f"the state has {sizes}")
        v = int(np.flatnonzero(state.epsilon != weights.epsilon)[0])
        pair = f"{state.epsilon[v]} in the state, {weights.epsilon[v]} in the weights"
        raise BadParameterError(f"epsilon at vertex {v} is {pair}")
    return _kernel_weights(state.geometry, weights)


def _lengths(geometry: Geometry, w_i, w_j, cross, x_i, x_j) -> np.ndarray:
    # Core of every length, on the _vertex_terms of both ends (|f| <= F_CAP) and the
    # cross weight c of _kernel_weights; the checks reject what overflowed or went invalid
    if geometry is Geometry.EUCLIDEAN:
        rad = w_i + w_j + cross * x_i * x_j
        if not math.isfinite(rad.max()):  # max propagates NaN
            raise OverflowRangeError("euclidean length overflow")
        if rad.min() <= 0.0:
            raise NumericalDomainError("non-positive squared length; weight conditions violated")
        return np.sqrt(rad)
    ch = w_i * w_j + cross * x_i * x_j
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
    _check_f_range(f_i, f_i)
    _check_f_range(f_j, f_j)
    x_i, w_i = _vertex_terms(geometry, np.asarray(eps_i, dtype=np.float64), f_i)
    x_j, w_j = _vertex_terms(geometry, np.asarray(eps_j, dtype=np.float64), f_j)
    cross = np.asarray(eta, dtype=np.float64) * (2.0 if geometry is Geometry.EUCLIDEAN else 1.0)
    out = _lengths(geometry, w_i, w_j, cross, x_i, x_j)
    return out if out.shape else float(out)


@_quiet
def _shape(plan, kernel: tuple, geometry: Geometry, f) -> tuple:
    """The kernel's first half: vertex terms (x, w) (2, E), lengths (E,), rolled lengths
    a (5, F) and margins m (3, F) from exponents f (V,) on a surface's ``plan``, with the
    weights of ``_kernel_weights``; all broadcast over the trailing axes of f.  The one
    pass of the length formula in the kernel, so it enters ``_quiet`` for its callers."""
    eps, cross = kernel
    if f.ndim > 1:  # columns against the trailing axes of f
        column = (-1,) + (1,) * (f.ndim - 1)
        eps, cross = eps.reshape(column), cross.reshape(column)
    x, w = _vertex_terms(geometry, eps, f)
    x, w = x.take(plan.ends, axis=0), w.take(plan.ends, axis=0)
    lengths = _lengths(geometry, w[0], w[1], cross, x[0], x[1])
    a = lengths.take(plan.corners, axis=0)
    return (x, w), lengths, a, _margins(a)


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
    kernel = _paired_kernel(surface, weights, state)
    return _shape(surface._plan, kernel, state.geometry, state.f)[1]


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
    if euclidean:  # r_{c+1} r_{c+2}: row 0, then rows 1 and 2 as r_0 (r_2, r_1)
        np.multiply(r[1], r[2], out=num[0, ...])
        np.multiply(r[0], r[2:0:-1], out=num[1:])
    else:  # e^{-m_c/2} r_{c+1} r_{c+2}, multiplied in that order
        for c in range(3):
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
    corner's wall empty.  That holds only for weights that meet both
    conditions of ``validate_weights``: eps_s eps_t + eta_st > 0 on each
    edge and eps_q eta_st + eta_qs eta_qt >= 0 at each corner.  Without
    them eps = (1, 1, 1), eta = (-0.32, -1, -0.035) has no positive entry,
    yet f = (1.728, -6.512, -4.126) puts corner 2 past its wall.
    """
    eps = np.asarray(eps_triple, dtype=np.float64)
    eta = np.asarray(eta_triple, dtype=np.float64)
    out = np.empty(3)
    for c in range(3):
        out[c] = eta[c] ** 2 - eps[(c + 1) % 3] * eps[(c + 2) % 3]
    return out


# ---------------------------------------------------------------------------
# curvature


class MetricReport(NamedTuple):
    """One kernel pass: everything the metric determines at one state.

    ``margins`` (3, F) are corner-major (``_margins``); ``angles[f, c]`` is the inner
    angle at corner c of face f (corners follow the sorted vertex order of the face
    row).  The properties are computed on read: ``degenerate_corner`` is -1 for
    nondegenerate faces, else the corner the face is degenerate at; ``face_areas``
    holds the hyperbolic angle deficits pi - sum(angles) and ``total_area`` their
    sum, both None for Euclidean surfaces.
    """

    geometry: Geometry
    extended: bool
    lengths: np.ndarray
    margins: np.ndarray
    angles: np.ndarray
    curvature: np.ndarray

    @property
    def degenerate_corner(self) -> np.ndarray:
        return _degeneracy(self.margins)[1]

    @property
    def face_areas(self) -> np.ndarray | None:
        return None if self.geometry is Geometry.EUCLIDEAN else np.pi - self.angles.sum(axis=1)

    @property
    def total_area(self) -> float | None:
        return None if self.geometry is Geometry.EUCLIDEAN else float(self.face_areas.sum())

    @property
    def degenerate_faces(self) -> tuple:
        """(face_index, corner) pairs for every degenerate face."""
        corner = self.degenerate_corner
        return tuple((int(f), int(corner[f])) for f in np.flatnonzero(corner >= 0))


def _metric(
    surface: TriangulatedSurface, kernel: tuple, geometry: Geometry, f, extended: bool
) -> MetricReport:
    """The metric kernel: lengths, margins, angles and K from exponents f in one pass.

    ``kernel`` holds the weights as ``_kernel_weights`` resolves them; ``_shape`` enters
    ``_quiet``.  Without ``extended`` the first degenerate face raises DegenerateFaceError."""
    plan = surface._plan
    lengths, a, m = _shape(plan, kernel, geometry, f)[1:]  # the vertex terms go
    if not extended and m.min() <= 0.0:  # the wall test's shortcut: some face is degenerate
        raise DegenerateFaceError(int(np.nonzero(_degeneracy(m)[1] >= 0)[0][0]))
    angles = np.ascontiguousarray(_angles(geometry, a, m).T)  # (F, 3): bincount's order
    acc = np.bincount(plan.faces, weights=angles.ravel(), minlength=surface.vertex_count)
    return MetricReport(geometry, extended, lengths, m, angles, 2.0 * np.pi - acc)


def curvature(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    state: ConformalState,
    extended: bool = False,
) -> MetricReport:
    """The kernel pass at ``state``, with curvature K_i = 2 pi - sum of angles at i.

    With ``extended`` set, degenerate faces contribute their constant
    extended angles; otherwise the first degenerate face raises
    DegenerateFaceError.  Weights or a state that do not fit the surface or
    each other raise BadParameterError.
    """
    kernel = _paired_kernel(surface, weights, state)
    return _metric(surface, kernel, state.geometry, state.f, extended)


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
