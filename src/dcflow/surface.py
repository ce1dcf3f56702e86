"""Closed triangulated surfaces and the weights that decorate them.

A surface here is purely combinatorial: a vertex count plus a list of
triangular faces.  Faces are unordered vertex triples; no orientation is
stored or required anywhere downstream.  Edges get a canonical order
(sorted pairs, sorted lexicographically) so that every array indexed by
edge means the same thing in every run.

Weights attach one integer epsilon in {0, 1} to each vertex and one real
eta to each edge.  Two pointwise conditions make the induced metrics
workable; ``validate_weights`` reports every violation rather than just
the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BadFaceError,
    BadParameterError,
    NonManifoldVertexError,
    NotClosedSurfaceError,
)

__all__ = [
    "TriangulatedSurface",
    "WeightConfig",
    "WeightValidation",
    "build_surface",
    "generate",
    "validate_weights",
]

GENERATOR_KINDS = ("tetrahedron", "octahedron", "icosahedron", "torus_grid", "genus2")


class _Plan(NamedTuple):  # index arrays of geometry._metric and calculus.curvature_jacobian
    ends: np.ndarray  # (2, E): the ends i, j of each edge, edges.T
    corners: np.ndarray  # (5, F): the edges opposite corners 0, 1, 2, 0, 1 of each face
    faces: np.ndarray  # faces.ravel(): the corners' vertices in (F, 3) order
    tangents: np.ndarray  # (2, 3, F): corner c's end e + E * side of edges opposite c + 1, c + 2
    bins: np.ndarray  # (6, F): E + the vertex at c, then the edge opposite c + 2 (Jacobian shares)
    indptr: np.ndarray  # CSR pattern: entries (i, j), (j, i) per edge and (v, v) per vertex
    indices: np.ndarray
    entries: np.ndarray  # the bin whose sum fills each entry


@dataclass(frozen=True)
class TriangulatedSurface:
    """A validated closed triangulated surface.

    Attributes
    ----------
    vertex_count : int
        Number of vertices; vertices are the integers 0..vertex_count-1.
    faces : (F, 3) int array
        Each row sorted ascending; rows appear in construction order.
    edges : (E, 2) int array
        Canonical edge list: each row (min, max), rows sorted
        lexicographically.
    face_edges : (F, 3) int array
        ``face_edges[f, c]`` is the edge opposite corner ``c`` of face
        ``f``, as an index into ``edges``.
    edge_faces : (E, 2) int array
        The two faces bounded by each edge, in face order.
    vertex_degrees : (N,) int array
        Number of incident edges (equals number of incident faces).
    """

    vertex_count: int
    faces: np.ndarray
    edges: np.ndarray
    face_edges: np.ndarray
    edge_faces: np.ndarray
    vertex_degrees: np.ndarray

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    @cached_property
    def _plan(self) -> _Plan:
        n, e = self.vertex_count, len(self.edges)
        ends, corners = np.ascontiguousarray(self.edges.T), self.face_edges.T[[0, 1, 2, 0, 1]]
        at = np.stack([corners[1:4], corners[2:5]])
        rows, cols = np.concatenate([ends, ends[::-1], [np.arange(n)] * 2], axis=1)
        order = np.argsort(rows * n + cols)
        plan = _Plan(
            ends, corners, self.faces.ravel(), at + e * (self.faces.T != ends[0].take(at)),
            np.concatenate([e + self.faces.T, corners[2:5]]),
            np.r_[0, np.cumsum(np.bincount(rows, minlength=n))].astype(np.int32),
            cols[order].astype(np.int32), np.r_[:e, :e, e : e + n][order],
        )  # fmt: skip
        # every matrix built on the pattern shares it; the index arrays numpy takes stay
        # writeable, because numpy copies a read-only index array on every take
        plan.indptr.setflags(write=False)
        plan.indices.setflags(write=False)
        return plan

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        return self.edges[:, 0] * self.vertex_count + self.edges[:, 1]  # ascending

    def edge_id(self, p: int, q: int) -> int:
        """Index of the edge {p, q} in the canonical edge order.

        Raises KeyError when {p, q} is not an edge.
        """
        key = (p, q) if p < q else (q, p)
        e = int(np.searchsorted(self._edge_keys, key[0] * self.vertex_count + key[1]))
        if self.edges[e:e + 1].tolist() == [list(key)]:
            return e
        raise KeyError(key)


def build_surface(vertex_count: int, face_list) -> TriangulatedSurface:
    """Build and validate a closed triangulated surface.

    Raises BadFaceError for malformed or duplicate faces,
    NotClosedSurfaceError when an edge does not bound exactly two faces,
    and NonManifoldVertexError when the faces around a vertex fail to
    form a single cycle.
    """
    if vertex_count < 3:
        raise BadParameterError(f"vertex_count={vertex_count} is too small")
    faces = _checked_faces(vertex_count, face_list)

    # Side c of a face is the edge opposite corner c, keyed i*V + j (i < j).
    sides = faces[:, [1, 0, 0]] * vertex_count + faces[:, [2, 2, 1]]
    keys, inverse, counts = np.unique(sides.ravel(), return_inverse=True, return_counts=True)
    unpaired = np.flatnonzero(counts[inverse] != 2)
    if unpaired.size:
        e = inverse[unpaired[0]]  # the edge of the first such side in face order
        key = divmod(int(keys[e]), vertex_count)
        raise NotClosedSurfaceError(f"edge {key} bounds {counts[e]} face(s), expected 2")
    edges = np.stack(np.divmod(keys, vertex_count), axis=1)
    face_edges = inverse.reshape(-1, 3)
    edge_faces = np.argsort(inverse, kind="stable").reshape(-1, 2) // 3
    _check_vertex_links(vertex_count, faces, face_edges, edge_faces)
    return TriangulatedSurface(
        vertex_count=vertex_count,
        faces=faces,
        edges=edges,
        face_edges=face_edges,
        edge_faces=edge_faces,
        vertex_degrees=np.bincount(edges.ravel(), minlength=vertex_count),
    )


def _checked_faces(vertex_count, face_list) -> np.ndarray:
    # (F, 3) rows sorted ascending, checked as arrays (a duplicate equals its predecessor in
    # a stable sort); the loop words the first error and takes rows of any other form
    try:
        faces = np.sort(np.asarray(face_list), axis=-1)
    except (TypeError, ValueError):  # ragged rows, unorderable items
        faces = np.empty(0)
    if faces.dtype.kind == "i" and faces.shape[1:] == (3,) and len(faces):
        faces, order = faces.astype(np.int64, copy=False), np.lexsort(faces.T[::-1])
        bad = (faces[:, 0] == faces[:, 1]) | (faces[:, 1] == faces[:, 2])
        bad[order[1:]] |= np.all(faces[order[1:]] == faces[order[:-1]], axis=1)
        if not np.any(bad | (faces[:, 0] < 0) | (faces[:, 2] >= vertex_count)):
            return faces
    rows, seen = [], set()
    for raw in face_list:
        ints = [int(v) for v in raw]
        if ints != list(raw):
            raise BadFaceError(f"face {raw!r} has non-integral vertices")
        tri = tuple(sorted(ints))
        if len(set(tri)) != 3:
            raise BadFaceError(f"face {raw!r} has repeated vertices")
        if tri[0] < 0 or tri[2] >= vertex_count:
            raise BadFaceError(f"face {raw!r} has out-of-range vertices")
        if tri in seen:
            raise BadFaceError(f"face {raw!r} appears more than once")
        seen.add(tri)
        rows.append(tri)
    if not rows:
        raise BadFaceError("empty face list")
    return np.asarray(rows, dtype=np.int64)


def _check_vertex_links(vertex_count, faces, face_edges, edge_faces) -> None:
    # As every edge bounds two faces, each link is a union of cycles.  The
    # link neighbours of corner 3f + c are the corners at its vertex in the
    # faces across sides c+1 and c+2.  Each round a corner and the corner
    # its label names take the smallest label around it, then every corner
    # takes its label's label; at the end each cycle has one corner labelled
    # with its own number.  Without the move on the named corner the rounds
    # grow with the degree when the faces come in random order.
    face = np.arange(len(faces))[:, None]

    def across(shift):
        other = edge_faces[np.roll(face_edges, -shift, axis=1)].sum(axis=2) - face
        return (3 * other + np.argmax(faces[other] == faces[:, :, None], axis=2)).ravel()

    left, right = across(1), across(2)
    corner = np.arange(faces.size)
    label, settled = corner, None
    while not np.array_equal(label, settled):
        settled = label
        smallest = np.minimum(label, np.minimum(label[left], label[right]))
        label = smallest.copy()
        np.minimum.at(label, settled, smallest)
        label = label[label]
    cycles = np.bincount(faces.ravel()[label == corner], minlength=vertex_count)
    bad = np.flatnonzero(cycles != 1)
    if bad.size:
        v = int(bad[0])
        if cycles[v] == 0:
            raise NonManifoldVertexError(f"vertex {v} has no incident faces")
        raise NonManifoldVertexError(f"link of vertex {v} is disconnected")


# ---------------------------------------------------------------------------
# generators


def _tetrahedron_faces():
    return [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def _octahedron_faces():
    return [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
    ]


def _icosahedron_faces():
    return [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
        (1, 6, 2), (2, 6, 7), (2, 7, 3), (3, 7, 8), (3, 8, 4),
        (4, 8, 9), (4, 9, 5), (5, 9, 10), (5, 10, 1), (1, 10, 6),
        (6, 11, 7), (7, 11, 8), (8, 11, 9), (9, 11, 10), (10, 11, 6),
    ]


def _torus_grid_faces(n: int, m: int):
    if n < 3 or m < 3:
        raise BadParameterError("torus_grid needs n >= 3 and m >= 3")
    i, j = np.divmod(np.arange(n * m), m)
    a, b, c, d = ((i + di) % n * m + (j + dj) % m for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)))
    # cell (i, j) gives the faces (a, b, c) and (b, d, c), in that order
    return n * m, np.stack([a, b, c, b, d, c], axis=1).reshape(-1, 3)


def _genus2_faces():
    # Two 3x3 grid tori glued along the boundary of one removed face each.
    # Removing an open face drops Euler characteristic by one per torus and
    # the glued triangle contributes zero, so the result has chi = -2.
    n_torus, faces = _torus_grid_faces(3, 3)
    glue, faces = faces[0], faces[1:]
    rest = np.setdiff1d(np.arange(n_torus), glue)
    copy = np.arange(n_torus)
    copy[rest] = np.arange(n_torus, n_torus + len(rest))
    return n_torus + len(rest), np.concatenate([faces, copy[faces]])


def generate(kind: str, *dims: int) -> TriangulatedSurface:
    """Generate one of the stock surfaces.

    ``torus_grid`` takes two grid sizes (each at least 3); the other
    kinds take no parameters.
    """
    if kind == "torus_grid":
        if len(dims) != 2:
            raise BadParameterError("torus_grid takes exactly two sizes")
        n, faces = _torus_grid_faces(int(dims[0]), int(dims[1]))
        return build_surface(n, faces)
    if dims:
        raise BadParameterError(f"{kind} takes no size parameters")
    if kind == "tetrahedron":
        return build_surface(4, _tetrahedron_faces())
    if kind == "octahedron":
        return build_surface(6, _octahedron_faces())
    if kind == "icosahedron":
        return build_surface(12, _icosahedron_faces())
    if kind == "genus2":
        n, faces = _genus2_faces()
        return build_surface(n, faces)
    raise BadParameterError(f"unknown surface kind {kind!r}")


# ---------------------------------------------------------------------------
# weights


def _checked_epsilon(epsilon) -> np.ndarray:
    # epsilon as int64; values outside {0, 1} raise before the cast could truncate them
    eps = np.asarray(epsilon)
    if not np.all((eps == 0) | (eps == 1)):
        bad = np.unique(eps[(eps != 0) & (eps != 1)])
        raise BadParameterError(f"epsilon values {bad.tolist()} are not in {{0, 1}}")
    return eps.astype(np.int64)


@dataclass(frozen=True)
class WeightConfig:
    """Vertex weights epsilon (0 or 1) and edge weights eta.

    ``eta`` follows the canonical edge order of the surface it was built
    for.  Construction rejects epsilon values outside {0, 1}; the two
    admissibility conditions are checked separately by
    ``validate_weights`` because partially-violating configurations are
    still useful to inspect.
    """

    epsilon: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        eps = _checked_epsilon(self.epsilon)
        eta = np.asarray(self.eta, dtype=np.float64)
        if not np.all(np.isfinite(eta)):
            raise BadParameterError("eta contains non-finite values")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "eta", eta)

    @classmethod
    def uniform(cls, surface: TriangulatedSurface, epsilon: int, eta: float) -> "WeightConfig":
        return cls(
            epsilon=np.full(surface.vertex_count, epsilon, dtype=np.int64),
            eta=np.full(surface.edge_count, float(eta)),
        )

    @property
    def cone_vertex_count(self) -> int:
        """Number of vertices with epsilon = 1."""
        return int(np.sum(self.epsilon == 1))

    @property
    def cusp_vertex_count(self) -> int:
        """Number of vertices with epsilon = 0."""
        return int(np.sum(self.epsilon == 0))


@dataclass(frozen=True)
class WeightValidation:
    """Outcome of validate_weights.

    ``edge_violations`` lists edges where epsilon_s*epsilon_t + eta <= 0.
    ``face_violations`` lists (face, corner) pairs where
    epsilon_q*eta_st + eta_qs*eta_qt < 0, with corner q opposite edge st.
    """

    edge_violations: tuple
    face_violations: tuple

    @property
    def ok(self) -> bool:
        return not self.edge_violations and not self.face_violations


def _check_sizes(surface: TriangulatedSurface, weights: WeightConfig) -> None:
    # one epsilon per vertex and one eta per edge of the surface, else BadParameterError
    if weights.epsilon.shape != (surface.vertex_count,):
        raise BadParameterError("epsilon length does not match vertex count")
    if weights.eta.shape != (surface.edge_count,):
        raise BadParameterError("eta length does not match edge count")


def validate_weights(surface: TriangulatedSurface, weights: WeightConfig) -> WeightValidation:
    """Check both weight conditions on every edge and face corner."""
    _check_sizes(surface, weights)
    eps, eta = weights.epsilon, weights.eta

    s, t = surface.edges[:, 0], surface.edges[:, 1]
    edge_ok = eps[s] * eps[t] + eta > 0.0
    edge_violations = tuple(int(e) for e in np.nonzero(~edge_ok)[0])

    eta_f = eta[surface.face_edges]  # (F, 3); column c is the edge opposite corner c
    lhs = eps[surface.faces] * eta_f + np.roll(eta_f, -1, axis=1) * np.roll(eta_f, -2, axis=1)
    return WeightValidation(
        edge_violations=edge_violations,
        face_violations=tuple(map(tuple, np.argwhere(lhs < 0.0).tolist())),
    )
