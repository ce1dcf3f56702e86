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

from dataclasses import dataclass, field

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
        The two faces bounded by each edge.
    vertex_degrees : (N,) int array
        Number of incident edges (equals number of incident faces).
    """

    vertex_count: int
    faces: np.ndarray
    edges: np.ndarray
    face_edges: np.ndarray
    edge_faces: np.ndarray
    vertex_degrees: np.ndarray
    edge_index: dict = field(repr=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    def edge_id(self, p: int, q: int) -> int:
        """Index of the edge {p, q} in the canonical edge order."""
        key = (p, q) if p < q else (q, p)
        return self.edge_index[key]


def build_surface(vertex_count: int, face_list) -> TriangulatedSurface:
    """Build and validate a closed triangulated surface.

    Raises BadFaceError for malformed or duplicate faces,
    NotClosedSurfaceError when an edge does not bound exactly two faces,
    and NonManifoldVertexError when the faces around a vertex fail to
    form a single cycle.
    """
    if vertex_count < 3:
        raise BadParameterError(f"vertex_count={vertex_count} is too small")
    faces = []
    seen = set()
    for raw in face_list:
        tri = tuple(sorted(int(v) for v in raw))
        if len(set(tri)) != 3:
            raise BadFaceError(f"face {raw!r} has repeated vertices")
        if tri[0] < 0 or tri[2] >= vertex_count:
            raise BadFaceError(f"face {raw!r} has out-of-range vertices")
        if tri in seen:
            raise BadFaceError(f"face {raw!r} appears more than once")
        seen.add(tri)
        faces.append(tri)
    if not faces:
        raise BadFaceError("empty face list")
    faces = np.asarray(faces, dtype=np.int64)

    pairs = {}
    for f, (i, j, k) in enumerate(faces):
        for a, b in ((j, k), (i, k), (i, j)):
            pairs.setdefault((int(a), int(b)), []).append(f)

    edges = np.asarray(sorted(pairs), dtype=np.int64)
    edge_index = {tuple(e): idx for idx, e in enumerate(map(tuple, edges.tolist()))}

    edge_faces = np.empty((len(edges), 2), dtype=np.int64)
    for key, owners in pairs.items():
        if len(owners) != 2:
            raise NotClosedSurfaceError(
                f"edge {key} bounds {len(owners)} face(s), expected 2"
            )
        edge_faces[edge_index[key]] = owners

    face_edges = np.empty_like(faces)
    for f, (i, j, k) in enumerate(faces):
        face_edges[f, 0] = edge_index[(int(j), int(k))]
        face_edges[f, 1] = edge_index[(int(i), int(k))]
        face_edges[f, 2] = edge_index[(int(i), int(j))]

    vertex_faces = [[] for _ in range(vertex_count)]
    for f, tri in enumerate(faces):
        for v in tri:
            vertex_faces[int(v)].append(f)

    for v in range(vertex_count):
        _check_vertex_link(v, faces, vertex_faces[v])

    degrees = np.zeros(vertex_count, dtype=np.int64)
    for i, j in edges:
        degrees[i] += 1
        degrees[j] += 1

    return TriangulatedSurface(
        vertex_count=vertex_count,
        faces=faces,
        edges=edges,
        face_edges=face_edges,
        edge_faces=edge_faces,
        vertex_degrees=degrees,
        edge_index=edge_index,
    )


def _check_vertex_link(v: int, faces: np.ndarray, incident) -> None:
    # The link of v must be a single cycle: every link vertex has exactly
    # two link edges, and the link edges are connected.
    if not incident:
        raise NonManifoldVertexError(f"vertex {v} has no incident faces")
    adjacency = {}
    for f in incident:
        a, b = (int(x) for x in faces[f] if x != v)
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    for w, nbrs in adjacency.items():
        if len(nbrs) != 2:
            raise NonManifoldVertexError(
                f"link of vertex {v} has degree {len(nbrs)} at vertex {w}"
            )
    start = next(iter(adjacency))
    prev, cur = None, start
    visited = 0
    while True:
        visited += 1
        a, b = adjacency[cur]
        prev, cur = cur, (b if a == prev else a)
        if cur == start:
            break
        if visited > len(adjacency):
            raise NonManifoldVertexError(f"link of vertex {v} is not a single cycle")
    if visited != len(adjacency):
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
    def vid(i, j):
        return (i % n) * m + (j % m)
    faces = []
    for i in range(n):
        for j in range(m):
            faces.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            faces.append((vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return n * m, faces


def _genus2_faces():
    # Two 3x3 grid tori glued along the boundary of one removed face each.
    # Removing an open face drops Euler characteristic by one per torus and
    # the glued triangle contributes zero, so the result has chi = -2.
    n_torus, faces_a = _torus_grid_faces(3, 3)
    _, faces_b = _torus_grid_faces(3, 3)
    glue_a = faces_a[0]
    glue_b = faces_b[0]
    faces_a = faces_a[1:]
    faces_b = faces_b[1:]

    remap = {}
    for va, vb in zip(glue_a, glue_b):
        remap[vb] = va
    next_id = n_torus
    for v in range(n_torus):
        if v not in remap:
            remap[v] = next_id
            next_id += 1

    merged = list(faces_a)
    for tri in faces_b:
        merged.append(tuple(remap[v] for v in tri))
    return next_id, merged


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
        eps = np.asarray(self.epsilon, dtype=np.int64)
        eta = np.asarray(self.eta, dtype=np.float64)
        if not np.all((eps == 0) | (eps == 1)):
            bad = np.unique(eps[(eps != 0) & (eps != 1)])
            raise BadParameterError(f"epsilon values {bad.tolist()} are not in {{0, 1}}")
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


def validate_weights(surface: TriangulatedSurface, weights: WeightConfig) -> WeightValidation:
    """Check both weight conditions on every edge and face corner."""
    eps = weights.epsilon
    eta = weights.eta
    if len(eps) != surface.vertex_count:
        raise BadParameterError("epsilon length does not match vertex count")
    if len(eta) != surface.edge_count:
        raise BadParameterError("eta length does not match edge count")

    s, t = surface.edges[:, 0], surface.edges[:, 1]
    edge_ok = eps[s] * eps[t] + eta > 0.0
    edge_violations = tuple(int(e) for e in np.nonzero(~edge_ok)[0])

    face_violations = []
    eta_f = eta[surface.face_edges]  # (F, 3); column c is the edge opposite corner c
    eps_f = eps[surface.faces]
    for c in range(3):
        lhs = eps_f[:, c] * eta_f[:, c] + eta_f[:, (c + 1) % 3] * eta_f[:, (c + 2) % 3]
        for f in np.nonzero(lhs < 0.0)[0]:
            face_violations.append((int(f), int(c)))
    face_violations.sort()
    return WeightValidation(
        edge_violations=edge_violations,
        face_violations=tuple(face_violations),
    )
