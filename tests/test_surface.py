"""Combinatorial layer: construction, validation, generators, weights."""

from __future__ import annotations

import time

import numpy as np
import pytest

from dcflow import (
    BadFaceError,
    BadParameterError,
    NonManifoldVertexError,
    NotClosedSurfaceError,
    WeightConfig,
    build_surface,
    generate,
    validate_weights,
)


def brute_force_edges(faces):
    out = set()
    for i, j, k in faces:
        out.update({tuple(sorted((i, j))), tuple(sorted((i, k))), tuple(sorted((j, k)))})
    return sorted(out)


def reference_structure(vertex_count, faces):
    """Edge arrays of a closed surface built with dicts and loops."""
    pairs = {}
    for f, (i, j, k) in enumerate(faces.tolist()):
        for side in ((j, k), (i, k), (i, j)):
            pairs.setdefault(side, []).append(f)
    edges = sorted(pairs)
    index = {edge: e for e, edge in enumerate(edges)}
    degrees = np.zeros(vertex_count, dtype=np.int64)
    for i, j in edges:
        degrees[i] += 1
        degrees[j] += 1
    return {
        "edges": np.array(edges, dtype=np.int64),
        "face_edges": np.array(
            [[index[(j, k)], index[(i, k)], index[(i, j)]] for i, j, k in faces.tolist()],
            dtype=np.int64,
        ),
        "edge_faces": np.array([pairs[edge] for edge in edges], dtype=np.int64),
        "vertex_degrees": degrees,
    }


def bipyramid_faces(degree):
    ring = [2 + r for r in range(degree)]
    return [
        (pole, ring[r], ring[(r + 1) % degree]) for pole in (0, 1) for r in range(degree)
    ]


def test_tetrahedron_counts():
    s = generate("tetrahedron")
    assert s.vertex_count == 4
    assert s.edge_count == 6
    assert s.face_count == 4
    assert s.euler_characteristic == 2
    assert np.all(s.vertex_degrees == 3)


def test_torus_grid_counts():
    s = generate("torus_grid", 3, 3)
    assert s.vertex_count == 9
    assert s.edge_count == 27
    assert s.face_count == 18
    assert s.euler_characteristic == 0
    assert np.all(s.vertex_degrees == 6)
    # independent recount from the face list
    assert len(brute_force_edges(s.faces.tolist())) == 27


@pytest.mark.parametrize(
    "kind,dims,n,e,f,chi",
    [
        ("tetrahedron", (), 4, 6, 4, 2),
        ("octahedron", (), 6, 12, 8, 2),
        ("icosahedron", (), 12, 30, 20, 2),
        ("torus_grid", (3, 3), 9, 27, 18, 0),
        ("torus_grid", (4, 5), 20, 60, 40, 0),
        ("genus2", (), 15, 51, 34, -2),
    ],
)
def test_generator_counts(kind, dims, n, e, f, chi):
    s = generate(kind, *dims)
    assert s.vertex_count == n
    assert s.edge_count == e
    assert s.face_count == f
    assert s.euler_characteristic == chi
    # closed triangulated surface: every face has three edges, every edge two faces
    assert 3 * s.face_count == 2 * s.edge_count


def test_genus2_degrees():
    s = generate("genus2")
    degs = np.sort(s.vertex_degrees)
    assert list(degs[-3:]) == [10, 10, 10]
    assert np.all(degs[:-3] == 6)


def test_generator_rejects_bad_parameters():
    with pytest.raises(BadParameterError):
        generate("torus_grid", 2, 3)
    with pytest.raises(BadParameterError):
        generate("torus_grid", 3)
    with pytest.raises(BadParameterError):
        generate("tetrahedron", 3)
    with pytest.raises(BadParameterError):
        generate("klein_bottle")


def test_edges_are_canonical():
    s = generate("icosahedron")
    edges = s.edges
    assert np.all(edges[:, 0] < edges[:, 1])
    as_tuples = [tuple(e) for e in edges.tolist()]
    assert as_tuples == sorted(as_tuples)
    for idx, (p, q) in enumerate(as_tuples):
        assert s.edge_id(p, q) == idx
        assert s.edge_id(q, p) == idx
    # 0 and 11 are antipodal; (0, 13) and (-1, 1) have the key of edge (1, 2)
    for p, q in ((0, 11), (11, 0), (3, 3), (0, 13), (-1, 1), (12, 13)):
        with pytest.raises(KeyError):
            s.edge_id(p, q)


def test_face_edges_are_opposite():
    s = generate("octahedron")
    for f in range(s.face_count):
        tri = s.faces[f]
        for c in range(3):
            edge = s.edges[s.face_edges[f, c]]
            assert tri[c] not in edge
            assert set(edge) <= set(tri)


def test_edge_faces_consistency():
    s = generate("torus_grid", 3, 3)
    for e in range(s.edge_count):
        p, q = s.edges[e]
        for f in s.edge_faces[e]:
            assert {p, q} <= set(s.faces[f])


def test_build_is_deterministic_and_order_insensitive():
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    a = build_surface(4, faces)
    b = build_surface(4, faces)
    assert np.array_equal(a.faces, b.faces)
    assert np.array_equal(a.edges, b.edges)
    shuffled = build_surface(4, [(3, 1, 2), (3, 1, 0), (2, 1, 0), (3, 0, 2)])
    assert np.array_equal(np.sort(a.edges, axis=0), np.sort(shuffled.edges, axis=0))


def test_open_surface_rejected():
    with pytest.raises(NotClosedSurfaceError):
        build_surface(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])


def test_too_few_vertices_rejected():
    with pytest.raises(BadParameterError, match="^vertex_count=2 is too small$"):
        build_surface(2, [(0, 1, 2)])


def test_repeated_vertex_rejected():
    with pytest.raises(BadFaceError):
        build_surface(4, [(0, 1, 1), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def test_out_of_range_vertex_rejected():
    with pytest.raises(BadFaceError):
        build_surface(4, [(0, 1, 2), (0, 1, 4), (0, 2, 4), (1, 2, 4)])


def test_duplicate_face_rejected():
    with pytest.raises(BadFaceError):
        build_surface(4, [(0, 1, 2), (2, 1, 0), (0, 2, 3), (1, 2, 3)])


def test_nonmanifold_vertex_rejected():
    # two tetrahedra sharing vertex 0: every link but 0's is fine
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
             (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)]
    with pytest.raises(NonManifoldVertexError):
        build_surface(7, faces)


TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def shifted(faces, offset):
    return [tuple(v + offset for v in tri) for tri in faces]


@pytest.mark.parametrize(
    "vertex_count,faces,error,message",
    [
        (5, TETRA, NonManifoldVertexError, "vertex 4 has no incident faces"),
        (
            7,
            shifted(TETRA, 0) + shifted(TETRA, 3),
            NonManifoldVertexError,
            "link of vertex 3 is disconnected",
        ),
        # pinched at 4 and isolated at 0 and 8: the lowest vertex is reported
        (
            9,
            shifted(TETRA, 1) + shifted(TETRA, 4),
            NonManifoldVertexError,
            "vertex 0 has no incident faces",
        ),
        # pinched at 0 and isolated at 7
        (
            8,
            TETRA + [(0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)],
            NonManifoldVertexError,
            "link of vertex 0 is disconnected",
        ),
        # the open edges are (0, 2), (0, 3) and (2, 3); (2, 3) comes first in face order
        (
            4,
            [(1, 2, 3), (0, 1, 2), (0, 1, 3)],
            NotClosedSurfaceError,
            "edge (2, 3) bounds 1 face(s), expected 2",
        ),
        (
            5,
            TETRA + [(1, 2, 4)],
            NotClosedSurfaceError,
            "edge (1, 2) bounds 3 face(s), expected 2",
        ),
    ],
)
def test_malformed_surface_messages(vertex_count, faces, error, message):
    with pytest.raises(error) as info:
        build_surface(vertex_count, faces)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "faces,message",
    [
        ([(0, 1, 2), (0, 1, 3), [0, 2, 2], (1, 2, 3)], "face [0, 2, 2] has repeated vertices"),
        ([(0, 1, 2), (0, 1), (0, 2, 3), (1, 2, 3)], "face (0, 1) has repeated vertices"),
        ([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3, 0)], "face (1, 2, 3, 0) has repeated vertices"),
        ([(0, 1, 2), (0, 1, 3), (3, 0, -1), (1, 2, 3)], "face (3, 0, -1) has out-of-range vertices"),
        ([(4, 1, 1), (0, 1, 5)], "face (4, 1, 1) has repeated vertices"),
        ([(0, 1, 5), (4, 1, 1)], "face (0, 1, 5) has out-of-range vertices"),
        ([(0, 1, 2), (2, 0, 1), (1, 2, 4)], "face (2, 0, 1) appears more than once"),
        ([(0, 1, 2), (1, 2, 3), (3, 2, 1), (0, 1, 2)], "face (3, 2, 1) appears more than once"),
        ([(0, 1, 2), (0, 1, 10**30)], "face (0, 1, 1000000000000000000000000000000) "
         "has out-of-range vertices"),
        ([], "empty face list"),
        ([(0, 1, 2.7), (0, 1, 3), (0, 2, 3), (1, 2, 3)], "face (0, 1, 2.7) has non-integral "
         "vertices"),  # int() would make it (0, 1, 2)
    ],
)  # fmt: skip
def test_bad_face_messages_name_the_first_bad_face(faces, message):
    # the array checks find the fault; the messages quote the first bad row as given
    for face_list in (faces, iter(faces)):
        with pytest.raises(BadFaceError) as info:
            build_surface(4, face_list)
        assert str(info.value) == message


def test_face_lists_of_any_form_build_the_same_surface():
    reference = generate("octahedron")
    rows = reference.faces.tolist()
    for face_list in (
        rows, [tuple(r) for r in rows], iter(rows), reference.faces.astype(np.int32),
        [[float(v) for v in r] for r in rows], np.array(rows, dtype=np.uint8),
    ):  # fmt: skip
        s = build_surface(6, face_list)
        assert s.faces.dtype == np.int64
        for name in ("faces", "edges", "face_edges", "edge_faces", "vertex_degrees"):
            assert np.array_equal(getattr(s, name), getattr(reference, name)), name


@pytest.mark.parametrize("n,m", [(3, 3), (3, 5), (6, 4)])
def test_torus_grid_face_order(n, m):
    # cell (i, j) gives two faces, cells row by row, as the nested loop wrote them
    def vid(i, j):
        return (i % n) * m + (j % m)

    expected = []
    for i in range(n):
        for j in range(m):
            expected.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            expected.append((vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    s = generate("torus_grid", n, m)
    assert s.faces.tolist() == [sorted(f) for f in expected]


@pytest.mark.parametrize(
    "kind,dims",
    [
        ("tetrahedron", ()),
        ("octahedron", ()),
        ("icosahedron", ()),
        ("genus2", ()),
        ("torus_grid", (3, 3)),
        ("torus_grid", (7, 4)),
    ],
)
@pytest.mark.parametrize("shuffled", [False, True])
def test_arrays_match_loop_reference(kind, dims, shuffled):
    s = generate(kind, *dims)
    faces = s.faces
    if shuffled:
        # relabel the vertices, reorder the faces and the corners within each face
        rng = np.random.default_rng(12)
        faces = rng.permutation(s.vertex_count)[faces][rng.permutation(s.face_count)]
        faces = rng.permuted(faces, axis=1)
        s = build_surface(s.vertex_count, faces.tolist())
    assert s.faces.dtype == np.int64
    assert np.array_equal(s.faces, np.sort(faces, axis=1))
    for name, expected in reference_structure(s.vertex_count, s.faces).items():
        actual = getattr(s, name)
        assert actual.dtype == expected.dtype, name
        assert np.array_equal(actual, expected), name


@pytest.mark.parametrize("shuffled", [False, True])
def test_high_degree_vertices_build_fast(shuffled):
    degree = 4000
    faces = np.array(bipyramid_faces(degree))
    if shuffled:
        rng = np.random.default_rng(13)
        faces = rng.permutation(degree + 2)[faces][rng.permutation(len(faces))]
    start = time.perf_counter()
    s = build_surface(degree + 2, faces.tolist())
    elapsed = time.perf_counter() - start
    assert sorted(s.vertex_degrees.tolist())[-2:] == [degree, degree]
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# weights


def test_epsilon_must_be_zero_or_one():
    s = generate("tetrahedron")
    with pytest.raises(BadParameterError):
        WeightConfig(epsilon=np.array([1, 1, 2, 1]), eta=np.ones(6))
    with pytest.raises(BadParameterError):
        WeightConfig(epsilon=np.array([-1, 0, 0, 0]), eta=np.ones(6))
    with pytest.raises(BadParameterError):  # not truncated to 0 by the integer cast
        WeightConfig(epsilon=[0.7, 1, 1, 1], eta=np.ones(6))
    assert WeightConfig(epsilon=[0.0, 1.0], eta=np.ones(1)).epsilon.tolist() == [0, 1]
    w = WeightConfig.uniform(s, 1, 1.0)
    assert w.cone_vertex_count == 4
    assert w.cusp_vertex_count == 0


def test_eta_must_be_finite():
    with pytest.raises(BadParameterError):
        WeightConfig(epsilon=np.zeros(4, dtype=int), eta=np.array([1.0, np.inf] + [1.0] * 4))


def test_validate_weights_passes_uniform():
    s = generate("icosahedron")
    for eps in (0, 1):
        report = validate_weights(s, WeightConfig.uniform(s, eps, 1.0))
        assert report.ok


def test_edge_condition_boundary():
    s = generate("tetrahedron")
    # eta = -0.9 keeps every edge legal (1 - 0.9 > 0) even though the
    # uniform face condition fails at -0.9 + 0.81 < 0
    report = validate_weights(s, WeightConfig.uniform(s, 1, -0.9))
    assert report.edge_violations == ()
    assert report.face_violations != ()
    bad = validate_weights(s, WeightConfig.uniform(s, 1, -1.0))
    assert not bad.ok
    assert len(bad.edge_violations) == s.edge_count
    # one mildly negative edge among unit weights passes both conditions
    eta = np.ones(s.edge_count)
    eta[s.edge_id(0, 1)] = -0.5
    assert validate_weights(s, WeightConfig(epsilon=np.ones(4, dtype=int), eta=eta)).ok


def test_edge_condition_needs_positive_eta_when_eps_zero():
    s = generate("tetrahedron")
    report = validate_weights(s, WeightConfig.uniform(s, 0, 0.0))
    assert tuple(report.edge_violations) == tuple(range(s.edge_count))


def test_face_condition_violation_located():
    s = generate("tetrahedron")
    eps = np.ones(4, dtype=int)
    eta = np.ones(s.edge_count)
    # every edge keeps eps_s*eps_t + eta > 0, but on face (0,1,2) at corner 0
    # the combination eps_0*eta_12 + eta_01*eta_02 = -0.9 + 0.25 drops below 0
    eta[s.edge_id(1, 2)] = -0.9
    eta[s.edge_id(0, 1)] = 0.5
    eta[s.edge_id(0, 2)] = 0.5
    w = WeightConfig(epsilon=eps, eta=eta)
    report = validate_weights(s, w)
    assert not report.ok
    assert report.edge_violations == ()
    face_012 = next(f for f in range(s.face_count) if set(s.faces[f]) == {0, 1, 2})
    assert report.face_violations == ((face_012, 0),)


def test_validate_weights_shape_checks():
    s = generate("tetrahedron")
    w = WeightConfig(epsilon=np.zeros(5, dtype=int), eta=np.ones(6))
    with pytest.raises(BadParameterError):
        validate_weights(s, w)
