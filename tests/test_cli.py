"""Tests for mesh documents, trace files, and the command-line tool."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcflow import (
    BadFaceError,
    ConformalState,
    FlowTrace,
    Geometry,
    MeshDocumentError,
    NonManifoldVertexError,
    NotClosedSurfaceError,
    QuadratureFailureError,
    TerminationReason,
    TraceRow,
    WeightConfig,
    curvature,
    document_from_objects,
    dump_document,
    f_to_u,
    format_trace,
    gauss_bonnet_residual,
    generate,
    load_document,
    parse_document,
)
from dcflow.cli import main


def tetra_payload(**overrides):
    payload = {
        "geometry": "euclidean",
        "vertex_count": 4,
        "faces": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        "epsilon": [1, 1, 1, 1],
        "eta": {
            "0-1": 1.0, "0-2": 1.0, "0-3": 1.0,
            "1-2": 1.0, "1-3": 1.0, "2-3": 1.0,
        },
    }
    payload.update(overrides)
    return payload


def write_tetra(tmp_path, name="mesh.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(tetra_payload(**overrides)))
    return str(path)


def degenerate_cone_torus(tmp_path, name="cone.json", with_target=False):
    """Torus document (epsilon 1, eta 2) whose factors sit past a wall."""
    surface = generate("torus_grid", 3, 3)
    weights = WeightConfig.uniform(surface, 1, 2.0)
    i, j = surface.edges[0]
    u = np.zeros(surface.vertex_count)
    u[i] = 3.0
    u[j] = 3.0
    state = ConformalState(Geometry.EUCLIDEAN, weights.epsilon, u)
    target = None
    if with_target:
        target = curvature(surface, weights, state, extended=True).curvature
    payload = document_from_objects(
        surface, weights, Geometry.EUCLIDEAN, state=state, target=target
    )
    path = tmp_path / name
    path.write_text(dump_document(payload))
    return str(path)


class TestDocumentSchema:
    def test_minimal_document_parses_and_builds(self):
        doc = parse_document(json.dumps(tetra_payload()))
        surface, weights, state, target = doc.build()
        assert surface.vertex_count == 4
        assert surface.euler_characteristic == 2
        assert state is None and target is None
        np.testing.assert_array_equal(weights.epsilon, [1, 1, 1, 1])

    def test_unknown_key_rejected(self):
        with pytest.raises(MeshDocumentError):
            parse_document(json.dumps(tetra_payload(color="blue")))

    def test_missing_key_rejected(self):
        payload = tetra_payload()
        del payload["eta"]
        with pytest.raises(MeshDocumentError):
            parse_document(json.dumps(payload))

    def test_invalid_json_rejected(self):
        with pytest.raises(MeshDocumentError):
            parse_document("{not json")

    def test_bad_geometry_tag(self):
        with pytest.raises(MeshDocumentError):
            parse_document(json.dumps(tetra_payload(geometry="spherical")))

    def test_epsilon_values_checked(self):
        with pytest.raises(MeshDocumentError):
            parse_document(json.dumps(tetra_payload(epsilon=[1, 1, 2, 1])))
        with pytest.raises(MeshDocumentError):
            parse_document(json.dumps(tetra_payload(epsilon=[1, 1, 1])))

    def test_eta_key_format_checked(self):
        payload = tetra_payload()
        payload["eta"]["2-1"] = 1.0
        with pytest.raises(MeshDocumentError):
            parse_document(json.dumps(payload))

    def test_eta_missing_edge_fails_at_build(self):
        payload = tetra_payload()
        del payload["eta"]["1-2"]
        doc = parse_document(json.dumps(payload))
        with pytest.raises(MeshDocumentError, match="1-2"):
            doc.build()

    def test_eta_non_edge_key_fails_at_build(self):
        surface = generate("torus_grid", 3, 3)
        weights = WeightConfig.uniform(surface, 0, 1.0)
        payload = document_from_objects(surface, weights, Geometry.EUCLIDEAN)
        missing = next(
            f"{i}-{j}"
            for i in range(surface.vertex_count)
            for j in range(i + 1, surface.vertex_count)
            if f"{i}-{j}" not in payload["eta"]
        )
        payload["eta"][missing] = 1.0
        doc = parse_document(json.dumps(payload))
        with pytest.raises(MeshDocumentError, match="does not name an edge"):
            doc.build()

    def test_factors_schema_checked(self):
        with pytest.raises(MeshDocumentError):
            parse_document(
                json.dumps(tetra_payload(factors={"kind": "x", "values": [0, 0, 0, 0]}))
            )
        with pytest.raises(MeshDocumentError):
            parse_document(
                json.dumps(tetra_payload(factors={"kind": "u", "values": [0, 0, 0]}))
            )
        with pytest.raises(MeshDocumentError):
            parse_document(
                json.dumps(
                    tetra_payload(factors={"kind": "u", "values": [0, 0, 0, 0], "z": 1})
                )
            )

    def test_f_factors_convert_on_load(self):
        f = [0.1, -0.2, 0.3, 0.0]
        payload = tetra_payload(
            geometry="hyperbolic", factors={"kind": "f", "values": f}
        )
        doc = parse_document(json.dumps(payload))
        _, weights, state, _ = doc.build()
        expected = f_to_u(Geometry.HYPERBOLIC, weights.epsilon, np.array(f))
        np.testing.assert_allclose(state.u, expected, rtol=0, atol=0)

    def test_invalid_coordinates_rejected_at_build(self):
        # hyperbolic cone vertices need u < 0
        payload = tetra_payload(
            geometry="hyperbolic", factors={"kind": "u", "values": [0.5, -1, -1, -1]}
        )
        doc = parse_document(json.dumps(payload))
        with pytest.raises(MeshDocumentError):
            doc.build()

    def test_kbar_length_checked(self):
        with pytest.raises(MeshDocumentError):
            parse_document(json.dumps(tetra_payload(Kbar=[0.0, 0.0])))

    def test_non_manifold_build_raises_structural_error(self):
        payload = tetra_payload(
            vertex_count=5,
            faces=[[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [1, 2, 4]],
            epsilon=[1, 1, 1, 1, 1],
        )
        doc = parse_document(json.dumps(payload))
        with pytest.raises(NotClosedSurfaceError):
            doc.build()

    def test_round_trip_is_byte_identical(self):
        rng = np.random.default_rng(50)
        surface = generate("genus2")
        weights = WeightConfig(
            np.zeros(surface.vertex_count, dtype=np.int64),
            rng.uniform(0.5, 2.0, surface.edge_count),
        )
        state = ConformalState(
            Geometry.EUCLIDEAN, weights.epsilon, rng.normal(0, 0.1, surface.vertex_count)
        )
        payload = document_from_objects(
            surface, weights, Geometry.EUCLIDEAN, state=state, target=np.zeros(surface.vertex_count)
        )
        text = dump_document(payload)
        doc = parse_document(text)
        surface2, weights2, state2, target2 = doc.build()
        np.testing.assert_array_equal(weights2.eta, weights.eta)
        np.testing.assert_array_equal(state2.u, state.u)
        payload2 = document_from_objects(
            surface2, weights2, doc.geometry, state=state2, target=target2
        )
        assert dump_document(payload2) == text


class TestTraceFormat:
    def test_columns_and_exact_values(self):
        from dcflow import FlowKind, FlowSpec, run_flow

        surface = generate("tetrahedron")
        weights = WeightConfig.uniform(surface, 1, 1.0)
        rng = np.random.default_rng(51)
        start = ConformalState(
            Geometry.EUCLIDEAN, weights.epsilon, rng.normal(0, 0.2, 4)
        )
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI,
            Geometry.EUCLIDEAN,
            target=np.full(4, np.pi),
            max_time=1.0,
        )
        trace = run_flow(spec, surface, weights, start)
        text = format_trace(trace)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        n = surface.vertex_count
        assert header[:5] == ["t", "residual", "sum_u", "energy_H", "calabi_C"]
        assert header[5:] == [f"u_{i}" for i in range(n)] + [f"K_{i}" for i in range(n)]
        assert len(lines) == len(trace.rows) + 1
        times = []
        for line, row in zip(lines[1:], trace.rows):
            cells = [float(c) for c in line.split(",")]
            assert len(cells) == 5 + 2 * n
            assert cells[0] == row.t
            assert cells[1] == row.residual
            np.testing.assert_array_equal(cells[5:5 + n], row.u)
            np.testing.assert_array_equal(cells[5 + n:], row.curvature)
            times.append(cells[0])
        assert times == sorted(times)


class TestGenValidate:
    @pytest.mark.parametrize(
        "kind,dims",
        [
            ("tetrahedron", []),
            ("octahedron", []),
            ("icosahedron", []),
            ("torus_grid", ["3", "3"]),
            ("torus", ["3", "4"]),
            ("genus2", []),
        ],
    )
    def test_gen_then_validate_passes(self, tmp_path, kind, dims):
        out = str(tmp_path / "mesh.json")
        assert main(["gen", kind, *dims, "--out", out]) == 0
        assert main(["validate", out]) == 0

    def test_gen_euler_characteristics(self, tmp_path):
        out = str(tmp_path / "mesh.json")
        main(["gen", "torus", "3", "3", "--out", out])
        doc = load_document(out)
        surface, _, _, _ = doc.build()
        assert surface.euler_characteristic == 0
        main(["gen", "genus2", "--out", out])
        surface, _, _, _ = load_document(out).build()
        assert surface.euler_characteristic == -2

    def test_gen_bad_dims_exits_2(self, tmp_path, capsys):
        assert main(["gen", "torus_grid", "2", "3", "--out", str(tmp_path / "m.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_validate_names_bad_edge(self, tmp_path, capsys):
        payload = tetra_payload()
        payload["eta"]["0-1"] = -2.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "0-1" in out
        assert "FAIL" in out

    def test_validate_missing_eta_exits_2(self, tmp_path):
        payload = tetra_payload()
        del payload["eta"]["0-3"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["validate", str(path)]) == 2

    def test_validate_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        assert main(["validate", str(path)]) == 2

    def test_validate_non_manifold_exits_1(self, tmp_path, capsys):
        payload = tetra_payload(
            vertex_count=5,
            faces=[[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [1, 2, 4]],
            epsilon=[1, 1, 1, 1, 1],
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["validate", str(path)]) == 1
        assert "manifold: FAIL" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2


class TestCurvatureCommand:
    def test_uniform_tetrahedron_report(self, tmp_path, capsys):
        path = write_tetra(tmp_path)
        assert main(["curvature", path]) == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["curvature"], np.pi, atol=1e-12)
        assert abs(report["gauss_bonnet_residual"]) < 1e-10
        assert report["degenerate_faces"] == []
        assert report["total_area"] is None

    def test_degenerate_without_flag_exits_1(self, tmp_path, capsys):
        path = degenerate_cone_torus(tmp_path)
        assert main(["curvature", path]) == 1
        assert "degenerate" in capsys.readouterr().err

    def test_degenerate_with_flag_reports(self, tmp_path, capsys):
        path = degenerate_cone_torus(tmp_path)
        assert main(["curvature", path, "--extended"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["extended"] is True
        assert len(report["degenerate_faces"]) == 2
        total = sum(report["curvature"])
        assert abs(total) < 1e-10  # extended curvature keeps the topological sum

    def test_hyperbolic_report_carries_area(self, tmp_path, capsys):
        out = str(tmp_path / "g2.json")
        main(["gen", "genus2", "--geometry", "hyperbolic", "--out", out])
        assert main(["curvature", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_area"] > 0.0
        assert abs(report["gauss_bonnet_residual"]) < 1e-10


class TestFlowCommand:
    def test_converged_flow_exits_0_and_traces(self, tmp_path, capsys):
        mesh = str(tmp_path / "g2.json")
        main(["gen", "genus2", "--geometry", "hyperbolic", "--out", mesh])
        trace = str(tmp_path / "trace.csv")
        code = main(["flow", mesh, "--kind", "extended-ricci", "--trace", trace])
        assert code == 0
        assert "converged" in capsys.readouterr().out
        lines = Path(trace).read_text().strip().split("\n")
        assert len(lines) > 2

    def test_trace_reruns_byte_identical(self, tmp_path):
        mesh = str(tmp_path / "g2.json")
        main(["gen", "genus2", "--geometry", "hyperbolic", "--out", mesh])
        t1 = tmp_path / "a.csv"
        t2 = tmp_path / "b.csv"
        main(["flow", mesh, "--kind", "extended-ricci", "--trace", str(t1)])
        main(["flow", mesh, "--kind", "extended-ricci", "--trace", str(t2)])
        assert t1.read_bytes() == t2.read_bytes()

    def test_failed_trace_energy_read_still_reports_termination(
        self, tmp_path, capsys, monkeypatch
    ):
        def failing_read(trace):
            raise QuadratureFailureError("energy quadrature did not converge within 1024 nodes")

        monkeypatch.setattr(FlowTrace, "energies", property(failing_read))
        mesh = str(tmp_path / "t.json")
        main(["gen", "torus_grid", "3", "3", "--out", mesh])
        capsys.readouterr()
        trace = tmp_path / "trace.csv"
        code = main(["flow", mesh, "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.startswith("termination: converged  t = ")
        assert captured.err == "error: energy quadrature did not converge within 1024 nodes\n"
        assert not trace.exists()

    def test_bad_target_sum_exits_2(self, tmp_path, capsys):
        path = write_tetra(tmp_path)
        code = main(["flow", path, "--kind", "extended-ricci", "--target", "const:0"])
        assert code == 2
        assert "2*pi*chi" in capsys.readouterr().err

    def test_max_time_exits_1(self, tmp_path, capsys):
        mesh = str(tmp_path / "g2.json")
        main(["gen", "genus2", "--geometry", "hyperbolic", "--out", mesh])
        code = main(["flow", mesh, "--kind", "extended-ricci", "--max-time", "0.05"])
        assert code == 1
        assert "max-time" in capsys.readouterr().out

    def test_unknown_kind_is_usage_error(self, tmp_path):
        path = write_tetra(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["flow", path, "--kind", "nonsense"])
        assert info.value.code == 2

    def test_target_file_source(self, tmp_path):
        mesh = str(tmp_path / "t.json")
        main(["gen", "torus_grid", "3", "3", "--out", mesh])
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps([0.0] * 9))
        code = main(["flow", mesh, "--target", f"file:{target_path}"])
        assert code == 0

    def test_document_kbar_used_as_default(self, tmp_path, capsys):
        surface = generate("torus_grid", 3, 3)
        weights = WeightConfig.uniform(surface, 0, 1.0)
        rng = np.random.default_rng(52)
        state = ConformalState(
            Geometry.EUCLIDEAN, weights.epsilon, rng.normal(0, 0.2, surface.vertex_count)
        )
        payload = document_from_objects(
            surface, weights, Geometry.EUCLIDEAN,
            state=state, target=np.zeros(surface.vertex_count),
        )
        path = tmp_path / "doc.json"
        path.write_text(dump_document(payload))
        assert main(["flow", str(path), "--kind", "extended-ricci"]) == 0
        assert "converged" in capsys.readouterr().out


class TestSolveCommand:
    def test_solve_writes_solution_document(self, tmp_path, capsys):
        mesh = str(tmp_path / "t.json")
        main(["gen", "torus_grid", "3", "3", "--out", mesh])
        out = str(tmp_path / "solved.json")
        code = main(["solve", mesh, "--target", "const:0", "--out", out])
        assert code == 0
        assert "solved" in capsys.readouterr().out
        doc = load_document(out)
        surface, weights, state, target = doc.build()
        assert state is not None
        report = curvature(surface, weights, state)
        assert np.max(np.abs(report.curvature - target)) < 1e-9

    def test_solve_inadmissible_exits_2(self, tmp_path):
        path = write_tetra(tmp_path)
        assert main(["solve", path, "--target", "const:0"]) == 2

    @pytest.mark.parametrize("command", ["solve", "flow"])
    def test_target_below_the_corner_bound_exits_2(self, tmp_path, capsys, command):
        mesh = str(tmp_path / "t.json")
        main(["gen", "torus_grid", "6", "6", "--epsilon", "1", "--eta", "1", "--out", mesh])
        target = tmp_path / "target.json"
        target.write_text(json.dumps([-13.0] + [13.0 / 35.0] * 35))
        capsys.readouterr()
        assert main([command, mesh, "--target", f"file:{target}"]) == 2
        assert capsys.readouterr().err == (
            "error: vertex 0 has 6 corners, so its target curvature must be at least "
            "2*pi - 6*pi = -12.5664; got -13\n"
        )

    def test_solve_without_target_exits_2(self, tmp_path, capsys):
        path = write_tetra(tmp_path)
        assert main(["solve", path]) == 2
        assert "target" in capsys.readouterr().err

    def test_solve_generalized_target_exits_1(self, tmp_path, capsys):
        path = degenerate_cone_torus(tmp_path, with_target=True)
        doc = load_document(path)
        payload = {
            "geometry": "euclidean",
            "vertex_count": doc.vertex_count,
            "faces": [list(f) for f in doc.faces],
            "epsilon": [int(v) for v in doc.epsilon],
            "eta": {f"{i}-{j}": v for (i, j), v in doc.eta_map.items()},
            "Kbar": [float(v) for v in doc.target],
        }
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(payload))
        assert main(["solve", str(bare)]) == 1
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--max-iterations", "-1"], ["--tol", "0"], ["--tol", "nan"]],
        ids=["max-iterations-negative", "tol-zero", "tol-nan"],
    )
    def test_bad_solver_limits_exit_2(self, tmp_path, capsys, flags):
        mesh = str(tmp_path / "t.json")
        main(["gen", "torus_grid", "3", "3", "--out", mesh])
        capsys.readouterr()
        assert main(["solve", mesh, "--target", "const:0", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_solve_hyperbolic_genus2(self, tmp_path):
        mesh = str(tmp_path / "g2.json")
        main(["gen", "genus2", "--geometry", "hyperbolic", "--out", mesh])
        out = str(tmp_path / "solved.json")
        assert main(["solve", mesh, "--target", "const:0", "--out", out]) == 0
        surface, weights, state, _ = load_document(out).build()
        report = curvature(surface, weights, state)
        assert np.max(np.abs(report.curvature)) < 1e-9


class TestExitCodes:
    @pytest.mark.parametrize(
        "command",
        [["curvature"], ["flow"], ["solve", "--target", f"const:{np.pi!r}"]],
        ids=["curvature", "flow", "solve"],
    )
    def test_violated_weight_conditions_exit_1(self, tmp_path, capsys, command):
        # eta = -2 on a tetrahedron gives non-positive squared lengths: a
        # computation failure, reported as one error line
        mesh = str(tmp_path / "t.json")
        assert main(["gen", "tetrahedron", "--eta", "-2", "--out", mesh]) == 0
        capsys.readouterr()
        assert main([command[0], mesh, *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "weight conditions violated" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the array formatter against a one-call-per-number reference


def reference_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if not np.isfinite(value):
        raise MeshDocumentError("cannot serialize a non-finite number")
    return format(value, ".17g")


def reference_json_number(x) -> str:
    text = reference_number(x)
    return "-0.0" if text == "-0" else text  # a document keeps the sign of zero


def reference_json(value, indent=0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {reference_json(item, indent + 1)}"
            for key, item in value.items()
        )
        return "{\n" + rows + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            return "[]"
        if not any(isinstance(x, (dict, list, tuple, np.ndarray)) for x in items):
            return "[" + ", ".join(reference_json_number(x) for x in items) + "]"
        rows = ",\n".join(pad + "  " + reference_json(x, indent + 1) for x in items)
        return "[\n" + rows + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    return reference_json_number(value)


def reference_document(surface, weights, geometry, state=None, target=None) -> str:
    payload = {
        "geometry": geometry.value,
        "vertex_count": surface.vertex_count,
        "faces": [[int(v) for v in row] for row in surface.faces],
        "epsilon": [int(v) for v in weights.epsilon],
        "eta": {f"{i}-{j}": float(weights.eta[e]) for e, (i, j) in enumerate(surface.edges)},
    }
    if state is not None:
        payload["factors"] = {"kind": "u", "values": [float(v) for v in state.u]}
    if target is not None:
        payload["Kbar"] = [float(v) for v in np.asarray(target, dtype=np.float64)]
    return reference_json(payload) + "\n"


def reference_trace(trace) -> str:
    n = len(trace.rows[0].u)
    header = ["t", "residual", "sum_u", "energy_H", "calabi_C"]
    header += [f"u_{i}" for i in range(n)] + [f"K_{i}" for i in range(n)]
    lines = [",".join(header)]
    for row, energy in zip(trace.rows, trace.energies):
        cells = [reference_number(x) for x in (row.t, row.residual, row.sum_u)]
        cells += [format(energy, ".17g"), reference_number(row.calabi)]
        cells += [reference_number(v) for v in row.u] + [reference_number(v) for v in row.curvature]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# each a float whose text is easy to get wrong
SPECIAL = [
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1.0, -3.0, 1e16, 1e17, 1e22, 2.0**53, 0.1, 1.0 / 3.0, 123456789012345678.0,
]  # fmt: skip
GENERATED = [
    ("tetrahedron", ()), ("octahedron", ()), ("icosahedron", ()),
    ("genus2", ()), ("torus_grid", (3, 3)), ("torus_grid", (5, 4)),
]  # fmt: skip


def special_inputs(kind, dims, geometry, special_eta=True):
    """Weights, a state and a target of one mesh, carrying the SPECIAL values."""
    surface = generate(kind, *dims)
    rng = np.random.default_rng(70)
    n = surface.vertex_count
    epsilon = rng.integers(0, 2, n)
    epsilon[:3] = 0  # free coordinates for the special values in both geometries
    eta = rng.uniform(0.5, 2.0, surface.edge_count)
    if special_eta:  # most of them violate the weight conditions
        eta[: len(SPECIAL)] = SPECIAL[: surface.edge_count]
    u = rng.normal(0.0, 0.3, n)
    if geometry is Geometry.HYPERBOLIC:
        u[epsilon == 1] = -np.abs(u[epsilon == 1]) - 0.1
    u[:3] = [-0.0, 5e-324, 2.0]
    target = np.resize(SPECIAL, n)
    weights = WeightConfig(epsilon, eta)
    return surface, weights, ConformalState(geometry, weights.epsilon, u), target


class TestArrayFormatting:
    @pytest.mark.parametrize("geometry", list(Geometry))
    @pytest.mark.parametrize("kind,dims", GENERATED)
    def test_documents_match_reference(self, kind, dims, geometry):
        surface, weights, state, target = special_inputs(kind, dims, geometry)
        for extra in ({}, {"state": state}, {"target": target}, {"state": state, "target": target}):
            payload = document_from_objects(surface, weights, geometry, **extra)
            text = dump_document(payload)
            assert text == reference_document(surface, weights, geometry, **extra)
        # the round trip is byte for byte: -0.0 (in u, eta and Kbar) keeps its sign
        surface2, weights2, state2, target2 = parse_document(text).build()
        payload2 = document_from_objects(surface2, weights2, geometry, state2, target2)
        assert dump_document(payload2) == text

    @pytest.mark.parametrize("geometry", list(Geometry))
    @pytest.mark.parametrize("kind,dims", GENERATED)
    def test_curvature_payloads_match_reference(self, tmp_path, capsys, kind, dims, geometry):
        surface, weights, state, _ = special_inputs(kind, dims, geometry, special_eta=False)
        path = tmp_path / "mesh.json"
        path.write_text(dump_document(document_from_objects(surface, weights, geometry, state)))
        capsys.readouterr()
        assert main(["curvature", str(path), "--extended"]) == 0
        report = curvature(surface, weights, state, extended=True)
        payload = {
            "geometry": geometry.value,
            "extended": True,
            "lengths": [float(v) for v in report.lengths],
            "angles": [[float(a) for a in row] for row in report.angles],
            "curvature": [float(v) for v in report.curvature],
            "gauss_bonnet_residual": gauss_bonnet_residual(report, surface.euler_characteristic),
            "degenerate_faces": [[f, c] for f, c in report.degenerate_faces],
            "total_area": None if report.total_area is None else float(report.total_area),
        }
        assert capsys.readouterr().out == reference_json(payload) + "\n"

    def test_flow_trace_matches_reference(self):
        from dcflow import FlowKind, FlowSpec, run_flow

        surface, weights, state, _ = special_inputs(
            "torus_grid", (3, 3), Geometry.EUCLIDEAN, special_eta=False
        )
        spec = FlowSpec(
            FlowKind.EXTENDED_MODIFIED_RICCI, Geometry.EUCLIDEAN, max_time=1.0, trace_stride=3
        )
        trace = run_flow(spec, surface, weights, state)
        assert len(trace.rows) > 3
        assert format_trace(trace) == reference_trace(trace)

    def special_trace(self, monkeypatch, energies, u_last=0.25):
        rows = tuple(
            TraceRow(
                t=t, u=np.array([SPECIAL[k], -SPECIAL[k + 1], u_last]),
                curvature=np.array(SPECIAL[k + 2 : k + 5]), residual=SPECIAL[k + 5],
                sum_u=SPECIAL[k + 6], calabi=SPECIAL[k + 7], correction=0.0,
            )
            for k, t in enumerate([0, 0.5, 1e-300, 2.0])
        )  # fmt: skip
        monkeypatch.setattr(FlowTrace, "energies", property(lambda trace: energies))
        return FlowTrace(rows=rows, termination=TerminationReason.CONVERGED)

    def test_special_trace_rows_match_reference(self, monkeypatch):
        trace = self.special_trace(monkeypatch, (float("nan"), -0.0, 5e-324, float("inf")))
        text = format_trace(trace)
        assert text == reference_trace(trace)
        assert text.splitlines()[1].split(",")[3] == "nan"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_trace_cell_raises_as_before(self, monkeypatch, bad):
        trace = self.special_trace(monkeypatch, (0.0, 1.0, 2.0, 3.0), u_last=bad)
        with pytest.raises(MeshDocumentError) as ours:
            format_trace(trace)
        with pytest.raises(MeshDocumentError) as reference:
            reference_trace(trace)
        assert str(ours.value) == str(reference.value) == "cannot serialize a non-finite number"

    def test_non_finite_document_number_raises_as_before(self):
        surface = generate("tetrahedron")
        weights = WeightConfig.uniform(surface, 1, 1.0)
        payload = document_from_objects(surface, weights, Geometry.EUCLIDEAN)
        for bad in (float("nan"), float("inf")):
            payload["Kbar"] = [0.0, 1.0, bad, 2.0]
            with pytest.raises(MeshDocumentError, match="cannot serialize a non-finite number"):
                dump_document(payload)

    @pytest.mark.parametrize(
        "value",
        [
            [1, 2.0, 3], [True, 1], [[1, 2], [3.5, 4]], [[1, 2], [3]], [[], []],
            {"a": 1, "b": 2.5}, {'q"uote': 1.0, "é": 2.0, "t\tab": 3}, {1: 2.0, 2: 3.0},
            [np.float64(0.1), 0.2], [10**30, -(10**30)], [[10**30, 1]], (0.5, 1.5),
            {"k": [[0, 1], [2, 3]], "l": [1.5, -0.0], "m": {"x": 5e-324}},
        ],
    )  # fmt: skip
    def test_mixed_values_match_reference(self, value):
        assert dump_document(value) == reference_json(value) + "\n"


# Documents that the parser or the build must refuse, with the exception and
# message each raises.  The payload starts from the tetrahedron document.
def _edit(path, value):
    def apply(payload):
        *parents, last = path
        owner = payload
        for key in parents:
            owner = owner[key]
        if value is _DELETE:
            del owner[last]
        else:
            owner[last] = value
        return payload

    return apply


_DELETE = object()
_FACTORS = {"kind": "u", "values": [0.0, 0.0, 0.0, 0.0]}
MALFORMED = [
    (_edit(["color"], "blue"), MeshDocumentError, "unknown document keys: color"),
    (_edit(["eta"], _DELETE), MeshDocumentError, "missing document keys: eta"),
    (
        _edit(["geometry"], "spherical"),
        MeshDocumentError,
        "geometry must be 'euclidean' or 'hyperbolic', got 'spherical'",
    ),
    (_edit(["vertex_count"], "4"), MeshDocumentError, "vertex_count must be an integer"),
    (_edit(["vertex_count"], True), MeshDocumentError, "vertex_count must be an integer"),
    (_edit(["vertex_count"], 2), MeshDocumentError, "vertex_count must be at least 3"),
    (_edit(["faces"], []), MeshDocumentError, "faces must be a non-empty list"),
    (_edit(["faces"], {"0": [0, 1, 2]}), MeshDocumentError, "faces must be a non-empty list"),
    (
        _edit(["faces", 2], [0, 2]),
        MeshDocumentError,
        "faces[2] must be a list of three vertex indices",
    ),
    (
        _edit(["faces", 1], "0 1 3"),
        MeshDocumentError,
        "faces[1] must be a list of three vertex indices",
    ),
    (_edit(["faces", 3], [1, 2.0, 3]), MeshDocumentError, "faces[3] must be an integer"),
    (_edit(["faces", 0], [0, True, 2]), MeshDocumentError, "faces[0] must be an integer"),
    (_edit(["epsilon"], [1, 1, 1]), MeshDocumentError, "epsilon must be a list of 4 values"),
    (_edit(["epsilon", 2], 2), MeshDocumentError, "epsilon[2] must be 0 or 1"),
    (_edit(["epsilon", 1], 1.0), MeshDocumentError, "epsilon[1] must be an integer"),
    (_edit(["epsilon", 3], True), MeshDocumentError, "epsilon[3] must be an integer"),
    (
        _edit(["eta"], [1.0] * 6),
        MeshDocumentError,
        "eta must be an object keyed by 'i-j' edge names",
    ),
    (
        _edit(["eta", "2-1"], 1.0),
        MeshDocumentError,
        "eta key '2-1' must name vertices i < j below 4",
    ),
    (
        _edit(["eta", "0-4"], 1.0),
        MeshDocumentError,
        "eta key '0-4' must name vertices i < j below 4",
    ),
    (
        _edit(["eta", "1-1"], 1.0),
        MeshDocumentError,
        "eta key '1-1' must name vertices i < j below 4",
    ),
    (_edit(["eta", "a-b"], 1.0), MeshDocumentError, "eta key 'a-b' is not of the form 'i-j'"),
    (_edit(["eta", "0-"], 1.0), MeshDocumentError, "eta key '0-' is not of the form 'i-j'"),
    (_edit(["eta", "1-2-3"], 1.0), MeshDocumentError, "eta key '1-2-3' is not of the form 'i-j'"),
    (_edit(["eta", "0,1"], 1.0), MeshDocumentError, "eta key '0,1' is not of the form 'i-j'"),
    (_edit(["eta", "-1-2"], 1.0), MeshDocumentError, "eta key '-1-2' is not of the form 'i-j'"),
    (
        _edit(["eta", "0-99999999999999999999999"], 1.0),
        MeshDocumentError,
        "eta key '0-99999999999999999999999' must name vertices i < j below 4",
    ),
    (_edit(["eta", "0-1"], "1"), MeshDocumentError, "eta['0-1'] must be a number"),
    (_edit(["eta", "0-2"], None), MeshDocumentError, "eta['0-2'] must be a number"),
    (_edit(["eta", "1-3"], False), MeshDocumentError, "eta['1-3'] must be a number"),
    (_edit(["eta", "2-3"], float("inf")), MeshDocumentError, "eta['2-3'] is not finite"),
    (_edit(["eta", "0-3"], float("nan")), MeshDocumentError, "eta['0-3'] is not finite"),
    (
        _edit(["factors"], [0.0] * 4),
        MeshDocumentError,
        "factors must be an object with 'kind' and 'values'",
    ),
    (_edit(["factors"], dict(_FACTORS, z=1)), MeshDocumentError, "unknown factors keys: z"),
    (_edit(["factors"], dict(_FACTORS, kind="x")), MeshDocumentError, "factors kind must be 'u' or 'f'"),
    (
        _edit(["factors"], dict(_FACTORS, values=[0.0] * 3)),
        MeshDocumentError,
        "factors values must be a list of 4 numbers",
    ),
    (
        _edit(["factors"], {"kind": "u"}),
        MeshDocumentError,
        "factors values must be a list of 4 numbers",
    ),
    (
        _edit(["factors"], dict(_FACTORS, values=[0.0, "1", 0.0, 0.0])),
        MeshDocumentError,
        "factors values[1] must be a number",
    ),
    (
        _edit(["factors"], dict(_FACTORS, values=[float("nan"), 0.0, True, 0.0])),
        MeshDocumentError,
        "factors values[2] must be a number",
    ),
    (
        _edit(["factors"], dict(_FACTORS, values=[0.0, float("-inf"), 0.0, 0.0])),
        MeshDocumentError,
        "factors values contains non-finite values",
    ),
    (_edit(["Kbar"], [0.0, 0.0]), MeshDocumentError, "Kbar must be a list of 4 numbers"),
    (_edit(["Kbar"], {"0": 1.0}), MeshDocumentError, "Kbar must be a list of 4 numbers"),
    (_edit(["Kbar"], [0, 0, [0], 0]), MeshDocumentError, "Kbar[2] must be a number"),
    (
        _edit(["Kbar"], [0.0, float("nan"), 0.0, 0.0]),
        MeshDocumentError,
        "Kbar contains non-finite values",
    ),
    # refused by the build
    (_edit(["eta", "1-2"], _DELETE), MeshDocumentError, "eta missing for edge 1-2"),
    (_edit(["eta"], {}), MeshDocumentError, "eta missing for edge 0-1"),
    (_edit(["faces", 1], [0, 1, 1]), BadFaceError, "face [0, 1, 1] has repeated vertices"),
    (_edit(["faces", 2], [0, 2, 4]), BadFaceError, "face [0, 2, 4] has out-of-range vertices"),
    (_edit(["faces", 0], [-1, 1, 2]), BadFaceError, "face [-1, 1, 2] has out-of-range vertices"),
    (
        _edit(["faces", 0], [0, 1, 10**30]),
        BadFaceError,
        "face [0, 1, 1000000000000000000000000000000] has out-of-range vertices",
    ),
    (_edit(["faces", 3], [3, 0, 2]), BadFaceError, "face [3, 0, 2] appears more than once"),
    (
        _edit(["faces", 3], [0, 1, 3]),
        BadFaceError,
        "face [0, 1, 3] appears more than once",
    ),
    (
        lambda p: dict(p, faces=p["faces"][:3]),
        NotClosedSurfaceError,
        "edge (1, 2) bounds 1 face(s), expected 2",
    ),
    (
        lambda p: dict(p, vertex_count=5, epsilon=[1] * 5),
        NonManifoldVertexError,
        "vertex 4 has no incident faces",
    ),
    (
        lambda p: dict(p, geometry="hyperbolic", factors=dict(_FACTORS, values=[0.5, -1, -1, -1])),
        MeshDocumentError,
        "factors are not valid coordinates: hyperbolic eps=1 coordinates must satisfy u < 0",
    ),
]


class TestMalformedDocuments:
    @pytest.mark.parametrize("edit,error,message", MALFORMED)
    def test_exception_and_message(self, edit, error, message):
        text = json.dumps(edit(tetra_payload()))
        with pytest.raises(error) as info:
            parse_document(text).build()
        assert type(info.value) is error
        assert str(info.value) == message

    def test_first_error_in_document_order(self):
        payload = tetra_payload()
        payload["eta"] = {"0-1": 1.0, "a": "x", "1-0": None}
        payload["epsilon"] = [1, 1, 1, 7]
        with pytest.raises(MeshDocumentError, match=r"^epsilon\[3\] must be 0 or 1$"):
            parse_document(json.dumps(payload))
        payload["epsilon"] = [1, 1, 1, 1]
        with pytest.raises(MeshDocumentError, match=r"^eta key 'a' is not of the form 'i-j'$"):
            parse_document(json.dumps(payload))

    def test_non_edge_eta_key_reported_before_missing_edge(self):
        surface = generate("octahedron")
        payload = document_from_objects(
            surface, WeightConfig.uniform(surface, 1, 1.0), Geometry.EUCLIDEAN
        )
        del payload["eta"]["0-1"]
        payload["eta"]["2-4"] = 1.0
        payload["eta"]["0-5"] = 1.0
        with pytest.raises(MeshDocumentError) as info:
            parse_document(json.dumps(payload)).build()
        assert str(info.value) == "eta key 0-5 does not name an edge"

    def test_eta_naming_an_edge_twice_is_rejected(self):
        # "01-2" and "1-2" name the same edge; neither value silently wins
        payload = tetra_payload()
        payload["eta"]["01-2"] = 0.5
        with pytest.raises(MeshDocumentError, match="eta names edge 1-2 twice"):
            parse_document(json.dumps(payload))

    def test_eta_map_reads_document_order(self):
        payload = tetra_payload()
        payload["eta"] = dict(reversed(list(payload["eta"].items())))
        payload["eta"]["0-1"] = 3.0
        doc = parse_document(json.dumps(payload))
        assert list(doc.eta_map) == [(2, 3), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1)]
        assert doc.build()[1].eta.tolist() == [3.0, 1.0, 1.0, 1.0, 1.0, 1.0]


class TestOversizedIntegers:
    # a JSON integer too large for a float names its field; exit 2, no traceback
    HUGE = 10**400

    @pytest.mark.parametrize(
        "edit,message",
        [
            (_edit(["factors"], dict(_FACTORS, values=[HUGE, 0, 0, 0])),
             "factors values contains non-finite values"),
            (_edit(["Kbar"], [0.0, 0.0, -HUGE, 0.0]), "Kbar contains non-finite values"),
            (_edit(["eta", "1-3"], HUGE), "eta['1-3'] is not finite"),
        ],
    )  # fmt: skip
    def test_document_fields(self, tmp_path, capsys, edit, message):
        text = json.dumps(edit(tetra_payload()))
        assert str(self.HUGE) in text
        with pytest.raises(MeshDocumentError) as info:
            parse_document(text)
        assert str(info.value) == message
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("where", ["factors", "target"])
    def test_integer_past_the_digit_limit(self, tmp_path, capsys, where):
        # json refuses integers of more than 4300 digits by default
        mesh = tmp_path / "t.json"
        payload = tetra_payload(factors=_FACTORS)
        literal = "9" * 5000
        text = json.dumps(payload)
        if where == "factors":
            text = text.replace('"values": [0.0,', f'"values": [{literal},')
        mesh.write_text(text)
        target = tmp_path / "target.json"
        target.write_text(f"[{literal}, 0, 0, 0]")
        assert main(["flow", str(mesh), "--target", f"file:{target}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_target_file(self, tmp_path, capsys):
        mesh = str(tmp_path / "t.json")
        main(["gen", "torus_grid", "3", "3", "--out", mesh])
        target = tmp_path / "target.json"
        target.write_text(json.dumps([0.0] * 8 + [self.HUGE]))
        capsys.readouterr()
        assert main(["flow", mesh, "--target", f"file:{target}"]) == 2
        assert capsys.readouterr().err == "error: target contains non-finite values\n"


class TestConsoleEntry:
    def test_module_invocation_pipeline(self, tmp_path):
        mesh = tmp_path / "mesh.json"
        gen = subprocess.run(
            [sys.executable, "-m", "dcflow", "gen", "tetrahedron",
             "--epsilon", "1", "--eta", "1", "--out", str(mesh)],
            capture_output=True, text=True,
        )
        assert gen.returncode == 0
        check = subprocess.run(
            [sys.executable, "-m", "dcflow", "validate", str(mesh)],
            capture_output=True, text=True,
        )
        assert check.returncode == 0
        assert "manifold: ok" in check.stdout
