"""Tests for mesh documents, trace files, and the command-line tool."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from dcflow import (
    ConformalState,
    FlowTrace,
    Geometry,
    MeshDocumentError,
    NotClosedSurfaceError,
    QuadratureFailureError,
    WeightConfig,
    curvature,
    document_from_objects,
    dump_document,
    f_to_u,
    format_trace,
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
        lines = open(trace).read().strip().split("\n")
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
