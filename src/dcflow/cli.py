"""Mesh documents, trace files, and the command-line tool.

Mesh documents are JSON: a geometry tag, a vertex count, the face
list, per-vertex epsilon, per-edge eta keyed by the canonical "i-j"
string (i < j), optional conformal factors tagged "u" or "f", and an
optional target curvature array "Kbar".  Unknown keys are rejected so
typos fail loudly.  Each field is checked in one pass and converted in
one step; the per-item checks run only to word the first error.
Numbers are written with 17 significant digits, which round-trips
64-bit floats exactly (-0.0 as "-0.0", which JSON reads back with its
sign), and a list, a table or an object of numbers with one %-format;
identical invocations produce byte-identical files.

Exit codes: 0 success, 1 computation failure (non-convergence,
degenerate faces, weight-condition violations), 2 unusable input
(unreadable or malformed documents, bad flags, inadmissible targets).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    BadFaceError,
    BadParameterError,
    DCFlowError,
    DegenerateFaceError,
    DomainError,
    MeshDocumentError,
    NonManifoldVertexError,
    NotClosedSurfaceError,
    OverflowRangeError,
    TargetInadmissibleError,
)
from .flows import FlowKind, FlowSpec, FlowTrace, TerminationReason, run_flow
from .geometry import (
    ConformalState,
    Geometry,
    base_state,
    curvature,
    gauss_bonnet_residual,
)
from .solve import solve_prescribed
from .surface import (
    GENERATOR_KINDS,
    TriangulatedSurface,
    WeightConfig,
    build_surface,
    generate,
    validate_weights,
)

__all__ = [
    "MeshDocument",
    "document_from_objects",
    "dump_document",
    "format_trace",
    "load_document",
    "main",
    "parse_document",
    "write_trace",
]

_EDGE_KEY = re.compile(r"^(\d+)-(\d+)$")
_TOP_KEYS = ("geometry", "vertex_count", "faces", "epsilon", "eta", "factors", "Kbar")
_REQUIRED_KEYS = ("geometry", "vertex_count", "faces", "epsilon", "eta")


# ---------------------------------------------------------------------------
# number and JSON emission with exact round trips


def _format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if not np.isfinite(value):
        raise MeshDocumentError("cannot serialize a non-finite number")
    text = format(value, ".17g")
    return "-0.0" if text == "-0" else text  # JSON reads -0 back as the integer 0


def _one_format(items):
    # one %-format that writes every item as _format_number does, or None
    kinds = set(map(type, items))
    if kinds == {float}:
        values = np.array(items)
        plain = np.isfinite(values).all() and not (np.signbit(values) & (values == 0.0)).any()
        return "%.17g" if plain else None  # -0.0 takes the per-number path
    return "%d" if kinds == {int} else None


def _emit_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if type(value) is list and value:  # numbers, or rows of numbers of one length: one %-format
        rows = set(map(type, value)) == {list} and len(set(map(len, value))) == 1
        flat = list(chain.from_iterable(value)) if rows else value
        spec = _one_format(flat)
        if spec and rows:
            row = pad + "  [" + ", ".join([spec] * len(value[0])) + "]"
            return "[\n" + ",\n".join([row] * len(value)) % tuple(flat) + "\n" + pad + "]"
        if spec:
            return "[" + ", ".join([spec] * len(value)) % tuple(value) + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys, items = list(value), list(value.values())
        spec = _one_format(items) if set(map(type, keys)) == {str} else None
        if spec and json.dumps("".join(keys))[1:-1] == "".join(keys):  # no key needs escaping
            rows = ",\n".join([f'{pad}  "%s": {spec}'] * len(keys))
            return "{\n" + rows % tuple(chain.from_iterable(zip(keys, items))) + "\n" + pad + "}"
        rows = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {_emit_json(item, indent + 1)}"
            for key, item in value.items()
        )
        return "{\n" + rows + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            return "[]"
        nested = any(isinstance(x, (dict, list, tuple, np.ndarray)) for x in items)
        if not nested:
            return "[" + ", ".join(_format_number(x) for x in items)  + "]"
        rows = ",\n".join(pad + "  " + _emit_json(x, indent + 1) for x in items)
        return "[\n" + rows + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    return _format_number(value)


# ---------------------------------------------------------------------------
# mesh documents


@dataclass(frozen=True)
class MeshDocument:
    """Schema-validated document contents, before surface construction."""

    geometry: Geometry
    vertex_count: int
    faces: tuple  # the document's rows of three vertex indices
    epsilon: np.ndarray
    eta_map: dict
    factor_kind: str | None
    factor_values: np.ndarray | None
    target: np.ndarray | None

    def build(self):
        """Construct the surface, weights, and optional state.

        Structural errors (non-closed, non-manifold complexes)
        propagate as their own exception types; everything that is a
        property of the document itself raises MeshDocumentError.
        """
        surface, count = build_surface(self.vertex_count, self.faces), len(self.eta_map)
        ends = np.fromiter(chain.from_iterable(self.eta_map), np.int64, 2 * count)
        keys = ends[0::2] * self.vertex_count + ends[1::2]  # i * V + j, as surface._edge_keys
        at = np.searchsorted(surface._edge_keys, keys).clip(max=surface.edge_count - 1)
        named = surface._edge_keys[at] == keys
        if not np.all(named):
            i, j = divmod(int(keys[~named].min()), self.vertex_count)
            raise MeshDocumentError(f"eta key {i}-{j} does not name an edge")
        eta, given = np.empty(surface.edge_count), np.zeros(surface.edge_count, dtype=bool)
        eta[at], given[at] = np.fromiter(self.eta_map.values(), np.float64, count), True
        if not np.all(given):
            i, j = surface.edges[np.argmin(given)]
            raise MeshDocumentError(f"eta missing for edge {i}-{j}")
        weights = WeightConfig(self.epsilon.copy(), eta)
        state = None
        if self.factor_values is not None:
            make = ConformalState if self.factor_kind == "u" else ConformalState.from_f
            try:
                state = make(self.geometry, weights.epsilon, self.factor_values)
            except (DomainError, OverflowRangeError, BadParameterError) as exc:
                raise MeshDocumentError(f"factors are not valid coordinates: {exc}")
        target = None if self.target is None else self.target.copy()
        return surface, weights, state, target


def _schema_fail(message: str):
    raise MeshDocumentError(message)


def _int_field(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _schema_fail(f"{name} must be an integer")
    return value


def _float_array(value, name: str, length: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != length:
        _schema_fail(f"{name} must be a list of {length} numbers")
    if not set(map(type, value)) <= {int, float}:  # the per-item checks word the first error
        for k, item in enumerate(value):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                _schema_fail(f"{name}[{k}] must be a number")
    with contextlib.suppress(OverflowError):  # an integer too large for a float
        out = np.array(value, dtype=np.float64)
        if np.all(np.isfinite(out)):
            return out
    _schema_fail(f"{name} contains non-finite values")


def _eta_map(raw_eta: dict, n: int) -> dict:
    # eta by (i, j) in document order; with its ASCII digits deleted every key
    # reads "-", and a key with no digit fails the int64 array
    joined, values = ",".join(map(str, raw_eta)), list(raw_eta.values())
    plain = joined.translate(str.maketrans("", "", "0123456789")) == ",".join(["-"] * len(values))
    if plain and set(map(type, values)) <= {int, float}:
        with contextlib.suppress(OverflowError, ValueError):
            i, j = np.array(joined.replace("-", ",").split(","), dtype=np.int64).reshape(-1, 2).T
            out = np.array(values, dtype=np.float64)
            if np.all((i < j) & (j < n) & np.isfinite(out)) and np.all(np.diff(np.sort(i * n + j))):
                return dict(zip(zip(i.tolist(), j.tolist()), out.tolist()))
    eta_map = {}  # the per-key checks word the first error
    for key, item in raw_eta.items():
        match = _EDGE_KEY.match(str(key))
        if not match:
            _schema_fail(f"eta key {key!r} is not of the form 'i-j'")
        i, j = int(match.group(1)), int(match.group(2))
        if not (0 <= i < j < n):
            _schema_fail(f"eta key {key!r} must name vertices i < j below {n}")
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            _schema_fail(f"eta[{key!r}] must be a number")
        value = np.inf
        with contextlib.suppress(OverflowError):  # an integer too large stays inf
            value = float(item)
        if not np.isfinite(value):
            _schema_fail(f"eta[{key!r}] is not finite")
        if (i, j) in eta_map:
            _schema_fail(f"eta names edge {i}-{j} twice")
        eta_map[(i, j)] = value
    return eta_map


def parse_document(data) -> MeshDocument:
    """Validate raw JSON data (a dict or a JSON string) into a MeshDocument."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
            raise MeshDocumentError(f"document is not valid JSON: {exc}")
    if not isinstance(data, dict):
        _schema_fail("document root must be an object")
    unknown = sorted(set(data) - set(_TOP_KEYS))
    if unknown:
        _schema_fail(f"unknown document keys: {', '.join(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        _schema_fail(f"missing document keys: {', '.join(missing)}")

    tag = data["geometry"]
    if tag not in ("euclidean", "hyperbolic"):
        _schema_fail(f"geometry must be 'euclidean' or 'hyperbolic', got {tag!r}")
    geometry = Geometry(tag)

    n = _int_field(data["vertex_count"], "vertex_count")
    if n < 3:
        _schema_fail("vertex_count must be at least 3")

    # each field is checked in one pass; the per-item checks word the first error
    raw_faces = data["faces"]
    if not isinstance(raw_faces, list) or not raw_faces:
        _schema_fail("faces must be a non-empty list")
    rows = set(map(type, raw_faces)) == {list} and set(map(len, raw_faces)) == {3}
    if not (rows and set(map(type, chain.from_iterable(raw_faces))) == {int}):
        for k, row in enumerate(raw_faces):
            if not isinstance(row, list) or len(row) != 3:
                _schema_fail(f"faces[{k}] must be a list of three vertex indices")
            for v in row:
                _int_field(v, f"faces[{k}]")

    raw_eps = data["epsilon"]
    if not isinstance(raw_eps, list) or len(raw_eps) != n:
        _schema_fail(f"epsilon must be a list of {n} values")
    if set(map(type, raw_eps)) != {int} or not set(raw_eps) <= {0, 1}:
        for k, item in enumerate(raw_eps):
            if _int_field(item, f"epsilon[{k}]") not in (0, 1):
                _schema_fail(f"epsilon[{k}] must be 0 or 1")
    epsilon = np.array(raw_eps, dtype=np.int64)

    raw_eta = data["eta"]
    if not isinstance(raw_eta, dict):
        _schema_fail("eta must be an object keyed by 'i-j' edge names")
    eta_map = _eta_map(raw_eta, n)

    factor_kind = factor_values = None
    if "factors" in data:
        raw = data["factors"]
        if not isinstance(raw, dict):
            _schema_fail("factors must be an object with 'kind' and 'values'")
        extra = sorted(set(raw) - {"kind", "values"})
        if extra:
            _schema_fail(f"unknown factors keys: {', '.join(extra)}")
        factor_kind = raw.get("kind")
        if factor_kind not in ("u", "f"):
            _schema_fail("factors kind must be 'u' or 'f'")
        factor_values = _float_array(raw.get("values"), "factors values", n)

    target = _float_array(data["Kbar"], "Kbar", n) if "Kbar" in data else None

    return MeshDocument(
        geometry=geometry,
        vertex_count=n,
        faces=tuple(raw_faces),
        epsilon=epsilon,
        eta_map=eta_map,
        factor_kind=factor_kind,
        factor_values=factor_values,
        target=target,
    )


def load_document(path: str) -> MeshDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise MeshDocumentError(f"cannot read {path}: {exc}")
    return parse_document(text)


def document_from_objects(
    surface: TriangulatedSurface,
    weights: WeightConfig,
    geometry: Geometry,
    state: ConformalState | None = None,
    target=None,
) -> dict:
    """Document payload for a surface; factors always emitted as u."""
    names = "%d-%d," * surface.edge_count % tuple(surface.edges.ravel().tolist())
    payload = {
        "geometry": geometry.value,
        "vertex_count": surface.vertex_count,
        "faces": surface.faces.tolist(),
        "epsilon": weights.epsilon.tolist(),
        "eta": dict(zip(names[:-1].split(","), weights.eta.tolist())),
    }
    if state is not None:
        payload["factors"] = {"kind": "u", "values": state.u.tolist()}
    if target is not None:
        payload["Kbar"] = np.asarray(target, dtype=np.float64).tolist()
    return payload


def dump_document(payload: dict) -> str:
    return _emit_json(payload) + "\n"


# ---------------------------------------------------------------------------
# trace files


def _trace_lines(trace: FlowTrace):
    """The lines of ``format_trace``, lazily, once the energies are read and every other
    number is checked finite (energy_H may be nan): a failure writes nothing."""
    energies, rows = trace.energies, trace.rows
    cells = [(r.t, r.residual, r.sum_u, r.calabi) for r in rows], [(r.u, r.curvature) for r in rows]
    if not all(np.isfinite(part).all() for part in cells):  # the whole trace at once
        raise MeshDocumentError("cannot serialize a non-finite number")
    n = len(rows[0].u)
    header = ["t", "residual", "sum_u", "energy_H", "calabi_C"]
    header += [f"u_{i}" for i in range(n)]
    header += [f"K_{i}" for i in range(n)]
    row_format = ",".join(["%.17g"] * len(header)) + "\n"

    def line(row, energy):
        cells = (row.t, row.residual, row.sum_u, energy, row.calabi)
        return row_format % (*cells, *row.u.tolist(), *row.curvature.tolist())

    return chain([",".join(header) + "\n"], map(line, rows, energies))


def format_trace(trace: FlowTrace) -> str:
    """CSV text: t, residual, sum_u, energy_H, calabi_C, u_*, K_*."""
    return "".join(_trace_lines(trace))


def write_trace(path: str, trace: FlowTrace) -> None:
    lines = _trace_lines(trace)  # before the file opens: a failed energy read opens none
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


# ---------------------------------------------------------------------------
# command implementations


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_built(path: str):
    """Load + build for commands that need a usable mesh; failures exit 2."""
    doc = load_document(path)
    try:
        surface, weights, state, target = doc.build()
    except (BadFaceError, NotClosedSurfaceError, NonManifoldVertexError, BadParameterError) as exc:
        raise MeshDocumentError(f"document does not describe a valid surface: {exc}")
    return doc, surface, weights, state, target


def _resolve_cli_target(spec: str | None, doc_target, n: int):
    """--target const:x | file:path, falling back to the document's Kbar."""
    if spec is None:
        return doc_target
    if spec.startswith("const:"):
        try:
            return np.full(n, float(spec[len("const:"):]))
        except ValueError:
            raise MeshDocumentError(f"bad constant target {spec!r}")
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise MeshDocumentError(f"cannot read target file {path}: {exc}")
        return _float_array(data, "target", n)
    raise MeshDocumentError(f"target must look like const:x or file:path, got {spec!r}")


def _cmd_gen(args) -> int:
    kind = "torus_grid" if args.kind == "torus" else args.kind
    surface = generate(kind, *args.dims)
    weights = WeightConfig.uniform(surface, args.epsilon, args.eta)
    payload = document_from_objects(surface, weights, Geometry(args.geometry))
    _write_text(args.out, dump_document(payload))
    return 0


def _cmd_validate(args) -> int:
    doc = load_document(args.mesh)
    try:
        surface, weights, _, _ = doc.build()
    except (BadFaceError, NotClosedSurfaceError, NonManifoldVertexError, BadParameterError) as exc:
        print(f"manifold: FAIL ({exc})")
        return 1
    print(
        f"surface: {surface.vertex_count} vertices, {surface.edge_count} edges, "
        f"{surface.face_count} faces, chi = {surface.euler_characteristic}"
    )
    print("manifold: ok")
    report = validate_weights(surface, weights)
    if report.edge_violations:
        names = ", ".join(
            f"{surface.edges[e][0]}-{surface.edges[e][1]}" for e in report.edge_violations
        )
        print(f"edge condition: FAIL at {names}")
    else:
        print("edge condition: ok")
    if report.face_violations:
        names = ", ".join(f"face {f} corner {c}" for f, c in report.face_violations)
        print(f"corner condition: FAIL at {names}")
    else:
        print("corner condition: ok")
    return 0 if report.ok else 1


def _cmd_curvature(args) -> int:
    doc, surface, weights, state, _ = _load_built(args.mesh)
    if state is None:
        state = base_state(doc.geometry, weights.epsilon)
    try:
        report = curvature(surface, weights, state, extended=args.extended)
    except DegenerateFaceError as exc:
        return _fail(f"face {exc.face_index} is degenerate; rerun with --extended", 1)
    payload = {
        "geometry": doc.geometry.value,
        "extended": bool(args.extended),
        "lengths": report.lengths.tolist(),
        "angles": report.angles.tolist(),
        "curvature": report.curvature.tolist(),
        "gauss_bonnet_residual": gauss_bonnet_residual(report, surface.euler_characteristic),
        "degenerate_faces": [[f, c] for f, c in report.degenerate_faces],
        "total_area": report.total_area,
    }
    _write_text(args.out, _emit_json(payload) + "\n")
    return 0


def _cmd_flow(args) -> int:
    doc, surface, weights, state, doc_target = _load_built(args.mesh)
    target = _resolve_cli_target(args.target, doc_target, surface.vertex_count)
    if state is None:
        state = base_state(doc.geometry, weights.epsilon)
    spec = FlowSpec(
        FlowKind(args.kind),
        doc.geometry,
        target=target,
        integrator=args.integrator,
        dt=args.dt,
        tolerance=args.tol,
        max_time=args.max_time,
        trace_stride=args.stride,
    )
    trace = run_flow(spec, surface, weights, state)
    last = trace.rows[-1]
    print(  # before the trace, whose energy read can still fail
        f"termination: {trace.termination.value}  t = {_format_number(last.t)}  "
        f"residual = {_format_number(last.residual)}  rows = {len(trace.rows)}"
    )
    if args.trace:
        write_trace(args.trace, trace)
    return 0 if trace.termination is TerminationReason.CONVERGED else 1


def _cmd_solve(args) -> int:
    doc, surface, weights, state, doc_target = _load_built(args.mesh)
    target = _resolve_cli_target(args.target, doc_target, surface.vertex_count)
    if target is None:
        return _fail("no target: pass --target or include Kbar in the document", 2)
    report = solve_prescribed(
        surface,
        weights,
        doc.geometry,
        target,
        initial_guess=state,
        tolerance=args.tol,
        max_iterations=args.max_iterations,
    )
    print(
        f"solved in {report.iterations} iterations  residual = "
        f"{_format_number(report.residual)}  certificate = "
        f"{_format_number(report.certificate)}  method = {report.method}"
    )
    payload = document_from_objects(
        surface, weights, doc.geometry, state=report.state, target=target
    )
    if args.out:
        _write_text(args.out, dump_document(payload))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcflow",
        description="Curvature flows for discrete conformal structures on closed surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a mesh document")
    gen.add_argument("kind", choices=tuple(GENERATOR_KINDS) + ("torus",))
    gen.add_argument("dims", nargs="*", type=int, help="grid sizes for torus_grid")
    gen.add_argument("--epsilon", type=int, default=0, choices=(0, 1))
    gen.add_argument("--eta", type=float, default=1.0)
    gen.add_argument("--geometry", choices=("euclidean", "hyperbolic"), default="euclidean")
    gen.add_argument("--out", default=None)
    gen.set_defaults(handler=_cmd_gen)

    val = sub.add_parser("validate", help="check a mesh document")
    val.add_argument("mesh")
    val.set_defaults(handler=_cmd_validate)

    curv = sub.add_parser("curvature", help="lengths, angles, and curvature")
    curv.add_argument("mesh")
    curv.add_argument("--extended", action="store_true")
    curv.add_argument("--out", default=None)
    curv.set_defaults(handler=_cmd_curvature)

    flow = sub.add_parser("flow", help="run a curvature flow")
    flow.add_argument("mesh")
    flow.add_argument("--kind", default="extended-ricci", choices=[k.value for k in FlowKind])
    flow.add_argument("--target", default=None, help="const:x or file:path")
    flow.add_argument("--integrator", default="euler", choices=("euler", "rk4"))
    flow.add_argument("--dt", type=float, default=1e-2)
    flow.add_argument("--tol", type=float, default=1e-10)
    flow.add_argument("--max-time", type=float, default=500.0)
    flow.add_argument("--stride", type=int, default=10)
    flow.add_argument("--trace", default=None, help="write a CSV trace here")
    flow.set_defaults(handler=_cmd_flow)

    solve = sub.add_parser("solve", help="solve for a prescribed curvature")
    solve.add_argument("mesh")
    solve.add_argument("--target", default=None, help="const:x or file:path")
    solve.add_argument("--tol", type=float, default=1e-10)
    solve.add_argument("--max-iterations", type=int, default=100)
    solve.add_argument("--out", default=None, help="write the solved document here")
    solve.set_defaults(handler=_cmd_solve)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (MeshDocumentError, TargetInadmissibleError, BadParameterError) as exc:
        return _fail(str(exc), 2)  # unusable input
    except DCFlowError as exc:
        return _fail(str(exc), 1)  # the computation failed


if __name__ == "__main__":
    sys.exit(main())
