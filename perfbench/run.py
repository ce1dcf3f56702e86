"""Time-to-solution benchmark for dcflow, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_euclid --seed 1 --seconds 25 --trace 0

The load is a closed loop with one client.  One process runs one
operation at a time.  Each repetition runs the CLI pipeline
``dcflow gen`` then ``dcflow solve`` or ``dcflow flow`` as subprocesses,
then the same library call in-process with tracing off, then checks
every output.  With ``--trace 1`` a separate traced run follows: the
same pipeline in-process, with spans recorded around calls into each
layer (see tracer.py), from which the per-layer metrics come.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
Every metric computed is also printed above it as a table.  The full
result, with provenance, and the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer as tracing
from workloads import SMOKE, TOLERANCE_FLOW, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

MIN_REPS = 2
SETUP_EXTRA = 3  # gen-only runs before the loop, so setup_s has several samples
IMPORT_SAMPLES = 3
SOLVE_RESIDUAL = 1e-10
CLI_AGREEMENT = 1e-12  # CLI result against the in-process result, in u
FLOW_SOLVE_AGREEMENT = 1e-6  # flow end against solve_prescribed, in u
COVERAGE_SLACK = 0.01  # layer self times must sum to the traced call within this share

GEN, START, STDOUT = "gen.json", "start.json", "stdout.txt"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dcflow; "
    "print(repr(time.perf_counter() - t))"
)


class HarnessError(Exception):
    """The benchmark cannot run here, or a workload's inputs lack their property."""


@dataclass
class Child:
    """One finished subprocess: wall time, exit code, peak memory, outputs."""

    seconds: float
    code: int
    rss_mb: float
    stdout: bytes
    stderr: bytes
    output: bytes | None  # the file the command was asked to write


def spawn(argv, cwd: Path, env: dict, output: Path | None = None) -> Child:
    """Run one child to completion; peak memory is that child's alone."""
    with open(cwd / STDOUT, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=env, stdout=out, stderr=subprocess.PIPE
        )
        try:
            stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stderr.close()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        seconds=seconds,
        code=proc.returncode,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        stdout=(cwd / STDOUT).read_bytes(),
        stderr=stderr,
        output=output.read_bytes() if output is not None and output.is_file() else None,
    )


def max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b))))


class Run:
    """One benchmark run of one workload: inputs, samples and failures."""

    def __init__(self, dcflow, workload, seed: int, work: Path, corrupt_output: bool):
        self.dc = dcflow
        self.workload = workload
        self.seed = seed
        self.work = work
        self.corrupt_output = corrupt_output
        self.output_name = "solved.json" if workload.operation == "solve" else "trace.csv"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.samples = {"setup_s": [], "run_s": [], "call_s": [], "peak_rss_mb": []}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reference = {}  # output name -> sha256 of its first copy
        self.factors = None
        self.last_result = None
        self.out_bytes = 0

    # -- inputs ------------------------------------------------------------

    def prepare(self):
        """Generate the start document and load it for the library call."""
        gen = self.gen()
        if gen.code != 0 or gen.output is None:
            raise HarnessError(f"dcflow gen failed: {gen.stderr.decode(errors='replace')}")
        count = json.loads(gen.output)["vertex_count"]
        self.factors = self.workload.start_factors(self.seed, count)
        self.write_start(gen.output, self.work / START)
        doc = self.dc.load_document(str(self.work / START))
        self.geometry = doc.geometry
        self.surface, self.weights, self.state, _ = doc.build()
        self.target = np.full(count, float(self.workload.target))
        report = self.dc.curvature(self.surface, self.weights, self.state, extended=True)
        if report.degenerate_faces:
            raise HarnessError(
                f"seed {self.seed} breaks the {self.workload.name} workload: its start has "
                f"{len(report.degenerate_faces)} degenerate faces; the workload needs none"
            )

    def write_start(self, gen_output: bytes, path: Path):
        payload = json.loads(gen_output)
        payload["factors"] = {"kind": self.workload.factor_kind, "values": self.factors}
        path.write_text(json.dumps(payload))

    # -- operations --------------------------------------------------------

    def gen(self) -> Child:
        args = self.workload.gen_args(GEN)
        (self.work / GEN).unlink(missing_ok=True)
        return spawn(["-m", "dcflow", *args], self.work, self.env, self.work / GEN)

    def call(self, budget=None):
        """The library call a CLI compute command makes, on the same inputs.

        ``budget`` caps the work (iterations or flow time), for a warm-up.
        """
        dc = self.dc
        if self.workload.operation == "solve":
            limit = {} if budget is None else {"max_iterations": budget}
            return dc.solve_prescribed(
                self.surface,
                self.weights,
                self.geometry,
                self.target,
                initial_guess=self.state,
                **limit,
            )
        limit = {} if budget is None else {"max_time": budget}
        spec = dc.FlowSpec(
            dc.FlowKind.EXTENDED_MODIFIED_RICCI,
            self.geometry,
            target=self.target,
            tolerance=TOLERANCE_FLOW,
            **limit,
        )
        return dc.run_flow(spec, self.surface, self.weights, self.state)

    def operation(self, label: str, problems_of):
        """Count one attempted operation; it failed if its check finds problems."""
        self.attempted += 1
        try:
            problems = problems_of()
        except (ValueError, KeyError, IndexError, TypeError, self.dc.DCFlowError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(problems))

    # -- checks ------------------------------------------------------------

    def result_problems(self, u) -> list:
        """Recheck a result's curvature against the target with ``curvature``."""
        dc = self.dc
        state = dc.ConformalState(self.geometry, self.weights.epsilon, np.asarray(u))
        if self.workload.operation == "solve":
            report = dc.curvature(self.surface, self.weights, state)
            limit = SOLVE_RESIDUAL
        else:
            report = dc.curvature(self.surface, self.weights, state, extended=True)
            limit = TOLERANCE_FLOW
        residual = float(np.max(np.abs(report.curvature - self.target)))
        return [] if residual < limit else [f"residual {residual:.3e} is not below {limit:g}"]

    def library_problems(self, result) -> list:
        if isinstance(result, Exception):
            return [f"{type(result).__name__}: {result}"]
        if self.workload.operation == "solve":
            problems = [] if result.certificate > 0 else [f"certificate {result.certificate}"]
            return problems + self.result_problems(result.state.u)
        if result.termination is not self.dc.TerminationReason.CONVERGED:
            return [f"flow ended {result.termination.value}"]
        return self.result_problems(result.final_u)

    def same_bytes(self, outputs: dict) -> list:
        """Every output must equal, byte for byte, its first copy in this run."""
        problems = []
        for name, data in outputs.items():
            digest = hashlib.sha256(data or b"").hexdigest()
            if self.reference.setdefault(name, digest) != digest:
                problems.append(f"{name} differs from its first copy")
        return problems

    def cli_problems(self, gen: Child, compute: Child | None, stdout: bytes | None = None):
        """Exit codes, byte identity, certificate or termination, residual, agreement."""
        problems = [] if gen.code == 0 else [f"gen exited {gen.code}"]
        if compute is None:
            return problems + ["no start document"]
        if compute.code != 0:
            problems.append(f"{self.workload.operation} exited {compute.code}")
        stdout = compute.stdout if stdout is None else stdout
        problems += self.same_bytes(
            {GEN: gen.output, self.output_name: compute.output, STDOUT: stdout}
        )
        if compute.output is None:
            return problems + [f"no {self.output_name}"]
        text = compute.output.decode()
        if self.workload.operation == "solve":
            u = json.loads(text)["factors"]["values"]
            certificate = float(stdout.decode().split("certificate = ")[1].split()[0])
            if not certificate > 0:
                problems.append(f"certificate {certificate}")
        else:
            last = text.rstrip("\n").rsplit("\n", 1)[-1].split(",")
            u = [float(x) for x in last[5 : 5 + len(self.factors)]]
            if not stdout.startswith(b"termination: converged"):
                problems.append("flow did not end converged")
        problems += self.result_problems(u)
        library_u = self.result_u(self.last_result)
        if library_u is not None and max_gap(u, library_u) > CLI_AGREEMENT:
            problems.append(f"CLI u differs from the library u by {max_gap(u, library_u):.3e}")
        return problems

    def result_u(self, result):
        if result is None or isinstance(result, Exception):
            return None
        return result.state.u if self.workload.operation == "solve" else result.final_u

    # -- the measured loop -------------------------------------------------

    def gen_only(self, timed: bool):
        gen = self.gen()
        if timed:
            self.samples["setup_s"].append(gen.seconds)
        self.operation(
            "gen",
            lambda: ([] if gen.code == 0 else [f"gen exited {gen.code}"])
            + self.same_bytes({GEN: gen.output}),
        )

    def timed_call(self):
        gc.collect()  # garbage left by earlier repetitions is not this call's cost
        start = time.perf_counter()
        try:
            result = self.call()
        except self.dc.DCFlowError as exc:
            result = exc
        self.samples["call_s"].append(time.perf_counter() - start)
        return result

    def repetition(self, index: int):
        gen = self.gen()
        self.samples["setup_s"].append(gen.seconds)
        compute = None
        if gen.code == 0 and gen.output is not None:
            self.write_start(gen.output, self.work / START)
            output = self.work / self.output_name
            output.unlink(missing_ok=True)
            compute = spawn(
                ["-m", "dcflow", *self.workload.compute_args(START, self.output_name)],
                self.work,
                self.env,
                output,
            )
            self.samples["run_s"].append(compute.seconds)
            self.samples["peak_rss_mb"].append(compute.rss_mb)
            self.out_bytes = len(compute.stdout) + len(compute.output or b"")
            if self.corrupt_output and index > 0 and compute.output:
                flipped = bytearray(compute.output)
                flipped[len(flipped) // 2] ^= 1
                compute.output = bytes(flipped)
        self.last_result = self.timed_call()
        self.operation("call", lambda: self.library_problems(self.last_result))
        self.operation("cli", lambda: self.cli_problems(gen, compute))

    def measure(self, seconds: float):
        # The first solve in a process runs up to half again as long as later
        # ones; one Newton iteration (or one time unit of a flow) warms it up.
        try:
            self.call(budget=1)
        except self.dc.MaxIterationsError:
            pass
        for _ in range(SETUP_EXTRA):
            self.gen_only(timed=True)
        start = time.perf_counter()
        durations = []
        while len(durations) < MIN_REPS or (
            time.perf_counter() - start + statistics.median(durations) <= seconds
        ):
            began = time.perf_counter()
            self.repetition(len(durations))
            durations.append(time.perf_counter() - began)
        if self.workload.operation == "flow":
            self.operation("flow against solve", self.flow_against_solve)
        return len(durations)

    def flow_against_solve(self) -> list:
        flow_u = self.result_u(self.last_result)
        if flow_u is None:
            return ["no flow result"]
        report = self.dc.solve_prescribed(
            self.surface, self.weights, self.geometry, self.target, initial_guess=self.state
        )
        gap = max_gap(flow_u, report.state.u)
        return [] if gap <= FLOW_SOLVE_AGREEMENT else [f"flow ends {gap:.3e} from the solve"]

    # -- the traced run ----------------------------------------------------

    def import_seconds(self) -> list:
        times = []
        for _ in range(IMPORT_SAMPLES):
            child = spawn(["-c", IMPORT_PROBE], self.work, self.env)
            self.operation("import", lambda: [] if child.code == 0 else ["import failed"])
            if child.code == 0:
                times.append(float(child.stdout))
        return times

    def traced(self, tracer) -> list:
        """The CLI pipeline in-process with spans on; its outputs are checked too."""
        traced_dir = self.work / "traced"
        traced_dir.mkdir(exist_ok=True)
        gen_path, start_path = traced_dir / GEN, traced_dir / START
        output = traced_dir / self.output_name
        stdout = io.StringIO()
        codes = []
        tracer.install_dcflow()
        tracer.active = True
        try:
            with contextlib.redirect_stdout(stdout):
                codes.append(self.dc.cli.main(self.workload.gen_args(str(gen_path))))
                self.write_start(gen_path.read_bytes(), start_path)
                args = self.workload.compute_args(str(start_path), str(output))
                codes.append(self.dc.cli.main(args))
        finally:
            tracer.active = False
            tracer.uninstall()
        gen = Child(0.0, codes[0], 0.0, b"", b"", gen_path.read_bytes())
        compute = Child(0.0, codes[1], 0.0, b"", b"", output.read_bytes())
        self.operation("traced", lambda: self.cli_problems(gen, compute, stdout.getvalue().encode()))
        return tracer.spans


def layer_metrics(run: Run, spans, tallies, import_times) -> dict:
    """Per-layer metrics from the traced run's spans; see README.md."""
    roots = [i for i, span in enumerate(spans) if span[0] in ("solve.run", "flows.run")]
    if len(roots) != 1:
        raise HarnessError(f"expected one library call in the traced run, found {len(roots)}")
    root = roots[0]
    traced_call = spans[root][2] - spans[root][1]
    whole = tracing.layer_totals(spans)
    call = tracing.layer_totals(spans, tracing.subtree(spans, root))
    coverage = sum(seconds for _, seconds in call.values()) / traced_call
    if abs(coverage - 1.0) > COVERAGE_SLACK:
        raise HarnessError(f"layer self times cover {coverage:.4f} of the traced call")
    untraced_call = statistics.median(run.samples["call_s"])
    solving = run.workload.operation == "solve"
    flows = not solving
    result = run.last_result
    if isinstance(result, Exception):
        raise HarnessError(f"the last library call failed: {result}")
    evals = call.get("calculus.energy", (0, 0.0))[0] if solving else 0
    iterations = result.iterations if solving else 0
    steps = tallies.get("flows.step", 0)

    def count(table, name):
        return table.get(name, (0, 0.0))[0]

    def seconds(table, name):
        return table.get(name, (0, 0.0))[1]

    return {
        "surface.build_s": (seconds(whole, "surface.build"), "s"),
        "cli.import_s": (statistics.median(import_times), "s"),
        "cli.load_s": (seconds(whole, "cli.load"), "s"),
        "cli.write_s": (seconds(whole, "cli.write"), "s"),
        "cli.out_bytes": (run.out_bytes, "bytes"),
        "geometry.curvature_calls": (count(call, "geometry.curvature"), "count"),
        "geometry.curvature_s": (seconds(call, "geometry.curvature"), "s"),
        "geometry.state_calls": (count(call, "geometry.state"), "count"),
        "geometry.state_s": (seconds(call, "geometry.state"), "s"),
        "calculus.energy_calls": (count(call, "calculus.energy"), "count"),
        "calculus.energy_s": (seconds(call, "calculus.energy"), "s"),
        "calculus.segment_calls": (count(call, "calculus.segment"), "count"),
        "calculus.segment_s": (seconds(call, "calculus.segment"), "s"),
        "calculus.jacobian_calls": (count(call, "calculus.jacobian"), "count"),
        "calculus.jacobian_s": (seconds(call, "calculus.jacobian"), "s"),
        "flows.steps": (steps, "count"),
        "flows.rows": (len(result.rows) if flows else 0, "count"),
        "flows.steps_per_s": (steps / untraced_call if flows else 0.0, "1/s"),
        "flows.step_s": (seconds(call, "flows.step"), "s"),
        "flows.self_s": (seconds(call, "flows.run"), "s"),
        "solve.iterations": (iterations, "count"),
        "solve.potential_evals": (evals, "count"),
        "solve.accept_ratio": (iterations / (evals - 1) if evals > 1 else 0.0, "ratio"),
        "solve.linalg_calls": (count(call, "solve.linalg"), "count"),
        "solve.linalg_s": (seconds(call, "solve.linalg"), "s"),
        "solve.self_s": (seconds(call, "solve.run"), "s"),
        "trace.call_s": (traced_call, "s"),
        "trace.overhead_frac": (traced_call / untraced_call - 1.0, "ratio"),
        "trace.coverage": (coverage, "ratio"),
    }


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> list:
    """Version string and thread count of every OpenBLAS loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype, config.argtypes = ctypes.c_char_p, []
                threads.restype, threads.argtypes = ctypes.c_int, []
                found.append(
                    {
                        "library": os.path.basename(path),
                        "config": config().decode(),
                        "threads": threads(),
                    }
                )
                break
    return found


def _git(*args):
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(seed: int) -> dict:
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# entry point


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny meshes: checks the harness in seconds"
    )
    parser.add_argument(
        "--corrupt-output",
        action="store_true",
        help="flip one byte of the CLI output after the first repetition, "
        "to show that the checks count it as a failure",
    )
    return parser.parse_args(argv)


def _load_dcflow():
    if not (SRC / "dcflow" / "__init__.py").is_file():
        raise HarnessError(f"no dcflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dcflow

    if Path(dcflow.__file__).resolve().parent != SRC / "dcflow":
        raise HarnessError(f"imported dcflow from {dcflow.__file__}, not from {SRC}")
    return dcflow


def _table(metrics: dict, run: Run, reps: int) -> str:
    counts = {key: len(values) for key, values in run.samples.items()}
    lines = [f"{run.workload.name}  seed {run.seed}  repetitions {reps}"]
    for name, (value, unit) in metrics.items():
        note = f"  (median of {counts[name]})" if name in counts else ""
        lines.append(f"  {name:34s} {value:>16.6g} {unit}{note}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{stem}"
    try:
        if tracer is not None:
            tracer.install_linalg()  # before dcflow binds any of these names
        dcflow = _load_dcflow()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        run = Run(dcflow, workload, args.seed, work, args.corrupt_output)
        run.prepare()
        reps = run.measure(args.seconds)
        if not all(run.samples.values()):
            raise HarnessError("no repetition ran the whole CLI pipeline: " + "; ".join(run.failures))
        metrics = {
            name: (statistics.median(values), "MB" if name == "peak_rss_mb" else "s")
            for name, values in run.samples.items()
        }
        spans = []
        if tracer is not None:
            import_times = run.import_seconds()
            spans = run.traced(tracer)
            metrics.update(layer_metrics(run, spans, tracer.tallies, import_times))
        metrics["fail_rate"] = (run.failed / run.attempted, "ratio")
        kept = spec["per_layer"] if args.trace else spec["end_to_end"]
        for m in kept:
            if metrics[m["name"]][1] != m["unit"]:
                raise HarnessError(f"{m['name']} is measured in {metrics[m['name']][1]}")
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    origin = provenance(args.seed)
    if spans:
        zero = spans[0][1]
        (OUT / f"{stem}.spans.json").write_text(
            json.dumps(
                [
                    {"name": n, "start": s - zero, "end": e - zero, "parent": p}
                    for n, s, e, p in spans
                ]
            )
        )
    for failure in run.failures:
        print(f"failed: {failure}", file=sys.stderr)
    if not run.failures:
        shutil.rmtree(work)  # kept only when something failed, for inspection
    print("provenance: " + json.dumps(origin))
    print(_table(metrics, run, reps))
    emitted = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in kept}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": emitted,
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps(
            {
                **result,
                "workload": args.workload,
                "smoke": args.smoke,
                "repetitions": reps,
                "provenance": origin,
                "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "samples": run.samples,
                "failures": run.failures,
            },
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
