"""Spans recorded from outside the package, around calls into its layers.

A ``Tracer`` replaces a function with a wrapper that, while the tracer
is active, appends one span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory until the run ends.  When the
tracer is inactive a wrapper only forwards the call.

Two kinds of entry points are wrapped:

- dense and sparse solver and eigen routines of numpy and scipy.  These
  are patched in their public modules before ``dcflow`` is imported, so
  that ``from scipy.linalg import cho_factor`` inside the package binds
  the wrapper too;
- public functions and methods of ``dcflow`` modules.  Every binding of
  the function object in any ``dcflow`` module namespace is replaced,
  so calls between modules of the package are caught as well.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Layer span names of the solver and eigen routines, by public module.
LINALG_ENTRY_POINTS = (
    ("scipy.linalg", ("cho_factor", "cho_solve")),
    ("numpy.linalg", ("eigvalsh",)),
    ("scipy.sparse.linalg", ("spsolve", "splu", "factorized", "eigsh", "lobpcg")),
)

# (span name, module, attribute path) of the dcflow entry points.
DCFLOW_ENTRY_POINTS = (
    ("surface.build", "dcflow.surface", "generate"),
    ("surface.build", "dcflow.surface", "build_surface"),
    ("cli.load", "dcflow.cli", "load_document"),
    ("cli.load", "dcflow.cli", "MeshDocument.build"),
    ("cli.write", "dcflow.cli", "dump_document"),
    ("cli.write", "dcflow.cli", "format_trace"),
    ("geometry.curvature", "dcflow.geometry", "curvature"),
    ("geometry.state", "dcflow.geometry", "ConformalState.with_u"),
    ("calculus.energy", "dcflow.calculus", "surface_energies"),
    ("calculus.segment", "dcflow.calculus", "segment_face_energies"),
    ("calculus.jacobian", "dcflow.calculus", "curvature_jacobian"),
    ("flows.step", "dcflow.flows", "step"),
    ("flows.run", "dcflow.flows", "run_flow"),
    ("solve.run", "dcflow.solve", "solve_prescribed"),
)


def _accepted_step(result) -> bool:
    _, outcome = result
    return outcome.status.value == "ok"


# Span names whose results are also tallied: name -> predicate on the result.
TALLIES = {"flows.step": _accepted_step}


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.active = False
        self.spans = []  # [name, start, end, parent index or -1]
        self.tallies = {}  # span name -> count of results the predicate accepted
        self._stack = []
        self._restore = []  # (owner, attribute, original value)

    def wrap(self, name, fn):
        tracer = self
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1])
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index][1:3] = (start, end)
            if tally is not None and tally(result):
                tracer.tallies[name] = tracer.tallies.get(name, 0) + 1
            return result

        return wrapper

    def _patch(self, owner, attribute, wrapper):
        self._restore.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapper)

    def install_linalg(self):
        """Wrap the solver entry points; call before importing dcflow."""
        for module_name, names in LINALG_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            for name in names:
                self._patch(module, name, self.wrap("solve.linalg", getattr(module, name)))

    def install_dcflow(self):
        """Wrap every binding of the dcflow entry points in dcflow modules."""
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == "dcflow" or key.startswith("dcflow."))
        ]
        for span_name, module_name, path in DCFLOW_ENTRY_POINTS:
            owner = sys.modules[module_name]
            *class_path, attribute = path.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            original = vars(owner)[attribute]
            wrapper = self.wrap(span_name, original)
            if class_path:
                self._patch(owner, attribute, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self):
        """Put every original binding back, newest patch first."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)


def self_times(spans):
    """Per-span self time: its duration minus its direct children's durations."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def subtree(spans, root):
    """Indices of ``root`` and every span below it (spans are in start order)."""
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index][3] in inside:
            inside.add(index)
    return sorted(inside)


def layer_totals(spans, indices=None):
    """{span name: (call count, summed self time)} over the given spans."""
    own = self_times(spans)
    totals = {}
    for index in range(len(spans)) if indices is None else indices:
        name = spans[index][0]
        count, seconds = totals.get(name, (0, 0.0))
        totals[name] = (count + 1, seconds + own[index])
    return totals
