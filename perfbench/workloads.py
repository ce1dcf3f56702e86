"""Benchmark workloads and the inputs they draw from a seed.

Every workload uses uniform edge weights eta = 1 and random start
factors drawn from the seed.  The sizes are chosen so that each one
stresses a different layer; see README.md in this directory.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

TOLERANCE_FLOW = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    operation: str  # "solve" or "flow"
    mesh: tuple  # generator kind, then grid sizes
    geometry: str
    epsilon: int
    factor_kind: str  # "u": centred N(0, sigma^2) in u; "f": N(0, sigma^2) in f
    sigma: float
    target: float  # constant target curvature

    def gen_args(self, out: str) -> list:
        kind, *dims = self.mesh
        return [
            "gen", kind, *map(str, dims),
            "--epsilon", str(self.epsilon), "--eta", "1",
            "--geometry", self.geometry, "--out", out,
        ]  # fmt: skip

    def compute_args(self, start: str, out: str) -> list:
        target = f"const:{self.target!r}"
        if self.operation == "solve":
            return ["solve", start, "--target", target, "--out", out]
        return [
            "flow", start, "--kind", "extended-ricci", "--target", target,
            "--tol", repr(TOLERANCE_FLOW), "--trace", out,
        ]  # fmt: skip

    def start_factors(self, seed: int, vertex_count: int) -> list:
        """Start factors for this workload; the same seed gives the same list."""
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        values = rng.normal(0.0, self.sigma, size=vertex_count)
        if self.factor_kind == "u":
            values -= values.mean()
        return [float(v) for v in values]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve_euclid", "solve", ("torus_grid", 40, 40), "euclidean",
            epsilon=1, factor_kind="u", sigma=0.3, target=0.0,
        ),
        Workload(
            "solve_hyper", "solve", ("torus_grid", 14, 14), "hyperbolic",
            epsilon=1, factor_kind="f", sigma=0.3, target=0.1,
        ),
        Workload(
            "flow_smooth", "flow", ("torus_grid", 10, 10), "euclidean",
            epsilon=1, factor_kind="u", sigma=0.3, target=0.0,
        ),
    )
}  # fmt: skip

# Tiny meshes that run every code path of the harness in seconds.
SMOKE = {
    "solve_euclid": replace(WORKLOADS["solve_euclid"], mesh=("tetrahedron",), target=np.pi),
    "solve_hyper": replace(WORKLOADS["solve_hyper"], mesh=("genus2",)),
    "flow_smooth": replace(WORKLOADS["flow_smooth"], mesh=("torus_grid", 3, 3)),
}
