"""Golden bits: flows, curvature and solves hash to digests recorded on one build.

Every array is hashed byte for byte, so a change that moves a single bit
of a trace row, a curvature array or a solved u fails here.  The digests
depend on how numpy's exp, log and arctan2 round, which varies with the
numpy build and the CPU's vector extensions; on a build other than the
recorded one the test skips and says so.  To re-record after a change that
is meant to move bits, run ``python tests/test_golden.py`` and paste its
output into DIGESTS.
"""

from __future__ import annotations

import functools
import hashlib
import platform

import numpy as np
import pytest

from dcflow import (
    ConformalState,
    FlowKind,
    FlowSpec,
    Geometry,
    WeightConfig,
    curvature,
    generate,
    run_flow,
    solve_prescribed,
)
from dcflow.calculus import face_corner_jacobians, triangle_energy

EU, HY = Geometry.EUCLIDEAN, Geometry.HYPERBOLIC


def build_fingerprint() -> str:
    try:
        features = np._core._multiarray_umath.__cpu_features__
    except AttributeError:
        features = {}
    return f"numpy {np.__version__} {platform.machine()} avx512f={bool(features.get('AVX512F'))}"


RECORDED_ON = "numpy 2.4.6 x86_64 avx512f=True"


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def torus(n, epsilon, eta=1.0):
    surface = generate("torus_grid", n, n)
    return surface, WeightConfig.uniform(surface, epsilon, eta)


def centred(seed, n, sigma=0.3):
    u = np.random.default_rng(seed).normal(0.0, sigma, n)
    return u - u.mean()


def trace_digest(spec, surface, weights, state, energies=False):
    trace = run_flow(spec, surface, weights, state)
    parts = [trace.termination.value]
    for row in trace.rows:
        parts += [row.u, row.curvature]
        parts.append(np.array([row.t, row.residual, row.sum_u, row.calabi, row.correction]))
    if energies:
        parts.append(np.array(trace.energies))
    return digest(*parts)


def flow_case(kind, geometry, n, epsilon, u, energies=False, **options):
    surface, weights = torus(n, epsilon)
    if geometry is EU:
        state = ConformalState(geometry, weights.epsilon, u)
    else:
        state = ConformalState.from_f(geometry, weights.epsilon, u)
    spec = FlowSpec(kind, geometry, **options)
    return trace_digest(spec, surface, weights, state, energies)


def wall_start():
    # six faces start past a wall and the flow carries them back across
    u = np.random.default_rng(5).normal(0.0, 0.3, 16)
    u[5] = -3.0
    return u


def halving_start():
    u = np.zeros(9)
    u[4] = -2.0 * np.log(2.0) + 0.05  # a face close to its wall: dt = 1 steps are halved
    return u


FLOWS = {
    "extended-euler": lambda: flow_case(
        FlowKind.EXTENDED_MODIFIED_RICCI, EU, 5, 1, centred(1, 25), energies=True, tolerance=1e-6
    ),
    "extended-rk4": lambda: flow_case(
        FlowKind.EXTENDED_MODIFIED_RICCI, EU, 5, 1, centred(2, 25), integrator="rk4", max_time=2.0
    ),
    "extended-hyperbolic": lambda: flow_case(
        FlowKind.EXTENDED_MODIFIED_RICCI, HY, 4, 1, np.random.default_rng(3).normal(0.0, 0.3, 16),
        energies=True, target=np.full(16, 0.1), max_time=3.0,
    ),
    "modified-hyperbolic": lambda: flow_case(
        FlowKind.MODIFIED_RICCI, HY, 4, 1, np.random.default_rng(7).normal(0.0, 0.3, 16),
        target=np.full(16, 0.1), max_time=2.0, trace_stride=5,
    ),
    "extended-eps0-walls": lambda: flow_case(
        FlowKind.EXTENDED_MODIFIED_RICCI, EU, 4, 0, wall_start(), energies=True,
        max_time=5.0, trace_stride=5,
    ),
    "modified-halvings": lambda: flow_case(
        FlowKind.MODIFIED_RICCI, EU, 3, 0, halving_start(), dt=1.0, max_time=3.0, trace_stride=1
    ),
    "ricci": lambda: flow_case(FlowKind.RICCI, EU, 4, 1, centred(4, 16), max_time=1.0),
    "modified-calabi": lambda: flow_case(
        FlowKind.MODIFIED_CALABI, EU, 4, 1, centred(6, 16), max_time=0.5, trace_stride=5
    ),
}  # fmt: skip


def metric_state(geometry, epsilon, degenerate):
    surface = generate("torus_grid", 5, 5)
    rng = np.random.default_rng(11)
    eps = np.full(25, epsilon) if degenerate else rng.integers(0, 2, 25)
    weights = WeightConfig(eps, rng.uniform(0.5, 2.0, surface.edge_count))
    u = rng.normal(0.0, 0.3 if degenerate else 0.1, 25)
    if degenerate:
        u[[4, 12]] = -3.0
    if geometry is HY:
        u[weights.epsilon == 1] = -np.abs(u[weights.epsilon == 1]) - 0.1
    state = ConformalState(geometry, weights.epsilon, u)
    assert bool(curvature(surface, weights, state, extended=True).degenerate_faces) is degenerate
    return surface, weights, state


def metric_case(*args):
    report = curvature(*metric_state(*args), extended=True)
    parts = [report.lengths, report.angles, report.degenerate_corner, report.curvature]
    if report.geometry is HY:
        parts += [report.face_areas, np.array([report.total_area])]
    return digest(*parts)


def jacobian_case(*args):
    return digest(face_corner_jacobians(*metric_state(*args), extended=True))


STATES = {
    f"{geometry.value}-{name}": (geometry, eps, degenerate)
    for geometry in (EU, HY)
    for name, eps, degenerate in (("random", None, False), ("degenerate", 0, True))
}


def solve_case(geometry, n, target):
    surface, weights = torus(n, 1)
    u = np.random.default_rng(n).normal(0.0, 0.3, surface.vertex_count)
    if geometry is EU:
        state = ConformalState(geometry, weights.epsilon, u - u.mean())
    else:
        state = ConformalState.from_f(geometry, weights.epsilon, u)
    report = solve_prescribed(
        surface, weights, geometry, np.full(surface.vertex_count, target), initial_guess=state
    )
    return digest(report.state.u, np.array([report.iterations]))


def triangle_case():
    # lone-triangle energies in both geometries, one path across a wall
    values = [
        triangle_energy(EU, [1, 1, 1], [1.0, 1.0, 1.0], [0.3, -0.2, 0.1]),
        triangle_energy(EU, [0, 0, 0], [1.0, 1.0, 1.0], [-3.0, 0.0, 0.0], extended=True),
        triangle_energy(HY, [1, 0, 1], [1.2, 0.8, 1.5], [-0.4, 0.2, -0.9]),
    ]
    return digest(np.array(values))


SOLVES = {
    "euclidean-6x6": lambda: solve_case(EU, 6, 0.0),
    "hyperbolic-5x5": lambda: solve_case(HY, 5, 0.1),
}

CASES = {
    **{f"flow/{k}": v for k, v in FLOWS.items()},
    **{f"curvature/{k}": functools.partial(metric_case, *v) for k, v in STATES.items()},
    **{f"jacobian/{k}": functools.partial(jacobian_case, *v) for k, v in STATES.items()},
    **{f"solve/{k}": v for k, v in SOLVES.items()},
    "energy/triangle": triangle_case,
}

# recorded on RECORDED_ON: the curvature, energy and flow digests other than
# modified-calabi with the face-major metric kernel, before the corner-major one (the
# curvature digests split from the Jacobian blocks then); the jacobian, solve and
# modified-calabi digests with the edge-weight Jacobian and the Newton-CG step
DIGESTS = {
    "curvature/euclidean-degenerate": "36d21dfef021cf1a454fc5d385d3dc42ec94c9fb34fa979c23b6f821ed13b514",
    "curvature/euclidean-random": "13fceb45bc9102e9391bb1e22238cd8ddae5a68e0fa07bcebbf9220467b6cd7e",
    "curvature/hyperbolic-degenerate": "6b9df8e81b76141410ad47feacaf5aac72cda66a0cd63a4e6c634aafe66d05ca",
    "curvature/hyperbolic-random": "6b8aea6920cb9e0595d8b4dcab1ef3e30dfb317121b941f6d84fb69cf553f72c",
    "energy/triangle": "c63011347771626e9f16868b5c9a21848809ce73b36e1f5659c0b7608b55d0f3",
    "flow/extended-eps0-walls": "22b1763e86c71638c77aedea5c4233401e68094dd0f0ae8f6eabfaf323f556f4",
    "flow/extended-euler": "60b9af4aa74f85677cdafc9491ebc1b4b59d955d66f3a17cea41e9dc33db2c5c",
    "flow/extended-hyperbolic": "d254ecec49dcb22d1b2a46bc6796c6fbea419eac60e1cc6c23dc9a034d614cb4",
    "flow/extended-rk4": "8881004bc32b3974b44f0ccc23ff666ea0485b85924f6694c9421817fef86974",
    "flow/modified-calabi": "4ebc44831fa311706639a9b9cee4bfb4f7c8e33a8d344b6bdec1bfbb7544a0e8",
    "flow/modified-halvings": "d78ed80752c6abd8d19c8ecd8fee2c2b6e3158b84b124daee82ac7d71745c561",
    "flow/modified-hyperbolic": "a09157e467bed3f53aa0f9c942d45646dbd313be5f3eb4f552c7fd8a7343f0be",
    "flow/ricci": "36571d2331ad96d9bc7367b905e6fe614258e3d3cd57629afdb7888d12463558",
    "jacobian/euclidean-degenerate": "45e2d638773a6e05be61ee3767e5bed960e7da20e1ecc4e0e374dace8355423c",
    "jacobian/euclidean-random": "82294d250a085b7ffc4f803633a4b093de66a9568f8cdeb9d81d085dfc840670",
    "jacobian/hyperbolic-degenerate": "4f89aafc239501f8e7e3bafdf7cada3014cb26ed2998f643921e690e30f67ff4",
    "jacobian/hyperbolic-random": "520bf25ed8c6c2981a3cd41858361050e381b7d36068498e3dcd54336a19cbdf",
    "solve/euclidean-6x6": "5ffd421819b3ddbc6337530c28a72a9f099a712af536ba56843060b8bcfa8292",
    "solve/hyperbolic-5x5": "c2c921ce22827c37b6e6f477df73367e752ed99cc2d1aa149e662721b079d130",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bits(name):
    if build_fingerprint() != RECORDED_ON:
        pytest.skip(f"digests recorded on {RECORDED_ON}, this is {build_fingerprint()}")
    assert CASES[name]() == DIGESTS[name]


if __name__ == "__main__":
    print(f"# {build_fingerprint()}")
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
