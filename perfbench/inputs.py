"""Seeded inputs for every workload (standard library only).

``generate(workload, seed)`` returns the op list of one pass.  The same seed
always gives the same list; nothing here imports qsslab or numpy, so input
generation stays out of the set-up time and only the generated values reach
qsslab.
"""
from __future__ import annotations

import math
import os
import random
import re

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
QSSM_DIR = os.path.join(HERE, "qssm")

WORKLOADS = ("claims", "destruction-sweep", "qssm-pipeline")

# Registry order of qsslab.claims.CLAIMS; the workload is seed-independent.
CLAIM_IDS = (
    "destruction-lowers-and-hastens",
    "destruction-only-decelerates",
    "aids-curve-needs-feedback",
    "qss-reduction-valid",
    "mechanism-satisfies-conditions",
)
ANALYTIC_KINDS = (
    "healthy", "linear-destruction", "coupled-agent",
    "power-destruction", "logistic-source", "logistic-proliferation",
)
MECHANISMS = (
    "virulence-drift", "cytokine-inversion",
    "humoral-cellular-competition", "bcell-depletion",
)
SWEEP_OPS_PER_KIND = 12
QSSM_OPS_PER_KIND = 24
QSSM_MECHANISM_OPS = 24
SWEEP_METRICS = ("T*", "t_eps", "rate", "curvature")


def _log_uniform(u: float, lo: float, hi: float) -> float:
    """Map u in [0, 1) log-uniformly onto [lo, hi)."""
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _latin_hypercube(rng: random.Random, n: int, dims: int) -> list:
    """n points in [0, 1)^dims, one in each of the n strata of every
    dimension.  Stratifying keeps the mix of easy and hard inputs, and so
    the work of a pass, nearly the same from seed to seed."""
    cols = []
    for _ in range(dims):
        strata = rng.sample(range(n), n)
        cols.append([(s + rng.random()) / n for s in strata])
    return [list(row) for row in zip(*cols)]


def _analytic_op(kind: str, u: list) -> dict:
    """One seeded input of an analytic kind in its documented regime, from
    six uniforms: parameters (gamma and x span [1e-2, 1e2]), two values of
    the swept parameter, and T0 (below T* for u < 0.5, above it otherwise)."""
    a, y = _log_uniform(u[0], 0.1, 10.0), _log_uniform(u[1], 0.1, 10.0)
    wide = sorted(_log_uniform(v, 1e-2, 1e2) for v in u[3:5])
    if kind == "healthy":
        params, name, grid = {"a": a}, "y", sorted(_log_uniform(v, 0.1, 10.0) for v in u[3:5])
    elif kind == "linear-destruction":
        params, name, grid = {"a": a, "y": y}, "gamma", wide
    elif kind == "coupled-agent":
        params, name, grid = {"a": a, "y": y, "delta_D": _log_uniform(u[2], 0.1, 10.0)}, "x", wide
    elif kind == "power-destruction":
        params, name, grid = {"a": a, "y": y, "n": 1.5 + 1.5 * u[2]}, "gamma", wide
    elif kind == "logistic-source":  # y ~ 0
        params, name, grid = {"a": a, "y": _log_uniform(u[2], 1e-3, 1e-1)}, "gamma", wide
    else:  # logistic-proliferation: a ~ 0
        params, name, grid = {"a": _log_uniform(u[2], 1e-3, 1e-1), "y": y}, "gamma", wide
    first = {**params, name: grid[0]}
    T_star = reference.steady_T(kind, first)
    if u[5] < 0.5:
        T0 = T_star * _log_uniform(2.0 * u[5], 0.25, 0.8)
    else:
        T0 = T_star * _log_uniform(2.0 * u[5] - 1.0, 1.25, 4.0)
    # the agent of coupled-agent starts on its fast balance D = (x/delta_D) T
    init = {"T": T0, "D": first["x"] / first["delta_D"] * T0} if kind == "coupled-agent" else {"T": T0}
    return {"kind": kind, "params": params, "sweep_param": name, "grid": grid, "init": init}


def _sweep_ops(rng: random.Random) -> list[dict]:
    per_kind = {kind: [_analytic_op(kind, u) for u in _latin_hypercube(rng, SWEEP_OPS_PER_KIND, 6)]
                for kind in ANALYTIC_KINDS}
    return [per_kind[kind][j] for j in range(SWEEP_OPS_PER_KIND) for kind in ANALYTIC_KINDS]


def read_qssm_defaults(name: str) -> tuple[dict, dict]:
    """(parameter defaults, initial state) declared in a benchmark .qssm file."""
    with open(os.path.join(QSSM_DIR, f"{name}.qssm"), encoding="utf-8") as fh:
        text = fh.read()
    params = {m[0]: float(m[1]) for m in re.findall(r"^param (\w+) = (\S+)", text, re.M)}
    state = {m[0]: float(m[1]) for m in re.findall(r"^state (\w+) = (\S+)", text, re.M)}
    return params, state


def _qssm_ops(rng: random.Random) -> list[dict]:
    """Analytic ops run at the first grid value of a sweep input, over
    2 to 6 relaxation times; mechanism ops perturb the tuned defaults by up
    to 5 % (initial state 2 %) and run over a short window of 8 to 16."""
    per_kind = {}
    for kind in ANALYTIC_KINDS:
        per_kind[kind] = []
        for u in _latin_hypercube(rng, QSSM_OPS_PER_KIND, 7):
            op = _analytic_op(kind, u)
            params = {**op["params"], op["sweep_param"]: op["grid"][0]}
            per_kind[kind].append({
                "model": kind, "params": params, "init": op["init"],
                "t_end": _log_uniform(u[6], 2.0, 6.0) / reference.rate(kind, params),
            })
    for name in MECHANISMS:
        defaults, state = read_qssm_defaults(name)
        per_kind[name] = []
        for u in _latin_hypercube(rng, QSSM_MECHANISM_OPS, 1 + len(defaults) + len(state)):
            factors = iter(u[1:])
            per_kind[name].append({
                "model": name,
                "params": {k: v * _log_uniform(next(factors), 0.95, 1.05) for k, v in defaults.items()},
                "init": {k: v * _log_uniform(next(factors), 0.98, 1.02) for k, v in state.items()},
                "t_end": 8.0 + 8.0 * u[0],
            })
    ops = [per_kind[kind][j] for j in range(QSSM_OPS_PER_KIND) for kind in ANALYTIC_KINDS]
    ops += [per_kind[name][j] for j in range(QSSM_MECHANISM_OPS) for name in MECHANISMS]
    return ops


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of one pass of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "claims":
        return [{"claim": cid} for cid in CLAIM_IDS]
    if workload == "destruction-sweep":
        return _sweep_ops(rng)
    if workload == "qssm-pipeline":
        return _qssm_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")
