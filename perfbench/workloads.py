"""The three workloads: set-up, one op, and the checks of one op's output.

A workload object is built from the op list of one pass (``inputs.generate``);
building it is the workload's model construction, counted in ``setup_s``.
``run(i, op)`` is one op through qsslab's public functions and is the only
timed code.  ``check(i, op, output)`` runs after the pass and returns
findings of three kinds:

- ``("wrong", text)``: an output disagrees with its oracle.  The op fails
  and the run is incorrect.
- ``("failed", text)``: qsslab reported a typed failure that is not one of
  its known defects.  The op fails.
- ``("defect", text)``: the output is exactly what one of qsslab's known
  defects produces (``KNOWN_DEFECTS``).  The op completed and its output is
  the current program's correct output, as the red claim is; the run
  counts such ops and prints the count with its base.
"""
from __future__ import annotations

import csv
import json
import math
import os
import re
from importlib import resources

import common
import inputs
import reference

import qsslab
from qsslab import catalog, claims, cli
from qsslab.core import ParameterSet, StateVector
from qsslab.integrate import integrate_adaptive

if not os.path.abspath(qsslab.__file__).startswith(common.SRC + os.sep):
    raise SystemExit(f"perfbench: imported qsslab from {qsslab.__file__}, not {common.SRC}")

CURVATURE_CLASSES = {
    "decelerating-decline", "accelerating-decline", "mixed", "non-monotonic", "flat",
}

# The known qsslab defects whose outputs are accepted, each only in the
# exact form it takes (``_known_defect``).  Any other error in a row fails
# the op.  A finding names its defect first, so that the run can count each.
KNOWN_DEFECTS = {
    # For these kinds find_steady_state reports the first-order rate at
    # T = a/y instead of the rate at the root (ROADMAP item 4).  That rate
    # sets the t_eps horizon (50/rate) and the curvature window (8/rate),
    # which then end too early.
    "relaxation-rate": ("power-destruction", "coupled-agent"),
    # Newton started below the vertex of a quadratic kind lands on its
    # negative root: a true fixed point, but not the steady state the
    # trajectory approaches.  t_eps towards that root then times out.
    "negative-root": ("coupled-agent", "logistic-source", "logistic-proliferation"),
    # A Dormand-Prince trial stage overshoots to T < 0, where T**n with a
    # fractional n is nan, and integrate_adaptive raises BlowupError
    # instead of rejecting the step.
    "non-finite-trial-step": ("power-destruction",),
    # integrate_adaptive accumulates t one rounding error short of t_end;
    # the remaining step, a few ulps long, is below its minimum step of
    # 1e-14 * span, and it raises StiffnessError.  Seen on the short
    # windows that the relaxation-rate defect gives coupled-agent.
    "end-of-span-rounding": ("coupled-agent", "power-destruction"),
}
HORIZON_PER_RATE = {"t_eps_error": 50.0, "curvature_error": 8.0}
UNDERFLOW = re.compile(r"step size underflow \((\S+)\) at t = (\S+); problem too stiff")


def _rel(value: float, expected: float) -> float:
    return abs(value - expected) / max(abs(expected), 1e-300)


def _state(values: dict) -> StateVector:
    return StateVector(tuple(values), list(values.values()))


def _strictly_decreasing(seq) -> bool:
    return all(b < a for a, b in zip(seq, seq[1:]))


def _check_steady_T(kind: str, p: dict, T: float, where: str) -> list:
    """T* against the closed form where it is exact, else the rhs residual.
    The negative root of a quadratic kind is the "negative-root" defect."""
    if kind == "power-destruction":
        residual = reference.rhs_T(kind, p, T)
        if abs(residual) > 1e-9 * (p["a"] + p["y"] * T + p["gamma"] * T ** p["n"]):
            return [("wrong", f"{where}: T* = {T!r} leaves residual {residual:.3e}")]
        return []
    expected = reference.steady_T(kind, p)
    if _rel(T, expected) <= 1e-9:
        return []
    if (kind in KNOWN_DEFECTS["negative-root"] and T < 0
            and any(_rel(T, root) <= 1e-9 for root in reference.other_roots(kind, p))):
        return [("defect", f"negative-root: {where}: T* = {T!r} is the negative fixed point, "
                           f"not the steady state {expected!r}")]
    return [("wrong", f"{where}: T* = {T!r}, closed form {expected!r}")]


def _known_defect(kind: str, row: dict, key: str, text: str, negative_root: bool):
    """The name of the known defect that writes ``text`` into ``row[key]``, or None."""
    if key == "t_eps_error" and text.startswith("|T - T*| did not reach "):
        if kind in KNOWN_DEFECTS["relaxation-rate"]:
            return "relaxation-rate"
        if negative_root:
            return "negative-root"
    if key == "curvature_error" and text.startswith("need at least "):
        if kind in KNOWN_DEFECTS["relaxation-rate"]:
            return "relaxation-rate"
    if key in HORIZON_PER_RATE and text.startswith("state became non-finite at t = "):
        if kind in KNOWN_DEFECTS["non-finite-trial-step"]:
            return "non-finite-trial-step"
    underflow = UNDERFLOW.fullmatch(text)
    if key in HORIZON_PER_RATE and underflow and kind in KNOWN_DEFECTS["end-of-span-rounding"]:
        # the failing step must be the remainder up to the window's end
        h, t = float(underflow[1]), float(underflow[2])
        horizon = HORIZON_PER_RATE[key] / row.get("rate", math.nan)
        if h < 1e-14 * horizon and _rel(t, horizon) <= 1e-5:
            return "end-of-span-rounding"
    return None


def _check_row_errors(kind: str, row: dict, negative_root: bool, where: str) -> list:
    """Every ``*_error`` of a sweep row: a known defect in its exact form,
    else a failure."""
    found = []
    for key, text in sorted(row.items()):
        if key == "error" or key.endswith("_error"):
            defect = _known_defect(kind, row, key, text, negative_root)
            found.append(("defect", f"{defect}: {where} {key}: {text}") if defect
                         else ("failed", f"{where} {key}: {text}"))
    return found


def _check_curvature_1d(kind: str, T0: float, T_star: float, cls: str, where: str) -> list:
    """A one-state destruction model decelerates from above T* (T'' = f'(T) T'
    > 0 since f' < 0 there) and only rises from below it."""
    if cls not in CURVATURE_CLASSES:
        return [("wrong", f"{where}: unknown curvature class {cls!r}")]
    if kind == "coupled-agent" or abs(T0 - T_star) <= 1e-3 * T_star:
        return []
    expected = "decelerating-decline" if T0 > T_star else "non-monotonic"
    if cls != expected:
        return [("wrong", f"{where}: curvature {cls}, expected {expected}")]
    return []


def _check_lowers_and_hastens(rows):
    """Every leg lowers T*; every leg but logistic-y-lowered also hastens.
    That one leg's t_eps(0.01) grows as y falls: the paper's red result."""
    legs = {}
    for r in rows:
        legs.setdefault(r["leg"], []).append(r)
    found = []
    if sorted(legs) != sorted(["linear", "power-n2", "power-n3",
                               "logistic-gamma-raised", "logistic-y-lowered"]):
        found.append(("wrong", f"legs {sorted(legs)}"))
    for leg, lr in legs.items():
        lr.sort(key=lambda r: r["strength"])
        hastens = _strictly_decreasing([r["t_eps"] for r in lr])
        if not _strictly_decreasing([r["T_star"] for r in lr]):
            found.append(("wrong", f"{leg}: T* not strictly decreasing"))
        if hastens != (leg != "logistic-y-lowered"):
            found.append(("wrong", f"{leg}: t_eps ordering {'holds' if hastens else 'fails'}"))
        for r in lr:
            s = r["strength"]
            if leg == "linear":
                p, kind = {"a": 1.0, "y": 1.0, "gamma": s}, "linear-destruction"
                if _rel(r["t_eps"], reference.t_eps_linear(kind, p, 0.01)) > 0.01:
                    found.append(("wrong", f"linear[s={s}]: t_eps {r['t_eps']!r}"))
            elif leg.startswith("power-n"):
                p, kind = {"a": 1.0, "y": 1.0, "gamma": s, "n": float(leg[-1])}, "power-destruction"
            elif leg == "logistic-gamma-raised":
                p, kind = {"a": 1.0, "y": 0.0, "gamma": 1.0 + s}, "logistic-source"
            else:
                p, kind = {"a": 1.0, "y": 1.0 - s, "gamma": 1.0}, "logistic-proliferation"
            found += _check_steady_T(kind, p, r["T_star"], f"{leg}[s={s}]")
    return found


def _check_only_decelerates(rows):
    bad = [r["point"] for r in rows if r.get("class") != "decelerating-decline"]
    if len(rows) != 32 or bad:
        return [("wrong", f"{len(rows)} points, not decelerating: {bad}")]
    return []


def _check_needs_feedback(rows):
    mech = {r["mechanism"]: r["class"] for r in rows if "mechanism" in r}
    summary = [r for r in rows if "accelerating_among_them" in r]
    if sorted(mech) != sorted(inputs.MECHANISMS) or set(mech.values()) != {"accelerating-decline"}:
        return [("wrong", f"mechanism classes {mech}")]
    if len(summary) != 1 or summary[0]["accelerating_among_them"]:
        return [("wrong", f"destruction-only summary {summary}")]
    return []


def _check_qss_reduction(rows):
    if len(rows) != 3 or any(r["relative_gap"] > 0.01 for r in rows):
        return [("wrong", f"reduction gaps {[r['relative_gap'] for r in rows]}")]
    return []


def _check_mechanism_conditions(rows):
    bad = [r["mechanism"] for r in rows
           if not (r["indirect_destruction"] and r["slow_ok"] and r["removal_monotone"]
                   and r["plateau"] >= r["plateau_required"])]
    if len(rows) != 4 or bad:
        return [("wrong", f"{len(rows)} mechanisms, conditions violated: {bad}")]
    return []


# claim id -> (expected verdict, check of the report's grid rows)
CLAIM_CHECKS = {
    "destruction-lowers-and-hastens": ("fail", _check_lowers_and_hastens),
    "destruction-only-decelerates": ("pass", _check_only_decelerates),
    "aids-curve-needs-feedback": ("pass", _check_needs_feedback),
    "qss-reduction-valid": ("pass", _check_qss_reduction),
    "mechanism-satisfies-conditions": ("pass", _check_mechanism_conditions),
}


class Claims:
    """Every registered claim through ``run_claim``, each from a cold
    mechanism cache as one ``qsslab check`` process sees it.  Its set-up is
    the import alone: the claims build their own models."""

    def __init__(self, ops, workdir):
        missing = [op["claim"] for op in ops if op["claim"] not in claims.CLAIMS]
        if missing:
            raise SystemExit(f"perfbench: claims not registered: {missing}")
        self.reports = {}

    def run(self, i, op):
        # run_claim keeps mechanism trajectories in this cache across calls;
        # a fresh `qsslab check` process starts without them.
        cache = getattr(claims, "_MECH_CACHE", None)
        if cache is not None:
            cache.clear()
        return claims.run_claim(op["claim"])

    def check(self, i, op, report):
        cid = op["claim"]
        expected, check_rows = CLAIM_CHECKS[cid]
        found = []
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        if self.reports.setdefault(cid, text) != text:
            found.append(("wrong", f"{cid}: report differs from the previous pass"))
        if report.verdict != expected:
            found.append(("wrong", f"{cid}: verdict {report.verdict}, expected {expected}"))
        return found + check_rows(report.grid)


class DestructionSweep:
    """Two-point ``sweep()`` calls (the smallest grid a SweepSpec accepts)
    over the six analytic kinds with metrics T*, t_eps, rate, curvature."""

    def __init__(self, ops, workdir):
        self.specs = [
            claims.SweepSpec(
                model_kind=op["kind"], base_params=ParameterSet(op["params"]),
                sweep_param=op["sweep_param"], grid=tuple(op["grid"]),
                initial_state=_state(op["init"]), metrics=inputs.SWEEP_METRICS,
            )
            for op in ops
        ]

    def run(self, i, op):
        return claims.sweep(self.specs[i])

    def check(self, i, op, rows):
        kind, name = op["kind"], op["sweep_param"]
        if [r.get(name) for r in rows] != op["grid"]:
            return [("wrong", f"{kind}: rows {[r.get(name) for r in rows]} for grid {op['grid']}")]
        found = []
        for row in rows:
            p = {**op["params"], name: row[name]}
            where = f"{kind}[{name}={row[name]:.6g}]"
            steady = _check_steady_T(kind, p, row["T*"], where) if "T*" in row else []
            negative_root = any(k == "defect" for k, _ in steady)
            found += steady + _check_row_errors(kind, row, negative_root, where)
            if "t_eps" in row and kind in reference.LINEAR_KINDS:
                expected = reference.t_eps_linear(kind, p, 0.01)
                if _rel(row["t_eps"], expected) > 0.01:
                    found.append(("wrong", f"{where}: t_eps {row['t_eps']!r}, exact {expected!r}"))
            if "rate" in row and kind in reference.LINEAR_KINDS + reference.LOGISTIC_KINDS:
                expected = reference.rate(kind, p)
                if _rel(row["rate"], expected) > 1e-6:
                    found.append(("wrong", f"{where}: rate {row['rate']!r}, exact {expected!r}"))
            if "curvature" in row:
                found += _check_curvature_1d(kind, op["init"]["T"], reference.steady_T(kind, p),
                                             row["curvature"], where)
        return found


class QssmPipeline:
    """One ``.qssm`` source through in-process ``run_cli``: ``simulate --out
    csv``, ``classify --traj csv``, then ``steady`` from the initial state;
    each command parses the source again.  The mechanism renderings skip
    ``steady``: a collapse mechanism drifts through its plateau and has no
    fixed point near its chronic state for Newton to find."""

    def __init__(self, ops, workdir):
        models = resources.files(qsslab) / "models"
        self.argvs = []
        self.outputs = []
        for i, op in enumerate(ops):
            mechanism = op["model"] in inputs.MECHANISMS
            if mechanism:
                source = os.path.join(inputs.QSSM_DIR, op["model"] + ".qssm")
            else:
                source = str(models / (op["model"] + ".qssm"))
            traj, verdict, steady = (os.path.join(workdir, f"{i}.{ext}")
                                     for ext in ("csv", "classify.json", "steady.json"))
            params = [f"--param={k}={v!r}" for k, v in op["params"].items()]
            init = [f"{k}={v!r}" for k, v in op["init"].items()]
            argvs = [
                ["simulate", "--model", source, *params, *(f"--init={s}" for s in init),
                 "--t-end", repr(op["t_end"]), "--out", traj],
                ["classify", "--traj", traj, "--component", "T", "--out", verdict],
            ]
            if not mechanism:
                argvs.append(["steady", "--model", source, *params,
                              *(f"--guess={s}" for s in init), "--out", steady])
            self.argvs.append(argvs)
            self.outputs.append((traj, verdict, steady))
        self.references = {}

    def run(self, i, op):
        codes = []
        for argv in self.argvs[i]:
            codes.append(cli.run_cli(argv))
            if codes[-1] != 0:
                break
        return codes

    def _reference_final(self, i, op):
        """Final state from the closed form, or from the built-in catalog
        model under the CLI's default solver settings."""
        if i not in self.references:
            kind = op["model"]
            if kind in reference.LINEAR_KINDS + reference.LOGISTIC_KINDS:
                final = {"T": reference.trajectory_T(kind, op["params"], op["init"]["T"], op["t_end"])}
            else:
                params = ParameterSet(op["params"])
                traj = integrate_adaptive(catalog.make_model(kind, params), params,
                                          _state(op["init"]), 0.0, op["t_end"])
                final = traj.final_state.as_dict()
            self.references[i] = final
        return self.references[i]

    def check(self, i, op, codes):
        kind = op["model"]
        if codes != [0] * len(self.argvs[i]):
            return [("failed", f"{kind}: exit codes {codes}")]
        traj, verdict, steady = self.outputs[i]
        with open(traj, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        found = []
        header, last = table[0], [float(c) for c in table[-1]]
        if header != ["t", *op["init"]] or _rel(last[0], op["t_end"]) > 1e-12:
            found.append(("wrong", f"{kind}: CSV header {header} or final time {last[0]!r}"))
        expected = self._reference_final(i, op)
        for name, value in zip(header[1:], last[1:]):
            ref = expected.get(name, math.nan)
            if not abs(value - ref) <= 1e-6 * abs(ref) + 1e-10:
                found.append(("wrong", f"{kind}: final {name} = {value!r}, reference {ref!r}"))
        with open(verdict, encoding="utf-8") as fh:
            cls = json.load(fh)["class"]
        if kind in inputs.MECHANISMS:
            if cls not in CURVATURE_CLASSES:
                found.append(("wrong", f"{kind}: curvature class {cls!r}"))
            return found
        with open(steady, encoding="utf-8") as fh:
            T_found = json.load(fh)["values"]["T"]
        T_star = reference.steady_T(kind, op["params"])
        return (found + _check_curvature_1d(kind, op["init"]["T"], T_star, cls, kind)
                + _check_steady_T(kind, op["params"], T_found, kind))


WORKLOADS = {
    "claims": Claims,
    "destruction-sweep": DestructionSweep,
    "qssm-pipeline": QssmPipeline,
}
