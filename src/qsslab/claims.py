"""Named, machine-checkable experiments over parameter grids.

Five claims are registered:

``destruction-lowers-and-hastens``
    Across every destruction variant, raising the destruction strength
    lowers the steady state AND shortens the time to reach it.  The swept
    legs: linear destruction, superlinear destruction (n = 2, 3), homeostatic
    model with the quadratic brake raised, homeostatic model with the net
    proliferation lowered.

``destruction-only-decelerates``
    Every destruction-only trajectory started above its steady state
    classifies as decelerating-decline: no parameter choice produces an
    accelerating fall.

``aids-curve-needs-feedback``
    The four slow-feedback mechanisms produce an accelerating-decline
    verdict on their collapse window, while every destruction-only grid
    point classifies and none accelerates.

``qss-reduction-valid``
    With a fast destroyer agent (delta_D/y in {100, 1000}) the full
    two-compartment trajectory and its quasi-steady-state reduction agree
    within 1% of the T range in sup-norm on [0, 10/y].

``mechanism-satisfies-conditions``
    Each mechanism destroys T only indirectly, its slow rates are at most
    y/100, its latent plateau spans at least 50/y, and its per-capita
    removal rate never decreases while T falls on the collapse window.

The two mechanism claims share one run per mechanism
(``mechanism_trajectory``): the stiff Radau IIA(5) kernel at the claim
settings, stored as its collocation polynomial sampled at
``MECHANISM_SAMPLES`` (4,097) uniform times over the horizon.  Collapse
windows, curvature, removal trends, plateaus and ``check --plot`` read that
grid.  The destruction-only and reduction claims step with Dormand-Prince,
and curvature is classified on the run's own points.  The reduction claim
evaluates the reduced run at the full run's times through the reduced
run's continuous extension (``integrate.sampled_dopri_run``).

A claim point that fails numerically, in any claim, is recorded in its row
with its error and fails its claim (``_point``).  The destruction claims
find every steady state, the ordering claim's T0 included, as the
numerical root from the kind's default state.  No claim and no ``sweep``
metric reads a closed form; the closed forms are the tests' oracle.

Every claim is a deterministic predicate: re-running with identical
configuration reproduces the report bit for bit (reports carry no
timestamps).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import classify_curvature, find_steady_state, qss_reduce, time_to_epsilon
from .catalog import (
    MechanismKind,
    default_horizon,
    default_params,
    default_state,
    make_base_model,
    make_mechanism_model,
    make_model,
)
from .core import ModelSystem, ParameterSet, StateVector, check_params
from .errors import (
    NUMERICAL_ERRORS,
    InsufficientDataError,
    ParameterError,
    QsslabError,
    UsageError,
)
from .integrate import Trajectory, integrate_adaptive, sampled_dopri_run, sampled_radau_run

STRENGTH_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
EPSILON = 0.01
_REL_TOL = 1e-9  # strictness tolerance for "strictly decreasing"
_SOLVER = {"rtol": 1e-8, "atol": 1e-12}
# What a claim point records in its row and fails its claim with (``_point``);
# bad input (a usage or validation error) propagates
_POINT_ERRORS = (*NUMERICAL_ERRORS, InsufficientDataError)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep request for the ``sweep`` operation.  The swept
    model is ``model`` when given (a compiled ``.qssm`` file; ``model_kind``
    then only labels it, and ``initial_state`` is required), else the
    catalog kind ``model_kind``."""

    model_kind: str
    base_params: ParameterSet
    sweep_param: str
    grid: tuple[float, ...]
    initial_state: StateVector | None = None
    metrics: tuple[str, ...] = ("T*", "t_eps")
    model: ModelSystem | None = None

    def __post_init__(self):
        grid = tuple(float(v) for v in self.grid)
        if len(grid) < 2:
            raise UsageError("sweep grid needs at least 2 values")
        if any(not math.isfinite(v) for v in grid):
            raise UsageError("sweep grid values must be finite")
        if list(grid) != sorted(grid):
            raise UsageError("sweep grid values must be sorted ascending")
        object.__setattr__(self, "grid", grid)
        if self.model is not None and self.initial_state is None:
            raise UsageError("a sweep of a given model needs its initial_state")
        known = {"T*", "t_eps", "rate", "curvature"}
        bad = [m for m in self.metrics if m not in known]
        if bad:
            raise UsageError(f"unknown metrics {bad}; known: {sorted(known)}")


@dataclass(frozen=True)
class ClaimReport:
    """Verdict plus per-grid-point evidence for one registered claim."""

    claim_id: str
    verdict: str  # "pass" | "fail"
    grid: list = field(default_factory=list)
    narrative: str = ""
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "claim_id": self.claim_id,
            "verdict": self.verdict,
            "narrative": self.narrative,
            "grid": self.grid,
            "provenance": dict(sorted(self.provenance.items())),
        }


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

def collapse_window(trajectory: Trajectory) -> tuple[float, float]:
    """The collapse window of a falling trajectory's T: from the time the
    fall reaches 10% of its total range to the moment of peak decline rate.

    For a decline whose rate only ever decreases (every destruction-only
    model) the peak rate sits at the start, so this window is degenerate;
    a non-degenerate window is itself a signature of rate build-up.
    """
    values = trajectory.component("T")
    times = trajectory.times
    hi = float(values.max())
    lo = float(values.min())
    span = hi - lo
    below = np.nonzero(values < hi - 0.1 * span)[0]
    ia = max(int(below[0]) - 1, 0) if below.size else 0
    slopes = np.gradient(values, times)
    ib = ia + int(np.argmin(slopes[ia:]))
    return float(times[ia]), float(times[ib])


def per_capita_removal(model: ModelSystem, params: ParameterSet,
                       times, states) -> np.ndarray:
    """r = (a - y*T - dT/dt) / T at each of ``times`` with the matching row
    of ``states``: the total removal pressure on T beyond baseline death,
    per cell.  dT/dt is evaluated exactly from the model right-hand side."""
    p = model.resolve_params(params)
    a, y = p["a"], p["y"]
    i = model.state_names.index("T")
    rhs = model.bind(p)
    times = np.asarray(times, dtype=float).tolist()
    states = np.asarray(states, dtype=float).tolist()
    return np.array([(a - y * state[i] - rhs(t, state)[i]) / state[i]
                     for t, state in zip(times, states)])


def _with_overrides(params: ParameterSet, overrides: dict | None) -> ParameterSet:
    """``params`` with the overrides whose names it declares."""
    applicable = {k: v for k, v in (overrides or {}).items() if k in params}
    return params.with_updates(**applicable) if applicable else params


_MECH_CACHE: dict = {}  # mechanism -> (its parameters' items, its run at them)
# Uniform times at which a mechanism run's collocation polynomial is stored
MECHANISM_SAMPLES = 4097


def mechanism_trajectory(kind: MechanismKind | str,
                         overrides: dict | None = None) -> tuple[ModelSystem, ParameterSet, Trajectory]:
    """Simulate a mechanism from its chronic default state over its default
    horizon with the Radau IIA(5) kernel, stored as its collocation
    polynomial at ``MECHANISM_SAMPLES`` uniform times (cached: the two
    mechanism claims and ``check --plot`` share these runs).  The cache
    keeps one run per mechanism, that of the latest parameters, so that a
    scan over parameter sets holds no run but the current one."""
    kind = MechanismKind(str(kind)) if not isinstance(kind, MechanismKind) else kind
    params = _with_overrides(default_params(kind), overrides)
    key = tuple(sorted(params.items()))
    held = _MECH_CACHE.get(kind.value)
    if held is None or held[0] != key:
        _MECH_CACHE.pop(kind.value, None)  # freed before the next run is made
        model = make_mechanism_model(kind, params)
        times = np.linspace(0.0, default_horizon(kind), MECHANISM_SAMPLES)
        traj = sampled_radau_run(model, params, default_state(kind), times, **_SOLVER)
        held = _MECH_CACHE[kind.value] = (key, (model, params, traj))
    return held[1]


def _point(rows, failures, name, label, evaluate) -> dict:
    """Append and return ``evaluate()``'s row, or ``label`` with the error it fails with."""
    try:
        row = evaluate()
    except _POINT_ERRORS as exc:
        row = {**label, "error": str(exc)}
        failures.append(f"{name} -> error: {exc}")
    rows.append(row)
    return row


def _verdict(claim_id, rows, failures, narrative, provenance) -> ClaimReport:
    """The report of a claim that passes if nothing failed, ``_SOLVER`` in its provenance."""
    return ClaimReport(claim_id, "fail" if failures else "pass", rows, narrative,
                       {**provenance, **_SOLVER})


def _strictly_decreasing(values) -> bool:
    return all(prev - cur > _REL_TOL * max(abs(prev), abs(cur), 1e-300)
               for prev, cur in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Destruction-variant legs (shared by the ordering and curvature claims)
# ---------------------------------------------------------------------------

def _destruction_legs():
    """Families of models indexed by a destruction strength s >= 0.

    Returns (leg name, kind, params(s)) tuples.
    """
    return (
        ("linear", "linear-destruction",
         lambda s: ParameterSet(a=1.0, y=1.0, gamma=s)),
        ("power-n2", "power-destruction",
         lambda s: ParameterSet(a=1.0, y=1.0, gamma=s, n=2.0)),
        ("power-n3", "power-destruction",
         lambda s: ParameterSet(a=1.0, y=1.0, gamma=s, n=3.0)),
        ("logistic-gamma-raised", "logistic-source",
         lambda s: ParameterSet(a=1.0, y=0.0, gamma=1.0 + s)),
        ("logistic-y-lowered", "logistic-proliferation",
         lambda s: ParameterSet(a=1.0, y=1.0 - s, gamma=1.0)),
    )


def _baseline_T0(kind: str, params: ParameterSet) -> float:
    """T0 = 2x the leg's baseline (s = 0) steady state, found from the
    kind's default state."""
    report = find_steady_state(make_base_model(kind, params), params, default_state(kind))
    T0 = 2.0 * float(report.values.values[0])
    # T0 - T*(0) = T*(0): an approach no run resolves below its atol
    if T0 > 2.0 * _SOLVER["atol"]:
        return T0
    raise InsufficientDataError(f"steady state is 0 (T* = {0.5 * T0:g}, within atol), so T0 = 0 "
                                "and there is nothing to order")


def _ordering_narrative(failures, broken) -> str:
    """Narrative for the ordering claim, explaining only what failed.

    ``broken`` holds one (leg, quantity) pair per failed ordering, with
    quantity ``"T*"`` or ``"t_eps"``, and (leg, ``"error"``) for a leg
    with a point that could not be evaluated.
    """
    if not failures:
        return (
            "Raising the destruction strength lowered the steady state and shortened "
            f"the approach time (epsilon = {EPSILON:g}) across every variant."
        )
    steady_held = all(quantity == "t_eps" for _leg, quantity in broken)
    slow_tail = (("logistic-y-lowered", "t_eps") in broken
                 and ("logistic-y-lowered", "T*") not in broken)
    tail = (
        "the relative approach time can grow when the net proliferation rate is "
        "lowered, because the terminal relaxation rate sqrt(y^2 + 4*a*gamma) "
        "shrinks as y falls toward zero; only the late, near-steady-state stage "
        "is slower."
    )
    narrative = "Ordering violated: " + " | ".join(failures) + "."
    if steady_held:
        narrative += (" The steady state always drops with destruction strength"
                      + (", but " + tail if slow_tail else "."))
    elif slow_tail:
        narrative += " On logistic-y-lowered, " + tail
    return narrative


def _claim_lowers_and_hastens(overrides) -> ClaimReport:
    def evaluate(leg, kind, params_of, s, state0):
        params = _with_overrides(params_of(s), overrides)
        model = make_base_model(kind, params)
        report = find_steady_state(model, params, state0)
        return {
            "leg": leg, "model": kind, "strength": s,
            "T_star": float(report.values.values[0]),
            "t_eps": time_to_epsilon(model, params, state0, EPSILON, report),
        }
    rows = []
    failures = []
    broken = set()
    for leg, kind, params_of in _destruction_legs():
        # a baseline writes its own row, and only when it fails
        baseline = _point([], failures, f"{leg}: baseline", {}, lambda: {
            "T0": _baseline_T0(kind, _with_overrides(params_of(0.0), overrides))})
        if "error" in baseline:
            rows.append({"leg": leg, "strength": 0.0, "error": f"baseline: {baseline['error']}"})
            broken.add((leg, "error"))
            continue
        state0 = StateVector(("T",), [baseline["T0"]])
        points = [_point(rows, failures, f"{leg}[s={s:g}]", {"leg": leg, "strength": s},
                         lambda: evaluate(leg, kind, params_of, s, state0)) for s in STRENGTH_GRID]
        if any("error" in row for row in points):  # the orderings need every point
            broken.add((leg, "error"))
            continue
        for quantity, key in (("T*", "T_star"), ("t_eps", "t_eps")):
            values = [row[key] for row in points]
            if not _strictly_decreasing(values):
                broken.add((leg, quantity))
                failures.append(f"{leg}: {quantity} not strictly decreasing: {values}")
    return _verdict(
        "destruction-lowers-and-hastens", rows, failures,
        _ordering_narrative(failures, broken),
        {"epsilon": EPSILON, "grid": list(STRENGTH_GRID), "protocol":
         "T0 = 2x baseline steady state per leg"},
    )


def _claim_destruction_decelerates(overrides) -> ClaimReport:
    def evaluate(label, kind, params):
        model = make_base_model(kind, params)
        ss = find_steady_state(model, params, default_state(kind))
        state0 = StateVector(model.state_names, 2.0 * ss.values.values)
        horizon = 8.0 / ss.relaxation_rate
        traj = integrate_adaptive(model, params, state0, 0.0, horizon, **_SOLVER)
        verdict = classify_curvature(traj, "T")
        if verdict.curvature_class != "decelerating-decline":
            failures.append(f"{label} -> {verdict.curvature_class}")
        return {
            "point": label, "T_star": float(ss.values.values[0]),
            "class": verdict.curvature_class,
            "evidence": verdict.evidence,
        }
    rows = []
    failures = []
    points = [(f"{leg}[s={s:g}]", kind, params_of(s))
              for leg, kind, params_of in _destruction_legs() for s in STRENGTH_GRID]
    points += [(f"coupled-agent[x/delta_D={g_eff:g}]", "coupled-agent",
                ParameterSet(a=1.0, y=1.0, x=10.0 * g_eff, delta_D=10.0))
               for g_eff in (0.25, 1.0)]
    for label, kind, params in points:
        # every point takes the overrides, and keeps the label of its defaults
        params = _with_overrides(params, overrides)
        _point(rows, failures, label, {"point": label}, lambda: evaluate(label, kind, params))
    narrative = (
        f"All {len(rows)} destruction-only trajectories started above their "
        "steady state flatten as they fall (decelerating-decline); none accelerate."
        if not failures else
        "Unexpected curvature: " + " | ".join(failures)
    )
    return _verdict(
        "destruction-only-decelerates", rows, failures, narrative,
        {"combinations": len(rows), "start": "T0 = 2x steady state"},
    )


def _claim_needs_feedback(overrides) -> ClaimReport:
    def evaluate(kind):
        _, _, traj = mechanism_trajectory(kind, overrides)
        window = collapse_window(traj)
        verdict = classify_curvature(traj, "T", window=window)
        if verdict.curvature_class != "accelerating-decline":
            failures.append(f"{kind.value} -> {verdict.curvature_class}")
        return {
            "mechanism": kind.value, "collapse_window": list(window),
            "class": verdict.curvature_class, "evidence": verdict.evidence,
        }
    rows = []
    failures = []
    for kind in MechanismKind:
        _point(rows, failures, kind.value, {"mechanism": kind.value}, lambda: evaluate(kind))
    base = _claim_destruction_decelerates(overrides)
    accel_in_base = [
        r["point"] for r in base.grid if r.get("class") == "accelerating-decline"
    ]
    errored = [r for r in base.grid if "error" in r]
    summary = {
        "destruction_only_combinations": len(base.grid),
        "accelerating_among_them": accel_in_base,
    }
    if errored:  # an unclassified point is no evidence of deceleration
        summary["errored_among_them"] = [r["point"] for r in errored]
    rows.append(summary)
    if accel_in_base:
        failures.append(f"destruction-only points accelerated: {accel_in_base}")
    failures.extend(f"destruction-only point {r['point']} -> error: {r['error']}"
                    for r in errored)
    narrative = (
        "Only the slow positive-feedback mechanisms reproduce the accelerating "
        "long-term fall: every mechanism collapse window classifies "
        "accelerating-decline and no destruction-only trajectory does."
        if not failures else
        "Feedback signature not reproduced: " + " | ".join(failures)
    )
    return _verdict(
        "aids-curve-needs-feedback", rows, failures, narrative,
        {"window": "10% of fall to peak decline rate"},
    )


def _claim_qss_reduction(overrides) -> ClaimReport:
    def evaluate(case, params):
        model = make_base_model("coupled-agent", params)
        g_eff = params["x"] / params["delta_D"]
        T0 = 2.0
        state0 = StateVector(("T", "D"), [T0, g_eff * T0])
        full = integrate_adaptive(model, params, state0, 0.0, 10.0, **_SOLVER)
        reduced_model, reduced_params = qss_reduce(model, params)
        red = sampled_dopri_run(reduced_model, reduced_params, StateVector(("T",), [T0]),
                                full.times, **_SOLVER)
        T_full = full.component("T")
        t_range = float(T_full.max() - T_full.min())
        gap = float(np.max(np.abs(T_full - red.component("T"))))
        rel = gap / t_range if t_range > 0 else float("inf")
        if rel > 0.01:
            failures.append(f"{case}: gap {rel:.3%}")
        return {
            "delta_D": params["delta_D"], "x": params["x"], "gamma_eff": g_eff,
            "sup_gap": gap, "T_range": t_range, "relative_gap": rel,
        }
    rows = []
    failures = []
    cases = [(100.0, 100.0), (1000.0, 1000.0), (100.0, 1.0)]
    for delta_D, x in cases:
        params = _with_overrides(ParameterSet(a=1.0, y=1.0, x=x, delta_D=delta_D), overrides)
        case = f"delta_D={delta_D:g}, x={x:g}"  # by its defaults: distinct under an override
        _point(rows, failures, case, {"delta_D": params["delta_D"], "x": params["x"]},
               lambda: evaluate(case, params))
    narrative = (
        "With a fast destroyer agent the full two-compartment trajectory and its "
        "quasi-steady-state reduction agree within 1% of the T range."
        if not failures else
        "Reduction gap too large: " + " | ".join(failures)
    )
    return _verdict(
        "qss-reduction-valid", rows, failures, narrative,
        {"horizon": 10.0, "tolerance": "1% of T range, sup-norm"},
    )


def _claim_mechanism_conditions(overrides) -> ClaimReport:
    def evaluate(kind):
        model, params, traj = mechanism_trajectory(kind, overrides)
        p = model.resolve_params(params)
        y = p["y"]

        # condition 1: destruction is indirect -- at fixed compartment levels
        # the per-capita removal rate does not depend on T
        chronic = default_state(kind).values
        halved = chronic.copy()
        halved[model.state_names.index("T")] *= 0.5
        removal, removal_h = per_capita_removal(model, params, (0.0, 0.0), (chronic, halved))
        indirect = abs(removal - removal_h) <= 1e-9 * max(abs(removal), 1e-12)

        # condition 2: designated slow rates at most y/100
        slow_values = {name: p[name] for name in model.slow_rate_params}
        slow_ok = all(v <= y / 100.0 + 1e-15 for v in slow_values.values())

        # latent plateau: time until T first drops below 90% of its maximum
        T = traj.component("T")
        below = np.nonzero(T < 0.9 * T.max())[0]
        plateau = float(traj.times[below[0]]) if below.size else float(traj.times[-1])
        plateau_ok = plateau >= 50.0 / y

        # condition 3: per-capita removal non-decreasing while T falls
        # on the collapse window
        t_a, t_b = collapse_window(traj)
        inside = (traj.times >= t_a) & (traj.times <= t_b)
        r = per_capita_removal(model, params, traj.times[inside], traj.states[inside])
        drops = np.nonzero(
            np.diff(r) < -1e-6 * np.maximum(np.abs(r[:-1]), 1e-12)
        )[0]
        removal_ok = drops.size == 0

        for ok, what in ((indirect, "indirect destruction"), (slow_ok, "slow rates"),
                         (plateau_ok, "latent plateau"), (removal_ok, "removal trend")):
            if not ok:
                failures.append(f"{kind.value}: {what}")
        return {
            "mechanism": kind.value,
            "indirect_destruction": bool(indirect),
            "slow_rates": slow_values, "slow_ok": bool(slow_ok),
            "plateau": plateau, "plateau_required": 50.0 / y,
            "removal_monotone": bool(removal_ok),
            "collapse_window": [t_a, t_b],
        }
    rows = []
    failures = []
    for kind in MechanismKind:
        _point(rows, failures, kind.value, {"mechanism": kind.value}, lambda: evaluate(kind))
    narrative = (
        "Every mechanism destroys T only through other compartments, runs its "
        "slow arm at no more than y/100, holds a latent plateau of at least 50/y, "
        "and its per-capita removal rate never drops while T falls."
        if not failures else
        "Conditions violated: " + " | ".join(failures)
    )
    return _verdict(
        "mechanism-satisfies-conditions", rows, failures, narrative,
        {"plateau_rule": "first drop below 90% of max"},
    )


CLAIMS = {
    "destruction-lowers-and-hastens": _claim_lowers_and_hastens,
    "destruction-only-decelerates": _claim_destruction_decelerates,
    "aids-curve-needs-feedback": _claim_needs_feedback,
    "qss-reduction-valid": _claim_qss_reduction,
    "mechanism-satisfies-conditions": _claim_mechanism_conditions,
}


def run_claim(claim_id: str, overrides: dict | None = None) -> ClaimReport:
    """Run one registered claim; ``overrides`` replaces matching parameters
    wherever a grid model's schema declares them (used to probe falsified
    configurations)."""
    try:
        protocol = CLAIMS[claim_id]
    except KeyError:
        known = ", ".join(sorted(CLAIMS))
        raise UsageError(f"unknown claim {claim_id!r}; registered claims: {known}") from None
    return protocol(overrides)


def sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the requested metrics at every grid value of one parameter.

    Rows are ordered by grid value, each from one steady state.  A failure
    is recorded in the row (``<metric>_error``, or ``error`` for invalid
    parameters) rather than aborting the sweep.  A parameter, swept or
    given, that the model does not declare raises ``UsageError`` first."""
    model = spec.model or make_model(spec.model_kind)
    declared = [p.name for p in model.param_schema]
    undeclared = [n for n in (spec.sweep_param, *spec.base_params) if n not in declared]
    if undeclared:
        raise UsageError(
            f"undeclared parameter {undeclared[0]!r} for {model.name} "
            f"(parameters: {', '.join(declared)})"
        )
    state0 = spec.initial_state or default_state(spec.model_kind)
    rows = []
    for value in spec.grid:
        params = spec.base_params.with_updates(**{spec.sweep_param: value})
        row: dict = {spec.sweep_param: value}
        try:
            ss = find_steady_state(check_params(model, params), params, state0)
        except ParameterError as exc:
            row["error"] = str(exc)
        except QsslabError as exc:  # every metric stands on the steady state
            row.update((f"{metric}_error", str(exc)) for metric in spec.metrics)
        else:
            for metric in spec.metrics:
                try:
                    if metric == "T*":
                        row[metric] = float(ss.values.values[0])
                    elif metric == "rate":
                        row[metric] = ss.relaxation_rate
                    elif metric == "t_eps":
                        row[metric] = time_to_epsilon(model, params, state0, EPSILON, ss)
                    elif metric == "curvature":
                        horizon = 8.0 / ss.relaxation_rate
                        traj = integrate_adaptive(
                            model, params, state0, 0.0, horizon, **_SOLVER
                        )
                        row[metric] = classify_curvature(traj, model.state_names[0]).curvature_class
                except QsslabError as exc:
                    row[f"{metric}_error"] = str(exc)
        rows.append(row)
    return rows
