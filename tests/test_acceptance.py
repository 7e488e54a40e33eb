"""Acceptance criteria, one test per criterion.

Each test prints one ``ACCEPTANCE n (<name>): PASS`` line when its criterion
holds (run pytest with ``-s`` to see the lines).  Criterion 4 checks the
evidence of the ``destruction-lowers-and-hastens`` claim against the closed
forms: the steady state drops on every leg, the approach is faster on four
legs, and the slow tail on ``logistic-y-lowered`` matches the closed form.
There the terminal relaxation rate sqrt(y^2 + 4*a*gamma) shrinks as y falls,
so t_eps rises and the claim's verdict is, correctly, fail.
"""
import json
import math
import random

import numpy as np

import qsslab as q
from qsslab.claims import run_claim
from qsslab.cli import run_cli
from qsslab.dsl import parse_model
from qsslab.errors import ParseError, SemanticError

import closedform as cf
from test_dsl import CATALOG_FILES, MALFORMED, read_model_text


def _report(number, name, failures=()):
    failures = list(failures)
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"criterion {number} ({name}): " + " | ".join(failures)


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def test_criterion_1_integrator_vs_closed_form():
    failures = []
    # adaptive integration of the two linear models vs their exact solutions
    for gamma in (0.0, 1.0):
        model = q.make_base_model("linear-destruction")
        params = q.ParameterSet(a=1, y=1, gamma=gamma)
        traj = q.integrate_adaptive(model, params, q.StateVector(("T",), [0.0]),
                                    0.0, 10.0, rtol=1e-10, atol=1e-13)
        worst = max(
            abs(T - cf.linear_destruction_solution(1, 1, gamma, 0.0, t))
            for t, T in zip(traj.times, traj.component("T"))
        )
        if worst > 1e-8:
            failures.append(f"adaptive error {worst:.2e} > 1e-8 at gamma={gamma:g}")
    # the adaptive run stored on dt grids: every row vs the exact solution
    model = q.make_base_model("healthy")
    params = q.ParameterSet(a=1, y=1)
    state0 = q.StateVector(("T",), [0.0])
    for dt in (0.25, 0.125, 0.01):
        traj = q.integrate_fixed(model, params, state0, 0.0, 5.0, dt)
        worst = max(abs(T - cf.linear_solution(1, 1, 0, t))
                    for t, T in zip(traj.times, traj.component("T")))
        if worst > 1e-8:
            failures.append(f"dt-grid error {worst:.2e} > 1e-8 at dt={dt:g}")
    _report(1, "integrator vs closed form", failures)


def test_criterion_2_steady_state_formulas():
    failures = []
    grid = (0.5, 1.0, 2.0)
    for a in grid:
        for y in grid:
            for gamma in grid:
                cases = {
                    "healthy": q.ParameterSet(a=a, y=y),
                    "linear-destruction": q.ParameterSet(a=a, y=y, gamma=gamma),
                    "coupled-agent": q.ParameterSet(a=a, y=y, x=gamma, delta_D=1.0),
                    "logistic-source": q.ParameterSet(a=a, y=0.0, gamma=gamma),
                    "logistic-proliferation": q.ParameterSet(a=a, y=y, gamma=gamma),
                }
                for kind, params in cases.items():
                    model = q.make_base_model(kind)
                    value = cf.steady_state_formula(kind, params)
                    values = list(value) if isinstance(value, tuple) else [value]
                    state = q.StateVector(model.state_names, values)
                    residual = float(np.max(np.abs(
                        q.eval_rhs(model, 0.0, state, params).values
                    )))
                    if residual > 1e-12:
                        failures.append(f"{kind} residual {residual:.2e} at ({a},{y},{gamma})")
                    guess = q.StateVector(model.state_names, [v * 1.5 + 0.1 for v in values])
                    found = q.find_steady_state(model, params, guess)
                    gap = float(np.max(np.abs(found.values.values - np.array(values))))
                    if gap > 1e-9:
                        failures.append(f"{kind} finder gap {gap:.2e} at ({a},{y},{gamma})")
    _report(2, "steady-state formulas", failures)


def test_criterion_3_power_approximation_gap():
    failures = []
    approx = cf.power_approx_steady(1, 1, 1, 2)
    if abs(approx - 2.0 / 3.0) > 1e-15:
        failures.append(f"first-order formula gave {approx!r}, expected 2/3")
    true_root = bisect_root(lambda T: 1 - T - T * T, 0.0, 1.0)
    if abs(true_root - (math.sqrt(5) - 1) / 2) > 1e-12:
        failures.append("bisection oracle drifted")
    gap = approx - true_root
    if abs(gap - 0.0486) > 5e-4:
        failures.append(f"approximation gap {gap:.5f} not ~ 0.0486")
    for a, y, g in [(1, 1, 1), (2, 0.5, 3), (0.3, 2, 0.1)]:
        if abs(cf.power_approx_steady(a, y, g, 1) - a / (y + g)) > 1e-15:
            failures.append(f"n=1 reduction broken at ({a},{y},{g})")
    _report(3, "first-order steady-state gap", failures)


ORDERING_LEGS = {
    "linear": ("linear-destruction", lambda s: dict(a=1.0, y=1.0, gamma=s)),
    "power-n2": ("power-destruction", lambda s: dict(a=1.0, y=1.0, gamma=s, n=2.0)),
    "power-n3": ("power-destruction", lambda s: dict(a=1.0, y=1.0, gamma=s, n=3.0)),
    "logistic-gamma-raised": ("logistic-source",
                              lambda s: dict(a=1.0, y=0.0, gamma=1.0 + s)),
    "logistic-y-lowered": ("logistic-proliferation",
                           lambda s: dict(a=1.0, y=1.0 - s, gamma=1.0)),
}


def logistic_t_eps(a, y, gamma, T0, epsilon):
    """First t with T(t) - T* = epsilon * (T0 - T*) on the exact logistic
    trajectory, for T0 above the steady state."""
    t_star = (y + math.sqrt(y * y + 4.0 * a * gamma)) / (2.0 * gamma)
    target = epsilon * (T0 - t_star)
    horizon = 50.0 / math.sqrt(y * y + 4.0 * a * gamma)
    return bisect_root(
        lambda t: cf.logistic_solution(a, y, gamma, T0, t) - t_star - target,
        0.0, horizon,
    )


def _decreasing(values):
    return all(prev > cur for prev, cur in zip(values, values[1:]))


def _rel_gap(value, exact):
    return abs(value - exact) / abs(exact)


def test_criterion_4_ordering_claim():
    report = run_claim("destruction-lowers-and-hastens")
    failures = []
    epsilon = report.provenance.get("epsilon")
    grid = report.provenance.get("grid")
    if epsilon != 0.01:
        failures.append(f"epsilon {epsilon!r} != 0.01")
    if grid != [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]:
        failures.append(f"strength grid {grid!r} != (0, 0.25, 0.5, 1, 2, 4)")
    if report.provenance.get("protocol") != "T0 = 2x baseline steady state per leg":
        failures.append(f"T0 protocol {report.provenance.get('protocol')!r}")
    legs = {}
    for row in report.grid:
        legs.setdefault(row["leg"], []).append(row)
    if set(legs) != set(ORDERING_LEGS):
        failures.append(f"legs {sorted(legs)} != {sorted(ORDERING_LEGS)}")
    for leg, rows in legs.items():
        if leg in ORDERING_LEGS and (
            [r["strength"] for r in rows] != grid
            or {r["model"] for r in rows} != {ORDERING_LEGS[leg][0]}
        ):
            failures.append(f"{leg}: strengths or model differ from the protocol")
    if failures:
        _report(4, "ordering claim evidence", failures)

    for leg, (kind, params_of) in ORDERING_LEGS.items():
        rows = legs[leg]
        t_stars = [r["T_star"] for r in rows]
        t_epss = [r["t_eps"] for r in rows]
        T0 = 2.0 * t_stars[0]
        if not _decreasing(t_stars):
            failures.append(f"{leg}: T* not strictly decreasing: {t_stars}")
        for r in rows:
            p = params_of(r["strength"])
            if kind == "power-destruction":
                residual = abs(p["a"] - p["y"] * r["T_star"] - p["gamma"] * r["T_star"] ** p["n"])
                if residual > 1e-9:
                    failures.append(f"{leg}[s={r['strength']:g}]: residual {residual:.2e}")
            else:
                exact = cf.steady_state_formula(kind, q.ParameterSet(**p))
                if _rel_gap(r["T_star"], exact) > 1e-10:
                    failures.append(f"{leg}[s={r['strength']:g}]: T* {r['T_star']!r} != {exact!r}")
            if kind == "linear-destruction":
                exact = math.log(1.0 / epsilon) / (p["y"] + p["gamma"])
            elif kind.startswith("logistic"):
                exact = logistic_t_eps(p["a"], p["y"], p["gamma"], T0, epsilon)
            else:
                continue
            if _rel_gap(r["t_eps"], exact) > 1e-6:
                failures.append(f"{leg}[s={r['strength']:g}]: t_eps {r['t_eps']!r} != {exact!r}")
        if leg != "logistic-y-lowered" and not _decreasing(t_epss):
            failures.append(f"{leg}: t_eps not strictly decreasing: {t_epss}")

    # on logistic-y-lowered the exact approach time first rises, then falls:
    # the terminal rate sqrt(y^2 + 4) shrinks while y falls from 1 to 0
    slow_tail = {
        s: logistic_t_eps(1.0, 1.0 - s, 1.0, 1.0 + math.sqrt(5.0), 0.01)
        for s in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
    }
    rising = [slow_tail[s] for s in (0.0, 0.25, 0.5, 1.0)]
    falling = [slow_tail[s] for s in (1.0, 2.0, 4.0)]
    if not _decreasing(rising[::-1]) or not _decreasing(falling):
        failures.append(f"closed-form t_eps on logistic-y-lowered: {slow_tail}")

    if report.verdict != "fail":
        failures.append(f"verdict {report.verdict!r} != 'fail'")
    if report.narrative.count("not strictly decreasing") != 1 or (
        "logistic-y-lowered: t_eps not strictly decreasing" not in report.narrative
    ):
        failures.append("ordering failures other than logistic-y-lowered t_eps: "
                        + report.narrative)
    _report(4, "steady state drops on every leg, approach faster on four legs, "
               "logistic-y-lowered slow tail matches the closed form", failures)


def test_criterion_5_impossibility_claim():
    report = run_claim("destruction-only-decelerates")
    failures = []
    if len(report.grid) < 24:
        failures.append(f"only {len(report.grid)} combinations evaluated")
    accel = [r["point"] for r in report.grid if r.get("class") == "accelerating-decline"]
    if accel:
        failures.append(f"accelerating-decline appeared at {accel}")
    bad = [r["point"] for r in report.grid if r.get("class") != "decelerating-decline"]
    if bad:
        failures.append(f"not decelerating at {bad}")
    if report.verdict != "pass":
        failures.append(report.narrative)
    _report(5, "destruction-only decelerates", failures)


def test_criterion_6_feedback_reproduction():
    failures = []
    conditions = run_claim("mechanism-satisfies-conditions")
    if conditions.verdict != "pass":
        failures.append("conditions claim: " + conditions.narrative)
    for row in conditions.grid:
        if row["plateau"] < row["plateau_required"]:
            failures.append(
                f"{row['mechanism']}: plateau {row['plateau']:.1f} < {row['plateau_required']:.1f}"
            )
        if not row["removal_monotone"]:
            failures.append(f"{row['mechanism']}: per-capita removal dropped while T fell")
    feedback = run_claim("aids-curve-needs-feedback")
    if feedback.verdict != "pass":
        failures.append("feedback claim: " + feedback.narrative)
    for row in feedback.grid:
        if "mechanism" in row and row["class"] != "accelerating-decline":
            failures.append(f"{row['mechanism']}: collapse window class {row['class']}")
    _report(6, "feedback mechanisms reproduce the observed shape", failures)


def test_criterion_7_qss_reduction():
    report = run_claim("qss-reduction-valid")
    failures = []
    for row in report.grid:
        if row["delta_D"] in (100.0, 1000.0) and row["relative_gap"] > 0.01:
            failures.append(
                f"delta_D={row['delta_D']:g}: gap {row['relative_gap']:.3%} > 1%"
            )
    if report.verdict != "pass":
        failures.append(report.narrative)
    _report(7, "quasi-steady-state reduction", failures)


def test_criterion_8_dsl_equivalence():
    failures = []
    for name in CATALOG_FILES:
        compiled = q.compile_model(parse_model(read_model_text(name)))
        builtin = q.make_model(name)
        rng = random.Random(hash(name) % (2**31))
        defaults = q.default_params(name)
        worst = 0.0
        for _ in range(100):
            values = np.array([rng.uniform(0.0, 5.0) for _ in builtin.state_names])
            params = {k: rng.uniform(0.05, 3.0) for k in defaults}
            if "n" in params:
                params["n"] = rng.uniform(1.1, 4.0)
            worst = max(worst, float(np.max(np.abs(
                compiled.rhs(0.0, values, params) - builtin.rhs(0.0, values, params)
            ))))
        if worst > 1e-12:
            failures.append(f"{name}: max |delta| = {worst:.2e}")
    if len(MALFORMED) < 10:
        failures.append("malformed corpus too small")
    for source in MALFORMED:
        try:
            parse_model(source)
            failures.append(f"malformed input accepted: {source!r}")
        except ParseError as exc:
            if exc.location is None or exc.location.line < 1:
                failures.append(f"parse error without location for {source!r}")
        except SemanticError:
            pass
        except Exception as exc:  # noqa: BLE001 -- any other escape is a crash
            failures.append(f"parser crashed with {type(exc).__name__} on {source!r}")
    _report(8, "model-language equivalence and rejection", failures)


def test_criterion_9_cli_contract(tmp_path):
    failures = []
    traj = tmp_path / "traj.csv"
    code = run_cli([
        "simulate", "--model", "linear-destruction",
        "--param", "a=10", "--param", "y=1", "--param", "gamma=1",
        "--init", "T=10", "--t-end", "5", "--rtol", "1e-8", "--out", str(traj),
    ])
    if code != 0:
        failures.append(f"simulate exit {code} != 0")
    else:
        final_T = float(traj.read_text().splitlines()[-1].split(",")[1])
        if abs(final_T - (5 + 5 * math.exp(-10))) > 1e-6:
            failures.append(f"simulate endpoint {final_T!r} off by > 1e-6")
        verdict_path = tmp_path / "v.json"
        code = run_cli(["classify", "--traj", str(traj), "--component", "T",
                        "--out", str(verdict_path)])
        if code != 0:
            failures.append(f"classify exit {code} != 0")
        elif json.loads(verdict_path.read_text())["class"] != "decelerating-decline":
            failures.append("CSV round-trip misclassified")

    code = run_cli(["check", "destruction-only-decelerates"])
    if code != 0:
        failures.append(f"passing claim exited {code} != 0")
    code = run_cli(["simulate", "--model", "nosuch", "--t-end", "1",
                    "--out", str(tmp_path / "x.csv")])
    if code != 2:
        failures.append(f"unknown model exited {code} != 2")
    code = run_cli(["check", "mechanism-satisfies-conditions",
                    "--override", "delta_C=0.5"])
    if code != 1:
        failures.append(f"falsified claim exited {code} != 1")
    _report(9, "CLI contract", failures)
