import dataclasses
import json
import math

import pytest

from qsslab import ParameterSet, StateVector, claims, make_base_model, run_claim, sweep
from qsslab.catalog import MechanismKind
from qsslab.claims import SweepSpec, collapse_window, mechanism_trajectory
from qsslab.errors import NoConvergenceError, UsageError


class TestSweepSpec:
    def test_single_value_grid_rejected(self):
        with pytest.raises(UsageError):
            SweepSpec("linear-destruction", ParameterSet(a=1, y=1), "gamma", (1.0,))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(UsageError):
            SweepSpec("linear-destruction", ParameterSet(a=1, y=1), "gamma", (2.0, 1.0))

    def test_unknown_metric_rejected(self):
        # the closed forms are the tests' oracle, not sweep metrics
        for metric in ("bogus", "T*_formula", "T*_approx"):
            with pytest.raises(UsageError):
                SweepSpec("healthy", ParameterSet(a=1, y=1), "y", (1.0, 2.0),
                          metrics=(metric,))

    def test_a_given_model_needs_its_initial_state(self):
        # a file model's label is no catalog kind to take a default state from
        model = make_base_model("healthy")
        with pytest.raises(UsageError, match="initial_state"):
            SweepSpec("my.qssm", ParameterSet(a=1, y=1), "y", (1.0, 2.0), model=model)


class TestSweep:
    @pytest.mark.parametrize("model", [None, make_base_model("healthy")], ids=["kind", "model"])
    @pytest.mark.parametrize("base, name", [(dict(a=1, y=1), "gama"), (dict(a=1, gama=3), "y")],
                             ids=["swept", "given"])
    def test_undeclared_parameter_is_a_usage_error(self, model, base, name):
        spec = SweepSpec("healthy", ParameterSet(base), name, (1.0, 2.0),
                         initial_state=StateVector(("T",), [1.0]), model=model)
        with pytest.raises(UsageError, match="undeclared parameter 'gama' for healthy"):
            sweep(spec)

    def test_failures_recorded_per_row(self):
        spec = SweepSpec(
            "healthy", ParameterSet(a=1), "y", (-1.0, 1.0),
            initial_state=StateVector(("T",), [1.0]), metrics=("T*",),
        )
        rows = sweep(spec)
        assert "T*_error" in rows[0] or "error" in rows[0]
        assert rows[1]["T*"] == pytest.approx(1.0, abs=1e-9)


    def test_each_row_finds_its_steady_state_once(self, monkeypatch):
        # a = y = 0 leaves dT/dt = -gamma*T^2, whose root 0 is not hyperbolic;
        # every metric stands on that steady state and records its error,
        # but the failing search runs once per row, not once per metric
        calls = []
        original = claims.find_steady_state

        def find_steady_state(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(claims, "find_steady_state", find_steady_state)
        metrics = ("T*", "t_eps", "rate", "curvature")
        rows = sweep(SweepSpec("logistic-source", ParameterSet(a=0.0, y=0.0), "gamma",
                               (1.0, 2.0), metrics=metrics))
        assert len(calls) == 2
        for gamma, row in zip((1.0, 2.0), rows):
            error = row["T*_error"]
            assert "is not hyperbolic" in error
            assert row == {"gamma": gamma, **{f"{m}_error": error for m in metrics}}


class TestClaims:
    def test_unknown_claim(self):
        with pytest.raises(UsageError):
            run_claim("no-such-claim")

    def test_destruction_only_decelerates_passes(self):
        report = run_claim("destruction-only-decelerates")
        assert report.verdict == "pass"
        assert len(report.grid) >= 24
        assert all(row.get("class") == "decelerating-decline" for row in report.grid)

    def test_qss_reduction_passes(self):
        report = run_claim("qss-reduction-valid")
        assert report.verdict == "pass"
        assert {row["delta_D"] for row in report.grid} == {100.0, 1000.0}
        assert all(row["relative_gap"] <= 0.01 for row in report.grid)

    def test_mechanism_conditions_pass(self):
        report = run_claim("mechanism-satisfies-conditions")
        assert report.verdict == "pass"
        for row in report.grid:
            assert row["indirect_destruction"]
            assert row["slow_ok"]
            assert row["plateau"] >= row["plateau_required"]
            assert row["removal_monotone"]

    def test_feedback_claim_passes(self):
        report = run_claim("aids-curve-needs-feedback")
        assert report.verdict == "pass"
        mech_rows = [r for r in report.grid if "mechanism" in r]
        assert len(mech_rows) == 4
        assert all(r["class"] == "accelerating-decline" for r in mech_rows)

    def test_feedback_claim_summary_row(self):
        summary = run_claim("aids-curve-needs-feedback").grid[-1]
        assert summary == {"destruction_only_combinations": 32,
                           "accelerating_among_them": []}

    def test_errored_destruction_only_point_fails_the_feedback_claim(self, monkeypatch):
        # an unclassified point is no evidence that destruction alone decelerates
        original = claims.find_steady_state

        def find_steady_state(model, params, guess):
            if model.name == "power-destruction" and params["n"] == 3 and params["gamma"] == 1:
                raise NoConvergenceError("no root found")
            return original(model, params, guess)

        monkeypatch.setattr(claims, "find_steady_state", find_steady_state)
        report = run_claim("aids-curve-needs-feedback")
        assert report.verdict == "fail"
        assert report.grid[-1]["errored_among_them"] == ["power-n3[s=1]"]
        assert report.grid[-1]["accelerating_among_them"] == []
        assert report.narrative == ("Feedback signature not reproduced: destruction-only "
                                    "point power-n3[s=1] -> error: no root found")

    def test_ordering_claim_documents_the_slow_tail(self):
        # the steady state always drops, and four of five legs also reach it
        # strictly faster; lowering net proliferation slows the terminal
        # relaxation, so the claim as a whole reports fail with evidence
        report = run_claim("destruction-lowers-and-hastens")
        legs = {}
        for row in report.grid:
            legs.setdefault(row["leg"], []).append(row)
        assert set(legs) == {
            "linear", "power-n2", "power-n3",
            "logistic-gamma-raised", "logistic-y-lowered",
        }
        for name, rows in legs.items():
            t_stars = [r["T_star"] for r in rows]
            assert all(x > y for x, y in zip(t_stars, t_stars[1:])), name
        for name in ("linear", "power-n2", "power-n3", "logistic-gamma-raised"):
            t_eps = [r["t_eps"] for r in legs[name]]
            assert all(x > y for x, y in zip(t_eps, t_eps[1:])), name
        assert report.verdict == "fail"
        assert "logistic-y-lowered" in report.narrative

    def test_ordering_narrative_with_flat_steady_states(self):
        # gamma = 1 freezes four legs; only logistic-y-lowered keeps its
        # falling T* and its slow tail
        narrative = run_claim("destruction-lowers-and-hastens", {"gamma": 1.0}).narrative
        for leg in ("linear", "power-n2", "power-n3", "logistic-gamma-raised"):
            assert f"{leg}: T* not strictly decreasing" in narrative
            assert f"{leg}: t_eps not strictly decreasing" in narrative
        assert "logistic-y-lowered: t_eps not strictly decreasing" in narrative
        assert "logistic-y-lowered: T*" not in narrative
        assert "steady state always drops" not in narrative
        assert "sqrt(y^2 + 4*a*gamma)" in narrative

    def test_ordering_narrative_without_slow_tail(self):
        # y = 0.5 replaces y = 1 - s, so logistic-y-lowered is flat in T* and
        # t_eps; every other leg starts at twice its own s = 0 steady state
        # and keeps both orderings
        report = run_claim("destruction-lowers-and-hastens", {"y": 0.5})
        narrative = report.narrative
        assert "logistic-y-lowered: T* not strictly decreasing" in narrative
        assert "logistic-y-lowered: t_eps not strictly decreasing" in narrative
        assert narrative.count("not strictly decreasing") == 2
        assert "steady state always drops" not in narrative
        assert "sqrt(y^2 + 4*a*gamma)" not in narrative
        linear = [r for r in report.grid if r["leg"] == "linear"]
        # T0 = 2 a/y = 4 on the linear leg: t_eps = ln(1/eps)/(y + gamma) > 0
        assert linear[0]["t_eps"] == pytest.approx(math.log(100.0) / 0.5, rel=1e-6)

    def test_ordering_claim_records_points_that_fail_numerically(self):
        # a = 0 leaves dT/dt = -gamma*T^2, whose root 0 is not hyperbolic, on
        # the logistic-gamma-raised baseline and at s = 1 on logistic-y-lowered;
        # the linear and power legs rest at the root 0 and have nothing to order
        report = run_claim("destruction-lowers-and-hastens", {"a": 0.0})
        assert report.verdict == "fail"
        errors = [row for row in report.grid if "error" in row]
        assert [(row["leg"], row["strength"]) for row in errors] == [
            ("linear", 0.0), ("power-n2", 0.0), ("power-n3", 0.0),
            ("logistic-gamma-raised", 0.0), ("logistic-y-lowered", 1.0)]
        assert all("nothing to order" in row["error"] for row in errors[:3])
        errors = errors[3:]
        assert all("is not hyperbolic" in row["error"] for row in errors)
        assert errors[0]["error"].startswith("baseline: ")
        assert "logistic-gamma-raised: baseline -> error:" in report.narrative
        assert "logistic-y-lowered[s=1] -> error:" in report.narrative
        assert "steady state always drops" not in report.narrative
        rows = [row for row in report.grid if row["leg"] == "logistic-y-lowered"]
        assert len(rows) == len(claims.STRENGTH_GRID)

    def test_reports_are_bit_identical_across_runs(self):
        a = json.dumps(run_claim("qss-reduction-valid").to_json_dict(), sort_keys=True)
        b = json.dumps(run_claim("qss-reduction-valid").to_json_dict(), sort_keys=True)
        assert a == b

    def test_a_traced_pass_reports_the_same_bytes(self, monkeypatch):
        # a tracer replaces every model's rhs with a plain function that has
        # no bind, so ModelSystem.bind takes its array adapter; the
        # generated Jacobian stays the model's, and nothing else moves
        ids = ("aids-curve-needs-feedback", "mechanism-satisfies-conditions")

        def run_pass():
            claims._MECH_CACHE.clear()
            reports = [json.dumps(run_claim(c).to_json_dict(), sort_keys=True) for c in ids]
            return reports, {k: mechanism_trajectory(k)[2].solver_info for k in MechanismKind}

        plain = run_pass()
        make = claims.make_mechanism_model

        def traced(kind, params=None):
            model = make(kind, params)
            rhs = model.rhs
            return dataclasses.replace(model, rhs=lambda t, y, p: rhs(t, y, p))

        monkeypatch.setattr(claims, "make_mechanism_model", traced)
        try:
            again = run_pass()
        finally:
            claims._MECH_CACHE.clear()
        assert again == plain

    def test_falsified_configuration_fails(self):
        # a fast CTL death rate destroys the timescale separation
        report = run_claim("mechanism-satisfies-conditions", {"delta_C": 0.5})
        assert report.verdict == "fail"

    def test_mechanism_without_a_fall_is_a_numerical_row(self):
        # without a source T decays from t = 0, where its decline is
        # steepest, so each collapse window is empty: a row of the failed
        # report, not a raised error
        report = run_claim("aids-curve-needs-feedback", {"a": 0.0})
        assert report.verdict == "fail"
        mechanisms = [row for row in report.grid if "mechanism" in row]
        assert len(mechanisms) == 4
        assert all(row["error"] == "window (0.0, 0.0) is empty" for row in mechanisms)

    def test_override_reaches_the_coupled_agent_points(self):
        # a slow agent (delta_D = 0.01) outlives T's relaxation, so T
        # undershoots T* and recovers; the points keep their default labels,
        # as the legs keep [s=...]
        report = run_claim("destruction-only-decelerates", {"delta_D": 0.01})
        agent = [row for row in report.grid if row["point"].startswith("coupled-agent")]
        assert [(row["point"], row["class"]) for row in agent] == [
            ("coupled-agent[x/delta_D=0.25]", "non-monotonic"),
            ("coupled-agent[x/delta_D=1]", "non-monotonic")]
        assert [round(row["T_star"], 4) for row in agent] == [0.0613, 0.0311]
        assert report.verdict == "fail"
        assert report.narrative == "Unexpected curvature: " + " | ".join(
            f"{row['point']} -> non-monotonic" for row in agent)

    def test_falsified_qss_configuration_fails(self):
        report = run_claim("qss-reduction-valid", {"delta_D": 2.0})
        assert report.verdict == "fail"

    def test_qss_cases_keep_their_default_names_under_an_override(self):
        # x = 1e300 fails all three cases; the narrative names each by its
        # default (delta_D, x), while each row reports the values it ran
        report = run_claim("qss-reduction-valid", {"x": 1e300})
        names = [failure.partition(" -> ")[0]
                 for failure in report.narrative.removeprefix("Reduction gap too large: ")
                 .split(" | ")]
        assert names == ["delta_D=100, x=100", "delta_D=1000, x=1000", "delta_D=100, x=1"]
        assert [(row["delta_D"], row["x"]) for row in report.grid] == [
            (100.0, 1e300), (1000.0, 1e300), (100.0, 1e300)]

    def test_qss_gap_is_measured_on_the_reduced_runs_extension(self):
        # at the full run's times the reduced run is its own continuous
        # extension; linear interpolation between its points read 1.28e-3
        row = run_claim("qss-reduction-valid").grid[2]
        assert (row["delta_D"], row["x"]) == (100.0, 1.0)
        assert row["relative_gap"] < 1e-4

    def test_decline_below_atol_is_flat(self):
        # a = 0: Newton on the exact Jacobian lands on the root 0 of these
        # four points (finite differences left it at 1e-147 to 1e-143), so
        # they rest there; at a = 1e-160 they settle at T* ~ 1e-160 and the
        # whole decline lies below the run's atol
        report = run_claim("destruction-only-decelerates", {"a": 0.0})
        rows = {row["point"]: row for row in report.grid}
        assert not any("need at least 8 points" in row.get("error", "") for row in report.grid)
        for point in ("power-n2[s=0.25]", "power-n2[s=1]",
                      "logistic-y-lowered[s=2]", "logistic-y-lowered[s=4]"):
            assert rows[point]["class"] == "flat"
            assert rows[point]["T_star"] == 0.0
        # the two coupled-agent points among them: at a = 0 their root is (0, 0)
        assert sum(row.get("class") == "flat" for row in report.grid) == 22
        assert sum("error" in row for row in report.grid) == 7  # roots that are not hyperbolic
        rows = {row["point"]: row for row in
                run_claim("destruction-only-decelerates", {"a": 1e-160}).grid}
        for point in ("power-n2[s=0.25]", "power-n2[s=1]",
                      "logistic-y-lowered[s=2]", "logistic-y-lowered[s=4]"):
            assert rows[point]["class"] == "flat"
            assert 0.0 < rows[point]["evidence"]["total_variation"] < 1e-12

    @pytest.mark.parametrize("a,t_star", [(0.0, "0"), (1e-160, "1e-160")])
    def test_leg_resting_at_zero_has_nothing_to_order(self, a, t_star):
        report = run_claim("destruction-lowers-and-hastens", {"a": a})
        assert report.verdict == "fail"
        message = (f"baseline: steady state is 0 (T* = {t_star}, within atol), so T0 = 0 "
                   "and there is nothing to order")
        legs = ("linear", "power-n2", "power-n3") if a == 0.0 else ("linear",)
        for leg in legs:
            assert [row for row in report.grid if row["leg"] == leg] == [
                {"leg": leg, "strength": 0.0, "error": message}]
            assert f"{leg}: baseline -> error: steady state is 0" in report.narrative
            assert f"{leg}: T* not strictly decreasing" not in report.narrative


class TestCollapseWindow:
    def test_window_brackets_the_fall(self):
        _, _, traj = mechanism_trajectory("bcell-depletion")
        t_a, t_b = collapse_window(traj)
        assert traj.times[0] < t_a < t_b < traj.times[-1]
        T = traj.component("T")
        hi = T.max()
        import numpy as np

        i_a = int(np.searchsorted(traj.times, t_a))
        assert T[i_a] <= hi - 0.09 * (hi - T.min())
