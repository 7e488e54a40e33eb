import json
import math

import pytest

from qsslab import ParameterSet, StateVector, claims, run_claim, sweep
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
        with pytest.raises(UsageError):
            SweepSpec("healthy", ParameterSet(a=1, y=1), "y", (1.0, 2.0),
                      metrics=("bogus",))


class TestSweep:
    def test_linear_destruction_steady_states(self):
        spec = SweepSpec(
            "linear-destruction", ParameterSet(a=10, y=1), "gamma", (0.0, 1.0),
            initial_state=StateVector(("T",), [12.0]), metrics=("T*", "T*_formula"),
        )
        rows = sweep(spec)
        assert rows[0]["gamma"] == 0.0 and rows[0]["T*"] == pytest.approx(10.0, abs=1e-9)
        assert rows[1]["gamma"] == 1.0 and rows[1]["T*"] == pytest.approx(5.0, abs=1e-9)
        assert rows[0]["T*_formula"] == pytest.approx(10.0)

    def test_power_approximation_gap_exposed(self):
        spec = SweepSpec(
            "power-destruction", ParameterSet(a=1, y=1, gamma=1), "n", (2.0, 3.0),
            initial_state=StateVector(("T",), [1.0]), metrics=("T*", "T*_approx"),
        )
        rows = sweep(spec)
        for row in rows:
            assert row["T*_approx"] > row["T*"]  # first-order formula overshoots

    def test_failures_recorded_per_row(self):
        spec = SweepSpec(
            "healthy", ParameterSet(a=1), "y", (-1.0, 1.0),
            initial_state=StateVector(("T",), [1.0]), metrics=("T*",),
        )
        rows = sweep(spec)
        assert "T*_error" in rows[0] or "error" in rows[0]
        assert rows[1]["T*"] == pytest.approx(1.0, abs=1e-9)


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
        # the logistic-gamma-raised baseline and at s = 1 on logistic-y-lowered
        report = run_claim("destruction-lowers-and-hastens", {"a": 0.0})
        assert report.verdict == "fail"
        errors = [row for row in report.grid if "error" in row]
        assert [(row["leg"], row["strength"]) for row in errors] == [
            ("logistic-gamma-raised", 0.0), ("logistic-y-lowered", 1.0)]
        assert all("is not hyperbolic" in row["error"] for row in errors)
        assert errors[0]["error"].startswith("baseline: ")
        assert "logistic-gamma-raised: baseline -> error:" in report.narrative
        assert "logistic-y-lowered[s=1] -> error:" in report.narrative
        assert "steady state always drops" not in report.narrative
        rows = [row for row in report.grid if row["leg"] == "logistic-y-lowered"]
        assert len(rows) == len(claims.STRENGTH_GRID)

    @pytest.mark.parametrize("claim_id", ["destruction-lowers-and-hastens",
                                          "destruction-only-decelerates"])
    def test_destruction_claims_read_no_closed_form(self, monkeypatch, claim_id):
        expected = json.dumps(run_claim(claim_id).to_json_dict(), sort_keys=True)

        def closed_form(*args):
            raise AssertionError("a closed form was read")

        monkeypatch.setattr(claims, "steady_state_formula", closed_form)
        assert json.dumps(run_claim(claim_id).to_json_dict(), sort_keys=True) == expected

    def test_reports_are_bit_identical_across_runs(self):
        a = json.dumps(run_claim("qss-reduction-valid").to_json_dict(), sort_keys=True)
        b = json.dumps(run_claim("qss-reduction-valid").to_json_dict(), sort_keys=True)
        assert a == b

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
        assert all(row["class"] == "error: window (0.0, 0.0) is empty" for row in mechanisms)

    def test_falsified_qss_configuration_fails(self):
        report = run_claim("qss-reduction-valid", {"delta_D": 2.0})
        assert report.verdict == "fail"


class TestCollapseWindow:
    def test_window_brackets_the_fall(self):
        _, _, traj = mechanism_trajectory("bcell-depletion")
        t_a, t_b = collapse_window(traj, "T")
        assert traj.times[0] < t_a < t_b < traj.times[-1]
        T = traj.component("T")
        hi = T.max()
        import numpy as np

        i_a = int(np.searchsorted(traj.times, t_a))
        assert T[i_a] <= hi - 0.09 * (hi - T.min())
