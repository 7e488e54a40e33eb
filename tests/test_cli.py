import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csvoracle import read_by_line
from qsslab import cli
from qsslab.catalog import default_params, default_state, make_model
from qsslab.claims import CLAIMS
from qsslab.cli import build_parser, read_trajectory_csv, run_cli, write_trajectory_csv
from qsslab.dsl import MAX_DEPTH, compile_model
from qsslab.integrate import Trajectory, sampled_dopri_run
from qsslab.svg import render_plot
from qsslab.errors import QsslabError, UsageError


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path


def test_simulate_linear_destruction(outdir):
    out = outdir / "traj.csv"
    code = run_cli([
        "simulate", "--model", "linear-destruction",
        "--param", "a=10", "--param", "y=1", "--param", "gamma=1",
        "--init", "T=10", "--t-end", "5", "--rtol", "1e-8",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,T"
    final_T = float(lines[-1].split(",")[1])
    assert abs(final_T - (5 + 5 * math.exp(-10))) <= 1e-6


def test_unknown_model_lists_catalog(outdir, capsys):
    code = run_cli(["simulate", "--model", "nosuch", "--t-end", "1",
                    "--out", str(outdir / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and "linear-destruction" in err


def test_csv_round_trips_through_classify(outdir):
    traj_path = outdir / "traj.csv"
    assert run_cli([
        "simulate", "--model", "linear-destruction",
        "--param", "a=1", "--param", "y=1", "--param", "gamma=1",
        "--init", "T=4", "--t-end", "4", "--out", str(traj_path),
    ]) == 0
    verdict_path = outdir / "verdict.json"
    assert run_cli([
        "classify", "--traj", str(traj_path), "--component", "T",
        "--out", str(verdict_path),
    ]) == 0
    verdict = json.loads(verdict_path.read_text())
    assert verdict["schema"] == 1
    assert verdict["class"] == "decelerating-decline"

    roundtrip = read_trajectory_csv(str(traj_path))
    assert roundtrip.state_names == ("T",)
    assert len(roundtrip) >= 2


def test_check_pass_and_fail_exit_codes(outdir):
    report_path = outdir / "qss.json"
    assert run_cli(["check", "qss-reduction-valid", "--json", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    assert payload["schema"] == 1 and payload["verdict"] == "pass"
    # intentionally falsified configuration: exit code 1
    assert run_cli(["check", "qss-reduction-valid", "--override", "delta_D=2"]) == 1


def test_check_unknown_claim_is_usage_error():
    assert run_cli(["check", "definitely-not-a-claim"]) == 2


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_check_with_invalid_override_is_usage_error(claim, capsys):
    # a = -1 violates every grid model's schema: a bad request, not a failed claim
    assert run_cli(["check", claim, "--override", "a=-1"]) == 2
    assert "a must be >= 0, got -1" in capsys.readouterr().err


def test_steady_json(outdir, capsys):
    assert run_cli([
        "steady", "--model", "power-destruction",
        "--param", "a=1", "--param", "y=1", "--param", "gamma=1", "--param", "n=2",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"]["T"] == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-9)
    assert payload["residual"] <= 1e-9


def test_steady_json_keys(capsys):
    assert run_cli(["steady", "--model", "healthy"]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == [
        "method", "model", "relaxation_rate", "residual", "schema", "values"]


def test_ordering_claim_records_failing_points(capsys):
    # a = 0 leaves dT/dt = -gamma*T^2 on the logistic-gamma-raised baseline
    # and at s = 1 on logistic-y-lowered: roots that are not hyperbolic
    assert run_cli(["check", "destruction-lowers-and-hastens", "--override", "a=0"]) == 1
    assert "logistic-gamma-raised: baseline -> error:" in capsys.readouterr().err


def test_ordering_claim_names_legs_with_nothing_to_order(capsys):
    assert run_cli(["check", "destruction-lowers-and-hastens", "--override", "a=0"]) == 1
    err = capsys.readouterr().err
    for leg in ("linear", "power-n2", "power-n3"):
        assert f"{leg}: baseline -> error: steady state is 0" in err
    assert err.count("nothing to order") == 3 and "not strictly decreasing" not in err


# the mechanisms whose runs fail when beta = 1e300 (virulence-drift declares
# no beta), with their errors: cytokine-inversion's Newton solves fail from
# its first trial on, and the step underflows at t = 0 with the state where
# it started, while the other two runs end in non-finite trials.  The
# humoral-cellular-competition state overflows, so the time of its failure
# follows the rounding of each Newton solve
BETA_ERRORS = {
    "cytokine-inversion": "step size underflow (5.457e-12) at t = 0; problem too stiff",
    "humoral-cellular-competition": "state became non-finite at t = 2.52504",
    "bcell-depletion": "state became non-finite at t = 0.0561576",
}
BLOWN_UP = [{"mechanism": m} for m in BETA_ERRORS]
REDUCTION_ERROR = "state became non-finite at t = 2.62144e-14"


@pytest.mark.parametrize("claim, override, labels, errors", [
    ("aids-curve-needs-feedback", "beta=1e300", BLOWN_UP, list(BETA_ERRORS.values())),
    ("mechanism-satisfies-conditions", "beta=1e300", BLOWN_UP, list(BETA_ERRORS.values())),
    ("qss-reduction-valid", "x=1e300", [{"delta_D": 100.0, "x": 1e300},
                                        {"delta_D": 1000.0, "x": 1e300},
                                        {"delta_D": 100.0, "x": 1e300}], [REDUCTION_ERROR] * 3),
], ids=["feedback", "conditions", "reduction"])
def test_a_failing_claim_run_is_an_error_row(outdir, capsys, claim, override, labels, errors):
    # a run that fails numerically fails its claim (exit 1) with one error
    # row per point, as a failing destruction-only point does
    report = outdir / "report.json"
    assert run_cli(["check", claim, "--override", override, "--json", str(report)]) == 1
    rows = [row for row in json.loads(report.read_text())["grid"] if "error" in row]
    assert [{k: v for k, v in row.items() if k != "error"} for row in rows] == labels
    assert [row["error"] for row in rows] == errors
    err = capsys.readouterr().err
    assert err.count(" -> error: ") == len(labels)
    assert all(f" -> error: {error}" in err for error in errors)


@pytest.mark.parametrize("override, drawn", [("beta=1e300", 1), ("a=1e300", 0)])
def test_check_plot_leaves_out_a_failing_mechanism(outdir, capsys, override, drawn):
    # the plot draws the mechanisms whose runs succeed, names the others on
    # one line, and the exit code is the verdict's
    plot = outdir / "mechanisms.svg"
    code = run_cli(["check", "aids-curve-needs-feedback", "--override", override,
                    "--json", str(outdir / "report.json"), "--plot", str(plot)])
    assert code == 1
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("plot:")]
    assert len(lines) == 1
    for mechanism, error in BETA_ERRORS.items():
        if drawn:
            assert f"{mechanism} ({error})" in lines[0]
        else:
            assert f"{mechanism} (state became non-finite at t = " in lines[0]
    if drawn:
        svg = plot.read_text()
        assert svg.count("<polyline") == drawn and "virulence-drift" in svg
    else:
        assert not plot.exists() and lines[0].endswith(f"; {plot} not written")


def test_sweep_csv(outdir):
    out = outdir / "sweep.csv"
    code = run_cli([
        "sweep", "--model", "linear-destruction",
        "--param", "a=10", "--param", "y=1",
        "--sweep", "gamma=0,1", "--init", "T=12",
        "--metrics", "T*,t_eps", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("gamma,T*,t_eps")
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert float(first[1]) == pytest.approx(10.0, abs=1e-6)
    assert float(second[1]) == pytest.approx(5.0, abs=1e-6)
    assert float(second[2]) < float(first[2])  # destruction hastens here


def test_sweep_csv_quotes_an_error_with_a_comma(outdir):
    # "y must be > 0, got 0": one cell, not two
    out = outdir / "sweep.csv"
    assert run_cli(["sweep", "--model", "healthy", "--sweep", "y=0,1",
                    "--metrics", "T*,rate", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y", "T*", "rate", "error"]
    assert [len(row) for row in rows] == [4, 4, 4]
    assert rows[1][3].endswith("y must be > 0, got 0")
    assert out.read_text().splitlines()[2] == "1,1,1,"  # a row without a comma is as before


def test_sweep_runs_a_model_file(outdir):
    # the file's model is swept, not looked up as a catalog kind by its path
    model_file = Path(cli.__file__).parent / "models" / "power-destruction.qssm"
    tables = []
    for model in (str(model_file), "power-destruction"):
        out = outdir / "sweep.csv"
        assert run_cli(["sweep", "--model", model, "--sweep", "gamma=0.5,1",
                        "--metrics", "T*,t_eps,rate", "--out", str(out)]) == 0
        tables.append(out.read_text())
    assert tables[0] == tables[1]
    assert tables[0].splitlines()[0] == "gamma,T*,t_eps,rate"


def test_numerical_failure_exit_code(outdir):
    blowup = outdir / "blowup.qssm"
    blowup.write_text("model blowup\nstate T = 1\ndT/dt = T^2\n")
    code = run_cli([
        "simulate", "--model", str(blowup), "--t-end", "3", "--dt", "0.1",
        "--out", str(outdir / "b.csv"),
    ])
    assert code == 3


def test_finite_time_blowup_is_diagnosed_as_one(outdir, capsys):
    # T = 1 / (1 - t) leaves every bound at t = 1; its trial steps stay
    # finite, so that the underflowing step used to read as stiffness
    blowup = outdir / "blowup.qssm"
    blowup.write_text("model blowup\nstate T = 1\ndT/dt = T^2\n")
    code = run_cli(["simulate", "--model", str(blowup), "--t-end", "3",
                    "--out", str(outdir / "b.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "state grew without bound at t = 1 " in err and "stiff" not in err


def test_qssm_file_simulation(outdir):
    model = outdir / "custom.qssm"
    model.write_text(
        "model custom\nstate T = 2\nparam r = 1 nonneg\ndT/dt = 0 - r*T\n"
    )
    out = outdir / "c.csv"
    assert run_cli([
        "simulate", "--model", str(model), "--t-end", "1", "--out", str(out),
    ]) == 0
    final_T = float(out.read_text().splitlines()[-1].split(",")[1])
    assert final_T == pytest.approx(2 * math.exp(-1), abs=1e-6)


def test_catalog_listing_stable(capsys):
    assert run_cli(["catalog"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["catalog"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "linear-destruction" in first
    assert "dT/dt = a - y*T - gamma*T" in first
    assert "virulence-drift" in first and "rho*t" in first


# Every line of ``qsslab catalog`` but the equations, as the listing gave
# them when each catalog model still had a hand-written Python rhs.
CATALOG_LISTING = """\
healthy
  states:   T
  time-dependent: no
  params:   a (>= 0) = 1; y (> 0) = 1
linear-destruction
  states:   T
  time-dependent: no
  params:   a (>= 0) = 1; y (> 0) = 1; gamma (>= 0) = 1
coupled-agent
  states:   T, D
  time-dependent: no
  params:   a (>= 0) = 1; y (>= 0) = 1; x (>= 0) = 1; delta_D (> 0) = 1
power-destruction
  states:   T
  time-dependent: no
  params:   a (>= 0) = 1; y (>= 0) = 1; gamma (>= 0) = 1; n (> 1) = 2
logistic-source
  states:   T
  time-dependent: no
  params:   a (>= 0) = 4; y = 0; gamma (> 0) = 1
logistic-proliferation
  states:   T
  time-dependent: no
  params:   a (>= 0) = 0; y = 2; gamma (> 0) = 1
virulence-drift
  states:   T, I, V, E
  time-dependent: yes
  params:   a (>= 0) = 1; y (> 0) = 1; gamma0 (>= 0) = 0.3; rho (>= 0) = 0.0005; pi (>= 0) = 10; delta_I (> 0) = 1; c (> 0) = 0.2; k_E (>= 0) = 1; p_E (>= 0) = 0.014048; h_I (> 0) = 0.002; h_T (> 0) = 0.3; delta_E (>= 0) = 0.008; x_E (>= 0) = 12
  slow rates: delta_E, rho
cytokine-inversion
  states:   T, I, C, K1, K2
  time-dependent: no
  params:   a (>= 0) = 1; y (> 0) = 1; beta (>= 0) = 20; delta_I (> 0) = 0.5; k (>= 0) = 5; p (>= 0) = 0.02744; h_I (> 0) = 0.002; kappa (> 0) = 0.004; c1 (>= 0) = 0.2; c2 (>= 0) = 5; d_K (> 0) = 10; delta_C (>= 0) = 0.008; q (>= 0) = 0.8; h_T (> 0) = 0.4
  slow rates: delta_C
humoral-cellular-competition
  states:   T, I, V, C, B
  time-dependent: no
  params:   a (>= 0) = 1; y (> 0) = 1; beta (>= 0) = 12; pi (>= 0) = 10; c (>= 0) = 5; k_B (>= 0) = 2; delta_I (> 0) = 1; k (>= 0) = 5; p_C (>= 0) = 0.1211; h_I (> 0) = 0.1; delta_C (>= 0) = 0.01; x_C (>= 0) = 0.1; w (>= 0) = 1; p_B (>= 0) = 0.016; h_B (> 0) = 0.02; delta_B (>= 0) = 0.005; h_T (> 0) = 0.25; B_max (> 0) = 4
  slow rates: delta_C, delta_B
bcell-depletion
  states:   T, I, V, L
  time-dependent: no
  params:   a (>= 0) = 1; y (> 0) = 1; beta (>= 0) = 1; pi (>= 0) = 10; c0 (> 0) = 0.05; c1 (>= 0) = 8; delta_I (> 0) = 1; mu (>= 0) = 0.005
  slow rates: mu
"""


def test_catalog_listing_keeps_states_params_and_slow_rates(capsys):
    assert run_cli(["catalog"]) == 0
    lines = capsys.readouterr().out.splitlines()
    kept = [line for line in lines if line and not line.startswith(("  equation:", "claims:"))]
    assert kept == CATALOG_LISTING.splitlines()


def test_bad_flag_combinations(outdir):
    assert run_cli(["simulate", "--model", "healthy", "--t-end", "1",
                    "--param", "a", "--out", str(outdir / "x.csv")]) == 2
    assert run_cli(["simulate", "--model", "healthy", "--t-end", "1",
                    "--init", "V=1", "--out", str(outdir / "x.csv")]) == 2
    assert run_cli(["classify", "--traj", str(outdir / "missing.csv")]) == 2


def test_consecutive_calls_share_the_parser_but_no_arguments(outdir):
    model = outdir / "custom.qssm"
    model.write_text("model custom\nstate T = 2\nparam r = 1 nonneg\ndT/dt = 0 - r*T\n")
    argvs = [
        ["steady", "--model", "power-destruction", "--param", "a=3", "--param", "n=3",
         "--guess", "T=2", "--out", "{}/steady.json"],
        ["simulate", "--model", "linear-destruction", "--param", "gamma=4",
         "--init", "T=7", "--t-end", "2", "--dt", "0.25", "--out", "{}/first.csv"],
        ["simulate", "--model", "linear-destruction", "--t-end", "2", "--out", "{}/second.csv"],
        ["simulate", "--model", str(model), "--param", "r=2", "--t-end", "1",
         "--rtol", "1e-6", "--out", "{}/custom.csv"],
        ["classify", "--traj", "{}/second.csv", "--out", "{}/classify.json"],
    ]
    shared, fresh = outdir / "shared", outdir / "fresh"
    shared.mkdir()
    fresh.mkdir()
    for argv in argvs:
        assert run_cli([a.format(shared) for a in argv]) == 0
    assert cli._parser() is cli._parser()
    for argv in argvs:  # each call from a newly built parser and model memo
        cli._parser.cache_clear()
        cli._file_model.cache_clear()
        assert run_cli([a.format(fresh) for a in argv]) == 0
    for path in sorted(shared.iterdir()):
        assert path.read_bytes() == (fresh / path.name).read_bytes(), path.name


# a valid argv of each command, then argvs that argparse refuses or answers
ARGV_CORPUS = [
    ["simulate", "--model", "healthy", "--param", "a=2", "--init", "T=3", "--t-end", "1",
     "--dt", "0.5", "--out", "x.csv", "--plot", "x.svg"],
    ["steady", "--model", "healthy", "--guess=T=2", "--out", "s.json"],
    ["classify", "--traj", "x.csv", "--component", "T", "--window", "0:1"],
    ["sweep", "--model", "linear-destruction", "--sweep", "gamma=1,2", "--out", "s.csv"],
    ["check", "qss-reduction-valid", "--override", "x=1", "--json", "c.json"],
    ["catalog"],
    ["simulate", "--model", "healthy", "--t-e", "5", "--out", "x.csv"],
    ["-h"],
    ["simulate", "-h"],
    ["simulate", "--model", "healthy", "--t-end", "1", "--out", "x.csv", "--bogus"],
    ["simulate", "--model", "healthy", "--out", "x.csv"],
    ["simulate", "--model", "healthy", "--t-end", "x", "--out", "x.csv"],
    ["simulate", "--model", "healthy", "--t", "1", "--out", "x.csv"],
    ["simulate", "--model", "healthy", "--t-end", "1", "--out", "x.csv", "--", "x"],
    ["simulate", "--", "--model", "healthy"],
    ["catalog", "extra", "-x"],
    ["check"],
    [],
    ["frobnicate", "--model", "healthy"],
    ["--", "catalog"],
]


def _parse_outcome(capsys, parse, argv):
    """What ``parse(argv)`` gives: its exit code or its namespace, with the
    text it printed."""
    try:
        outcome = vars(parse(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=" ".join)
def test_an_argv_parses_as_the_parser_parses_it(capsys, argv):
    expected = _parse_outcome(capsys, build_parser().parse_args, argv)
    assert _parse_outcome(capsys, cli._parse, argv) == expected
    if not isinstance(expected[0], dict):  # refused or answered: run_cli prints the same
        assert run_cli(argv) == expected[0]
        assert capsys.readouterr()[:] == expected[1:]


def test_a_command_is_scanned_once(outdir):
    scan = argparse.ArgumentParser.parse_known_args
    # autospec passes the parser itself as the first argument
    with mock.patch.object(argparse.ArgumentParser, "parse_known_args", autospec=True,
                           side_effect=scan) as scanned:
        assert run_cli(["steady", "--model", "healthy", "--param", "a=2",
                        "--out", str(outdir / "s.json")]) == 0
    assert scanned.call_count == 1
    assert scanned.call_args.args[0] is cli._parser().commands["steady"]


def test_a_model_file_compiles_once_per_text(outdir, monkeypatch):
    model = outdir / "once.qssm"
    model.write_text("model once\nstate T = 3\nparam r = 1 nonneg\ndT/dt = 1 - r*T\n")
    compiled = []
    monkeypatch.setattr(cli, "compile_model", lambda defn: compiled.append(defn.name)
                        or compile_model(defn))
    cli._file_model.cache_clear()
    for run in ("first", "second"):
        assert run_cli(["simulate", "--model", str(model), "--t-end", "1",
                        "--out", str(outdir / f"{run}.csv")]) == 0
    assert compiled == ["once"]
    assert (outdir / "first.csv").read_bytes() == (outdir / "second.csv").read_bytes()


def test_an_edited_model_file_compiles_again(outdir):
    # the memo is keyed on the text, not on the path
    model, edited = outdir / "edit.qssm", outdir / "edited.qssm"
    model.write_text("model edit\nstate T = 3\nparam r = 1 nonneg\ndT/dt = 1 - r*T\n")
    edited.write_text("model edit\nstate T = 3\nparam r = 1 nonneg\ndT/dt = 2 - r*T\n")
    argv = ["simulate", "--t-end", "1", "--model"]
    assert run_cli([*argv, str(model), "--out", str(outdir / "before.csv")]) == 0
    model.write_text(edited.read_text())
    assert run_cli([*argv, str(model), "--out", str(outdir / "after.csv")]) == 0
    assert run_cli([*argv, str(edited), "--out", str(outdir / "expected.csv")]) == 0
    assert (outdir / "after.csv").read_bytes() == (outdir / "expected.csv").read_bytes()
    assert (outdir / "after.csv").read_bytes() != (outdir / "before.csv").read_bytes()


# twelve rows, enough for classify to give a verdict on the first T
_TWELVE_ROWS = "".join(f"{i},{2.0 ** -i!r},1\n" for i in range(12))


@pytest.mark.parametrize("text", [
    "t,T\n0,1\n1,0.5,3\n",
    "t,T\n0,abc\n",
    "t,T\n0,1\n1,nan\n",
    "t,T\n0,1\ninf,0.5\n",
    "t,T,V\n0,1\n",
    "t,T\n",
    "",
    "t,T,T\n" + _TWELVE_ROWS,
    "t,T,\n" + _TWELVE_ROWS,
])
def test_malformed_csv_is_a_usage_error(outdir, capsys, text):
    path = outdir / "bad.csv"
    path.write_text(text)
    assert run_cli(["classify", "--traj", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("header, reason", [
    ("t,T,T", "column 3 is a second 'T'"), ("t,T,", "column 3 is empty"),
    ("t,t", "column 2 is a second 't'"), ("t,,T", "column 2 is empty"),
])
def test_repeated_or_empty_csv_column_is_named(outdir, header, reason):
    path = outdir / "bad.csv"
    path.write_text(header + "\n" + _TWELVE_ROWS)
    with pytest.raises(UsageError, match=f"header: {reason}$"):
        read_trajectory_csv(path)


def test_non_utf8_csv_is_a_usage_error(outdir):
    path = outdir / "binary.csv"
    path.write_bytes(b"t,T\n0,\xff\n")
    assert run_cli(["classify", "--traj", str(path)]) == 2


@pytest.mark.parametrize("flag,value", [
    ("--t-end", "nan"), ("--t-end", "inf"), ("--t0", "-inf"), ("--t0", "x"),
    ("--rtol", "nan"), ("--rtol", "0"), ("--atol", "inf"), ("--atol", "-1e-9"),
    ("--dt", "nan"), ("--dt", "0"),
])
def test_non_finite_or_non_positive_solver_settings_are_usage_errors(outdir, flag, value):
    argv = ["simulate", "--model", "healthy", "--t-end", "1", "--out", str(outdir / "x.csv")]
    assert run_cli([*argv, f"{flag}={value}"]) == 2


def test_dt_beyond_the_step_budget_is_a_usage_error(outdir, capsys):
    # integrate_fixed refuses it before the first step; it used to try ~1e300 steps
    argv = ["simulate", "--model", "healthy", "--t-end", "1", "--dt", "1e-300",
            "--out", str(outdir / "x.csv")]
    assert run_cli(argv) == 2
    assert "needs more than 2000000 rows" in capsys.readouterr().err
    assert not (outdir / "x.csv").exists()


@pytest.mark.parametrize("window",
                         ["nan:nan", "0:nan", "-inf:1", "0:inf", "1:1", "2:1", "x:1", "1"])
def test_window_needs_two_finite_increasing_bounds(outdir, capsys, window):
    traj = outdir / "traj.csv"
    assert run_cli(["simulate", "--model", "healthy", "--init", "T=3", "--t-end", "4",
                    "--out", str(traj)]) == 0
    assert run_cli(["classify", "--traj", str(traj), f"--window={window}"]) == 2
    assert "--window expects t0:t1 with finite t0 < t1" in capsys.readouterr().err


_cell = st.one_of(
    st.floats().map(repr), st.integers(-5, 40).map(str),
    st.sampled_from(["", "abc", "1e999", "-0", " 2 ", "NaN", "1_0", " 1.5", "inf", "-inf",
                     "\v2", "\f", "\x85", "0x1"]),
    st.text(max_size=4),
)
_row = st.lists(_cell, max_size=4).map(",".join)
_csv_text = st.one_of(
    st.text(max_size=200),
    st.tuples(st.sampled_from(["t,T", "t,T,V", "t", "t,", "T,t", "t,T,T"]),
              st.lists(_row, max_size=12)).map(lambda p: "\n".join([p[0], *p[1]])),
    # increasing times with arbitrary finite values, so classification runs
    st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=40).map(
        lambda vs: "t,T\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(vs))),
)


@given(_csv_text)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_classify_any_csv_text_exits_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        argv = ["classify", "--traj", str(path), "--out", str(Path(tmp) / "v.json")]
        assert run_cli(argv) in (0, 2)


def _read_outcome(read, path):
    """The bits, shape, names and layout ``read`` gives for ``path``, or its error."""
    try:
        traj = read(path)
    except QsslabError as exc:
        return type(exc), str(exc)
    return (traj.times.tobytes(), traj.states.tobytes(), traj.states.shape, traj.state_names,
            traj.states.flags.c_contiguous)


_line = st.one_of(_row, st.sampled_from(["", " ", "\t", "\v", " \f ", "1,\v2", "1\v,2"]))
# a header, valid or not, and rows, each line ended by LF, CRLF or CR (the
# last line maybe by nothing), after any number of leading lines
_eol = st.sampled_from(["\n", "\r\n", "\r"])
_ended_text = st.tuples(
    st.lists(st.tuples(st.sampled_from(["", " ", "\v", "t,T"]), _eol), max_size=3),
    st.sampled_from(["t,T", "t,T,V", "t", "t,", "T,t", "t,T,T", "t,,T", " t,T ", "t, T", ""]),
    _eol,
    st.lists(st.tuples(_line, _eol), max_size=12),
    st.booleans(),
).map(lambda p: "".join(a + e for a, e in p[0]) + p[1] + p[2]
      + "".join(a + e for a, e in p[3])[:None if p[4] else -1])
# increasing times with any finite values, so the reader returns a trajectory
_valid_text = st.tuples(st.lists(st.floats(-1e308, 1e308), min_size=2, max_size=30),
                        st.sampled_from(["\n", "\r\n"])).map(
    lambda p: "t,T" + p[1] + "".join(f"{i},{v!r}{p[1]}" for i, v in enumerate(p[0])))


@given(st.one_of(_csv_text, _ended_text, _valid_text), st.sampled_from([1, 2, 3, 65_536]))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_csv_reader_agrees_with_the_line_by_line_reader(text, block):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_CSV_BLOCK", block):
        path = str(Path(tmp) / "traj.csv")
        Path(path).write_bytes(text.encode("utf-8", "surrogatepass"))
        assert _read_outcome(read_trajectory_csv, path) == _read_outcome(read_by_line, path)


# lines 1-3 are the first block of three, lines 4-6 the second; each case
# ends in an error's text after the path, or reads the given number of rows
@pytest.mark.parametrize("lines, outcome", [
    (["t,T", "0,1", "1,x", "2,3", "3,4"], "line 3: '1,x' is not all numbers"),
    (["t,T", "0,1", "1,2", "2,x", "3,4"], "line 4: '2,x' is not all numbers"),
    (["t,T", "0,1", "", "", "1,2,3"], "line 5: 3 cells, the header has 2"),
    (["t,T", "0,1", "1,nan", "2,x"], "line 3: '1,nan' is not all finite"),
    (["", " ", "", "t,T", "0,1", "1", "2,3"], "line 6: 1 cells, the header has 2"),
    (["", "", "", "", "", ""], "is not a trajectory CSV (expected header 't,...')"),
    (["t,T", "0,1", " ", "\t", "1,2", "", "2,3", ""], 3),
    (["", "", "", "t,T", "0,1", "1,2"], 2),
], ids=["last-of-first", "first-of-second", "blanks-across", "finite-before-number",
        "header-in-second", "only-blanks", "blanks-valid", "header-in-second-valid"])
def test_a_block_boundary_keeps_the_line_numbers(outdir, monkeypatch, lines, outcome):
    path = str(outdir / "blocks.csv")
    Path(path).write_text("\n".join(lines) + "\n")
    expected = _read_outcome(read_by_line, path)
    monkeypatch.setattr(cli, "_CSV_BLOCK", 3)
    assert _read_outcome(read_trajectory_csv, path) == expected
    if isinstance(outcome, str):
        assert expected == (UsageError, f"{path!r} {outcome}")
    else:
        assert expected[2] == (outcome, 1)


@pytest.mark.parametrize("first_row", ["0,1", "0,x"], ids=["valid", "bad-row-first"])
@pytest.mark.parametrize("block", [3, 65_536])
def test_a_bad_byte_in_a_later_block_is_unreadable(outdir, monkeypatch, first_row, block):
    # past the first 8 KiB that the text layer decodes at once, so that the
    # blocks before it are read and checked first
    path = str(outdir / "late.csv")
    rows = [first_row] + [f"{i},{i / 7!r}" for i in range(1, 2000)]
    Path(path).write_bytes(("t,T\n" + "\n".join(rows) + "\n").encode() + b"2000,\xff\n")
    expected = _read_outcome(read_by_line, path)
    monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    assert _read_outcome(read_trajectory_csv, path) == expected
    assert expected[0] is UsageError and expected[1].startswith(f"cannot read trajectory {path!r}")


def test_plot_svg_structure(outdir):
    out = outdir / "traj.csv"
    plot = outdir / "traj.svg"
    assert run_cli([
        "simulate", "--model", "coupled-agent",
        "--param", "a=1", "--param", "y=1", "--param", "x=1", "--param", "delta_D=1",
        "--init", "T=2", "--init", "D=1", "--t-end", "5",
        "--out", str(out), "--plot", str(plot),
    ]) == 0
    svg = plot.read_text()
    assert svg.count("<polyline") == 2  # one per state component
    assert svg.startswith("<svg")


def test_fixed_step_flag(outdir):
    out = outdir / "fixed.csv"
    assert run_cli([
        "simulate", "--model", "healthy", "--param", "a=0", "--param", "y=1",
        "--init", "T=1", "--t-end", "1", "--dt", "0.01", "--out", str(out),
    ]) == 0
    final_T = float(out.read_text().splitlines()[-1].split(",")[1])
    assert final_T == pytest.approx(math.exp(-1), abs=1e-8)


def test_dt_rows_are_the_adaptive_run_at_the_given_tolerances(outdir):
    argv = ["simulate", "--model", "coupled-agent", "--t-end", "3", "--dt", "0.5",
            "--rtol", "1e-5", "--atol", "1e-9"]
    assert run_cli([*argv, "--out", str(outdir / "grid.csv")]) == 0
    rows = [list(map(float, line.split(",")))
            for line in (outdir / "grid.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [0.5 * i for i in range(7)]
    model, params = make_model("coupled-agent"), default_params("coupled-agent")
    sampled = sampled_dopri_run(model, params, default_state("coupled-agent"),
                                [row[0] for row in rows], 1e-5, 1e-9)
    assert [row[1:] for row in rows] == sampled.states.tolist()


def test_diverging_newton_is_a_numerical_failure(capsys):
    # Newton reaches an iterate with an infinite component: a numerical
    # failure (3), not a state the report refuses as usage (2)
    assert run_cli([
        "steady", "--model", "coupled-agent", "--param", "a=7.0813807613465505",
        "--param", "delta_D=2.00001", "--param", "x=5e-324", "--param", "y=5e-324",
        "--guess", "T=0.434025", "--guess", "D=2.00001",
    ]) == 3
    assert "no steady state found" in capsys.readouterr().err


def test_steady_guess_flag(outdir, capsys):
    assert run_cli([
        "steady", "--model", "logistic-proliferation",
        "--param", "a=0", "--param", "y=2", "--param", "gamma=1",
        "--guess", "T=3",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"]["T"] == pytest.approx(2.0, abs=1e-9)


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "qsslab", "check", "qss-reduction-valid"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "qss-reduction-valid: PASS" in done.stderr


@pytest.mark.parametrize("argv", [["catalog"], ["steady", "--model", "healthy"]])
def test_a_closed_stdout_ends_quietly(argv):
    # the reader has gone before the command writes: exit 0, no traceback
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "qsslab", *argv], env=env, stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("text, message", [
    (b"model m\nstate T = 1\n\xff\xfe\ndT/dt = -T\n", "cannot read model file"),
    (b"model empty\nparam a = 1\n", "no state declared"),
    (("model s\nstate T = 1\ndT/dt = -T" + " - T" * 450 + "\n").encode(),
     f"equation for T nests deeper than {MAX_DEPTH} levels"),
    (("model p\nstate T = 1\ndT/dt = " + "(" * 1200 + "-T" + ")" * 1200 + "\n").encode(),
     f"equation for T nests deeper than {MAX_DEPTH} levels"),
], ids=["not-utf8", "no-state", "451-term-sum", "1200-parentheses"])
def test_a_malformed_model_file_is_a_usage_error(outdir, capsys, text, message):
    model, out = outdir / "m.qssm", outdir / "o.csv"
    model.write_bytes(text)
    assert run_cli(["simulate", "--model", str(model), "--t-end", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_a_syntax_error_names_its_line_and_column(outdir, capsys):
    model, out = outdir / "at.qssm", outdir / "o.csv"
    model.write_text("model at\nstate T = 1\ndT/dt = 1 @ 2\n")
    assert run_cli(["simulate", "--model", str(model), "--t-end", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unexpected character '@' at line 3, column 11" in err, err
    assert not out.exists()


def test_check_plot_writes_overview_svg(outdir):
    plot = outdir / "mechanisms.svg"
    code = run_cli(["check", "aids-curve-needs-feedback", "--plot", str(plot)])
    assert code == 0
    svg = plot.read_text()
    assert svg.count("<polyline") == 4  # one curve per mechanism
    assert 'fill="#fde2c0"' in svg  # collapse window shading


def test_trajectory_csv_bytes(outdir):
    # each cell is the shortest text of 17 significant digits: signed
    # zero, the smallest subnormal and the largest float included
    path = outdir / "traj.csv"
    write_trajectory_csv(Trajectory(
        [-0.0, 5e-324, 1.7976931348623157e308],
        [[-0.0, 0.1], [1.7976931348623157e308, 1 / 3], [5e-324, -2.5]], ("T", "D"), {}), path)
    assert path.read_bytes() == (
        b"t,T,D\n"
        b"-0,-0,0.10000000000000001\n"
        b"4.9406564584124654e-324,1.7976931348623157e+308,0.33333333333333331\n"
        b"1.7976931348623157e+308,4.9406564584124654e-324,-2.5\n")


@pytest.mark.parametrize("width", [1, 2, 5])
def test_trajectory_csv_is_written_in_blocks(outdir, monkeypatch, width):
    # blocks of 3 rows, the last one short, give the bytes of one block
    times = [i / 8 for i in range(11)]
    names = ("T", "D", "V", "I", "B")[:width]
    traj = Trajectory(times, [[math.exp(-t) * (j + 1) + t / 3 for j in range(width)]
                              for t in times], names, {})
    write_trajectory_csv(traj, outdir / "one.csv")
    monkeypatch.setattr(cli, "_CSV_BLOCK", 3)
    write_trajectory_csv(traj, outdir / "blocks.csv")
    assert (outdir / "blocks.csv").read_bytes() == (outdir / "one.csv").read_bytes()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command, flag", [
    (["simulate", "--model", "healthy", "--t-end", "1"], "--out"),
    (["simulate", "--model", "healthy", "--t-end", "1", "--out", "{ok}"], "--plot"),
    (["steady", "--model", "healthy"], "--out"),
    (["classify", "--traj", "{traj}"], "--out"),
    (["sweep", "--model", "linear-destruction", "--sweep", "gamma=1,2", "--metrics", "T*",
      "--init", "T=1"], "--out"),
    (["check", "qss-reduction-valid"], "--json"),
    (["check", "qss-reduction-valid"], "--plot"),
], ids=lambda v: v if isinstance(v, str) else " ".join(v[:2]))
def test_unwritable_output_is_a_usage_error(outdir, capsys, monkeypatch, command, flag, where):
    # the path is checked before the command computes or writes anything
    traj = outdir / "traj.csv"
    times = [i / 16 for i in range(17)]
    write_trajectory_csv(Trajectory(times, [[math.exp(-t)] for t in times], ("T",), {}), traj)
    calls = []
    for name in ("integrate_adaptive", "integrate_fixed", "find_steady_state",
                 "classify_curvature", "sweep", "run_claim"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _f=original, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    path = outdir / "missing" / "out" if where == "missing-directory" else outdir
    argv = [arg.format(ok=outdir / "ok.csv", traj=traj) for arg in command]
    assert run_cli(argv + [flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {str(path)!r}" in err and "Traceback" not in err
    assert calls == [] and not (outdir / "ok.csv").exists()


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--model", "healthy", "--param", "yy=5", "--t-end", "1"], "yy"),
    (["steady", "--model", "healthy", "--param", "gama=3"], "gama"),
    (["sweep", "--model", "healthy", "--sweep", "gama=1,2"], "gama"),
    (["sweep", "--model", "healthy", "--param", "gama=3", "--sweep", "y=1,2"], "gama"),
], ids=["simulate", "steady", "sweep", "sweep-param"])
def test_undeclared_parameter_is_a_usage_error(outdir, capsys, argv, name):
    out = outdir / "out.csv"
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert f"error: undeclared parameter {name!r}" in capsys.readouterr().err
    assert not out.exists()


def test_check_ignores_an_override_no_grid_model_declares():
    # --override reaches only the grid models that declare the name
    assert run_cli(["check", "destruction-only-decelerates", "--override", "gama=3"]) == 0


class TestRenderPlot:
    def test_polyline_per_series(self):
        series = [
            ("healthy", [0, 1, 2], [1.0, 1.0, 1.0]),
            ("linear", [0, 1, 2], [1.0, 0.7, 0.5]),
            ("nonlinear", [0, 1, 2], [1.0, 0.6, 0.4]),
        ]
        svg = render_plot(series, title="families")
        assert svg.count("<polyline") == 3
        assert "families" in svg

    def test_constant_series_padded(self):
        svg = render_plot([("flat", [0, 1], [2.0, 2.0])])
        assert svg.count("<polyline") == 1

    def test_shaded_window(self):
        svg = render_plot([("m", [0, 1, 2, 3], [3, 2.9, 1.5, 0.2])], shade=(1.0, 2.5))
        assert 'fill="#fde2c0"' in svg

    def test_empty_series_rejected(self):
        with pytest.raises(UsageError):
            render_plot([])
        with pytest.raises(UsageError):
            render_plot([("x", [], [])])

    def test_deterministic(self):
        series = [("a", [0, 1], [0.5, 0.25])]
        assert render_plot(series) == render_plot(series)
