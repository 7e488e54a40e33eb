"""Golden outputs: the command line's reports and runs, byte for byte.

``tests/golden/`` holds what these commands print and write:

- each claim report that ``qsslab check <id> --json`` writes, for every
  claim with its defaults and for the overrides in ``CHECKS``, one file
  each, named ``<claim>.json`` or ``<claim>@<override>.json``;
- ``outputs.json``: the exit code, stdout and stderr of each of those
  checks; the same, with the sha256 of the CSV, for each catalog model's
  ``simulate --t-end 20``; the same for each catalog model's ``steady``
  from its default guess (the four mechanisms exit 3 from their chronic
  state); and the ``env`` (Python, numpy, machine) the files were made on;
- ``diagnostics.json``: the exit code, stdout and stderr of each bad argv
  in ``BAD_ARGVS`` and of ``classify`` on each malformed CSV in
  ``MALFORMED_CSVS``, run in their own directory with ``COLUMNS=80``, so
  that the paths the messages name and argparse's line breaks are the
  same on every run.

The test runs every command again through ``run_cli``, from a cold
mechanism cache as a fresh process does, and compares bytes.  On a
mismatch it names the JSON path of the first value that differs, with
both values.  The bytes depend on the platform's libm and LAPACK
(``eigvals``): on another platform the test still runs, and a mismatch
there is a finding to record, not a test to skip.  A change that moves a
digit re-pins the files (``PYTHONPATH=src python tests/test_golden.py``)
and lists the moved digits.
"""
import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qsslab import all_kind_names, claims
from qsslab.cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
OUTPUTS = "outputs.json"
CHECKS = [(claim, None) for claim in sorted(claims.CLAIMS)] + [
    ("destruction-only-decelerates", "delta_D=0.01"),
    ("qss-reduction-valid", "x=1e300"),
    ("aids-curve-needs-feedback", "beta=1e300"),
    ("destruction-lowers-and-hastens", "a=0"),
]
DIAGNOSTICS = "diagnostics.json"
BAD_ARGVS = [
    [],
    ["frobnicate"],
    ["simulate"],
    ["simulate", "--model", "healthy", "--t-end", "x", "--out", "x.csv"],
    ["simulate", "--model", "healthy", "--t-end", "1", "--out", "x.csv", "--bogus"],
    ["simulate", "--model", "healthy", "--t", "1", "--out", "x.csv"],
    ["simulate", "--model", "healthy", "--t-end", "1", "--out", "x.csv", "--", "x"],
    ["simulate", "--model", "nope", "--t-end", "1", "--out", "x.csv"],
    ["steady", "--model", "healthy", "--guess", "V=1"],
    ["classify", "--traj", "missing.csv"],
    ["check", "no-such-claim"],
    ["check", "qss-reduction-valid", "--override", "x"],
    ["catalog", "extra"],
]
MALFORMED_CSVS = {
    "empty": b"",
    "blank": b"\n \n\t\n",
    "no-header": b"T,t\n0,1\n1,2\n",
    "repeated-column": b"t,T,T\n0,1,2\n1,2,3\n",
    "cell-count": b"t,T\n0,1\n1,0.5,3\n",
    "not-a-number": b"t,T\n\n0,1\n \n1,abc\n",
    "not-finite": b"t,T\r\n0,1\r\n1,nan\r\n",
    "not-utf8": b"t,T\n0,1\n1,\xff\n",
    "one-row": b"t,T\n0,1\n",
}
ENV = {"python": platform.python_version(), "numpy": np.__version__,
       "machine": platform.machine(), "system": platform.system()}


def _report_name(claim: str, override: str | None) -> str:
    return f"{claim}.json" if override is None else f"{claim}@{override}.json"


def _run(argv: list) -> dict:
    """``run_cli(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def outputs(workdir: Path) -> tuple[dict, dict]:
    """Run every pinned command, writing its files under ``workdir``.
    Returns the report bytes by file name, and ``outputs.json``'s record
    without its ``env``."""
    claims._MECH_CACHE.clear()
    reports, record = {}, {"check": {}, "simulate": {}, "steady": {}}
    for claim, override in CHECKS:
        name = _report_name(claim, override)
        path = workdir / name
        record["check"][name] = _run(["check", claim, "--json", str(path)]
                                     + (["--override", override] if override else []))
        reports[name] = path.read_bytes() if path.exists() else b""
    for model in all_kind_names():
        path = workdir / f"{model}.csv"
        run = _run(["simulate", "--model", model, "--t-end", "20", "--out", str(path)])
        run["sha256"] = hashlib.sha256(path.read_bytes() if path.exists() else b"").hexdigest()
        record["simulate"][model] = run
        record["steady"][model] = _run(["steady", "--model", model])
    return reports, record


def diagnostics(workdir: Path) -> dict:
    """Run every bad argv and classify every malformed CSV in ``workdir``;
    returns ``diagnostics.json``'s record."""
    record = {"argv": {}, "csv": {}}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            for argv in BAD_ARGVS:
                record["argv"][" ".join(argv)] = _run(argv)
            for name, text in MALFORMED_CSVS.items():
                Path(f"{name}.csv").write_bytes(text)
                record["csv"][name] = _run(["classify", "--traj", f"{name}.csv"])
    finally:
        os.chdir(cwd)
    return record


def first_difference(golden, now, path: str = "$"):
    """``(path, golden value, value now)`` at the first JSON path where
    ``now`` differs from ``golden``, or None.  Numbers compare by repr, so
    nan equals nan and -0.0 differs from 0.0; two strings that differ and
    both hold JSON are compared as JSON."""
    if isinstance(golden, dict) and isinstance(now, dict):
        for key in [*golden, *(k for k in now if k not in golden)]:
            if key not in golden or key not in now:
                return f"{path}.{key}", golden.get(key, "<absent>"), now.get(key, "<absent>")
            found = first_difference(golden[key], now[key], f"{path}.{key}")
            if found:
                return found
        return None if list(golden) == list(now) else (f"{path} (key order)", list(golden),
                                                        list(now))
    if isinstance(golden, list) and isinstance(now, list):
        for i, (a, b) in enumerate(zip(golden, now)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return None if len(golden) == len(now) else (f"{path} (length)", len(golden), len(now))
    if type(golden) is type(now) and repr(golden) == repr(now):
        return None
    if isinstance(golden, str) and isinstance(now, str):
        with contextlib.suppress(ValueError):
            found = first_difference(json.loads(golden), json.loads(now), f"{path} (as JSON)")
            if found:
                return found
    return path, golden, now


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


def _golden_record() -> dict:
    return json.loads((GOLDEN / OUTPUTS).read_text(encoding="utf-8"))


def _fail(name: str, found) -> None:
    where, golden, now = found
    pytest.fail(f"{name}: {where}: golden {golden!r}, now {now!r} "
                f"(golden made on {_golden_record()['env']}, this run on {ENV})")


def test_every_report_is_pinned(regenerated):
    reports, _ = regenerated
    pinned = sorted(path.name for path in GOLDEN.glob("*.json")
                    if path.name not in (OUTPUTS, DIAGNOSTICS))
    assert pinned == sorted(reports)


@pytest.mark.parametrize("name", [_report_name(*check) for check in CHECKS])
def test_report_is_golden(regenerated, name):
    golden, now = (GOLDEN / name).read_bytes(), regenerated[0][name]
    if golden == now:
        return
    try:
        found = first_difference(json.loads(golden), json.loads(now))
    except ValueError as exc:
        found = ("$", golden[:80], f"{now[:80]!r}, not JSON ({exc})")
    if found is None:  # the same values, written otherwise
        offset = next((i for i, (a, b) in enumerate(zip(golden, now)) if a != b),
                      min(len(golden), len(now)))
        found = (f"byte {offset}", golden[offset:offset + 40], now[offset:offset + 40])
    _fail(name, found)


@pytest.mark.parametrize("command", ["check", "simulate", "steady"])
def test_runs_are_golden(regenerated, command):
    found = first_difference(_golden_record()[command], regenerated[1][command],
                             f"$.{command}")
    if found:
        _fail(OUTPUTS, found)


@pytest.mark.parametrize("kind", ["argv", "csv"])
def test_diagnostics_are_golden(tmp_path, kind):
    golden = json.loads((GOLDEN / DIAGNOSTICS).read_text(encoding="utf-8"))[kind]
    found = first_difference(golden, diagnostics(tmp_path)[kind], f"$.{kind}")
    if found:
        _fail(DIAGNOSTICS, found)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reports, record = outputs(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        diagnosed = diagnostics(Path(tmp))
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for name, data in reports.items():
        (GOLDEN / name).write_bytes(data)
    (GOLDEN / OUTPUTS).write_text(json.dumps({"env": ENV, **record}, indent=2) + "\n",
                                  encoding="utf-8")
    (GOLDEN / DIAGNOSTICS).write_text(json.dumps(diagnosed, indent=2) + "\n", encoding="utf-8")
