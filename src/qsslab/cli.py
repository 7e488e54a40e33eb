"""Command-line front end.

Subcommands: ``simulate``, ``steady``, ``classify``, ``sweep``, ``check``,
``catalog``.  Exit codes: 0 success (or claim pass), 1 claim fail, 2 usage
error, 3 numerical failure.  Diagnostics go to stderr; data goes only to the
paths given by flags (or stdout for ``catalog``), and each such path is
checked before the command computes anything.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import catalog as cat
from .analysis import classify_curvature, find_steady_state
from .claims import CLAIMS, SweepSpec, collapse_window, mechanism_trajectory, run_claim, sweep
from .core import StateVector
from .dsl import compile_model, default_initial_state, default_params, parse_model
from .errors import NUMERICAL_ERRORS, ParseError, QsslabError, SemanticError, UsageError
from .integrate import Trajectory, integrate_adaptive, integrate_fixed
from .svg import render_plot

_CSV_BLOCK = 65_536  # rows of a trajectory CSV formatted at once


def _parse_kv(pairs, what):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError(f"{what} expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise UsageError(f"{what} {name!r}: {value!r} is not a number") from None
    return out


def _finite(text: str) -> float:
    """argparse type: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type: a finite number above zero."""
    value = _finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


@functools.lru_cache(maxsize=64)
def _file_model(text: str):
    """The model ``text`` defines, its default parameters and its default
    initial state, compiled once per process: memoised on the text (the 64
    most recently used), as ``parse_model`` is, so an edited file compiles
    again and a rejected text raises again on every call."""
    defn = parse_model(text)
    return compile_model(defn), default_params(defn), default_initial_state(defn)


def _load_model(spec: str):
    """Resolve a --model argument, a catalog name or a .qssm path, to the
    model, its default parameters and its default initial state."""
    if spec.endswith(".qssm"):
        try:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read model file {spec!r}: {exc}") from None
        return _file_model(text)
    names = cat.all_kind_names()
    if spec not in names:
        raise UsageError(
            f"unknown model {spec!r}; catalog: " + ", ".join(names)
            + " (or give a .qssm file path)"
        )
    return cat.make_model(spec), cat.default_params(spec), cat.default_state(spec)


def _assemble_state(base_state, init_args):
    given = _parse_kv(init_args, "--init")
    values = dict(zip(base_state.names, base_state.values))
    for name, value in given.items():
        if name not in values:
            raise UsageError(
                f"--init {name!r} is not a state of this model "
                f"(states: {', '.join(base_state.names)})"
            )
        values[name] = value
    return StateVector(base_state.names, [values[n] for n in base_state.names])


def _check_writable(path: str) -> None:
    """Raise ``UsageError`` unless ``path`` could be written as a file: its
    directory exists and is writable, and the path is not a directory.
    Neither creates nor truncates the file."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent!r}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise UsageError(f"cannot write {path!r}: {reason}")


def _write_text(path: str, pieces) -> None:
    """Write the strings ``pieces``, in order, to the file ``path``; a path
    that cannot be written raises ``UsageError``."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from None


def write_trajectory_csv(trajectory: Trajectory, path: str) -> None:
    """Write the header, then the rows ``_CSV_BLOCK`` at a time: each block
    is one tuple of its times and states, row by row, formatted into one
    string by one ``%`` with a row template repeated once per row."""
    row = ",".join(["%.17g"] * (len(trajectory.state_names) + 1)) + "\n"

    def pieces():
        yield "t," + ",".join(trajectory.state_names) + "\n"
        for i in range(0, len(trajectory), _CSV_BLOCK):
            block = np.column_stack((trajectory.times[i:i + _CSV_BLOCK],
                                     trajectory.states[i:i + _CSV_BLOCK]))
            yield row * len(block) % tuple(block.ravel().tolist())
    _write_text(path, pieces())


def read_trajectory_csv(path: str) -> Trajectory:
    """Read a CSV that ``write_trajectory_csv`` wrote.  A file that is not
    one -- unreadable, without the ``t,...`` header, with an empty or a
    repeated column name, with a row whose cell count differs from the
    header's or with a cell that is not a finite number -- raises
    ``UsageError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read trajectory {path!r}: {exc}") from None
    if not lines or not lines[0][1].startswith("t,"):
        raise UsageError(f"{path!r} is not a trajectory CSV (expected header 't,...')")
    header = lines[0][1].split(",")
    for i, name in enumerate(header):
        if not name or name in header[:i]:
            raise UsageError(f"{path!r} header: column {i + 1} is "
                             + (f"a second {name!r}" if name else "empty"))
    names = tuple(header[1:])
    times = []
    states = []
    for line_no, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names) + 1:
            raise UsageError(
                f"{path!r} line {line_no}: {len(cells)} cells, the header has {len(names) + 1}"
            )
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise UsageError(f"{path!r} line {line_no}: {line!r} is not all numbers") from None
        if not all(map(math.isfinite, row)):
            raise UsageError(f"{path!r} line {line_no}: {line!r} is not all finite")
        times.append(row[0])
        states.append(row[1:])
    return Trajectory(np.array(times), np.array(states), names, {"scheme": "csv"})


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if path:
        _write_text(path, [text])
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    model, params, base_state = _load_model(args.model)
    params = params.with_updates(**_parse_kv(args.param, "--param"))
    state0 = _assemble_state(base_state, args.init)
    if args.dt is not None:
        traj = integrate_fixed(model, params, state0, args.t0, args.t_end, args.dt,
                               rtol=args.rtol, atol=args.atol)
    else:
        traj = integrate_adaptive(model, params, state0, args.t0, args.t_end,
                                  rtol=args.rtol, atol=args.atol)
    write_trajectory_csv(traj, args.out)
    if args.plot:
        series = [
            (name, traj.times.tolist(), traj.component(name).tolist())
            for name in traj.state_names
        ]
        _write_text(args.plot, [render_plot(series, title=model.name, xlabel="t",
                                            ylabel="concentration")])
    return 0


def _cmd_steady(args) -> int:
    model, params, base_state = _load_model(args.model)
    params = params.with_updates(**_parse_kv(args.param, "--param"))
    guess = _assemble_state(base_state, args.guess)
    report = find_steady_state(model, params, guess)
    _write_json(
        {
            "schema": 1,
            "model": model.name,
            "values": report.values.as_dict(),
            "residual": report.residual,
            "method": report.method,
            "relaxation_rate": report.relaxation_rate,
        },
        args.out,
    )
    return 0


def _cmd_classify(args) -> int:
    traj = read_trajectory_csv(args.traj)
    window = None
    if args.window:
        lo, _, hi = args.window.partition(":")
        try:
            window = (float(lo), float(hi))
        except ValueError:
            window = (math.nan, math.nan)
        if not (math.isfinite(window[0]) and math.isfinite(window[1]) and window[0] < window[1]):
            raise UsageError(f"--window expects t0:t1 with finite t0 < t1, got {args.window!r}")
    verdict = classify_curvature(traj, args.component, window=window)
    _write_json(
        {
            "schema": 1,
            "component": args.component,
            "class": verdict.curvature_class,
            "window": list(verdict.window),
            "evidence": verdict.evidence,
            "shape_label": verdict.shape_label,
        },
        args.out,
    )
    return 0


def _cmd_sweep(args) -> int:
    model, params, base_state = _load_model(args.model)
    params = params.with_updates(**_parse_kv(args.param, "--param"))
    name, _, values = args.sweep.partition("=")
    if not values:
        raise UsageError("--sweep expects name=v1,v2,...")
    try:
        grid = tuple(float(v) for v in values.split(","))
    except ValueError:
        raise UsageError(f"--sweep values must be numbers, got {values!r}") from None
    state0 = _assemble_state(base_state, args.init)
    metrics = tuple(m.strip() for m in args.metrics.split(","))
    spec = SweepSpec(
        model_kind=args.model, base_params=params, sweep_param=name.strip(),
        grid=grid, initial_state=state0, metrics=metrics, model=model,
    )
    rows = sweep(spec)
    columns = [spec.sweep_param] + [m for m in metrics]
    extras = sorted({k for row in rows for k in row} - set(columns))
    columns += extras
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            cells.append(f"{value:.17g}" if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    _write_text(args.out, ["\n".join(lines) + "\n"])
    return 0


def _cmd_check(args) -> int:
    overrides = _parse_kv(args.override, "--override") or None
    report = run_claim(args.claim, overrides)
    if args.json:
        _write_json(report.to_json_dict(), args.json)
    if args.plot:
        series = []
        shade = None
        left_out = []
        for kind in cat.MechanismKind:
            try:
                _, _, traj = mechanism_trajectory(kind, overrides)
            except NUMERICAL_ERRORS as exc:
                left_out.append(f"{kind.value} ({exc})")
                continue
            series.append((kind.value, traj.times.tolist(), traj.component("T").tolist()))
            if shade is None:
                shade = collapse_window(traj)
        if left_out:
            print(f"plot: left out {', '.join(left_out)}"
                  + ("" if series else f"; {args.plot} not written"), file=sys.stderr)
        if series:
            _write_text(args.plot, [render_plot(series, title=args.claim, xlabel="t", ylabel="T",
                                                shade=shade)])
    print(f"{report.claim_id}: {report.verdict.upper()}", file=sys.stderr)
    print(report.narrative, file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_catalog(_args) -> int:
    for name in cat.all_kind_names():
        model = cat.make_model(name)
        params = cat.default_params(name)
        print(f"{name}")
        print(f"  states:   {', '.join(model.state_names)}")
        print(f"  equation: {model.equation}")
        print(f"  time-dependent: {'yes' if model.time_dependent else 'no'}")
        specs = []
        for spec in model.param_schema:
            text = spec.name
            if spec.minimum is not None:
                text += f" ({'>' if spec.exclusive else '>='} {spec.minimum:g})"
            text += f" = {params[spec.name]:g}"
            specs.append(text)
        print(f"  params:   {'; '.join(specs)}")
        if model.slow_rate_params:
            print(f"  slow rates: {', '.join(model.slow_rate_params)}")
        print()
    print("claims: " + ", ".join(sorted(CLAIMS)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsslab",
        description="Simulate and analyze quasi-steady-state CD4 decline models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a model and write a CSV trajectory")
    sim.add_argument("--model", required=True, help="catalog name or .qssm file")
    sim.add_argument("--param", action="append", metavar="NAME=VALUE")
    sim.add_argument("--init", action="append", metavar="STATE=VALUE")
    sim.add_argument("--t0", type=_finite, default=0.0)
    sim.add_argument("--t-end", type=_finite, required=True, dest="t_end")
    sim.add_argument("--dt", type=_positive, default=None,
                     help="store the adaptive run (at --rtol/--atol) every DT, not at its steps")
    sim.add_argument("--rtol", type=_positive, default=1e-8)
    sim.add_argument("--atol", type=_positive, default=1e-12)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--plot", default=None, help="optional SVG path")
    sim.set_defaults(func=_cmd_simulate)

    steady = sub.add_parser("steady", help="locate a steady state")
    steady.add_argument("--model", required=True)
    steady.add_argument("--param", action="append", metavar="NAME=VALUE")
    steady.add_argument("--guess", action="append", metavar="STATE=VALUE")
    steady.add_argument("--out", default=None, help="output JSON path (default stdout)")
    steady.set_defaults(func=_cmd_steady)

    classify = sub.add_parser("classify", help="classify trajectory curvature")
    classify.add_argument("--traj", required=True, help="trajectory CSV path")
    classify.add_argument("--component", default="T")
    classify.add_argument("--window", default=None, metavar="T0:T1")
    classify.add_argument("--out", default=None, help="output JSON path (default stdout)")
    classify.set_defaults(func=_cmd_classify)

    swp = sub.add_parser("sweep", help="sweep one parameter and tabulate metrics")
    swp.add_argument("--model", required=True)
    swp.add_argument("--param", action="append", metavar="NAME=VALUE")
    swp.add_argument("--sweep", required=True, metavar="NAME=V1,V2,...")
    swp.add_argument("--init", action="append", metavar="STATE=VALUE")
    swp.add_argument("--metrics", default="T*,t_eps")
    swp.add_argument("--out", required=True, help="output CSV path")
    swp.set_defaults(func=_cmd_sweep)

    check = sub.add_parser("check", help="run a registered claim")
    check.add_argument("claim", choices=sorted(CLAIMS))
    check.add_argument("--json", default=None, help="write the report JSON here")
    check.add_argument("--override", action="append", metavar="NAME=VALUE",
                       help="override matching parameters in the claim protocol")
    check.add_argument("--plot", default=None, help="write a mechanism overview SVG here")
    check.set_defaults(func=_cmd_check)

    catalog_cmd = sub.add_parser("catalog", help="list models, parameters, defaults")
    catalog_cmd.set_defaults(func=_cmd_catalog)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: parsing leaves it unchanged."""
    return build_parser()


def run_cli(argv) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for path in (getattr(args, flag, None) for flag in ("out", "plot", "json")):
            if path:
                _check_writable(path)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, SemanticError) as exc:
        print(f"model definition error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except QsslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
