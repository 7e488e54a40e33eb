"""Per-layer tracing for the traced run.

``install(tracer)`` wraps qsslab's public functions at every module
attribute that refers to them -- the names their callers resolve, such as
``qsslab.claims.integrate_adaptive`` -- and returns a function that puts the
originals back.  Models that come out of the catalog factories or
``compile_model`` get their rhs wrapped through ``dataclasses.replace``.

A span (name, start, end, parent, op) is recorded at each wrapped call and
kept in memory.  rhs calls are too many to keep as spans: each adds its
duration and one call to the innermost open span instead.  A span's self
time is its duration minus the time of its children, rhs calls included.
"""
from __future__ import annotations

import dataclasses
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import inputs

import qsslab
from qsslab import analysis, catalog, claims, cli, core, dsl, integrate
from qsslab.errors import EvaluationError

MODULES = (qsslab, analysis, catalog, claims, cli, core, dsl, integrate)

# span name -> layer whose self time it adds to
LAYER_OF = {
    "validate": "core", "resolve_params": "core",
    "make_model": "catalog", "make_base_model": "catalog", "make_mechanism_model": "catalog",
    "parse_model": "dsl", "compile_model": "dsl",
    "integrate_adaptive": "integrate", "integrate_fixed": "integrate",
    "find_steady_state": "analysis", "time_to_epsilon": "analysis",
    "classify_curvature": "analysis", "qss_reduce": "analysis",
    "run_claim": "claims", "sweep": "claims", "mechanism_trajectory": "claims",
    "collapse_window": "claims", "per_capita_removal": "claims",
    "run_cli": "cli", "write_trajectory_csv": "cli", "read_trajectory_csv": "cli",
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op)
        self.self_s = defaultdict(float)  # span name -> summed self seconds
        self.rhs_s = defaultdict(float)  # "catalog" | "dsl" -> summed rhs seconds
        self.counts = defaultdict(int)
        self.mechanism_runs = defaultdict(set)  # kind -> {(accepted, rhs evals)}
        self.op = None
        self._stack = []  # open spans: [name, id, start, child seconds, rhs calls]

    def exclude(self, seconds):
        """Leave ``seconds`` spent outside qsslab out of the open span's self time."""
        if self._stack:
            self._stack[-1][3] += seconds

    def open(self, name):
        span = [name, len(self.spans) + len(self._stack), perf_counter(), 0.0, 0]
        self._stack.append(span)
        return span

    def close(self, span):
        """Close the innermost span; return the name of its parent."""
        end = perf_counter()
        self._stack.pop()
        name, sid, start, child, _ = span
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += end - start
        self.self_s[name] += end - start - child
        self.counts[name + ".calls"] += 1
        self.spans.append((sid, name, start, end, parent and parent[1], self.op))
        return parent and parent[0]

    def wrap(self, fn, name, after=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(span)
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            parent = self.close(span)
            return after(result, args, span, parent) if after else result
        return traced

    def count_rhs(self, model, layer):
        """The model with its rhs timed and counted under ``layer``."""
        rhs = model.rhs
        if getattr(rhs, "traced_layer", None):
            return model
        stack, counts, rhs_s = self._stack, self.counts, self.rhs_s
        calls, errors = layer + ".rhs_calls", layer + ".eval_errors"

        def counted(t, y, p):
            start = perf_counter()
            try:
                return rhs(t, y, p)
            except EvaluationError:
                counts[errors] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                rhs_s[layer] += elapsed
                counts[calls] += 1
                if stack:
                    stack[-1][3] += elapsed
                    stack[-1][4] += 1

        counted.traced_layer = layer
        return dataclasses.replace(model, rhs=counted)

    # -- per-call bookkeeping on results -----------------------------------

    def _catalog_model(self, model, args, span, parent):
        return self.count_rhs(model, "catalog")

    def _compiled_model(self, model, args, span, parent):
        return self.count_rhs(model, "dsl")

    def _integrated(self, traj, args, span, parent):
        steps = traj.solver_info["accepted"], traj.solver_info["rejected"]
        self.counts["integrate.accepted_steps"] += steps[0]
        self.counts["integrate.rejected_steps"] += steps[1]
        self.counts["integrate.rhs_evals"] += span[4]
        if parent == "time_to_epsilon":
            self.counts["analysis.t_eps_steps"] += sum(steps)
        if args[0].kind in inputs.MECHANISMS:
            self.mechanism_runs[args[0].kind].add((steps[0], span[4]))
        return traj

    def _steady(self, report, args, span, parent):
        self.counts["analysis.steady_rhs_evals"] += span[4]
        self.counts["analysis.steady_bisection_fallbacks"] += report.method == "bisection"
        return report

    def _swept(self, rows, args, span, parent):
        self.counts["claims.sweep_points"] += len(rows)
        return rows

    def _cli_exit(self, code, args, span, parent):
        self.counts["cli.exit_nonzero"] += code != 0
        return code

    def _csv_written(self, result, args, span, parent):
        self.counts["cli.csv_rows_written"] += len(args[0])
        return result

    def write_spans(self, fh, pass_no: int) -> None:
        """One JSON line per span; ``op`` is the op's index in its pass."""
        for sid, name, start, end, parent, op in self.spans:
            fh.write(json.dumps({"pass": pass_no, "id": sid, "name": name,
                                 "layer": LAYER_OF.get(name, "bench"), "start": start,
                                 "end": end, "parent": parent, "op": op}) + "\n")


def install(tracer: Tracer):
    """Wrap every traced function; return a function that undoes it."""
    after = {
        "make_model": tracer._catalog_model, "make_base_model": tracer._catalog_model,
        "make_mechanism_model": tracer._catalog_model, "compile_model": tracer._compiled_model,
        "integrate_adaptive": tracer._integrated, "integrate_fixed": tracer._integrated,
        "find_steady_state": tracer._steady, "sweep": tracer._swept,
        "run_cli": tracer._cli_exit, "write_trajectory_csv": tracer._csv_written,
    }
    undo = []
    for name, layer in LAYER_OF.items():
        if name == "resolve_params":
            continue
        original = getattr(sys.modules[f"qsslab.{layer}"], name)
        wrapper = tracer.wrap(original, name, after.get(name))
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
    original = core.ModelSystem.resolve_params
    core.ModelSystem.resolve_params = tracer.wrap(original, "resolve_params")
    undo.append((core.ModelSystem, "resolve_params", original))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    c, s = tr.counts, tr.self_s

    def ms(*names):
        return sum(s[n] for n in names) * 1e3

    def per_call_us(layer):
        return tr.rhs_s[layer] * 1e6 / c[layer + ".rhs_calls"] if c[layer + ".rhs_calls"] else 0.0

    steps = c["integrate.accepted_steps"] + c["integrate.rejected_steps"]
    integrate_ms = ms("integrate_adaptive", "integrate_fixed")
    m = {
        "integrate.calls": (c["integrate_adaptive.calls"] + c["integrate_fixed.calls"], "count"),
        "integrate.accepted_steps": (c["integrate.accepted_steps"], "count"),
        "integrate.rejected_steps": (c["integrate.rejected_steps"], "count"),
        "integrate.accept_ratio": (c["integrate.accepted_steps"] / steps if steps else 0.0, "ratio"),
        "integrate.rhs_evals": (c["integrate.rhs_evals"], "count"),
        "integrate.self_ms": (integrate_ms, "ms"),
        "integrate.overhead_us_per_step": (integrate_ms * 1e3 / steps if steps else 0.0, "us"),
        "catalog.rhs_calls": (c["catalog.rhs_calls"], "count"),
        "catalog.rhs_us_per_call": (per_call_us("catalog"), "us"),
        "catalog.make_model_ms": (ms("make_model", "make_base_model", "make_mechanism_model"), "ms"),
        "dsl.parse_ms": (ms("parse_model"), "ms"),
        "dsl.compile_ms": (ms("compile_model"), "ms"),
        "dsl.rhs_calls": (c["dsl.rhs_calls"], "count"),
        "dsl.rhs_us_per_call": (per_call_us("dsl"), "us"),
        "dsl.eval_errors": (c["dsl.eval_errors"], "count"),
        "analysis.steady_calls": (c["find_steady_state.calls"], "count"),
        "analysis.steady_self_ms": (ms("find_steady_state"), "ms"),
        "analysis.steady_rhs_evals": (c["analysis.steady_rhs_evals"], "count"),
        "analysis.steady_bisection_fallbacks": (c["analysis.steady_bisection_fallbacks"], "count"),
        "analysis.t_eps_calls": (c["time_to_epsilon.calls"], "count"),
        "analysis.t_eps_self_ms": (ms("time_to_epsilon"), "ms"),
        "analysis.t_eps_steps": (c["analysis.t_eps_steps"], "count"),
        "analysis.t_eps_timeouts": (c["time_to_epsilon.raised.ConvergenceTimeoutError"], "count"),
        "analysis.classify_calls": (c["classify_curvature.calls"], "count"),
        "analysis.classify_self_ms": (ms("classify_curvature"), "ms"),
        "analysis.classify_insufficient": (c["classify_curvature.raised.InsufficientDataError"], "count"),
        "claims.self_ms": (ms("run_claim", "sweep", "mechanism_trajectory",
                              "collapse_window", "per_capita_removal"), "ms"),
        "claims.sweep_points": (c["claims.sweep_points"], "count"),
        "cli.self_ms": (ms("run_cli"), "ms"),
        "cli.csv_rows_written": (c["cli.csv_rows_written"], "count"),
        "cli.csv_write_ms": (ms("write_trajectory_csv"), "ms"),
        "cli.csv_read_ms": (ms("read_trajectory_csv"), "ms"),
        "cli.exit_nonzero": (c["cli.exit_nonzero"], "count"),
        "core.validate_calls": (c["validate.calls"], "count"),
        "core.validate_ms": (ms("validate"), "ms"),
        "core.resolve_params_calls": (c["resolve_params.calls"], "count"),
        "checks.known_defect_ops": (c["checks.known_defect_ops"], "count"),
    }
    # one mechanism integration; every run of a mechanism in a pass is the same
    for kind in inputs.MECHANISMS:
        accepted, rhs_evals = max(tr.mechanism_runs.get(kind) or {(0, 0)})
        m[f"integrate.{kind}.accepted_steps"] = (accepted, "count")
        m[f"integrate.{kind}.rhs_evals"] = (rhs_evals, "count")
    return m


def combine(tracers: list) -> tuple[dict, list]:
    """Metrics over the traced passes: counts and ratios of counts must
    repeat exactly in every pass (each difference is returned as a problem);
    times are medians."""
    per_pass = [layer_metrics(tr) for tr in tracers]
    problems = [f"{kind} integrated to different results in one pass: {sorted(runs)}"
                for tr in tracers for kind, runs in tr.mechanism_runs.items() if len(runs) > 1]
    combined = {}
    for name, (value, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit in ("count", "ratio"):
            if any(v != value for v in values):
                problems.append(f"{name} differs between passes: {values}")
            combined[name] = (value, unit)
        else:
            combined[name] = (statistics.median(values), unit)
    return combined, problems
