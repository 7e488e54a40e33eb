"""qsslab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload claims --seed 1 --seconds 30 --trace 0

A run repeats the workload's pass (the op list generated from ``--seed``)
until ``--seconds`` of timed work are done, always finishing the pass it is
in.  One process and one thread drive qsslab as a closed loop: each op is
issued when the previous one has returned.  Outputs are checked after each
pass, outside the timed phase.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones.  The last line of stdout is the result as JSON; the lines before it
give the environment, the sample counts and the failed-op ratio with its
base.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import common
import inputs
import speed

PROBE = os.path.join(common.HERE, "probe.py")
SETUP_PROBES = 9


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first op."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, PROBE, workload, str(seed)],
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    ready, gen_s = (float(v) for v in proc.stdout.split()[-2:])
    return ready - spawned - gen_s


def run_pass(workload, ops, tracer=None):
    """One pass: (wall seconds, op latencies in seconds, op latencies in
    reference units, outputs).

    The pass samples the machine's speed (``speed.SpeedProbe``) and leaves
    the sampling out of its times.  An op that raises has the exception as
    its output.
    """
    probe = speed.SpeedProbe(tracer.exclude if tracer else None)
    latencies, spans, outputs = [], [], []
    with probe:
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
                span = tracer.open("op")
            stolen = probe.stolen
            t0 = time.perf_counter()
            try:
                out = workload.run(i, op)
            except Exception as exc:  # recorded as the op's failure, never dropped
                out = exc
            t1 = time.perf_counter()
            latencies.append(t1 - t0 - (probe.stolen - stolen))
            spans.append((t0, t1))
            if tracer is not None:
                tracer.close(span)
            outputs.append(out)
        wall = time.perf_counter() - start - probe.stolen
    relative = [lat / probe.reference_s(*span) for lat, span in zip(latencies, spans)]
    return wall, latencies, relative, outputs


def check_pass(workload, ops, outputs):
    """Findings per op: ("failed" | "wrong", text)."""
    from qsslab.errors import QsslabError

    findings = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, QsslabError):
            found = [("failed", f"op {i}: {type(out).__name__}: {out}")]
        elif isinstance(out, Exception):
            found = [("wrong", f"op {i}: " + "".join(traceback.format_exception(out)))]
        else:
            try:
                found = workload.check(i, op, out)
            except Exception:
                found = [("wrong", f"op {i}: check failed: {traceback.format_exc()}")]
        findings.append(found)
    return findings


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.use_checkout_source()
    ops = inputs.generate(args.workload, args.seed)
    # set-up samples are spread over the run, one between passes, so that
    # their median covers more than a moment of the machine's drifting speed
    setups = [] if args.trace else [setup_sample(args.workload, args.seed)]

    import workloads
    if args.trace:
        import tracing
    env = common.environment()
    os.makedirs(common.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.OUT)
    walls, traced_walls, traced_walls_ref, latencies, tracers = [], [], [], [], []
    walls_ref, latencies_ref = [], []  # the same in reference units (speed.py), per pass
    attempted = failed = defect_ops = 0
    defect_names = collections.Counter()  # known defect -> ops whose output shows it
    problems = []
    try:
        workload = workloads.WORKLOADS[args.workload](ops, workdir)
        timed = 0.0
        # a traced run alternates untraced and traced passes, untraced first
        while timed < args.seconds or (args.trace and not tracers):
            traced = args.trace and len(walls) % 2 == 1
            tracer = tracing.Tracer() if traced else None
            restore = tracing.install(tracer) if traced else None
            try:
                wall, lat, lat_ref, outputs = run_pass(workload, ops, tracer)
            finally:
                if restore:
                    restore()
            timed += wall
            if traced:
                tracers.append(tracer)
                traced_walls.append(wall)
                traced_walls_ref.append(sum(lat_ref))
            else:
                walls.append(wall)
                latencies += lat
                walls_ref.append(sum(lat_ref))
                latencies_ref.append(lat_ref)
            findings = check_pass(workload, ops, outputs)
            kinds = [{kind for kind, _ in found} for found in findings]
            attempted += len(findings)
            failed += sum(bool(k - {"defect"}) for k in kinds)
            shown = [{text.split(":", 1)[0] for _, text in found}
                     for found, k in zip(findings, kinds) if k == {"defect"}]
            defect_ops += len(shown)
            defect_names.update(name for names in shown for name in names)
            if traced:
                tracer.counts["checks.known_defect_ops"] = len(shown)
            problems += [text for found in findings for kind, text in found if kind == "wrong"]
            if len(walls) + len(tracers) == 1:  # the failures and defects of one pass, once
                for kind, text in (f for found in findings for f in found if f[0] != "wrong"):
                    print(f"{kind}: {text}", file=sys.stderr)
            if setups and len(setups) < SETUP_PROBES:
                setups.append(setup_sample(args.workload, args.seed))
        while setups and len(setups) < SETUP_PROBES:
            setups.append(setup_sample(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        layer, count_problems = tracing.combine(tracers)
        problems += count_problems
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_walls_ref) / statistics.median(walls_ref),
            "unit": "ratio"}
        with open(os.path.join(common.OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"),
                  "w", encoding="utf-8") as fh:
            for pass_no, tracer in enumerate(tracers):
                tracer.write_spans(fh, pass_no)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_ref": {"value": statistics.median(walls_ref), "unit": "ref"},
            # percentiles per pass, then the median over passes, so that they
            # do not depend on how many passes fit in the run
            "op_p50_ref": {"value": statistics.median(statistics.median(p) for p in latencies_ref),
                           "unit": "ref"},
            "op_p90_ref": {"value": statistics.median(percentile(p, 90) for p in latencies_ref),
                           "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        print(f"wall_s {statistics.median(walls):.6f} s  op_p50_ms "
              f"{statistics.median(latencies) * 1e3:.6f} ms  op_p90_ms "
              f"{percentile(latencies, 90) * 1e3:.6f} ms  (raw wall clock)")
    for text in dict.fromkeys(problems):
        print(f"wrong: {text}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print("env: " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} untraced and "
          f"{len(tracers)} traced passes of {len(ops)} ops; op latency samples {len(latencies)}")
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} attempted ops)")
    print(f"known_defect_ratio {defect_ops / attempted:.6f} ({defect_ops} of {attempted} "
          f"attempted ops completed with the output of a known qsslab defect; ops per defect: "
          f"{json.dumps(dict(sorted(defect_names.items())))})")
    with open(os.path.join(common.OUT, f"result-{args.workload}-seed{args.seed}"
                                       f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "ops_per_pass": len(ops), "pass_walls_s": walls,
                   "traced_pass_walls_s": traced_walls, "known_defect_ops": defect_ops,
                   "ops_per_known_defect": defect_names,
                   **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
