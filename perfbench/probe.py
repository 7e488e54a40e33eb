"""Set-up probe: one fresh interpreter, from its start to the first op.

    python3 perfbench/probe.py <workload> <seed>

Prints the monotonic clock (system-wide on Linux, so the parent can compare
it with its own reading taken before the spawn) at the moment the first op
could start, and the seconds spent generating inputs, which set-up excludes.
"""
import sys
import time

gen_start = time.monotonic()
import common  # noqa: E402
import inputs  # noqa: E402

ops = inputs.generate(sys.argv[1], int(sys.argv[2]))
gen_s = time.monotonic() - gen_start

common.use_checkout_source()
import workloads  # noqa: E402  (imports qsslab)

workloads.WORKLOADS[sys.argv[1]](ops, common.OUT)
print(time.monotonic(), gen_s)
