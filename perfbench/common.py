"""Checkout layout and the environment record shared by the runner and the
set-up probe (standard library only)."""
from __future__ import annotations

import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def use_checkout_source() -> None:
    """Make ``import qsslab`` load the checkout's own ``src/qsslab``.

    Exits with code 2 when the checkout has no source tree, so that a
    directory holding only the benchmark never reports a result.
    """
    if not os.path.isfile(os.path.join(SRC, "qsslab", "__init__.py")):
        print(f"perfbench: no qsslab source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def environment() -> dict:
    """What wall times depend on: they compare only on one machine."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    import numpy

    return {"cpu": cpu, "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__}
