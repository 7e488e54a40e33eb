"""The line-by-line reader of trajectory CSVs: the tests' oracle for
``qsslab.cli.read_trajectory_csv``.

``read_trajectory_csv`` checks and converts ``_CSV_BLOCK`` lines at a
time, in bulk, and rescans a block line by line only when a check
fails.  It must return, bit for bit, what ``read_by_line`` returns, and
raise the same ``UsageError`` (text and line number) where it raises.
``read_by_line`` reads the whole file into a list first, then checks and
converts one line at a time.
"""
from __future__ import annotations

import math

import numpy as np

from qsslab.errors import UsageError
from qsslab.integrate import Trajectory


def read_by_line(path: str) -> Trajectory:
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
