"""The machine's current speed, from a fixed reference kernel.

The benchmark shares a few cores of a host with other tenants, and its speed
drifts by up to ~60% over minutes while the program's work stays the same.
A timed run is therefore bracketed by the reference kernel, run in the
parent just before and just after the child that does the work, and its
time is scaled by the kernel's reference time over the mean kernel time
around it: the time the run would have taken at the reference speed.

The kernel uses no condcorr code, so a change to the program cannot move
it.  It has two parts, one for each kind of work the workloads do: a
row-by-row CSV round trip in the interpreter (cli-chain's CSV writing and
ingest) and whole-array numpy passes (the conditional sweep and the
first-passage scans).  Contention slows the two kinds by different shares,
so each workload is scaled by the parts that match its work.  Over 400-s
traces on a 2-vCPU VM, the spread of 25-s medians fell from 0.09 to 0.025
of the median on cli-chain (both parts), from 0.08 to 0.04 on dense-grid
and from 0.06 to 0.03 on long-walk (array part only).
"""

from __future__ import annotations

import csv
import datetime
import io
import time

import numpy as np

CSV_ROWS = 6_000
ARRAY_SIZE = 500_000
ARRAY_PASSES = 4

_rng = np.random.default_rng(0)
_PRICES = (100.0 * np.exp(np.cumsum(_rng.choice([-0.01, 0.01], CSV_ROWS)))).tolist()
_ARRAY = _rng.standard_normal(ARRAY_SIZE)
_FIRST_DAY = np.datetime64("2000-01-03", "D")


def _csv_round_trip() -> float:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Date", "Close"])
    for i, price in enumerate(_PRICES):
        writer.writerow([str(_FIRST_DAY + i), f"{price:.12g}"])
    buf.seek(0)
    total = 0.0
    for row in csv.DictReader(buf):
        np.datetime64(datetime.date.fromisoformat(row["Date"]), "D")
        price = float(row["Close"])
        if np.isfinite(price) and price > 0.0:
            total += price
    return total


def _array_passes() -> float:
    total = 0.0
    for _ in range(ARRAY_PASSES):
        ordered = np.sort(_ARRAY)
        mask = (_ARRAY > 0.1) & (_ARRAY < 0.5)
        blocks = np.add.reduceat(_ARRAY, np.arange(0, ARRAY_SIZE, 64))
        total += np.cumsum(ordered)[-1] + _ARRAY[mask].sum() + blocks.max()
    return total


KERNEL_PARTS = {"csv": _csv_round_trip, "array": _array_passes}
# each part's reference time: about its time on a 2-vCPU Xeon VM when the
# host is quiet (Python 3.11, numpy 2.4, one BLAS thread)
REFERENCE_S = {"csv": 0.055, "array": 0.036}


def kernel_seconds(parts) -> float:
    """Wall time of one pass of the named kernel parts."""
    t0 = time.perf_counter()
    for part in parts:
        KERNEL_PARTS[part]()
    return time.perf_counter() - t0


class SpeedProbe:
    """Scale factors for work done between successive kernel passes.

    Each call to ``factor()`` runs the kernel once; the kernel pass after one
    piece of work is the pass before the next.
    """

    def __init__(self, parts):
        self.parts = tuple(parts)
        self.reference_s = sum(REFERENCE_S[part] for part in self.parts)
        self._before = kernel_seconds(self.parts)
        self.kernel_times = [self._before]

    def factor(self) -> float:
        """Reference time over the mean kernel time before and after the work."""
        after = kernel_seconds(self.parts)
        self.kernel_times.append(after)
        mean = (self._before + after) / 2
        self._before = after
        return self.reference_s / mean
