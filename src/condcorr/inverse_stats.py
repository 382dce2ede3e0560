"""First-passage waiting times, their histograms, and tail-exponent fits.

Inverse statistics fix a return level ρ and ask how long a log-price path
takes to move by ρ from each start: τ = min{k ≥ 1 : s(t0+k) − s(t0) ≥ ρ}
for ρ > 0, with ≤ for ρ < 0.  Every index is a start (overlapping starts),
and starts whose level is never reached before the series ends are censored:
counted, but excluded from the histogram so they cannot fake a tail cutoff.

Crossing comparisons are evaluated as s(t0+k) ≥ s(t0) + ρ — the threshold is
rounded once per start, which keeps the search monotone; on adversarial
inputs this can differ from the subtract-first form by one ulp.

The waiting times for all starts are found in O(n log n) total by a binary
descent over range maxima, kept at two scales (the block decomposition of
range-maximum queries).  The series is padded with +inf to a multiple of
B = 32 positions, at least one past its end, so a search that finds no
crossing stops at position n, which marks the start censored.  Below B the
tables are full resolution: the maxima over 1, 2, 4, 8 and 16 positions
from every position, plus each position's maximum to the end of its block.
Above B they are doubling tables over the n/B block maxima.  A start whose
own block holds no crossing descends over the blocks to the first block
that does; either way a five-level descent inside the block finishes.
That is about (5 + 1)·n floats plus (n/B)·log₂(n/B), where a doubling table
at every scale would take n·log₂n.  The tables depend only on the series
and the sign of the level, so ``gain_loss_report`` runs one descent per
sign over every magnitude at once, chunk by chunk of starts, freeing each
sign's tables before the next build.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataError, InsufficientDataError, ValidationError
from .timeseries import DetrendedLogPrice, PriceSeries

__all__ = [
    "WaitingTimeSample",
    "FirstPassageResult",
    "WaitingTimeHistogram",
    "TailFit",
    "GainLossEntry",
    "GainLossReport",
    "first_passage_times",
    "BINNINGS",
    "check_binning",
    "waiting_time_histogram",
    "default_fit_range",
    "fit_tail_exponent",
    "gain_loss_report",
]

DEFAULT_LOG_BIN_RATIO = 1.25
BINNINGS = ("log", "linear")
# (magnitude, start) elements one descent step handles: a chunk's positions,
# thresholds and gathered maxima stay in cache across all the table levels
_DESCENT_CHUNK = 1 << 15
# positions per block of the first-passage tables: full-resolution tables
# cover the scales below it, doubling tables over block maxima those above.
# B = 8, 16, 32 and 64 ran within 2% of each other on a 5e5-day walk at 8
# magnitudes, and 32 ran 2% faster than 16 at 4e6 days; at 5e5 days the
# tables take 6.4 floats a day at B = 32 (5.9 at 16, 7.2 at 64)
_BLOCK = 32
_FINE_LEVELS = _BLOCK.bit_length() - 1


def _log_price_values(series) -> np.ndarray:
    if isinstance(series, PriceSeries):
        arr = series.log_closes
    elif isinstance(series, DetrendedLogPrice):
        arr = series.values
    else:
        arr = np.asarray(series, dtype=np.float64)
        if arr.ndim != 1:
            raise ValidationError("log-price series must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise DataError("log-price series contains non-finite values")
    if len(arr) < 2:
        raise ValidationError(f"series of length {len(arr)} has no starts")
    return arr


@dataclass(frozen=True)
class WaitingTimeSample:
    """One start's first-passage time to the level."""

    start_index: int
    waiting_time: int
    level: float


class FirstPassageResult(Sequence):
    """All non-censored first passages of one series at one level.

    Sequence of WaitingTimeSample; the underlying integer arrays are exposed
    as attributes for bulk work.  ``censored_count`` is the number of starts
    whose level was never reached; ``n_starts`` counts every start tried.
    """

    def __init__(self, level: float, start_indices: np.ndarray,
                 waiting_times: np.ndarray, censored_count: int, n_starts: int):
        self.level = float(level)
        self.start_indices = start_indices
        self.waiting_times = waiting_times
        self.censored_count = int(censored_count)
        self.n_starts = int(n_starts)
        start_indices.flags.writeable = False
        waiting_times.flags.writeable = False

    def __len__(self) -> int:
        return len(self.waiting_times)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return WaitingTimeSample(int(self.start_indices[i]),
                                 int(self.waiting_times[i]), self.level)

    def __iter__(self) -> Iterator[WaitingTimeSample]:
        for t0, tau in zip(self.start_indices, self.waiting_times):
            yield WaitingTimeSample(int(t0), int(tau), self.level)

    def __repr__(self) -> str:
        return (f"FirstPassageResult(level={self.level}, crossed={len(self)}, "
                f"censored={self.censored_count})")


class _PassageTables(NamedTuple):
    """Range maxima of a series at two scales, padded with +inf past its end.

    ``fine[k][i]`` is the maximum of the padded series over [i, i + 2**k)
    for k < log2(_BLOCK), ``suffix[i]`` its maximum from i to the end of i's
    block, and ``coarse[k][b]`` the maximum over blocks [b, b + 2**k), with
    one +inf block past the last.  A window that runs past the end is +inf.
    """

    n: int
    fine: list[np.ndarray]
    suffix: np.ndarray
    coarse: list[np.ndarray]


def _doubling_maxima(base: np.ndarray, levels: int) -> list[np.ndarray]:
    # tables[k][i] = max of base[i : i + 2**k], +inf where that runs past the end
    tables = [base]
    for k in range(1, levels):
        h = 1 << (k - 1)
        prev = tables[-1]
        table = np.empty_like(prev)
        np.maximum(prev[:-h], prev[h:], out=table[:-h])
        table[-h:] = np.inf
        tables.append(table)
    return tables


def _first_passage_tables(s: np.ndarray) -> _PassageTables:
    # at least one +inf pads the series, so every search stops by position n
    n = len(s)
    padded = np.full(-(-(n + 1) // _BLOCK) * _BLOCK, np.inf)
    padded[:n] = s
    blocks = padded.reshape(-1, _BLOCK)
    suffix = np.empty_like(padded)
    np.maximum.accumulate(blocks[:, ::-1], axis=1,
                          out=suffix.reshape(-1, _BLOCK)[:, ::-1])
    block_max = np.append(suffix[::_BLOCK], np.inf)
    return _PassageTables(n, _doubling_maxima(padded, _FINE_LEVELS), suffix,
                          _doubling_maxima(block_max, len(blocks).bit_length()))


def _first_passage_up(tables: _PassageTables, rhos) -> np.ndarray:
    """Positions of the first s[j] >= s[t0] + rho with j > t0, or n if none.

    One row per rho in ``rhos``, one column per start, in the smallest type
    holding n.  ``tables`` are ``_first_passage_tables(s)``.
    """
    n, fine, suffix, coarse = tables
    rhos = np.asarray(rhos, dtype=np.float64)[:, None]
    out = np.empty((len(rhos), n - 1), dtype=np.min_scalar_type(n))
    step = max(1, _DESCENT_CHUNK // max(len(rhos), 1))
    for a in range(0, n - 1, step):
        b = min(a + step, n - 1)
        thresholds = fine[0][a:b] + rhos
        first = np.arange(a + 1, b + 1)  # the first position each start tries
        # the first block past first's own whose maximum reaches the threshold
        block = np.tile(first // _BLOCK + 1, (len(rhos), 1))
        for k in range(len(coarse) - 1, -1, -1):
            block += (coarse[k][block] < thresholds) << k
        # the crossing lies in first's own block when that block's suffix
        # from first reaches the threshold, else in the block found
        pos = np.where(suffix[first] < thresholds, block * _BLOCK, first)
        for k in range(_FINE_LEVELS - 1, -1, -1):
            pos += (fine[k][pos] < thresholds) << k
        out[:, a:b] = pos
    return out


def _check_level(level: float):
    if level == 0.0 or not np.isfinite(level):
        raise ValidationError("level must be nonzero and finite")


def first_passage_times(series, level: float, *,
                        _positions: np.ndarray | None = None) -> FirstPassageResult:
    """First-passage waiting times from every start of a log-price series.

    ``series`` may be a PriceSeries (log closes are used), a
    DetrendedLogPrice, or a bare array of log-price values.  ``_positions``
    (private) are the crossing positions of every start at this level, found
    by the caller's descent over all its magnitudes at once; the caller has
    validated the series, so it is not read again.
    """
    _check_level(level)
    if _positions is None:
        s = _log_price_values(series)
        # a drop of |rho| in s is a rise of |rho| in -s
        tables = _first_passage_tables(s if level > 0 else -s)
        _positions = _first_passage_up(tables, [abs(level)])[0]
    n = len(_positions) + 1
    starts = np.arange(n - 1, dtype=np.int64)
    crossed = _positions < n
    return FirstPassageResult(
        level,
        starts[crossed],
        (_positions - starts)[crossed],
        censored_count=int(np.sum(~crossed)),
        n_starts=n - 1,
    )


def check_binning(binning: str, ratio: float = DEFAULT_LOG_BIN_RATIO,
                  width: float = 1.0):
    """Raise ValidationError unless the histogram parameters are usable.

    The binning is "log" or "linear", the log bin ratio finite and above 1,
    the linear bin width finite and positive; NaN fails every test.
    """
    if binning not in BINNINGS:
        raise ValidationError(f"unknown binning {binning!r}")
    if not (ratio > 1.0 and np.isfinite(ratio)):
        raise ValidationError(f"log bin ratio must be finite and exceed 1, got {ratio}")
    if not (width > 0.0 and np.isfinite(width)):
        raise ValidationError(f"linear bin width must be finite and positive, got {width}")


def _log_edges(tau_max: float, ratio: float) -> np.ndarray:
    # multiplicative edges, but never narrower than 1 so every bin of the
    # integer-valued waiting times contains at least one attainable value
    edges = [0.5]
    while edges[-1] <= tau_max:
        edges.append(max(edges[-1] * ratio, edges[-1] + 1.0))
    return np.asarray(edges)


@dataclass(frozen=True)
class WaitingTimeHistogram:
    """Normalized waiting-time density at one level (censored starts excluded)."""

    level: float
    bin_edges: np.ndarray
    densities: np.ndarray
    counts: np.ndarray
    total_samples: int
    censored_count: int
    binning: str

    @cached_property
    def bin_centers(self) -> np.ndarray:
        lo, hi = self.bin_edges[:-1], self.bin_edges[1:]
        if self.binning == "log":
            return np.sqrt(lo * hi)
        return (lo + hi) / 2.0

    @property
    def mode(self) -> float:
        """Center of the maximal-density bin."""
        return float(self.bin_centers[int(np.argmax(self.densities))])


def waiting_time_histogram(samples, binning: str = "log",
                           ratio: float = DEFAULT_LOG_BIN_RATIO,
                           width: float = 1.0) -> WaitingTimeHistogram:
    """Bin first-passage times into a normalized density histogram.

    ``binning="log"`` uses multiplicative edges (ratio ``ratio``, floored at
    unit width); ``binning="linear"`` uses fixed-width bins aligned so
    integer waiting times sit at bin centers when width = 1.  A waiting
    time below 1 raises ValidationError.
    """
    check_binning(binning, ratio, width)
    if isinstance(samples, FirstPassageResult):
        taus = samples.waiting_times
        level = samples.level
        censored = samples.censored_count
    else:
        listed = list(samples)
        taus = np.asarray([s.waiting_time for s in listed], dtype=np.int64)
        levels = {s.level for s in listed}
        if len(levels) > 1:
            raise ValidationError(f"mixed levels in one histogram: {sorted(levels)}")
        level = levels.pop() if levels else float("nan")
        censored = 0
    if len(taus) == 0:
        raise InsufficientDataError("no crossings to histogram (all starts censored)")
    if np.min(taus) < 1:
        raise ValidationError(f"waiting times must be at least 1, got {np.min(taus)}")

    tau_max = float(np.max(taus))
    if binning == "log":
        edges = _log_edges(tau_max, ratio)
    else:
        edges = np.arange(0.5, tau_max + 0.5 + width, width)

    # waiting times are integers, so #{τ < edge} = #{τ ≤ ceil(edge) − 1}
    at_most = np.cumsum(np.bincount(taus))
    counts = np.diff(at_most[np.minimum(np.ceil(edges) - 1, tau_max).astype(np.int64)])
    widths = np.diff(edges)
    densities = counts / (len(taus) * widths)
    return WaitingTimeHistogram(level, edges, densities, counts,
                                total_samples=int(len(taus)),
                                censored_count=int(censored), binning=binning)


@dataclass(frozen=True)
class TailFit:
    """Power-law tail p(τ) ~ τ^(−exponent) fitted on the log-log histogram."""

    exponent: float
    fit_range: tuple[float, float]
    stderr: float
    n_bins: int


def default_fit_range(hist: WaitingTimeHistogram,
                      min_count: int = 5) -> tuple[float, float]:
    """Fit window from 3x the mode (past the pre-peak rise) to the last bin
    still holding ``min_count`` samples (before counting noise takes over).

    Raises InsufficientDataError when no bin holds ``min_count`` samples or
    when the last such bin lies at or below 3x the mode (no tail to fit).
    """
    well_filled = np.nonzero(hist.counts >= min_count)[0]
    if len(well_filled) == 0:
        raise InsufficientDataError(f"no bin holds {min_count} samples")
    tau_min = 3.0 * hist.mode
    tau_max = float(hist.bin_centers[well_filled[-1]])
    if not tau_min < tau_max:
        raise InsufficientDataError(
            f"no bin past 3x the mode ({tau_min:g}) holds {min_count} samples; "
            f"the last one is centered at {tau_max:g}"
        )
    return tau_min, tau_max


def fit_tail_exponent(hist: WaitingTimeHistogram,
                      fit_range: tuple[float, float] | None = None) -> TailFit:
    """Least-squares slope of (ln τ, ln density) over the tail bins.

    The exponent is the negated slope.  Needs at least 4 nonzero bins inside
    the range; the default range is ``default_fit_range(hist)``.
    """
    if fit_range is None:
        fit_range = default_fit_range(hist)
    tau_min, tau_max = float(fit_range[0]), float(fit_range[1])
    if not tau_min < tau_max:
        raise ValidationError(f"empty fit range [{tau_min}, {tau_max}]")
    centers = hist.bin_centers
    use = (centers >= tau_min) & (centers <= tau_max) & (hist.densities > 0.0)
    n_bins = int(np.sum(use))
    if n_bins < 4:
        raise InsufficientDataError(
            f"only {n_bins} nonzero bins in [{tau_min:g}, {tau_max:g}]; "
            "need 4 for a tail fit"
        )
    # least squares from the biased second moments; r is clipped to [-1, 1]
    # and undefined (so is stderr) when a variance and the covariance vanish
    x, y = np.log(centers[use]), np.log(hist.densities[use])
    sxx, sxy, _, syy = np.cov(x, y, bias=1).flat
    if sxx == 0.0 or syy == 0.0:
        r = np.nan if sxy == 0.0 else 0.0
    else:
        r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)
    stderr = np.sqrt((1.0 - r**2) * syy / sxx / (n_bins - 2))
    return TailFit(exponent=float(-(sxy / sxx)), fit_range=(tau_min, tau_max),
                   stderr=float(stderr), n_bins=n_bins)


@dataclass(frozen=True)
class GainLossEntry:
    """Paired ±|ρ| histograms and their peak positions.

    A side where no start reaches the level (every start censored) has no
    histogram and no mode, so its histogram, mode and the asymmetry are None.
    """

    level_abs: float
    plus: WaitingTimeHistogram | None
    minus: WaitingTimeHistogram | None
    mode_plus: float | None
    mode_minus: float | None
    asymmetry: float | None  # mode(+) − mode(−); positive when losses come sooner


@dataclass(frozen=True)
class GainLossReport:
    entries: tuple[GainLossEntry, ...]

    def entry(self, level_abs: float) -> GainLossEntry:
        for e in self.entries:
            if e.level_abs == level_abs:
                return e
        raise ValidationError(f"no entry for level {level_abs}")


def gain_loss_report(series, levels, binning: str = "log",
                     ratio: float = DEFAULT_LOG_BIN_RATIO) -> GainLossReport:
    """Waiting-time histograms at ±|ρ| for each magnitude in ``levels``.

    A positive asymmetry (mode(+) above mode(−)) means the series reaches
    losses sooner than equal-sized gains.  Every magnitude is checked before
    the first scan, and so are the histogram parameters; each sign runs one
    descent over every magnitude.
    """
    values = _log_price_values(series)
    magnitudes = [abs(float(level)) for level in levels]
    for magnitude in magnitudes:
        _check_level(magnitude)
    check_binning(binning, ratio)
    hists = {}
    for sign in (1.0, -1.0):
        # the tables are freed as the descent returns and the positions at
        # del, so one sign's arrays are alive at a time
        positions = _first_passage_up(_first_passage_tables(sign * values), magnitudes)
        hists[sign] = [  # a side no start crosses has no histogram
            waiting_time_histogram(result, binning, ratio) if len(result) else None
            for result in (first_passage_times(values, sign * magnitude, _positions=row)
                           for magnitude, row in zip(magnitudes, positions))
        ]
        del positions
    return GainLossReport(tuple(
        GainLossEntry(
            level_abs=magnitude,
            plus=plus,
            minus=minus,
            mode_plus=None if plus is None else plus.mode,
            mode_minus=None if minus is None else minus.mode,
            asymmetry=None if plus is None or minus is None else plus.mode - minus.mode,
        )
        for magnitude, plus, minus in zip(magnitudes, hists[1.0], hists[-1.0])
    ))
