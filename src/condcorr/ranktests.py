"""Nonparametric two-sample machinery: rank-sum z-test and subsampling.

The rank-sum (Mann–Whitney) form is used rather than the signed-rank test:
the comparisons here are between two unpaired collections, and trimming
the larger one to the smaller one's size only makes sense for unpaired
ranks.

Midranks come from one ``np.unique`` pass over the pooled sample, and the
normal tail from ``math.erfc``, switching to the asymptotic Mills-ratio
series where erfc would underflow, so the test needs only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError

__all__ = [
    "RankSumResult",
    "wilcoxon_rank_sum",
    "equalize_sizes",
]

# smallest positive double; p below this is reported clamped, log10_p exact
_TINY_P = 5e-324
_LN10 = math.log(10.0)
# above this x, erfc(x/√2) (~1e-299 at 37) nears the subnormal range; from
# x = 25 on, the series' truncation error is below 1e-19 relative
_ERFC_TAIL_LIMIT = 37.0
_MILLS_TERMS = 10


def _log_normal_tail(x: float) -> float:
    """ln P(Z ≥ x) of a standard normal Z, for x ≥ 0."""
    if x < _ERFC_TAIL_LIMIT:
        return math.log(0.5 * math.erfc(x / math.sqrt(2.0)))
    # P(Z ≥ x) = φ(x)/x · (1 − 1/x² + 3/x⁴ − 15/x⁶ + …)
    inv_x2 = 1.0 / (x * x)
    term, series = 1.0, 0.0
    for k in range(1, _MILLS_TERMS + 1):
        term *= -(2 * k - 1) * inv_x2
        series += term
    return -0.5 * x * x - math.log(x * math.sqrt(2.0 * math.pi)) + math.log1p(series)


@dataclass(frozen=True)
class RankSumResult:
    """Wilcoxon rank-sum z-test outcome for samples A vs B.

    Sign convention: z < 0 when A's ranks fall below the null expectation,
    i.e. A tends to be the smaller-valued sample.  p_two_sided is the normal
    two-tailed probability, clamped to the smallest positive double;
    log10_p carries the tail precisely far beyond that clamp.
    """

    z: float
    p_two_sided: float
    log10_p: float
    n_a: int
    n_b: int
    tie_groups: int


def wilcoxon_rank_sum(sample_a, sample_b) -> RankSumResult:
    """Rank-sum z-test with midrank ties and tie-corrected variance.

    W = sum of A's midranks over the pooled sample; z = (W − E[W]) / sd[W]
    with the tie correction factor 1 − Σ(t³ − t)/(n³ − n); no continuity
    correction.  Degenerate pooled samples (all values identical) have zero
    variance and are rejected.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    n_a, n_b = len(a), len(b)
    if n_a < 1 or n_b < 1 or n_a + n_b < 4:
        raise ValidationError(
            f"need n_a >= 1, n_b >= 1 and n_a + n_b >= 4, got {n_a} and {n_b}"
        )
    pooled = np.concatenate([a, b])
    if not np.all(np.isfinite(pooled)):
        raise ValidationError("samples must be finite")

    n = n_a + n_b
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    # the midrank of a value is the mean of the ranks its tie group spans
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    w = float(np.sum(midranks[inverse[:n_a]]))

    tie_groups = int(np.sum(counts > 1))
    tie_term = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    correction = 1.0 - tie_term / (n**3 - n)
    variance = n_a * n_b * (n + 1) / 12.0 * correction
    if variance <= 0.0:
        raise DataError("all pooled values identical: rank-sum variance is zero")

    z = (w - n_a * (n + 1) / 2.0) / math.sqrt(variance)
    # p clamps at the smallest double near |z| ≈ 38.5; log10_p follows the
    # tail on through the series branch of _log_normal_tail
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    log10_p = (_log_normal_tail(abs(z)) + math.log(2.0)) / _LN10
    return RankSumResult(z, max(p, _TINY_P), log10_p, n_a, n_b, tie_groups)


def equalize_sizes(sample_a, sample_b, seed: int):
    """Trim the larger sample to the smaller one's size; the smaller (or an
    equal-size) sample is returned as given.

    The kept subset is uniform without replacement and keeps the original
    element order, so the two collections compare on equal footing without
    altering the larger one's normalized distribution.  It is deterministic
    for a fixed seed (>= 0); the PRNG is PCG64 (the numpy default stream).
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if len(sample_a) == len(sample_b):
        return sample_a, sample_b
    small, large = sorted((sample_a, sample_b), key=len)
    rng = np.random.Generator(np.random.PCG64(seed))
    keep = np.sort(rng.permutation(len(large))[:len(small)])
    trimmed = np.asarray(large)[keep]
    return (trimmed, small) if large is sample_a else (small, trimmed)
