"""Independent recomputations used to check condcorr's outputs.

Nothing here imports condcorr.  Member counts, the conditional curve and
the rank-sum z are recomputed from their published definitions (README, the
``conditional`` and ``ranktests`` docstrings) with numpy and scipy, so that a
defect in the package cannot hide behind its own code.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats

# a window is undefined when its return variance is at or below
# mean-square x this floor (the package's zero-volatility contract)
REL_VAR_FLOOR = 1e-12
_CHUNK = 1024


def condition_returns(index_log: np.ndarray, span: int, horizon: int) -> np.ndarray:
    """Index log return over [t, t + span] for every valid window start t."""
    n_t = max(len(index_log) - horizon - span, 0)
    return index_log[span: span + n_t] - index_log[:n_t]


def is_member(returns: np.ndarray, level: float) -> np.ndarray:
    """r < level for a negative level, r >= level otherwise (0 is non-negative)."""
    return returns < level if level < 0.0 else returns >= level


def member_counts(index_log, levels, window_range, horizon):
    """Members per level, the union over levels, and all windows, summed over δt.

    Returns ``(per_level, per_level_excluded, union_total, all_windows)``
    where ``per_level_excluded`` counts the δt values without members.
    """
    per_level = {lev: 0 for lev in levels}
    excluded = {lev: 0 for lev in levels}
    union_total = all_windows = 0
    for span in range(window_range[0], window_range[1] + 1):
        returns = condition_returns(index_log, span, horizon)
        union = np.zeros(len(returns), dtype=bool)
        for lev in levels:
            member = is_member(returns, lev)
            n = int(member.sum())
            per_level[lev] += n
            excluded[lev] += n == 0
            union |= member
        union_total += int(union.sum())
        all_windows += len(returns)
    return per_level, excluded, union_total, all_windows


def conditional_curve_value(stock_log, index_log, level, window_range, horizon):
    """C(ρ, Δt) by a two-pass computation on each member window.

    ``stock_log`` is the (N, days) log-price matrix.  Each member window is
    centred before its variance is taken, so constant windows have zero
    variance and are undefined.  Returns ``(C, members)``; C is None when no
    window span has a member with a defined pair.
    """
    returns = stock_log[:, horizon:] - stock_log[:, :-horizon]
    span_means = []
    total = 0
    for span in range(window_range[0], window_range[1] + 1):
        m = span + 1
        starts = np.nonzero(is_member(condition_returns(index_log, span, horizon),
                                      level))[0]
        if len(starts) == 0:
            continue
        views = sliding_window_view(returns, m, axis=1)
        s0_sum = 0.0
        count = 0
        for lo in range(0, len(starts), _CHUNK):
            w = views[:, starts[lo: lo + _CHUNK], :].transpose(1, 0, 2)
            mean = w.mean(axis=2, keepdims=True)
            dev = w - mean
            var = (dev * dev).mean(axis=2)
            defined = var > (w * w).mean(axis=2) * REL_VAR_FLOOR
            sd = np.sqrt(np.where(defined, var, 1.0))
            z = np.where(defined[:, :, None], dev / sd[:, :, None], 0.0)
            corr = z @ z.transpose(0, 2, 1) / m
            off_diagonal = (corr.sum(axis=(1, 2))
                            - np.trace(corr, axis1=1, axis2=2)) / 2.0
            d = defined.sum(axis=1)
            pairs = d * (d - 1) // 2
            ok = pairs > 0
            s0_sum += float(np.sum(off_diagonal[ok] / pairs[ok]))
            count += int(ok.sum())
        if count:
            span_means.append(s0_sum / count)
            total += count
    if not span_means:
        return None, 0
    return float(np.mean(span_means)), total


def rank_sum_z(a: np.ndarray, b: np.ndarray) -> float:
    """Tie-corrected rank-sum z of A against B from scipy.stats' U statistic."""
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    u = stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic",
                           use_continuity=False).statistic
    tie = stats.tiecorrect(stats.rankdata(np.concatenate([a, b])))
    return float((u - n_a * n_b / 2.0) / math.sqrt(n_a * n_b * (n + 1) / 12.0 * tie))
