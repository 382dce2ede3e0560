"""Plain-loop reference implementations used to cross-check the pipeline.

Everything here is computed directly from the definitions with Python loops
and scalar arithmetic, sharing no code with the package.  The only shared
piece is the published zero-volatility contract: a window is undefined when
its return variance is at or below mean-square × REL_VAR_FLOOR, so both
sides agree on *which* windows exist before values are compared.

One exception: ``window_kernel`` writes out the window kernel's own numpy
arithmetic, step by step, so that a test can hold the kernel to its bits.
"""

from __future__ import annotations

import itertools
import math

REL_VAR_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# conditional-correlation chain


def log_return_rows(close_rows, horizon):
    out = []
    for closes in close_rows:
        out.append([
            math.log(closes[t + horizon]) - math.log(closes[t])
            for t in range(len(closes) - horizon)
        ])
    return out


def window_moments(values):
    """Two-pass mean and variance, so a window whose spread is tiny next to
    its mean keeps its digits."""
    m = len(values)
    mean = sum(values) / m
    var = sum((v - mean) ** 2 for v in values) / m
    defined = var > (var + mean * mean) * REL_VAR_FLOOR
    return mean, var, defined


def pair_corr(rx, ry, t, span):
    wx = rx[t: t + span + 1]
    wy = ry[t: t + span + 1]
    mx, vx, dx = window_moments(wx)
    my, vy, dy = window_moments(wy)
    if not (dx and dy):
        return None
    cov = sum((a - mx) * (b - my) for a, b in zip(wx, wy)) / (span + 1)
    return cov / (math.sqrt(vx) * math.sqrt(vy))


def market_corr(return_rows, t, span):
    vals = []
    for i in range(len(return_rows)):
        for j in range(i + 1, len(return_rows)):
            s = pair_corr(return_rows[i], return_rows[j], t, span)
            if s is not None:
                vals.append(s)
    if not vals:
        return None
    return sum(vals) / len(vals)


def is_member(index_return, level):
    if level < 0.0:
        return index_return < level
    return index_return >= level


def curve_point(close_rows, index_closes, level, dt1, dt2, horizon):
    """C(ρ, Δt) from the definitions: (value, n_samples, n_excluded) or None."""
    returns = log_return_rows(close_rows, horizon)
    index_log = [math.log(c) for c in index_closes]
    n_returns = len(close_rows[0]) - horizon
    span_means, total, excluded = [], 0, 0
    for span in range(dt1, dt2 + 1):
        c0_values = []
        for t in range(max(n_returns - span, 0)):
            if is_member(index_log[t + span] - index_log[t], level):
                s0 = market_corr(returns, t, span)
                if s0 is not None:
                    c0_values.append(s0)
        if c0_values:
            span_means.append(sum(c0_values) / len(c0_values))
            total += len(c0_values)
        else:
            excluded += 1
    if not span_means:
        return None
    return sum(span_means) / len(span_means), total, excluded


def time_resolved(close_rows, index_closes, level, dt1, dt2, horizon):
    """C_t(ρ, Δt) from the definitions: {t: mean of S_0(t, δt) over the δt
    where t is a member with a defined S_0}."""
    returns = log_return_rows(close_rows, horizon)
    index_log = [math.log(c) for c in index_closes]
    n_returns = len(close_rows[0]) - horizon
    values = {}
    for span in range(dt1, dt2 + 1):
        for t in range(max(n_returns - span, 0)):
            if is_member(index_log[t + span] - index_log[t], level):
                s0 = market_corr(returns, t, span)
                if s0 is not None:
                    values.setdefault(t, []).append(s0)
    return {t: sum(v) / len(v) for t, v in values.items()}


def pair_conditional(close_rows, index_closes, x, y, level, dt1, dt2, horizon):
    """C_(x,y)(ρ, Δt) from the definitions: (value, n_members) or None."""
    returns = log_return_rows(close_rows, horizon)
    index_log = [math.log(c) for c in index_closes]
    n_returns = len(close_rows[0]) - horizon
    span_means, total = [], 0
    for span in range(dt1, dt2 + 1):
        values = []
        for t in range(max(n_returns - span, 0)):
            if is_member(index_log[t + span] - index_log[t], level):
                s = pair_corr(returns[x], returns[y], t, span)
                if s is not None:
                    values.append(s)
        if values:
            span_means.append(sum(values) / len(values))
            total += len(values)
    if not span_means:
        return None, total
    return sum(span_means) / len(span_means), total


def chi(c_minus, c_plus, epsilon=1e-6):
    if abs(c_plus) <= epsilon:
        return None
    return (c_minus - c_plus) / abs(c_plus)


def window_kernel(returns, starts, dt1, dt2):
    """(mean, scale, s0) of the window kernel at the given starts, in the
    same numpy steps as the kernel: per start the (dt2 + 1)-row block minus
    its first row; running sums of the rows and their squares; per span δt
    the mean, the variance, the floor test var > ((mean + first)² + var)·
    REL_VAR_FLOOR and scale = defined/sd; then U = block·scale, masked to each
    span's δt + 1 rows, ū = Σ mean·scale, and S_0 = (Σ U² − m·ū² − m·d) /
    (2·m·pairs).  Every product and sum keeps its order, so equal inputs
    give the kernel's bits exactly."""
    import numpy as np

    offsets = np.arange(dt2 + 1)
    sizes = offsets[dt1:] + 1
    block = returns[np.minimum(starts + offsets[:, None], len(returns) - 1)]
    first = block[0].copy()
    block -= first
    mean = np.empty((len(sizes),) + first.shape)
    scale = np.empty_like(mean)
    defined = np.empty(mean.shape, dtype=bool)
    total = np.zeros(first.shape)
    total_sq = np.zeros(first.shape)
    for row in offsets:
        total += block[row]
        total_sq += block[row] ** 2
        if row >= dt1:
            mu = mean[row - dt1] = total / (row + 1)
            var = total_sq / (row + 1) - mu * mu
            ok = defined[row - dt1] = var > ((mu + first) ** 2 + var) * REL_VAR_FLOOR
            scale[row - dt1] = ok / np.sqrt(np.where(ok, var, 1.0))
    u = np.matmul(block.transpose(1, 0, 2), scale.transpose(1, 2, 0))
    u *= offsets[:, None] < sizes
    u_bar = np.einsum("scn,scn->cs", mean, scale)
    d = defined.sum(axis=2).T
    n_pairs = d * (d - 1) // 2
    off_diagonal = np.einsum("cms,cms->cs", u, u) - sizes * (u_bar * u_bar + d)
    off_diagonal /= 2.0 * sizes * np.maximum(n_pairs, 1)
    return mean, scale, np.where(n_pairs > 0, off_diagonal, np.nan)


# ---------------------------------------------------------------------------
# first passage


def first_passage(values, level):
    """Brute-force forward scan from every start: ([(t0, tau), ...], censored)."""
    n = len(values)
    hits, censored = [], 0
    for t0 in range(n - 1):
        threshold = values[t0] + level
        tau = None
        for k in range(t0 + 1, n):
            crossed = values[k] >= threshold if level > 0 else values[k] <= threshold
            if crossed:
                tau = k - t0
                break
        if tau is None:
            censored += 1
        else:
            hits.append((t0, tau))
    return hits, censored


# ---------------------------------------------------------------------------
# rank-sum permutation distribution


def exact_rank_sum(sample_a, sample_b):
    """Standardize A's rank sum against the exact permutation distribution.

    Tie-free samples only.  Enumerates all C(n, n_a) rank placements and
    returns (z, p_le, p_ge): the exactly standardized statistic plus the
    exact one-sided tail probabilities of the observed rank sum.
    """
    pooled = sorted(list(sample_a) + list(sample_b))
    if len(set(pooled)) != len(pooled):
        raise ValueError("exact oracle requires tie-free data")
    rank = {v: i + 1 for i, v in enumerate(pooled)}
    w_obs = sum(rank[v] for v in sample_a)
    n, n_a = len(pooled), len(sample_a)
    sums = [sum(c) for c in itertools.combinations(range(1, n + 1), n_a)]
    mean = sum(sums) / len(sums)
    var = sum((w - mean) ** 2 for w in sums) / len(sums)
    z = (w_obs - mean) / math.sqrt(var)
    p_le = sum(w <= w_obs for w in sums) / len(sums)
    p_ge = sum(w >= w_obs for w in sums) / len(sums)
    return z, p_le, p_ge
