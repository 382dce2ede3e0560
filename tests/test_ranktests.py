"""Rank-sum z-test and equal-size subsampling."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condcorr import (
    DataError,
    ValidationError,
    equal_size_subsample,
    wilcoxon_rank_sum,
)
import condcorr.ranktests as ranktests
from condcorr.ranktests import equalize_sizes

import reference


def midranks(pooled):
    """Pure-python midranks, independent of scipy."""
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


class TestWilcoxonRankSum:
    def test_identical_samples_give_zero(self):
        r = wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.z == 0.0
        assert r.p_two_sided == 1.0
        assert r.tie_groups == 3

    def test_separated_samples(self):
        r = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        # W = 6, E[W] = 10.5, Var = 5.25
        assert r.z == pytest.approx(-4.5 / math.sqrt(5.25), abs=1e-12)
        assert r.z == pytest.approx(-1.9640, abs=1e-4)
        assert r.n_a == 3 and r.n_b == 3 and r.tie_groups == 0

    def test_swap_negates_z(self):
        r = wilcoxon_rank_sum([4.0, 5.0, 6.0], [1.0, 2.0, 3.0])
        assert r.z == pytest.approx(1.9640, abs=1e-4)

    @given(
        st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=10),
        st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=10),
    )
    @settings(max_examples=150)
    def test_antisymmetry_is_exact(self, a, b):
        """Swapping the samples flips the sign bit-exactly, ties included."""
        try:
            ab = wilcoxon_rank_sum(a, b)
        except DataError:
            return  # all pooled values identical
        ba = wilcoxon_rank_sum(b, a)
        assert ba.z == -ab.z
        assert ba.p_two_sided == ab.p_two_sided
        assert ba.tie_groups == ab.tie_groups

    def test_low_ranked_first_sample_gives_negative_z(self):
        r = wilcoxon_rank_sum([0.1, 0.2, 0.4], [0.3, 0.5, 0.6])
        assert r.z < 0

    def test_matches_exact_standardization_without_ties(self, rng):
        for _ in range(25):
            n_a = int(rng.integers(2, 6))
            n_b = int(rng.integers(2, 6))
            pooled = rng.permutation(rng.normal(size=n_a + n_b))
            a, b = pooled[:n_a], pooled[n_a:]
            z_exact, _, _ = reference.exact_rank_sum(a.tolist(), b.tolist())
            r = wilcoxon_rank_sum(a, b)
            assert r.z == pytest.approx(z_exact, abs=1e-10)

    def test_normal_p_tracks_exact_tail(self, rng):
        """Normal p must be monotone in |z|; report its worst gap to the
        exact permutation two-sided p on small samples."""
        results = []
        worst = 0.0
        for _ in range(40):
            n_a = int(rng.integers(3, 7))
            n_b = int(rng.integers(3, 7))
            pooled = rng.permutation(rng.normal(size=n_a + n_b))
            a, b = pooled[:n_a], pooled[n_a:]
            r = wilcoxon_rank_sum(a, b)
            _, p_le, p_ge = reference.exact_rank_sum(a.tolist(), b.tolist())
            p_exact = min(1.0, 2.0 * min(p_le, p_ge))
            worst = max(worst, abs(r.p_two_sided - p_exact))
            results.append((abs(r.z), r.p_two_sided))
        results.sort()
        for (z1, p1), (z2, p2) in zip(results, results[1:]):
            assert p2 <= p1 + 1e-15, "p must not increase with |z|"
        print(f"max |normal p - exact p| over small samples: {worst:.4f}")

    def test_tie_correction_shrinks_variance(self):
        """Corrected |z| beats the uncorrected form when ties exist; without
        ties both forms agree with pure-python integer ranks."""
        cases = [
            ([1.0, 2.0, 2.0], [2.0, 3.0, 4.0]),  # ties across samples
            ([1.0, 1.0, 5.0], [2.0, 3.0, 4.0]),  # ties inside a sample
            ([1.0, 4.0, 6.0], [2.0, 3.0, 5.0]),  # tie-free
        ]
        for a, b in cases:
            pooled = a + b
            n = len(pooled)
            ranks = midranks(pooled)
            w = sum(ranks[: len(a)])
            num = w - len(a) * (n + 1) / 2.0
            var_uncorrected = len(a) * len(b) * (n + 1) / 12.0
            r = wilcoxon_rank_sum(a, b)
            z_uncorrected = num / math.sqrt(var_uncorrected)
            if r.tie_groups == 0:
                assert r.z == pytest.approx(z_uncorrected, abs=1e-14)
            else:
                assert abs(r.z) > abs(z_uncorrected)
                assert math.copysign(1, r.z) == math.copysign(1, num)

    def test_shift_monotonicity(self, rng):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        last = math.inf
        for shift in np.linspace(0.0, 3.0, 13):
            z = wilcoxon_rank_sum(a, b + shift).z
            assert z <= last + 1e-12
            last = z
        assert wilcoxon_rank_sum(a, b + 3.0).z < wilcoxon_rank_sum(a, b).z

    def test_far_tail_log_p(self):
        a = np.arange(100, dtype=float)
        b = np.arange(100, dtype=float) + 1000.0
        r = wilcoxon_rank_sum(a, b)
        assert r.z < -12.0
        assert r.p_two_sided >= 5e-324  # clamped, never a literal zero
        assert r.log10_p < -30.0
        # in the comfortable range, log10_p and p agree
        r2 = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert 10.0 ** r2.log10_p == pytest.approx(r2.p_two_sided, rel=1e-9)

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40),
        st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=40),
    )
    @settings(max_examples=150)
    def test_midranks_match_pure_python(self, a, b):
        """Tie-heavy samples: z from the pure-python midranks, with the same
        arithmetic as the test, equals the reported z bit for bit."""
        pooled = [float(v) for v in a + b]
        counts = Counter(pooled).values()
        if len(counts) == 1:
            return  # all pooled values identical
        n_a, n_b, n = len(a), len(b), len(pooled)
        w = sum(midranks(pooled)[:n_a])
        correction = 1.0 - float(sum(t**3 - t for t in counts)) / (n**3 - n)
        variance = n_a * n_b * (n + 1) / 12.0 * correction
        r = wilcoxon_rank_sum(a, b)
        assert r.z == (w - n_a * (n + 1) / 2.0) / math.sqrt(variance)
        assert r.tie_groups == sum(t > 1 for t in counts)

    def test_log_normal_tail_matches_log_ndtr(self):
        """ln P(Z >= x) within 1e-15 relative of scipy's log_ndtr(-x), from
        0 to 1e5 and on both sides of the switch to the series."""
        special = pytest.importorskip("scipy.special")
        limit = ranktests._ERFC_TAIL_LIMIT
        xs = np.concatenate([
            np.linspace(0.0, 50.0, 5001),
            np.geomspace(1e-8, 1e5, 2001),
            limit + np.array([-1e-9, 0.0, 1e-9]),
        ])
        got = np.array([ranktests._log_normal_tail(float(x)) for x in xs])
        np.testing.assert_allclose(got, special.log_ndtr(-xs), rtol=1e-15, atol=0.0)
        # the reported log10_p takes the same tail, here past the switch
        r = wilcoxon_rank_sum(np.arange(1000.0), np.arange(1000.0) + 1000.0)
        assert -r.z > limit
        want = (special.log_ndtr(r.z) + math.log(2.0)) / math.log(10.0)
        assert r.log10_p == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_log_normal_tail_branches_agree(self, monkeypatch):
        """Where both branches are accurate, erfc and the Mills-ratio series
        give the same ln P(Z >= x) within 1e-15 relative."""
        xs = np.linspace(25.0, 37.0, 1201)
        monkeypatch.setattr(ranktests, "_ERFC_TAIL_LIMIT", math.inf)
        via_erfc = np.array([ranktests._log_normal_tail(float(x)) for x in xs])
        monkeypatch.setattr(ranktests, "_ERFC_TAIL_LIMIT", 0.0)
        via_series = np.array([ranktests._log_normal_tail(float(x)) for x in xs])
        np.testing.assert_allclose(via_series, via_erfc, rtol=1e-15, atol=0.0)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            wilcoxon_rank_sum([], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValidationError):
            wilcoxon_rank_sum([1.0], [2.0, 3.0])  # total below 4
        with pytest.raises(ValidationError):
            wilcoxon_rank_sum([1.0, math.nan], [2.0, 3.0])
        with pytest.raises(DataError):
            wilcoxon_rank_sum([7.0, 7.0], [7.0, 7.0])


class TestEqualSizeSubsample:
    def test_full_size_is_identity(self):
        vals = np.array([5.0, 1.0, 3.0])
        np.testing.assert_array_equal(equal_size_subsample(vals, 3, seed=0), vals)

    def test_zero_size_is_empty(self):
        assert equal_size_subsample(np.arange(5), 0, seed=0).size == 0

    def test_deterministic_per_seed(self):
        vals = np.arange(50, dtype=float)
        one = equal_size_subsample(vals, 10, seed=42)
        two = equal_size_subsample(vals, 10, seed=42)
        np.testing.assert_array_equal(one, two)
        other = equal_size_subsample(vals, 10, seed=43)
        assert not np.array_equal(one, other)

    def test_preserves_original_order(self):
        vals = np.array([9.0, 7.0, 5.0, 3.0, 1.0])
        sub = equal_size_subsample(vals, 3, seed=1)
        assert list(sub) == sorted(sub, reverse=True)  # source is descending

    def test_subset_without_replacement(self):
        vals = np.arange(30)
        sub = equal_size_subsample(vals, 12, seed=7)
        assert len(set(sub.tolist())) == 12
        assert set(sub.tolist()) <= set(vals.tolist())

    def test_bounds_checked(self):
        with pytest.raises(ValidationError):
            equal_size_subsample(np.arange(3), 4, seed=0)
        with pytest.raises(ValidationError):
            equal_size_subsample(np.arange(3), -1, seed=0)

    def test_unbiased_over_many_seeds(self):
        vals = np.random.default_rng(0).normal(size=100)
        target = 20
        means = np.array([
            float(np.mean(equal_size_subsample(vals, target, seed=s)))
            for s in range(10_000)
        ])
        se = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean() - vals.mean()) < 3.0 * se

    def test_equalize_sizes_trims_the_larger_side(self):
        small, large = np.arange(4.0), np.arange(10.0, 19.0)
        a, b = equalize_sizes(large, small, seed=3)
        np.testing.assert_array_equal(a, equal_size_subsample(large, 4, seed=3))
        assert b is small
        a, b = equalize_sizes(small, large, seed=3)
        assert a is small
        np.testing.assert_array_equal(b, equal_size_subsample(large, 4, seed=3))
        a, b = equalize_sizes(small, small[::-1], seed=3)
        assert a is small and np.array_equal(b, small[::-1])
