import math
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import betaln

import reference
from pitmanyor import marginal
from pitmanyor.constants import TOL_LEMMA_C, TOL_ROUNDING, TOL_TRUNCATED
from pitmanyor.core import Partition, PYParams, enumerate_partitions, partition_from_allocations
from pitmanyor.eppf import _size_profiles, _table_probs
from pitmanyor.marginal import (
    AllocationStats,
    _allocation_log_probs,
    _lemma_b_truncated_sums,
    _order_sums,
    allocation_log_prob,
    allocation_stats,
    beta_moment,
    lemma_b_truncated_sum,
    lemma_c_check,
    lemma_d_check,
    truncated_label_mass,
)
from pitmanyor.verify import LEMMA_D_GRID, LEMMA_D_TRUNCATIONS, _bridge_reconstructions

P = Partition.from_blocks


class TestAllocationStats:
    def test_two_equal(self):
        stats = allocation_stats((1, 1))
        assert stats == AllocationStats(1, (2,), (0,), (2,))

    def test_mixed(self):
        stats = allocation_stats((2, 1, 2))
        assert stats.m == 2
        assert stats.e == (1, 2)
        assert stats.f == (2, 0)
        assert stats.g == (3, 2)

    def test_skipped_labels(self):
        stats = allocation_stats((3,))
        assert stats.m == 3
        assert stats.e == (0, 0, 1)
        assert stats.g == (1, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            allocation_stats(())
        with pytest.raises(ValueError):
            allocation_stats((0, 1))

    @given(z=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_internal_identities(self, z):
        stats = allocation_stats(z)
        n, m = len(z), stats.m
        assert stats.g[0] == n
        for j in range(1, m + 1):
            g_next = stats.g[j] if j < m else 0
            assert stats.f[j - 1] == g_next
            assert stats.g[j - 1] == stats.e[j - 1] + stats.f[j - 1]
        assert all(a >= b for a, b in zip(stats.g, stats.g[1:]))


def oracle_log_prob(params, z):
    """Independent route: product over label levels of stick beta moments."""
    stats = allocation_stats(z)
    alpha, d = params.alpha, params.d
    total = 0.0
    for j in range(1, stats.m + 1):
        e, f = stats.e[j - 1], stats.f[j - 1]
        total += betaln(e + 1.0 - d, f + alpha + j * d) - betaln(1.0 - d, alpha + j * d)
    return float(total)


class TestAllocationLogProb:
    def test_hand_values(self):
        params = PYParams(1.0, 0.5)
        assert_allclose(math.exp(allocation_log_prob(params, (1,))), 0.25, rtol=1e-12)
        assert_allclose(math.exp(allocation_log_prob(params, (2,))), 0.15, rtol=1e-12)
        assert_allclose(math.exp(allocation_log_prob(params, (1, 1))), 0.125, rtol=1e-12)

    @pytest.mark.parametrize(
        "params",
        [PYParams(1.0, 0.5), PYParams(0.3, 0.7), PYParams(2.0, 0.9),
         PYParams(-0.3, 0.5), PYParams(0.0, 0.2),
         PYParams(0.1, 0.0), PYParams(1.0, 0.0), PYParams(100.0, 0.0)],
        ids=str,
    )
    def test_matches_beta_moment_oracle(self, params):
        for n in (1, 2, 3):
            for z in product(range(1, 5), repeat=n):
                assert_allclose(
                    allocation_log_prob(params, z),
                    oracle_log_prob(params, z),
                    atol=1e-10,
                )


def truncated_normalization_n2(params, level):
    # the grid evaluator, which TestGridEvaluators pins to the scalar loop
    z = np.array(list(product(range(1, level + 1), repeat=2)))
    return math.fsum(map(math.exp, _allocation_log_probs(params, z).tolist()))


class TestTruncatedNormalization:
    def test_mild_discount_reaches_099_by_60(self):
        params = PYParams(1.0, 0.1)
        partial = [truncated_normalization_n2(params, level) for level in (10, 30, 60)]
        assert partial == sorted(partial)
        assert partial[-1] >= 0.99

    def test_heavy_discount_true_rate(self):
        # At d = 0.5 the label tail is Pr(z > L) = 3/(L+3), so 60 labels hold
        # only ~0.91 of the n=2 mass; 0.99 needs ~600.  Frozen from the exact
        # two-dimensional sum; guards against silently changing the tail.
        params = PYParams(1.0, 0.5)
        partial = [truncated_normalization_n2(params, level) for level in (20, 40, 60)]
        assert partial == sorted(partial)
        assert_allclose(partial[-1], 0.908425, atol=5e-4)

    @staticmethod
    def prefix_product_total(alpha, d, level):
        # closed evaluation of the exact n=2 sum, cheap at large levels
        j = np.arange(1, level + 1)
        with_two = (alpha + (j - 1) * d) / (2 + alpha + (j - 1) * d)
        with_one = (alpha + (j - 1) * d) / (1 + alpha + (j - 1) * d)
        c2 = np.concatenate([[1.0], np.cumprod(with_two)])
        c1 = np.concatenate([[1.0], np.cumprod(with_one)])
        idx = np.arange(1, level + 1)
        lo = np.minimum.outer(idx, idx)
        hi = np.maximum.outer(idx, idx)
        single = math.gamma(2 - d) / math.gamma(1 - d)
        pair = math.gamma(3 - d) / math.gamma(1 - d)
        weight = np.where(lo == hi, pair, single * single)
        return float(
            (c2[lo] * (c1[hi] / c1[lo]) * weight).sum() / (alpha * (alpha + 1))
        )

    def test_heavy_discount_eventually_passes(self):
        # the fast form agrees with the per-vector evaluator ...
        assert_allclose(
            self.prefix_product_total(1.0, 0.5, 60),
            truncated_normalization_n2(PYParams(1.0, 0.5), 60),
            rtol=1e-10,
        )
        # ... and crosses the 0.99 target by level 600
        assert self.prefix_product_total(1.0, 0.5, 600) >= 0.99

    @pytest.mark.parametrize(
        "params",
        [PYParams(1.0, 0.5), PYParams(-0.3, 0.5), PYParams(0.0, 0.5), PYParams(0.3, 0.7)],
        ids=str,
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kept_mass_matches_label_scan(self, params, n):
        level = 6
        z = np.array(list(product(range(1, level + 1), repeat=n)))
        want = math.fsum(map(math.exp, _allocation_log_probs(params, z).tolist()))
        assert_allclose(truncated_label_mass(params, n, level), want, rtol=1e-12)

    def test_kept_mass_singleton_tail(self):
        # Pr(z > L) = 3/(L+3) at (1, 0.5), and the n = 2 value frozen above
        params = PYParams(1.0, 0.5)
        for level in (1, 60, 100_000):
            assert_allclose(truncated_label_mass(params, 1, level), 1.0 - 3.0 / (level + 3),
                            rtol=1e-12)
        assert_allclose(truncated_label_mass(params, 2, 60),
                        truncated_normalization_n2(params, 60), rtol=1e-12)

    @pytest.mark.parametrize(
        "level, omitted",
        [(10**16, 0.07264036164871962), (10**30, 0.002079344955529445),
         (10**40, 0.0001611164707653592)],
    )
    def test_kept_mass_far_past_the_table(self, level, omitted):
        # mpmath 1.3.0 at 60 digits; the tail decays like L^(-(1-d)/d), so at
        # d = 0.9 even 1e40 labels leave 1.6e-4 of the mass out
        kept = truncated_label_mass(PYParams(2.0, 0.9), 4, level)
        assert_allclose(1.0 - kept, omitted, rtol=1e-12)

    def test_kept_mass_matches_direct_product_across_table_edge(self):
        # labels past 2^14 come from the closed form, not the table
        params = PYParams(0.3, 0.7)
        for level in (2**14 - 1, 2**14, 2**14 + 1, 2**14 + 2):
            want = math.fsum([1.0, *(
                math.comb(3, r) * (-1) ** r * math.exp(math.fsum(
                    math.log1p(-(1.0 - params.d) / (params.alpha + 1.0 + (j - 1) * params.d + s))
                    for j in range(1, level + 1) for s in range(r)))
                for r in range(1, 4))])
            assert_allclose(truncated_label_mass(params, 3, level), want, rtol=1e-12)

    @pytest.mark.parametrize("alpha, d", [(0.0, 1e-25), (1e-30, 1e-25), (0.0, 1e-30)])
    @pytest.mark.parametrize("n", [1, 4])
    def test_kept_mass_with_a_sure_first_stick(self, alpha, d, n):
        # stick 1 takes every observation to rounding, so the hazard is inf
        # from the table's end on; the far closed form added to it gave
        # inf - inf = NaN, with RuntimeWarnings
        for level in (20_000, 100_000):
            assert truncated_label_mass(PYParams(alpha, d), n, level) == 1.0

    def test_kept_mass_validation(self):
        with pytest.raises(ValueError):
            truncated_label_mass(PYParams(1.0, 0.5), 0, 10)
        with pytest.raises(ValueError):
            truncated_label_mass(PYParams(1.0, 0.5), 2, 0)


class TestBetaMoment:
    def test_uniform_mean(self):
        assert_allclose(beta_moment(1.0, 1.0, 1.0, 0.0), 0.5, rtol=1e-14)

    def test_product_moment(self):
        assert_allclose(beta_moment(2.0, 3.0, 1.0, 1.0), 0.2, rtol=1e-13)

    def test_mean_formula(self):
        assert_allclose(beta_moment(0.5, 1.5, 1.0, 0.0), 0.25, rtol=1e-13)

    def test_large_shape(self):
        # a raw lgamma difference is off by 3.9e-3 relative here
        assert_allclose(beta_moment(0.5, 1e12, 1.0, 0.0), 0.5 / (1e12 + 0.5), rtol=1e-13)
        assert_allclose(beta_moment(0.5, 1e12, 0.0, 1.0), 1e12 / (1e12 + 0.5), rtol=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_moment(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            beta_moment(1.0, 1.0, -2.0, 0.0)

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.nan)])
    def test_shape_error_names_the_shapes(self, a, b):
        with pytest.raises(ValueError, match=re.escape(f"beta shapes must be positive, got a={a}, b={b}")):
            beta_moment(a, b, 1.0, 0.0)

    @pytest.mark.parametrize("c, e", [(-2.0, 0.0), (0.0, -1.5), (math.nan, 0.0), (0.0, math.nan)])
    def test_order_error_names_the_shapes_and_orders(self, c, e):
        message = f"a+c > 0 and b+e > 0, got a=1.0, b=1.5, c={c}, e={e}"
        with pytest.raises(ValueError, match=re.escape(message)):
            beta_moment(1.0, 1.5, c, e)


class TestUrnPermutationIdentity:
    def test_single_block(self):
        assert lemma_c_check([3], 0.5) == (1 / 2.5, 1 / 2.5)

    def test_two_blocks_hand_value(self):
        lhs, rhs = lemma_c_check([2, 3], 0.5)
        assert_allclose(lhs, 4.0 / 15.0, rtol=1e-14)
        assert_allclose(rhs, 4.0 / 15.0, rtol=1e-14)

    def test_three_singletons_no_discount(self):
        lhs, rhs = lemma_c_check([1, 1, 1], 0.0)
        assert_allclose(lhs, 1.0, rtol=1e-14)
        assert rhs == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma_c_check([], 0.5)
        with pytest.raises(ValueError):
            lemma_c_check([2, 0], 0.5)
        with pytest.raises(ValueError):
            lemma_c_check([2], 1.0)

    @pytest.mark.parametrize("k", range(9, 21))
    def test_singletons_past_eight_blocks(self, k):
        # each of the k! orders gives 1 / (k! (1 - d)^k), so the sum is 2^k
        assert lemma_c_check([1] * k, 0.5) == (2.0**k, 2.0**k)

    @pytest.mark.parametrize("d", [0.0, 0.3, 0.9])
    def test_twelve_mixed_blocks(self, d):
        lhs, rhs = lemma_c_check([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], d)
        assert abs(lhs - rhs) / rhs <= TOL_LEMMA_C

    @pytest.mark.parametrize("k", range(1, 13))
    def test_order_sums_exact_in_rationals(self, k):
        d = Fraction(3, 10)
        sizes = [2, 1, 3, 1, 4, 1, 5, 2, 6, 1, 2, 3][:k]
        (got,) = _order_sums([sizes], Fraction(1), lambda x, total, count: x / (total - count * d))
        assert got == 1 / math.prod(s - d for s in sizes)

    def test_budget_guard(self, monkeypatch):
        # 2^40 sub-multisets of 1..40, and 2^13 vectors of 1e5 + 1 floats
        with pytest.raises(ValueError, match="budget"):
            lemma_c_check(list(range(1, 41)), 0.3)
        blocks, start = [], 1
        for size in range(1, 14):
            blocks.append(list(range(start, start + size)))
            start += size
        with pytest.raises(ValueError, match="budget"):
            lemma_b_truncated_sum(PYParams(1.0, 0.5), P(blocks), 100_000)
        # on both sides of it: (1, 1, 1) holds 4 states, here of 3 elements
        def call():
            return _order_sums([(1, 1, 1)], np.ones(3), lambda v, total, count: v / total)

        monkeypatch.setattr(marginal, "_ORDER_SUM_BUDGET", 12)
        assert call()[0].tolist() == [1.0] * 3  # 3! orders of 1 / (3 * 2 * 1)
        monkeypatch.setattr(marginal, "_ORDER_SUM_BUDGET", 11)
        with pytest.raises(ValueError, match="budget"):
            call()

    @pytest.mark.parametrize("d", [0.0, 0.3, 0.9])
    def test_random_vectors(self, d):
        rng = np.random.default_rng(17)
        for _ in range(100):
            k = int(rng.integers(1, 8))
            sizes = [int(v) for v in rng.integers(1, 11, size=k)]
            lhs, rhs = lemma_c_check(sizes, d)
            assert abs(lhs - rhs) / rhs <= 1e-12


def brute_label_sum(params, partition, max_label):
    """Direct scan of label vectors inducing `partition`; oracle for the
    gap-parameterized recursion."""
    alpha, d = params.alpha, params.d
    n = partition.n
    total = 0.0
    for z in product(range(1, max_label + 1), repeat=n):
        if partition_from_allocations(z) != partition:
            continue
        m = max(z)
        term = 1.0
        for j in range(1, m + 1):
            g = sum(1 for v in z if v >= j)
            term *= (alpha + (j - 1) * d) / (g + alpha + (j - 1) * d)
        total += term
    return total


class TestLabelSumOracle:
    def test_closed_forms(self):
        params = PYParams(1.0, 0.5)
        assert_allclose(lemma_b_truncated_sum(params, P([[1]]), 50)[1], 2.0, rtol=1e-14)
        assert_allclose(lemma_b_truncated_sum(params, P([[1, 2]]), 50)[1], 2 / 3, rtol=1e-14)

    def test_empty_partition_is_the_empty_product(self):
        # one empty block order and no gaps: both sides are the empty product
        assert lemma_b_truncated_sum(PYParams(1.0, 0.5), Partition(()), 5) == (1.0, 1.0)

    @pytest.mark.parametrize(
        "params",
        [PYParams(1.0, 0.5), PYParams(-0.3, 0.5), PYParams(2.0, 0.0), PYParams(0.3, 0.7)],
        ids=str,
    )
    @pytest.mark.parametrize(
        "blocks,max_label",
        [([[1]], 9), ([[1, 2]], 9), ([[1], [2]], 9), ([[1, 3], [2]], 8), ([[1], [2], [3]], 7)],
    )
    def test_matches_brute_force_scan(self, params, blocks, max_label):
        partition = P(blocks)
        got = lemma_b_truncated_sum(params, partition, max_label)[0]
        want = brute_label_sum(params, partition, max_label)
        assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_partial_sum_strictly_below_limit(self):
        params = PYParams(1.0, 0.5)
        partition = P([[1], [2]])
        partial, closed = lemma_b_truncated_sum(params, partition, 2)
        assert partial < closed

    def test_monotone_in_truncation(self):
        params = PYParams(1.0, 0.5)
        partition = P([[1, 3], [2]])
        values = [lemma_b_truncated_sum(params, partition, L)[0] for L in (3, 10, 30, 100)]
        assert values == sorted(values)

    def test_singleton_truncation_error_is_exact(self):
        # for one block of one element the partial sum telescopes to
        # 2 - 6/(L+3) at (alpha, d) = (1, 0.5)
        params = PYParams(1.0, 0.5)
        for L in (10, 60, 500):
            got = lemma_b_truncated_sum(params, P([[1]]), L)[0]
            assert_allclose(got, 2.0 - 6.0 / (L + 3), rtol=1e-12)

    def test_max_label_validation(self):
        with pytest.raises(ValueError):
            lemma_b_truncated_sum(PYParams(1.0, 0.5), P([[1], [2]]), 1)

    @pytest.mark.parametrize("params", [PYParams(0.3, 0.7), PYParams(2.0, 0.9)], ids=str)
    @pytest.mark.parametrize("max_label", [60, 100_000])
    def test_equal_on_each_size_profile(self, params, max_label):
        # the bridge check evaluates every size profile in one call and
        # reuses each value for the profile's partitions, so every partition's
        # own call must give the batch's value bit for bit
        profiles = [sizes for n in range(1, 5) for sizes in _size_profiles(n)[0]]
        batch = list(
            zip(
                _lemma_b_truncated_sums(params, profiles, max_label),
                _bridge_reconstructions(params, profiles, max_label),
            )
        )
        for n in range(1, 5):
            for partition in enumerate_partitions(n):
                sizes = tuple(sorted(partition.block_sizes()))
                value = (
                    lemma_b_truncated_sum(params, partition, max_label),
                    _bridge_reconstructions(params, [sizes], max_label)[0],
                )
                assert value == batch[profiles.index(sizes)], partition

    @pytest.mark.parametrize(
        "params", [PYParams(1.0, 0.5), PYParams(0.3, 0.7), PYParams(-0.3, 0.5)], ids=str
    )
    def test_bridge_past_four_elements(self, params):
        # every profile of n = 5..10 in one call: over each n's partitions the
        # rebuilt values keep the truncated mass, and none exceeds the law
        by_n = {n: _size_profiles(n) for n in range(5, 11)}
        profiles = [sizes for n_profiles, _ in by_n.values() for sizes in n_profiles]
        rebuilt_of = dict(zip(profiles, _bridge_reconstructions(params, profiles, 60)))
        for n, (n_profiles, index) in by_n.items():
            got = np.array([rebuilt_of[sizes] for sizes in n_profiles])[index]
            assert abs(math.fsum(got) - truncated_label_mass(params, n, 60)) <= TOL_TRUNCATED
            assert (got <= _table_probs(params, n) + TOL_ROUNDING).all(), n


class TestNestedGapSums:
    def brute(self, params, offsets, cap):
        alpha, d = params.alpha, params.d
        total = 0.0
        for gaps in product(range(1, cap + 1), repeat=len(offsets)):
            running = 0
            term = 1.0
            for a_i, b_i in zip(offsets, gaps):
                for r in range(b_i):
                    term *= (alpha + (running + r) * d) / (a_i + alpha + (running + r) * d)
                running += b_i
            total += term
        return total

    @pytest.mark.parametrize(
        "offsets,cap",
        [([2.0], 30), ([4.0, 2.0], 25), ([6.0, 4.0, 2.0], 12)],
    )
    def test_matches_brute_force(self, offsets, cap):
        params = PYParams(1.0, 0.5)
        got = lemma_d_check(params, offsets, cap)[0]
        assert_allclose(got, self.brute(params, offsets, cap), rtol=1e-12)

    def test_single_sum_closed_form(self):
        # one gap, offsets [2] at (1, 0.5): limit is a beta mean-of-odds,
        # E[X/(1-X)] = 2/3 for X ~ Beta(2, 4)
        lhs, rhs = lemma_d_check(PYParams(1.0, 0.5), [2.0], 200)
        assert_allclose(rhs, 2.0 / 3.0, rtol=1e-14)
        # oracle-computed truncation gap at cap 200 (tail decays like cap^-3)
        assert_allclose(rhs - lhs, 4.7117e-06, rtol=1e-3)

    def test_two_sum_closed_form(self):
        lhs, rhs = lemma_d_check(PYParams(1.0, 0.5), [4.0, 2.0], 300)
        assert_allclose(rhs, 1.0 / 3.0, rtol=1e-14)
        assert abs(lhs - rhs) <= 1e-5

    def test_monotone_and_bounded(self):
        params = PYParams(1.0, 0.5)
        values = [lemma_d_check(params, [6.0, 4.0, 2.0], cap) for cap in (25, 50, 100, 200)]
        rhs = values[0][1]
        seq = [v[0] for v in values]
        assert seq == sorted(seq)
        assert all(v <= rhs for v in seq)

    def test_guards(self):
        with pytest.raises(ValueError):
            lemma_d_check(PYParams(1.0, 0.0), [2.0], 10)  # needs d > 0
        with pytest.raises(ValueError):
            lemma_d_check(PYParams(1.0, 0.5), [0.9, 2.0], 10)  # a_1 <= d*k
        with pytest.raises(ValueError):
            lemma_d_check(PYParams(1.0, 0.5), [], 10)
        with pytest.raises(ValueError):
            lemma_d_check(PYParams(1.0, 0.5), [2.0], 0)


# the grids the verify checks evaluate, and the parameter corners: negative
# and zero alpha, and the Dirichlet case d = 0
GRID_PARAMS = pytest.mark.parametrize(
    "params",
    [PYParams(1.0, 0.1), PYParams(1.0, 0.5), PYParams(0.3, 0.7), PYParams(2.0, 0.9),
     PYParams(-0.3, 0.5), PYParams(0.0, 0.2), PYParams(5.0, 0.0)],
    ids=str,
)


class TestGridEvaluators:
    """The grid evaluators against the scalar loops of tests/reference.py,
    bit for bit wherever they add in the loops' order: the verify records
    depend on every bit.  The label sums add in another order and are held
    to tight relative bounds instead."""

    @staticmethod
    def assert_rows_identical(params, z):
        got = _allocation_log_probs(params, np.array(z))
        want = np.array([reference.allocation_log_prob(params, row) for row in z])
        assert got.tobytes() == want.tobytes()

    @GRID_PARAMS
    def test_allocation_labels_to_60_at_n2(self, params):
        self.assert_rows_identical(params, list(product(range(1, 61), repeat=2)))

    @GRID_PARAMS
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_allocation_labels_to_4(self, params, n):
        grid = list(product(range(1, 5), repeat=n))
        self.assert_rows_identical(params, grid)
        for z in grid:  # the scalar is the one-row call
            assert allocation_log_prob(params, z) == reference.allocation_log_prob(params, z)

    @GRID_PARAMS
    def test_allocation_label_near_1e4(self, params):
        row = (9973, 1, 5000, 9973)
        self.assert_rows_identical(params, [row])
        assert allocation_log_prob(params, row) == reference.allocation_log_prob(params, row)

    @pytest.mark.parametrize("z", [[[0, 1]], [[1.0, 2.0]], [[]], [1, 2]])
    def test_allocation_rejects_bad_label_matrices(self, z):
        with pytest.raises(ValueError):
            _allocation_log_probs(PYParams(1.0, 0.5), np.array(z))

    @pytest.mark.parametrize(
        "params",
        [PYParams(1.0, 0.5), PYParams(0.3, 0.7), PYParams(-0.3, 0.5), PYParams(0.0, 0.2),
         PYParams(5.0, 0.0), PYParams(2.0, 0.9)],
        ids=str,
    )
    @pytest.mark.parametrize("max_label", [60, 100_000])
    def test_lemma_b_every_profile_to_n4(self, params, max_label):
        # the sums come in another order than the per-ordering loop's, so they
        # are held to the exact rational sum at 60 labels and to the float
        # loop at 1e5; the closed forms and the zeros at alpha = 0 are bit-equal
        profiles = [sizes for n in range(1, 5) for sizes in _size_profiles(n)[0]]
        got = _lemma_b_truncated_sums(params, profiles, max_label)
        for sizes, (value, closed) in zip(profiles, got):
            want, want_closed = reference.lemma_b_truncated_sum(params, sizes, max_label)
            assert closed.hex() == want_closed.hex()
            if params.alpha == 0.0:
                assert value.hex() == want.hex()
                continue
            rtol = 1e-14
            if max_label == 60:
                want, rtol = reference.lemma_b_exact_sum(params, sizes, max_label), 1e-15
            assert abs(Fraction(value) - want) <= Fraction(rtol) * abs(want), sizes

    # the verify grid, plus alpha <= 0, where the capped sums carry alpha's sign
    @pytest.mark.parametrize(
        "alpha, d, offsets",
        LEMMA_D_GRID + ((-0.3, 0.5, (2.0,)), (-0.05, 0.1, (4.0, 2.0)), (0.0, 0.5, (4.0, 2.0))),
        ids=str,
    )
    def test_lemma_d_every_truncation(self, alpha, d, offsets):
        params = PYParams(alpha, d)
        k = len(offsets)
        # below 40 the cap carries real mass, so a last-bit change in the
        # capped subtraction shows; the verify truncations follow
        for cap in (*range(1, 41), *LEMMA_D_TRUNCATIONS):
            want = reference._gap_sum(alpha, d, offsets, k * cap, cap)
            got = lemma_d_check(params, offsets, cap)[0]
            assert got.hex() == math.copysign(want, alpha).hex()
