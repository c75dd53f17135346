import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pitmanyor.core import Partition, PYParams, enumerate_partitions
from pitmanyor.eppf import eppf_log_prob
from pitmanyor.harness import (
    _GROWTH_BLOCK_ELEMENTS,
    EmpiricalPartitionDist,
    GrowthRecord,
    _code_partitions,
    _partition_codes,
    format_partition,
    growth_experiment,
    parse_partition,
    run_monte_carlo,
    sample_partitions,
    tv_distance,
)

P = Partition.from_blocks


def restricted_growth(partition):
    """0-based block index of each element, blocks in least-element order."""
    z = [0] * partition.n
    for b, block in enumerate(partition.blocks):
        for e in block:
            z[e - 1] = b
    return tuple(z)


class TestPartitionText:
    def test_round_trip(self):
        partition = P([[1, 3], [2], [4, 5]])
        assert parse_partition(format_partition(partition)) == partition

    def test_parse_canonicalizes(self):
        assert format_partition(parse_partition("3|1,2")) == "1,2|3"
        assert format_partition(parse_partition("2 , 1|3")) == "1,2|3"

    @pytest.mark.parametrize("text", ["1,3", "1,2|2,3", "0|1", "1,|2", "a|b", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)


class TestPartitionCodes:
    def tally(self, z):
        z = np.asarray(z, dtype=np.int64)
        codes = _partition_codes(z)
        return codes, _code_partitions(codes, z.shape[1])

    def test_stick_sized_labels_need_no_relabelling(self):
        big = 10**12
        _, parts = self.tally([[big, big + 4, big, 3], [7, 7, 7, 7], [1, big, 2, big]])
        assert parts == [P([[1, 3], [2], [4]]), P([[1, 2, 3, 4]]), P([[1], [2, 4], [3]])]

    def test_ten_distinct_labels_give_the_largest_code(self):
        row = [10**12 - 7 * j for j in range(10)]
        codes, parts = self.tally([row, [3] * 10])
        assert codes.tolist() == [123_456_789, 0]
        assert parts == [P([[i] for i in range(1, 11)]), P([list(range(1, 11))])]

    def test_single_element(self):
        codes, parts = self.tally([[4], [10**12]])
        assert codes.tolist() == [0, 0]
        assert parts == [P([[1]]), P([[1]])]

    def test_codes_sort_like_restricted_growth_strings(self):
        partitions = list(enumerate_partitions(5))
        z = np.array([restricted_growth(p) for p in partitions]) * 10**9 + 11
        codes, parts = self.tally(z)
        assert parts == partitions
        assert len(set(codes.tolist())) == len(partitions)
        by_code = [parts[i] for i in np.argsort(codes)]
        assert by_code == sorted(partitions, key=restricted_growth)


class TestRunMonteCarlo:
    def test_n1_all_mass_on_singleton(self):
        emp = run_monte_carlo(PYParams(0.3, 0.7), 1, 500, "stick", 1)
        assert emp.counts == {P([[1]]): 500}

    def test_counts_sum_to_trials(self):
        emp = run_monte_carlo(PYParams(1.0, 0.5), 4, 70_000, "stick", 2)
        assert sum(emp.counts.values()) == emp.trials == 70_000

    def test_same_seed_same_counts(self):
        a = run_monte_carlo(PYParams(1.0, 0.5), 4, 70_000, "stick", 3)
        b = run_monte_carlo(PYParams(1.0, 0.5), 4, 70_000, "stick", 3)
        assert a.counts == b.counts

    def test_pool_matches_serial(self):
        a = run_monte_carlo(PYParams(1.0, 0.5), 3, 70_000, "crp", 4, workers=1)
        b = run_monte_carlo(PYParams(1.0, 0.5), 3, 70_000, "crp", 4, workers=2)
        assert a.counts == b.counts

    def test_stick_pair_frequency(self):
        emp = run_monte_carlo(PYParams(1.0, 0.5), 2, 200_000, "stick", 7)
        freq = emp.freq(P([[1, 2]]))
        se = math.sqrt(0.25 * 0.75 / emp.trials)
        assert abs(freq - 0.25) <= 3.5 * se

    @pytest.mark.parametrize("sampler", ["stick", "crp"])
    def test_keys_in_restricted_growth_order(self, sampler):
        # the order `sample --tabulate` prints
        emp = run_monte_carlo(PYParams(1.0, 0.5), 5, 20_000, sampler, 8)
        keys = [restricted_growth(p) for p in emp.counts]
        assert len(keys) > 30 and keys == sorted(keys)

    def test_n_cap(self):
        with pytest.raises(ValueError):
            run_monte_carlo(PYParams(1.0, 0.5), 11, 10, "stick", 0)

    def test_bad_sampler(self):
        with pytest.raises(ValueError):
            run_monte_carlo(PYParams(1.0, 0.5), 3, 10, "bogus", 0)


class TestSamplePartitions:
    def test_order_and_determinism(self):
        draws_a = sample_partitions(PYParams(1.0, 0.5), 4, 500, "crp", 11)
        draws_b = sample_partitions(PYParams(1.0, 0.5), 4, 500, "crp", 11)
        assert draws_a == draws_b
        assert len(draws_a) == 500

    @pytest.mark.parametrize("sampler, n", [("stick", 3), ("crp", 8)])
    def test_agrees_with_tabulation(self, sampler, n):
        params = PYParams(1.0, 0.5)
        draws = sample_partitions(params, n, 2000, sampler, 12)
        emp = run_monte_carlo(params, n, 2000, sampler, 12)
        counts = {}
        for partition in draws:
            counts[partition] = counts.get(partition, 0) + 1
        assert counts == emp.counts


class TestTvDistance:
    def make_emp(self, counts, params):
        n = next(iter(counts)).n
        return EmpiricalPartitionDist(
            counts, sum(counts.values()), 0, params, "crp", n
        )

    def test_exact_distribution_gives_zero(self):
        params = PYParams(1.0, 0.5)
        emp = self.make_emp({P([[1, 2]]): 1, P([[1], [2]]): 3}, params)
        assert tv_distance(emp) == 0.0

    def test_all_mass_on_merged_pair(self):
        params = PYParams(1.0, 0.5)
        emp = self.make_emp({P([[1, 2]]): 10}, params)
        assert_allclose(tv_distance(emp), 0.75, rtol=1e-12)

    def test_canonical_keying_is_label_invariant(self):
        params = PYParams(1.0, 0.5)
        emp = self.make_emp({Partition.from_blocks([[2], [1]]): 1,
                             Partition.from_blocks([[1, 2]]): 3}, params)
        expected = 0.5 * (abs(0.25 - 0.75) + abs(0.75 - 0.25))
        assert_allclose(tv_distance(emp), expected, rtol=1e-12)

    def test_mismatched_params_rejected(self):
        params = PYParams(1.0, 0.5)
        emp = self.make_emp({P([[1, 2]]): 1}, params)
        with pytest.raises(ValueError):
            tv_distance(emp, PYParams(2.0, 0.5))

    @pytest.mark.parametrize(
        "params", [PYParams(1.0, 0.5), PYParams(-0.3, 0.5), PYParams(2.0, 0.0)], ids=str
    )
    def test_equals_streaming_sum_over_enumeration(self, params):
        for n in range(1, 9):
            emp = run_monte_carlo(params, n, 500, "crp", 40 + n, workers=1)
            gap = 0.0
            for partition in enumerate_partitions(n):
                exact = math.exp(eppf_log_prob(params, partition))
                gap += abs(emp.counts.get(partition, 0) / emp.trials - exact)
            assert tv_distance(emp) == 0.5 * gap

    def test_explicit_matching_params_ok(self):
        params = PYParams(1.0, 0.5)
        emp = self.make_emp({P([[1, 2]]): 1}, params)
        assert tv_distance(emp, params) == tv_distance(emp)


def exact_mean_blocks(alpha, d, n_values):
    """Exact E[block count]: the chain mean obeys a linear recursion since the
    open-new-block probability is (alpha + k d)/(alpha + i)."""
    out = {}
    mean = 1.0
    if 1 in n_values:
        out[1] = 1.0
    for i in range(1, max(n_values)):
        mean = mean + (alpha + mean * d) / (alpha + i)
        if i + 1 in n_values:
            out[i + 1] = mean
    return out


def growth_reference(params, grid, trials, seed):
    """The block-count chain one step at a time, one `rng.random(trials)` per
    step: the reference the block-drawing engine must match bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    wanted = set(grid)
    k = np.ones(trials)
    records = []

    def snapshot(n_now):
        se = float(k.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        records.append(GrowthRecord(n_now, float(k.mean()), se, trials))

    if 1 in wanted:
        snapshot(1)
    for i in range(1, grid[-1]):
        p_new = (params.alpha + k * params.d) / (params.alpha + i)
        k += rng.random(trials) < p_new
        if (i + 1) in wanted:
            snapshot(i + 1)
    if len(records) >= 2:
        cut = min(len(records) - 2, len(records) // 2)
        xs = np.log([r.n for r in records[cut:]])
        ys = np.log([r.mean_kn for r in records[cut:]])
        return records, float(np.polyfit(xs, ys, 1)[0])
    return records, float("nan")


# (grid, trials).  At 64 trials a block holds ROWS steps, so "off-block-ends"
# spans several blocks and ends each grid interval inside one.
ROWS = _GROWTH_BLOCK_ELEMENTS // 64
GROWTH_CASES = {
    "grid-with-1": ([1, 2, 3, 10], 50),
    "off-block-ends": ([5, ROWS + 17, 2 * ROWS + 5, 3 * ROWS - 1], 64),
    "one-trial": ([1, 40, 300], 1),
    "one-row-blocks": ([2, 3, 6], _GROWTH_BLOCK_ELEMENTS // 2 + 1),
}


class TestGrowthExperiment:
    @pytest.mark.parametrize("case", GROWTH_CASES)
    @pytest.mark.parametrize(
        "params", [PYParams(1.0, 0.0), PYParams(1.0, 0.5), PYParams(1.0, 0.9), PYParams(-0.3, 0.5)], ids=str
    )
    def test_matches_per_step_reference(self, params, case):
        grid, trials = GROWTH_CASES[case]
        assert growth_experiment(params, grid, trials, 31) == growth_reference(params, grid, trials, 31)

    def test_trivial_single_trial(self):
        records, _ = growth_experiment(PYParams(1.0, 0.5), [1, 2], 1, 0)
        assert records[0].n == 1 and records[0].mean_kn == 1.0 and records[0].se == 0.0

    def test_matches_exact_mean_recursion(self):
        params = PYParams(1.0, 0.5)
        grid = [100, 400, 1600]
        records, _ = growth_experiment(params, grid, 4000, 21)
        exact = exact_mean_blocks(params.alpha, params.d, set(grid))
        for record in records:
            assert abs(record.mean_kn - exact[record.n]) <= 4.5 * record.se

    def test_matches_exact_mean_dirichlet(self):
        params = PYParams(2.0, 0.0)
        grid = [50, 500]
        records, _ = growth_experiment(params, grid, 4000, 22)
        exact = exact_mean_blocks(params.alpha, params.d, set(grid))
        for record in records:
            assert abs(record.mean_kn - exact[record.n]) <= 4.5 * record.se

    def test_chain_matches_full_sampler(self):
        # the chain is claimed to have the law of the full run's block count
        params = PYParams(1.0, 0.5)
        records, _ = growth_experiment(params, [5, 10], 30_000, 23)
        emp = run_monte_carlo(params, 10, 30_000, "crp", 24)
        full_mean = sum(p.num_blocks * c for p, c in emp.counts.items()) / emp.trials
        chain = records[-1]
        assert abs(chain.mean_kn - full_mean) <= 5.0 * chain.se

    def test_exponent_recovers_discount(self):
        _, exponent = growth_experiment(PYParams(1.0, 0.5), [100, 1000, 10_000], 200, 25)
        assert 0.35 <= exponent <= 0.65

    @pytest.mark.parametrize("grid", [[100, 100], [100, 50], [0, 10], [200_000]])
    def test_degenerate_grids(self, grid):
        with pytest.raises(ValueError):
            growth_experiment(PYParams(1.0, 0.5), grid, 10, 0)

    def test_determinism(self):
        a = growth_experiment(PYParams(1.0, 0.5), [10, 100], 50, 3)
        b = growth_experiment(PYParams(1.0, 0.5), [10, 100], 50, 3)
        assert a == b
