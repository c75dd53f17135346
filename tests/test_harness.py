import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pitmanyor.core import Partition, PYParams, _partition_table, enumerate_partitions
from pitmanyor.eppf import eppf_log_prob
from pitmanyor.harness import (
    MAX_GROWTH_N,
    SAMPLERS,
    EmpiricalPartitionDist,
    _block_counts,
    _partition_codes,
    _table_codes,
    format_partition,
    growth_experiment,
    parse_partition,
    run_monte_carlo,
    sample_partitions,
    tv_distance,
)
from reference import restricted_growth

P = Partition.from_blocks

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


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
        """Codes of a label matrix and the table partitions they look up."""
        z = np.asarray(z, dtype=np.int64)
        n = z.shape[1]
        codes = _partition_codes(z)
        index = np.searchsorted(_table_codes(n), codes)
        assert (_table_codes(n)[index] == codes).all()
        table = _partition_table(n)
        return codes, [table[i] for i in index]

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


class TestTableCodes:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_strictly_ascending_and_read_only(self, n):
        codes = _table_codes(n)
        assert len(codes) == BELL[n]
        assert (np.diff(codes) > 0).all()
        assert not codes.flags.writeable
        assert _table_codes(n) is codes


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


class Drew(Exception):
    """Raised by the spy samplers: the request reached a draw."""


class TestRequestChecks:
    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []

        def sampler(*args):
            calls.append(args)
            raise Drew

        for name in SAMPLERS:
            monkeypatch.setitem(SAMPLERS, name, sampler)
        return calls

    @pytest.mark.parametrize("run", [run_monte_carlo, sample_partitions])
    @pytest.mark.parametrize(
        "n, trials, sampler",
        [(0, 10, "stick"), (11, 10, "crp"), (2.5, 10, "stick"), (4, 0, "crp"), (4, 10, "bogus")],
    )
    def test_bad_request_fails_before_any_draw(self, spy, run, n, trials, sampler):
        with pytest.raises(ValueError):
            run(PYParams(1.0, 0.5), n, trials, sampler, 0)
        assert spy == []

    @pytest.mark.parametrize("run", [run_monte_carlo, sample_partitions])
    @pytest.mark.parametrize("sampler", ["stick", "crp"])
    def test_good_request_reaches_the_registry(self, spy, run, sampler):
        with pytest.raises(Drew):
            run(PYParams(1.0, 0.5), 4, 10, sampler, 0)
        assert len(spy) == 1

    @pytest.mark.parametrize("sampler", ["stick", "crp"])
    def test_numpy_integer_n(self, sampler):
        params = PYParams(1.0, 0.5)
        emp = run_monte_carlo(params, np.int64(4), 500, sampler, 5)
        assert emp.counts == run_monte_carlo(params, 4, 500, sampler, 5).counts
        draws = sample_partitions(params, np.int64(4), 50, sampler, 5)
        assert draws == sample_partitions(params, 4, 50, sampler, 5)


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


def exact_block_count_law(alpha, d, n_values):
    """Exact law of the block count K_n at each n in n_values, as arrays whose
    entry k is Pr(K_n = k), from K_1 = 1 and the forward recursion
    P_{i+1}(k) = P_i(k)(i - k d)/(alpha + i) + P_i(k-1)(alpha + (k-1)d)/(alpha + i)."""
    law = np.zeros(max(n_values) + 1)
    law[1] = 1.0
    ks = np.arange(law.size)
    out = {1: law.copy()} if 1 in n_values else {}
    for i in range(1, max(n_values)):
        opened = law * (alpha + ks * d) / (alpha + i)
        law = law * (i - ks * d) / (alpha + i)
        law[1:] += opened[:-1]
        if i + 1 in n_values:
            out[i + 1] = law.copy()
    return out


def tv_bound(law, n, delta):
    """A bound the TV between n iid draws from `law` and `law` itself
    exceeds with probability at most delta.

    Its mean is at most half the summed mean absolute deviations of the
    Binomial(n, p_k) counts over n, each exact by de Moivre's formula
    E|X - np| = 2 nu C(n, nu) p^nu (1-p)^(n-nu+1) with nu = floor(np) + 1.
    One draw moves the TV by at most 1/n, so McDiarmid's inequality adds
    sqrt(ln(1/delta)/(2n)).
    """
    mean = 0.0
    for p in law:
        nu = math.floor(n * p) + 1
        if 0.0 < p and nu <= n:
            mean += math.exp(
                math.log(2 * nu) + math.lgamma(n + 1) - math.lgamma(nu + 1)
                - math.lgamma(n - nu + 1) + nu * math.log(p) + (n - nu + 1) * math.log1p(-p)
            )
    return 0.5 * mean / n + math.sqrt(math.log(1 / delta) / (2 * n))


def block_count_tv(draws, law):
    freq = np.bincount(np.asarray(draws, dtype=np.int64), minlength=law.size) / len(draws)
    return 0.5 * float(np.abs(freq - law).sum())


def reference_block_counts(params, grid, trials, rng):
    """K_n of the block-count chain run one step at a time, one uniform per
    row per step: the plain simulation the event-to-event engine must match
    in law."""
    alpha, d = params.alpha, params.d
    wanted = set(grid)
    k = np.ones(trials)
    cols = [k.copy()] if 1 in wanted else []
    for i in range(1, grid[-1]):
        k += rng.random(trials) * (alpha + i) < alpha + k * d
        if i + 1 in wanted:
            cols.append(k.copy())
    return np.column_stack(cols)


# (grid, trials, runs): the engine runs `runs` times with `trials` rows each.
# The row layouts keep the names of the block-of-uniforms engine they once
# probed: grid points thousands of steps apart, and very many rows.
GROWTH_CASES = {
    "grid-with-1": ([1, 2, 3, 10], 50, 40),
    "off-block-ends": ([5, 2065, 4101, 6143], 64, 4),
    "one-trial": ([1, 40, 300], 1, 200),
    "one-row-blocks": ([2, 3, 6], 65_537, 1),
}

# the grid has 1 (no step taken) and 2 (one step) as well as longer runs
LAW_GRID = [1, 2, 5, 20, 60]
# per (params, n) check; 30 checks fail by chance with probability <= 3e-5
LAW_DELTA = 1e-6


class TestGrowthExperiment:
    @pytest.mark.parametrize("case", GROWTH_CASES)
    @pytest.mark.parametrize(
        "params", [PYParams(1.0, 0.0), PYParams(1.0, 0.5), PYParams(1.0, 0.9), PYParams(-0.3, 0.5)], ids=str
    )
    def test_matches_per_step_reference(self, params, case):
        # pooled over the case's runs, the engine's K_n mean agrees with the
        # per-step chain's within 5 standard errors at every grid point
        grid, trials, runs = GROWTH_CASES[case]
        engine = np.vstack(
            [_block_counts(params, grid, trials, np.random.default_rng([31, r])) for r in range(runs)]
        )
        reference = reference_block_counts(params, grid, trials * runs, np.random.default_rng(32))
        for n, a, b in zip(grid, engine.T, reference.T):
            se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / a.size)
            assert abs(a.mean() - b.mean()) <= 5.0 * se, (n, a.mean(), b.mean())
        records, _ = growth_experiment(params, grid, trials, 31)
        assert [(r.n, r.trials) for r in records] == [(n, trials) for n in grid]

    @pytest.mark.parametrize(
        "params",
        [PYParams(1.0, 0.0), PYParams(2.0, 0.0), PYParams(1.0, 0.5), PYParams(1.0, 0.9),
         PYParams(-0.3, 0.5), PYParams(0.3, 0.7)],
        ids=str,
    )
    def test_block_count_law_is_exact(self, params):
        trials = 40_000
        kn = _block_counts(params, LAW_GRID, trials, np.random.default_rng(41))
        laws = exact_block_count_law(params.alpha, params.d, set(LAW_GRID))
        for n, draws in zip(LAW_GRID, kn.T):
            tv = block_count_tv(draws, laws[n])
            assert tv <= tv_bound(laws[n], trials, LAW_DELTA), (n, tv)

    def test_single_trial_runs_have_the_law(self):
        # one trial per run: the record mean is that run's K_n
        params, grid, runs = PYParams(1.0, 0.5), [1, 2, 5], 2000
        draws = np.array(
            [[r.mean_kn for r in growth_experiment(params, grid, 1, seed)[0]] for seed in range(runs)]
        )
        laws = exact_block_count_law(params.alpha, params.d, set(grid))
        for n, column in zip(grid, draws.T):
            assert block_count_tv(column, laws[n]) <= tv_bound(laws[n], runs, LAW_DELTA)

    @pytest.mark.parametrize(
        "params, grid, trials",
        [
            # q about 1e-12 / i: the geometric gap lands far past the horizon
            (PYParams(-0.5 + 1e-12, 0.5), [2, 1000, MAX_GROWTH_N], 200),
            # 1 - q rounds to 1, so the gap is infinite
            (PYParams(1e-320, 0.0), [2, MAX_GROWTH_N], 20),
            # 1 - q below 1e-9: every step is proposed
            (PYParams(1e12, 0.5), [10, 2000], 50),
            (PYParams(1.0, 0.99), [2, 1000, MAX_GROWTH_N], 1),
            (PYParams(1.0, 0.99), [2, 1000, MAX_GROWTH_N], 200),
        ],
        ids=str,
    )
    def test_extreme_parameters_stay_in_range(self, params, grid, trials):
        kn = _block_counts(params, grid, trials, np.random.default_rng(43))
        assert kn.shape == (trials, len(grid))
        assert (kn >= 1).all() and (kn <= np.array(grid)).all()
        assert (np.diff(kn, axis=1) >= 0).all()
        if params.alpha + params.d < 1e-11:
            # Pr(any new block by 1e5) is at most about 1e-12 ln(1e5)
            assert (kn == 1).all()
        if params.alpha >= 1e12:
            # Pr(K_n < n) is about n^2 (1 - d) / (2 alpha) = 1e-6
            assert (kn == np.array(grid)).all()

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

    def test_numpy_integer_grid(self):
        records, exponent = growth_experiment(PYParams(1.0, 0.5), list(np.array([10, 100])), 5, 1)
        assert (records, exponent) == growth_experiment(PYParams(1.0, 0.5), [10, 100], 5, 1)
        assert [type(r.n) for r in records] == [int, int]

    def test_determinism(self):
        a = growth_experiment(PYParams(1.0, 0.5), [10, 100], 50, 3)
        b = growth_experiment(PYParams(1.0, 0.5), [10, 100], 50, 3)
        assert a == b
