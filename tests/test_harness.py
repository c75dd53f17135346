import concurrent.futures
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pitmanyor import harness, verify
from pitmanyor.constants import MC_SIGMA
from pitmanyor.core import (
    Partition,
    PYParams,
    _growth_strings,
    _table_index,
    enumerate_partitions,
    log_gamma_ratio,
)
from pitmanyor.eppf import eppf_log_prob
from pitmanyor.harness import (
    MAX_GROWTH_N,
    SAMPLERS,
    EmpiricalPartitionDist,
    _block_counts,
    format_partition,
    growth_experiment,
    parse_partition,
    run_monte_carlo,
    sample_partitions,
    tv_distance,
)
from reference import restricted_growth

P = Partition.from_blocks


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

    def test_pool_size_follows_cpu_affinity(self, monkeypatch):
        # a process pinned to one CPU runs its three batches serially
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started on one usable CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        got = run_monte_carlo(PYParams(1.0, 0.5), 4, 70_000, "stick", 1)
        want = run_monte_carlo(PYParams(1.0, 0.5), 4, 70_000, "stick", 1, workers=1)
        assert np.array_equal(got.tally, want.tally)

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
    @pytest.mark.parametrize("n", [0, 11, 2.5, "3"])
    def test_bad_n_gives_the_shared_message(self, spy, run, n):
        with pytest.raises(ValueError) as err:
            run(PYParams(1.0, 0.5), n, 10, "crp", 0)
        assert str(err.value) == f"n must be an integer in 1..10, got {n!r}"

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
        tally = np.zeros(len(_growth_strings(n)), dtype=np.int64)
        for partition, count in counts.items():
            tally[_table_index([restricted_growth(partition)])] += count
        return EmpiricalPartitionDist(
            tally, sum(counts.values()), 0, params, "crp", n
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

    @pytest.mark.parametrize(
        "params", [PYParams(1.0, 0.5), PYParams(-0.3, 0.5), PYParams(2.0, 0.0)], ids=str
    )
    def test_equals_streaming_sum_over_enumeration(self, params):
        for n in range(1, 9):
            emp = run_monte_carlo(params, n, 500, "crp", 40 + n, workers=1)
            counts = emp.counts  # each read rebuilds the view
            gap = 0.0
            for partition in enumerate_partitions(n):
                exact = math.exp(eppf_log_prob(params, partition))
                gap += abs(counts.get(partition, 0) / emp.trials - exact)
            assert tv_distance(emp) == 0.5 * gap


class TestTallyWithoutPartitionTable:
    @pytest.fixture
    def no_table(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"built the Partition table at n={n}")

        monkeypatch.setattr(harness, "_partition_table", refuse)

    @pytest.mark.parametrize("sampler", ["stick", "crp"])
    def test_monte_carlo_and_tv_at_n10(self, no_table, sampler):
        emp = run_monte_carlo(PYParams(1.0, 0.5), 10, 2000, sampler, 50, workers=1)
        assert emp.tally.shape == (115_975,) and not emp.tally.flags.writeable
        assert emp.tally.sum() == 2000
        assert 0.0 < tv_distance(emp) <= 1.0

    def test_verify_sampling_checks(self, no_table):
        for sampler in SAMPLERS:
            records = verify.check_sampler_law_tv(sampler, trials=2000)
            assert all(r["passed"] for r in records)
        assert all(r["passed"] for r in verify.check_sampling_determinism())

    def test_freq_reads_the_tally(self, no_table):
        emp = run_monte_carlo(PYParams(1.0, 0.5), 10, 2000, "crp", 51, workers=1)
        singletons = P([[i] for i in range(1, 11)])
        index = _table_index([restricted_growth(singletons)])[0]
        assert emp.freq(singletons) == emp.tally[index] / 2000 > 0.0
        assert emp.freq(P([[1, 2]])) == 0.0


def closed_form_mean_blocks(alpha, d, n):
    """E[K_n] = (alpha + d)/d (alpha + d + 1)_(n-1) / (alpha + 1)_(n-1) - alpha/d,
    or sum_{i<n} alpha / (alpha + i) at d = 0."""
    if d == 0.0:
        return math.fsum(alpha / (alpha + i) for i in range(n))
    rising = math.exp(log_gamma_ratio(alpha + n, d, 0.0) - log_gamma_ratio(alpha + 1.0, d, 0.0))
    return (alpha + d) / d * rising - alpha / d


def assert_block_count_mean(sampler, alpha, d, n, rows):
    # the stick route labels blocks by ordinal from 1, the restaurant route
    # from 0, so a row's block count is its largest label (+ 1)
    z = SAMPLERS[sampler](PYParams(alpha, d), n, rows, np.random.default_rng(5))
    blocks = z.max(axis=1) + (sampler == "crp")
    se = blocks.std(ddof=1) / math.sqrt(rows)
    assert abs(blocks.mean() - closed_form_mean_blocks(alpha, d, n)) <= MC_SIGMA * se


BLOCK_COUNT_CONFIGS = pytest.mark.parametrize("alpha, d", [(1.0, 0.5), (0.3, 0.7), (1.0, 0.0)])


@BLOCK_COUNT_CONFIGS
@pytest.mark.parametrize("sampler", list(SAMPLERS))
def test_batch_samplers_block_count_mean_at_n100(sampler, alpha, d):
    assert_block_count_mean(sampler, alpha, d, 100, 1024)


# the restaurant route only: the stick route takes seconds per 256 rows here
@BLOCK_COUNT_CONFIGS
def test_restaurant_block_count_mean_at_n1000(alpha, d):
    assert_block_count_mean("crp", alpha, d, 1000, 256)


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
        # a table row's block count is its growth string's largest block + 1
        full_mean = int((emp.tally * (_growth_strings(10).max(axis=1) + 1)).sum()) / emp.trials
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
