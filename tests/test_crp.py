import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pitmanyor.core import (
    Partition,
    PYParams,
    _partition_table,
    enumerate_partitions,
    partition_from_allocations,
)
from pitmanyor.crp import (
    _TILE,
    _table_seating_codes,
    _table_sequential_log_probs,
    crp_sample_partition,
    sample_label_matrix,
    sequential_log_prob,
)
from pitmanyor.eppf import eppf_log_prob
from pitmanyor.harness import run_monte_carlo, tv_distance
from pitmanyor.verify import default_parameter_grid
from reference import restricted_growth, seat_partition

P = Partition.from_blocks


def small_grid():
    return [
        PYParams(a, d)
        for a in (-0.3, 0.0, 0.5, 1.0, 5.0)
        for d in (0.0, 0.1, 0.5, 0.9)
        if a > -d
    ]


class TestSequentialLogProb:
    def test_certain_singleton(self):
        assert sequential_log_prob(PYParams(2.0, 0.9), P([[1]])) == 0.0

    def test_pair_values(self):
        params = PYParams(1.0, 0.5)
        assert_allclose(sequential_log_prob(params, P([[1, 2]])), math.log(0.25), rtol=1e-14)
        assert_allclose(sequential_log_prob(params, P([[1], [2]])), math.log(0.75), rtol=1e-14)

    def test_three_point_value(self):
        assert_allclose(
            sequential_log_prob(PYParams(1.0, 0.5), P([[1, 3], [2]])),
            math.log(0.125),
            rtol=1e-14,
        )

    @pytest.mark.parametrize("params", small_grid(), ids=str)
    def test_matches_partition_law_n6(self, params):
        for n in range(1, 7):
            for partition in enumerate_partitions(n):
                assert_allclose(
                    sequential_log_prob(params, partition),
                    eppf_log_prob(params, partition),
                    atol=1e-10,
                )


def sequential_reference(params, partition):
    """The per-step loop: add log(alpha + k d) on opening a block after k,
    or log(s - d) on joining a block of size s, then subtract
    log(alpha + i - 1), one observation at a time."""
    block_of = {e: b for b, block in enumerate(partition.blocks) for e in block}
    seen_sizes = [0] * partition.num_blocks
    opened = 0
    total = 0.0
    for i in range(1, partition.n + 1):
        b = block_of[i]
        if seen_sizes[b] == 0:
            if i > 1:
                total += math.log(params.alpha + opened * params.d)
                total -= math.log(params.alpha + i - 1)
            opened += 1
        else:
            total += math.log(seen_sizes[b] - params.d)
            total -= math.log(params.alpha + i - 1)
        seen_sizes[b] += 1
    return total


class TestSequentialTable:
    @pytest.mark.parametrize("params", default_parameter_grid(), ids=str)
    def test_table_equals_scalar_and_reference(self, params):
        for n in range(1, 9):
            table = _partition_table(n)
            vector = _table_sequential_log_probs(params, n)
            assert vector.shape == (len(table),)
            for value, partition in zip(vector.tolist(), table):
                want = sequential_reference(params, partition)
                assert value == want
                assert sequential_log_prob(params, partition) == want

    def test_event_codes_built_once_and_read_only(self):
        codes = _table_seating_codes(5)
        _table_sequential_log_probs(PYParams(2.0, 0.1), 5)
        assert _table_seating_codes(5) is codes
        assert not codes.flags.writeable

    @pytest.mark.parametrize("n", [12, 30])
    def test_scalar_beyond_the_table(self, n):
        # past MAX_NORMALIZATION_N the scalar product still runs, on the
        # partition's own growth string, and matches the per-step loop
        rng = np.random.default_rng(n)
        partitions = [P([range(1, n + 1)]), P([[e] for e in range(1, n + 1)])]
        partitions += [crp_sample_partition(PYParams(1.0, 0.5), n, rng) for _ in range(5)]
        for params in default_parameter_grid():
            for partition in partitions:
                want = sequential_reference(params, partition)
                assert sequential_log_prob(params, partition) == want


class TestSampler:
    def test_n1_always_singleton(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert crp_sample_partition(PYParams(0.3, 0.7), 1, rng).blocks == ((1,),)

    def test_seed_reproducibility(self):
        a = [crp_sample_partition(PYParams(1.0, 0.5), 6, np.random.default_rng(9)) for _ in range(50)]
        b = [crp_sample_partition(PYParams(1.0, 0.5), 6, np.random.default_rng(9)) for _ in range(50)]
        assert a == b

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            crp_sample_partition(PYParams(1.0, 0.5), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("alpha, d", [(1.0, 0.5), (0.3, 0.7), (1.0, 0.9), (1e6, 0.5)])
    @pytest.mark.parametrize("n", [1, 4, 30])
    def test_is_row_zero_of_one_row_batch(self, alpha, d, n):
        # the seating loop gives the same partitions and leaves the same stream
        params = PYParams(alpha, d)
        for seed in range(3):
            rngs = [np.random.default_rng(seed) for _ in range(3)]
            got = crp_sample_partition(params, n, rngs[0])
            row = sample_label_matrix(params, n, 1, rngs[1])[0]
            assert got == partition_from_allocations((row + 1).tolist())
            assert got == seat_partition(params, n, rngs[2])
            assert len({rng.random() for rng in rngs}) == 1

    def test_scalar_sampler_frequency(self):
        rng = np.random.default_rng(11)
        params = PYParams(1.0, 0.5)
        merged = P([[1, 2]])
        trials = 40_000
        hits = sum(seat_partition(params, 2, rng) == merged for _ in range(trials))
        se = math.sqrt(0.25 * 0.75 / trials)
        assert abs(hits / trials - 0.25) <= 3.5 * se


class RecordedUniforms:
    """Stands in for a Generator: each `random(size)` call draws from the
    wrapped generator and keeps the uniforms it drew."""

    def __init__(self, rng):
        self.rng = rng
        self.steps = []

    def random(self, size):
        u = self.rng.random(size)
        self.steps.append(u)
        return u


class ReplayedUniforms:
    """Hands out one trial's uniforms in order, one per `random()` call, as
    the scalar seating loop asks for them."""

    def __init__(self, uniforms):
        self.uniforms = iter(uniforms.tolist())

    def random(self):
        return next(self.uniforms)


class TestBatchSampler:
    @pytest.mark.parametrize("alpha, d", [(1.0, 0.5), (0.3, 0.7), (1e6, 0.5)])
    @pytest.mark.parametrize("n", [1, 4, 30])
    # _TILE + 1 trials are seated in two column tiles
    @pytest.mark.parametrize("trials", [1, 7, 500, _TILE + 1])
    def test_each_row_is_the_seating_loop_fed_its_column(self, alpha, d, n, trials):
        # the uniforms are one (n - 1, trials) block, empty at n = 1, and row r
        # must seat with column r of it
        params = PYParams(alpha, d)
        rng = RecordedUniforms(np.random.default_rng(1000 * n + trials))
        labels = sample_label_matrix(params, n, trials, rng)
        assert labels.shape == (trials, n)
        assert [u.shape for u in rng.steps] == [(n - 1, trials)]
        uniforms = rng.steps[0]
        for r in range(trials):
            replay = ReplayedUniforms(uniforms[:, r])
            want = seat_partition(params, n, replay)
            assert next(replay.uniforms, None) is None
            assert tuple(labels[r].tolist()) == restricted_growth(want)

    def test_rows_are_first_appearance_labels(self):
        rng = np.random.default_rng(1)
        labels = sample_label_matrix(PYParams(1.0, 0.5), 8, 500, rng)
        for row in labels:
            seen = 0
            for v in row:
                assert 0 <= v <= seen
                seen = max(seen, v + 1)

    def test_matches_scalar_sampler_distribution(self):
        params = PYParams(1.0, 0.5)
        rng = np.random.default_rng(21)
        trials = 30_000
        scalar_counts = {}
        for _ in range(trials):
            key = seat_partition(params, 3, rng)
            scalar_counts[key] = scalar_counts.get(key, 0) + 1
        batch = sample_label_matrix(params, 3, trials, np.random.default_rng(22))
        batch_counts = {}
        for row in batch:
            key = partition_from_allocations([int(v) + 1 for v in row])
            batch_counts[key] = batch_counts.get(key, 0) + 1
        for partition in enumerate_partitions(3):
            p_scalar = scalar_counts.get(partition, 0) / trials
            p_batch = batch_counts.get(partition, 0) / trials
            exact = math.exp(eppf_log_prob(params, partition))
            se = math.sqrt(exact * (1 - exact) / trials)
            assert abs(p_scalar - exact) <= 4.5 * se
            assert abs(p_batch - exact) <= 4.5 * se


class TestMonteCarloAgreement:
    def test_dirichlet_all_singletons_frequency(self):
        # alpha=1, d=0: the all-apart partition of [3] has probability 1/6
        emp = run_monte_carlo(PYParams(1.0, 0.0), 3, 1_000_000, "crp", 31)
        freq = emp.freq(P([[1], [2], [3]]))
        assert abs(freq - 1.0 / 6.0) <= 0.0013

    def test_total_variation_million_draws(self):
        emp = run_monte_carlo(PYParams(1.0, 0.5), 4, 1_000_000, "crp", 32)
        assert tv_distance(emp) < 0.005
