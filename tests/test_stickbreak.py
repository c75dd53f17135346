import importlib
import itertools
import math
import sys
import types
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pitmanyor.stickbreak as sb
import reference
from pitmanyor.constants import MC_SIGMA
from pitmanyor.core import Partition, PYParams, partition_from_allocations
from pitmanyor.marginal import _allocation_log_probs
from pitmanyor.stickbreak import (
    beta_sample,
    sample_allocations_batch,
    sample_partition_labels_batch,
    stickbreak_sample_partition,
)
from reference import StickState, extend_sticks, sample_allocations


class TestBetaSampler:
    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            beta_sample(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            beta_sample(1.0, -1.0, rng)

    def test_uniform_mean(self):
        rng = np.random.default_rng(101)
        draws = beta_sample(1.0, 1.0, rng, size=1_000_000)
        assert abs(draws.mean() - 0.5) <= 0.001

    def test_sub_one_shape_mean(self):
        rng = np.random.default_rng(102)
        draws = beta_sample(0.5, 1.5, rng, size=1_000_000)
        assert abs(draws.mean() - 0.25) <= 0.002

    def test_product_moment(self):
        # E[y(1-y)] for Beta(2,3) equals B(3,4)/B(2,3) = 1/5
        rng = np.random.default_rng(103)
        draws = beta_sample(2.0, 3.0, rng, size=1_000_000)
        assert abs((draws * (1 - draws)).mean() - 0.2) <= 0.002

    def test_open_interval(self):
        rng = np.random.default_rng(104)
        draws = beta_sample(0.1, 20.0, rng, size=100_000)
        assert draws.min() > 0.0 and draws.max() < 1.0

    def test_tiny_shapes_give_no_nan(self):
        # first-stick shapes (1 - d, alpha + d) at d = 0.999, alpha = -d + 1e-9:
        # both gammas of a g1 / (g1 + g2) ratio underflow to 0 there
        a, b = 0.001, 1e-9
        draws = beta_sample(a, b, np.random.default_rng(105), size=100_000)
        assert not np.isnan(draws).any()
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        # the sample can be constant, so the standard error is the law's
        mean = a / (a + b)
        se = math.sqrt(mean * (1 - mean) / (a + b + 1) / draws.size)
        assert abs(draws.mean() - mean) <= MC_SIGMA * se


class TestStickState:
    def test_invariants_along_extension(self):
        params = PYParams(0.5, 0.4)
        rng = np.random.default_rng(7)
        state = StickState()
        prev_residual = 1.0
        for _ in range(200):
            extend_sticks(params, state, rng)
            assert state.residual < prev_residual  # strictly decreasing
            prev_residual = state.residual
            assert abs(math.fsum(state.pi) + state.residual - 1.0) <= 1e-12
        # bit-exact recomputation with matching multiplication order
        assert state.residual == math.prod(1.0 - v for v in state.v)
        for j, weight in enumerate(state.pi):
            assert weight == state.v[j] * math.prod(1.0 - v for v in state.v[:j])

    def test_first_stick_mean(self):
        # E[pi_1] = (1-d)/(1+alpha) = 0.25 at (alpha, d) = (1, 0.5)
        params = PYParams(1.0, 0.5)
        rng = np.random.default_rng(8)
        first = beta_sample(1.0 - params.d, params.alpha + params.d, rng, size=200_000)
        se = first.std(ddof=1) / math.sqrt(first.size)
        assert abs(first.mean() - 0.25) <= 3.5 * se

    def test_cap_is_loud(self, monkeypatch):
        monkeypatch.setattr(reference, "STICK_CAP", 3)
        params = PYParams(1.0, 0.5)
        rng = np.random.default_rng(9)
        state = StickState()
        for _ in range(3):
            extend_sticks(params, state, rng)
        with pytest.raises(RuntimeError):
            extend_sticks(params, state, rng)


class TestSampleAllocations:
    def test_labels_positive_and_within_realized(self):
        params = PYParams(1.0, 0.5)
        rng = np.random.default_rng(10)
        state = StickState()
        z = sample_allocations(params, 50, rng, state=state)
        assert len(z) == 50
        assert all(1 <= v <= state.n_sticks for v in z)

    def test_observations_share_one_state(self, monkeypatch):
        states_seen = set()
        original = reference.extend_sticks

        def spy(params, state, rng):
            states_seen.add(id(state))
            return original(params, state, rng)

        monkeypatch.setattr(reference, "extend_sticks", spy)
        sample_allocations(PYParams(1.0, 0.5), 40, np.random.default_rng(11))
        assert len(states_seen) == 1

    def test_state_reuse_extends_not_restarts(self):
        params = PYParams(1.0, 0.5)
        rng = np.random.default_rng(12)
        state = StickState()
        sample_allocations(params, 10, rng, state=state)
        realized = state.n_sticks
        sample_allocations(params, 10, rng, state=state)
        assert state.n_sticks >= realized

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            sample_allocations(PYParams(1.0, 0.5), 0, np.random.default_rng(0))


class TestFirstAllocationMarginal:
    """Pr(z_1 = j) equals the exact allocation marginal at n = 1."""

    def test_first_three_labels(self):
        params = PYParams(1.0, 0.5)
        rng = np.random.default_rng(42)
        z = sample_allocations_batch(params, 1, 1_000_000, rng)[:, 0]
        for label, want in ((1, 0.25), (2, 0.15), (3, 0.10)):
            freq = (z == label).mean()
            se = math.sqrt(want * (1 - want) / z.size)
            assert abs(freq - want) <= 3.5 * se


class TestSharedRealizationRegression:
    """Resampling sticks per observation would push Pr(z_1 = z_2) far below
    the correct (1-d)/(1+alpha); this pins the one-realization code path."""

    def test_pair_merge_frequency(self):
        params = PYParams(1.0, 0.5)
        rng = np.random.default_rng(43)
        z = sample_allocations_batch(params, 2, 400_000, rng)
        freq = (z[:, 0] == z[:, 1]).mean()
        se = math.sqrt(0.25 * 0.75 / z.shape[0])
        assert abs(freq - 0.25) <= 3.5 * se

    def test_scalar_path_pair_merge(self):
        # d = 0.3 keeps the scalar walk clear of the stick cap: the label
        # tail decays like L^(-7/3) there, against L^(-1) at d = 0.5
        params = PYParams(1.0, 0.3)
        rng = np.random.default_rng(44)
        trials = 30_000
        hits = 0
        for _ in range(trials):
            z = sample_allocations(params, 2, rng)
            hits += z[0] == z[1]
        want = (1 - params.d) / (1 + params.alpha)
        se = math.sqrt(want * (1 - want) / trials)
        assert abs(hits / trials - want) <= 4.5 * se


def allocation_probs(params, z):
    """Exact probability of each row of the label matrix z (Prop A's closed
    form)."""
    return [math.exp(v) for v in _allocation_log_probs(params, np.array(z)).tolist()]


class TestHitEventEngine:
    @pytest.mark.parametrize("sampler", [sample_allocations_batch, sample_partition_labels_batch])
    @pytest.mark.parametrize(
        "n, trials, message", [(0, 5, "n must be >= 1, got 0"), (3, 0, "trials must be >= 1, got 0")]
    )
    def test_batch_samplers_check_the_request(self, sampler, n, trials, message):
        with pytest.raises(ValueError) as err:
            sampler(PYParams(1.0, 0.5), n, trials, np.random.default_rng(0))
        assert str(err.value) == message

    @pytest.mark.parametrize("alpha, d", [(1.0, 0.5), (0.3, 0.7), (-0.3, 0.9), (1.0, 0.0)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_labels_match_allocation_marginal(self, alpha, d, n):
        # every label vector with labels <= 3, against the exact law
        params = PYParams(alpha, d)
        rng = np.random.default_rng(300 + n)
        rows = 400_000
        if d < 0.7:
            z = sample_allocations_batch(params, n, rows, rng)
        else:
            # past d = 0.7 a few of 400k rows hold a stick index beyond 2^53,
            # where the public sampler raises, so read the engine's labels
            z = sb._hit_events(params, n, rows, rng, True)
        codes = ((z - 1) * 3 ** np.arange(n)).sum(axis=1)
        inside = (z <= 3).all(axis=1)
        counts = np.bincount(codes[inside].astype(np.int64), minlength=3**n)
        grid = list(itertools.product(range(1, 4), repeat=n))
        for labels, want in zip(grid, allocation_probs(params, grid)):
            code = sum((v - 1) * 3**k for k, v in enumerate(labels))
            se = math.sqrt(want * (1 - want) / rows)
            assert abs(counts[code] / rows - want) <= MC_SIGMA * se, labels

    @pytest.mark.parametrize(
        "alpha, d, m", [(1.0, 0.5, 1), (0.3, 0.7, 3), (-0.3, 0.9, 2), (5.0, 0.1, 4), (2e4, 0.0, 3)]
    )
    def test_closed_form_hazard_matches_table(self, alpha, d, m):
        # inside the table, where Stirling's series is equally valid, the
        # closed form must reproduce the table's direct sum of logs
        table = sb._hazard_table(alpha, d, m)
        j = np.arange(1000, sb._TABLE_STICKS + 1, 97).astype(float)
        got = sb._far_hazard(alpha, d, m, j)
        want = table[j.astype(int)] - table[-1]
        assert_allclose(got, want, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("alpha, d, m", [(1.0, 0.5, 2), (-0.3, 0.9, 3), (2e4, 0.0, 1)])
    def test_hazard_entry_point(self, alpha, d, m):
        # the table up to 2^14 sticks, the closed form beyond, inf at inf
        table = sb._hazard_table(alpha, d, m)
        k = float(sb._TABLE_STICKS)
        j = np.array([0.0, 7.0, k, k + 1.0, 1e20, np.inf])
        got = sb._hazard(alpha, d, m, j)
        assert got[0] == 0.0 and got[1] == table[7] and got[2] == table[-1]
        far = sb._far_hazard(alpha, d, m, j[3:5])
        assert (got[3:5] == table[-1] + far).all()
        assert got[-1] == np.inf
        assert (np.diff(got) > 0).all()

    @pytest.mark.parametrize("alpha, d, m", [(1.0, 0.9, 1), (-0.3, 0.9, 3), (1e5, 0.0, 2)])
    def test_far_hit_is_first_crossing(self, alpha, d, m):
        rng = np.random.default_rng(7)
        targets = rng.standard_exponential(2000)
        start = np.full(targets.size, sb._TABLE_STICKS + 1.0)
        hit = sb._far_hit_sticks(alpha, d, m, start, targets)
        # up to 2^40 one stick still moves the hazard by far more than an ulp
        resolved = hit < 2.0**40
        assert resolved.sum() > 1000
        hit, targets = hit[resolved], targets[resolved]
        assert (sb._far_hazard(alpha, d, m, hit) > targets).all()
        before = np.maximum(hit - 1.0, sb._TABLE_STICKS)
        assert (sb._far_hazard(alpha, d, m, before) <= targets).all()

    @pytest.mark.parametrize("alpha, d", [(1e5, 5e-324), (251178.0, 1.4e-303)])
    @pytest.mark.parametrize("sampler", [sample_allocations_batch, sample_partition_labels_batch])
    def test_vanishing_discount_draws_as_zero(self, alpha, d, sampler):
        # below d = 2^-106 every hazard and hit-size weight rounds to its d = 0
        # value, so a seed gives the d = 0 draws; the gamma-ratio far hazard
        # was NaN there and sent every far search to stick inf
        got = sampler(PYParams(alpha, d), 4, 20_000, np.random.default_rng(11))
        want = sampler(PYParams(alpha, 0.0), 4, 20_000, np.random.default_rng(11))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha, d", [(5e-324, 0.0), (0.0, 5e-324), (0.0, 1e-25)])
    @pytest.mark.parametrize("sampler", [sample_allocations_batch, sample_partition_labels_batch])
    def test_sure_first_stick_takes_every_row_whole(self, alpha, d, sampler):
        # stick 1 takes every observation to rounding: its hazard is inf and
        # the last hit-size weight overflows to inf, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            z = sampler(PYParams(alpha, d), 6, 1000, np.random.default_rng(12))
        assert (z == 1).all()

    def test_full_labels_past_2_53_raise(self, monkeypatch):
        monkeypatch.setattr(sb, "_MAX_LABEL", 10.0)
        with pytest.raises(OverflowError, match="sample_partition_labels_batch"):
            sample_allocations_batch(PYParams(1.0, 0.5), 4, 1000, np.random.default_rng(8))

    @pytest.mark.parametrize("alpha, d", [(1.0, 0.9), (1.0, 0.999), (1e6, 0.5)])
    def test_partition_labels_at_extreme_tails(self, alpha, d):
        # hits far past 2^53, or past the float range, still give ordinals
        z = sample_partition_labels_batch(
            PYParams(alpha, d), 5, 4000, np.random.default_rng(9)
        )
        assert z.dtype == np.int64 and z.shape == (4000, 5)
        assert z.min() >= 1 and z.max() <= 5
        # ordinals are dense: a row's labels are exactly 1..(its block count)
        ordered = np.sort(z, axis=1)
        assert (ordered[:, 0] == 1).all() and (np.diff(ordered, axis=1) <= 1).all()


class TestPartitionModeBatch:
    def test_n1_all_singletons(self):
        z = sample_partition_labels_batch(
            PYParams(0.3, 0.7), 1, 1000, np.random.default_rng(1)
        )
        assert z.shape == (1000, 1)

    def test_equality_pattern_matches_full_labels(self):
        # same law: compare merge frequencies from the two batch modes
        params = PYParams(1.0, 0.5)
        trials = 200_000
        full = sample_allocations_batch(params, 2, trials, np.random.default_rng(2))
        part = sample_partition_labels_batch(
            params, 2, trials, np.random.default_rng(3)
        )
        f_full = (full[:, 0] == full[:, 1]).mean()
        f_part = (part[:, 0] == part[:, 1]).mean()
        se = math.sqrt(0.25 * 0.75 / trials)
        assert abs(f_full - f_part) <= 5.0 * se

    def test_determinism(self):
        params = PYParams(0.3, 0.7)
        a = sample_partition_labels_batch(params, 4, 5000, np.random.default_rng(77))
        b = sample_partition_labels_batch(params, 4, 5000, np.random.default_rng(77))
        assert (a == b).all()

    def test_stream_ignores_optional_numba(self, monkeypatch):
        def njit(*args, **kwargs):
            raise AssertionError("the stick engine must not compile with numba")

        params = PYParams(1.0, 0.5)
        want = sample_partition_labels_batch(params, 4, 5000, np.random.default_rng(78))
        stub = types.ModuleType("numba")
        stub.njit = njit
        monkeypatch.setitem(sys.modules, "numba", stub)
        try:
            importlib.reload(sb)
            got = sb.sample_partition_labels_batch(params, 4, 5000, np.random.default_rng(78))
        finally:
            monkeypatch.undo()
            importlib.reload(sb)
        assert (got == want).all()


class TestStickbreakPartition:
    def test_n1(self):
        assert stickbreak_sample_partition(
            PYParams(1.0, 0.5), 1, np.random.default_rng(0)
        ).blocks == ((1,),)

    def test_seed_reproducibility(self):
        a = [stickbreak_sample_partition(PYParams(1.0, 0.5), 5, np.random.default_rng(6)) for _ in range(30)]
        b = [stickbreak_sample_partition(PYParams(1.0, 0.5), 5, np.random.default_rng(6)) for _ in range(30)]
        assert a == b

    @pytest.mark.parametrize("alpha, d", [(1.0, 0.5), (0.3, 0.7), (1.0, 0.9), (1e6, 0.5)])
    @pytest.mark.parametrize("n", [1, 4, 30])
    def test_is_row_zero_of_one_row_batch(self, alpha, d, n):
        params = PYParams(alpha, d)
        for seed in range(3):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = stickbreak_sample_partition(params, n, rng)
            row = sample_partition_labels_batch(params, n, 1, twin)[0]
            assert got == partition_from_allocations(row.tolist())
            assert rng.random() == twin.random()

    @pytest.mark.parametrize("d", [0.9, 0.999])
    def test_heavy_tail_draws_complete(self, d):
        # a walk over realized sticks needs more than 1e6 of them in about
        # half of these draws
        rng = np.random.default_rng(46)
        for _ in range(20):
            partition = stickbreak_sample_partition(PYParams(1.0, d), 4, rng)
            assert isinstance(partition, Partition)
            assert sorted(e for block in partition.blocks for e in block) == [1, 2, 3, 4]
