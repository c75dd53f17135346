import math

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pitmanyor.constants import TOL_EXHAUSTIVE
from pitmanyor.core import (
    Partition, PYParams, _growth_strings, _partition_table, enumerate_partitions
)
from pitmanyor.eppf import (
    _log_prob_from_sizes,
    _size_profiles,
    _table_log_probs,
    _table_probs,
    dp_log_prob,
    eppf_log_prob,
    normalization_check,
)
from pitmanyor.verify import default_parameter_grid

P = Partition.from_blocks


def small_grid():
    return [
        PYParams(a, d)
        for a in (-0.3, 0.0, 0.5, 1.0, 5.0)
        for d in (0.0, 0.1, 0.5, 0.9)
        if a > -d
    ]


class TestHandValues:
    def test_singleton_is_certain(self):
        assert eppf_log_prob(PYParams(1.0, 0.5), P([[1]])) == 0.0

    def test_pair_merged(self):
        assert_allclose(
            eppf_log_prob(PYParams(1.0, 0.5), P([[1, 2]])), math.log(0.25), rtol=1e-14
        )

    def test_pair_split(self):
        assert_allclose(
            eppf_log_prob(PYParams(1.0, 0.5), P([[1], [2]])), math.log(0.75), rtol=1e-14
        )

    def test_dirichlet_branch(self):
        assert_allclose(
            eppf_log_prob(PYParams(2.0, 0.0), P([[1, 2], [3]])),
            math.log(4.0 / 24.0),
            rtol=1e-14,
        )


class TestDirichletLaw:
    def test_singleton(self):
        assert dp_log_prob(1.0, P([[1]])) == 0.0

    def test_two_singletons(self):
        assert_allclose(dp_log_prob(1.0, P([[1], [2]])), math.log(0.5), rtol=1e-14)

    def test_one_block_of_three(self):
        assert_allclose(dp_log_prob(3.0, P([[1, 2, 3]])), math.log(0.1), rtol=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_alpha_must_be_positive(self, alpha):
        with pytest.raises(ValueError):
            dp_log_prob(alpha, P([[1]]))


class TestNormalization:
    def test_n1_exact(self):
        assert normalization_check(PYParams(1.0, 0.5), 1) == 1.0

    def test_n2_exact(self):
        assert_allclose(normalization_check(PYParams(1.0, 0.5), 2), 1.0, atol=1e-15)

    def test_heavy_discount_n8(self):
        assert_allclose(normalization_check(PYParams(0.3, 0.7), 8), 1.0, atol=1e-10)

    @pytest.mark.parametrize("n", [0, 11])
    def test_range(self, n):
        with pytest.raises(ValueError):
            normalization_check(PYParams(1.0, 0.5), n)

    @pytest.mark.parametrize(
        "params", [PYParams(1.0, 0.5), PYParams(-0.3, 0.5), PYParams(2.0, 0.0)], ids=str
    )
    def test_equals_streaming_sum_over_enumeration(self, params):
        for n in range(1, 9):
            want = math.fsum(math.exp(eppf_log_prob(params, C)) for C in enumerate_partitions(n))
            assert normalization_check(params, n) == want

    @given(d=st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_alpha_just_above_minus_d(self, d):
        params = PYParams(-d + 1e-9, d)
        for n in range(1, 7):
            assert abs(normalization_check(params, n) - 1.0) <= TOL_EXHAUSTIVE

    @pytest.mark.parametrize("params", small_grid(), ids=str)
    def test_grid_n6(self, params):
        for n in range(1, 7):
            assert abs(normalization_check(params, n) - 1.0) <= 1e-10


class TestLawTable:
    @pytest.mark.parametrize("params", default_parameter_grid(), ids=str)
    def test_table_equals_scalar(self, params):
        for n in range(1, 9):
            table = _partition_table(n)
            log_probs = _table_log_probs(params, n).tolist()
            probs = _table_probs(params, n).tolist()
            assert len(log_probs) == len(probs) == len(table)
            for partition, value, prob in zip(table, log_probs, probs):
                want = eppf_log_prob(params, partition)
                assert value == want
                assert prob == math.exp(want)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_profiles_built_once_and_read_only(self, n):
        profiles, index = _size_profiles(n)
        assert _size_profiles(n)[1] is index
        assert not index.flags.writeable
        assert list(profiles) == sorted(set(profiles))
        # block sizes counted from each growth string on its own, so no
        # Partition table is built
        for row, i in zip(_growth_strings(n), index.tolist()):
            assert profiles[i] == tuple(sorted(np.bincount(row).tolist()))


class TestLawCaches:
    def test_bounded(self):
        maxsize = _log_prob_from_sizes.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0


# the verify grid and the range's edges: alpha just above -d, a Dirichlet
# alpha near the smallest normal float, a huge alpha, and d near 1
LAW_PIN_PARAMS = default_parameter_grid() + [
    PYParams(-0.3 + 1e-12, 0.3), PYParams(1e-300, 0.0), PYParams(1e6, 0.5), PYParams(3.0, 0.999)
]


def blocks_of(sizes):
    """A partition with these block sizes, its blocks runs of consecutive
    elements."""
    ends = np.cumsum(sizes).tolist()
    return P([list(range(end - s + 1, end + 1)) for s, end in zip(sizes, ends)])


class TestLawPin:
    """The one cached evaluator against the separate two-parameter and
    Dirichlet laws of tests/reference.py, bit for bit."""

    @staticmethod
    def assert_pinned(params, sizes):
        got = _log_prob_from_sizes(params.alpha, params.d, sizes)
        assert got.hex() == reference.log_prob_from_sizes(params.alpha, params.d, sizes).hex()
        if params.alpha > 0.0:
            want = reference.dp_log_prob_from_sizes(params.alpha, sizes)
            assert dp_log_prob(params.alpha, blocks_of(sizes)).hex() == want.hex()

    @pytest.mark.parametrize("params", LAW_PIN_PARAMS, ids=str)
    def test_every_profile_to_n10(self, params):
        for n in range(1, 11):
            for sizes in _size_profiles(n)[0]:
                self.assert_pinned(params, sizes)

    @given(
        params=st.sampled_from(LAW_PIN_PARAMS),
        sizes=st.lists(st.integers(1, 200), min_size=1, max_size=40).map(sorted).map(tuple),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_profiles(self, params, sizes):
        self.assert_pinned(params, sizes)


class TestSymmetry:
    def test_value_depends_only_on_size_multiset(self):
        params = PYParams(0.7, 0.3)
        reference = {}
        for partition in enumerate_partitions(5):
            sizes = tuple(sorted(partition.block_sizes()))
            value = eppf_log_prob(params, partition)
            if sizes in reference:
                assert value == reference[sizes]  # bit-identical
            else:
                reference[sizes] = value


class TestDirichletContinuity:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0])
    def test_small_discount_matches_dirichlet(self, alpha):
        params = PYParams(alpha, 1e-8)
        for n in range(1, 7):
            for partition in enumerate_partitions(n):
                gap = abs(
                    math.exp(eppf_log_prob(params, partition))
                    - math.exp(dp_log_prob(alpha, partition))
                )
                assert gap <= 1e-6


class TestAdditionConsistency:
    """The law of partitions of [n] is the marginal of the law at n+1."""

    def extensions(self, partition):
        n = partition.n
        for i in range(partition.num_blocks):
            blocks = [list(b) for b in partition.blocks]
            blocks[i].append(n + 1)
            yield P(blocks)
        yield P([list(b) for b in partition.blocks] + [[n + 1]])

    @pytest.mark.parametrize("params", [PYParams(1.0, 0.5), PYParams(-0.3, 0.9),
                                        PYParams(0.0, 0.1), PYParams(5.0, 0.0)], ids=str)
    def test_marginalization(self, params):
        for n in range(1, 7):
            for partition in enumerate_partitions(n):
                total = math.fsum(
                    math.exp(eppf_log_prob(params, ext))
                    for ext in self.extensions(partition)
                )
                assert_allclose(
                    total, math.exp(eppf_log_prob(params, partition)), atol=TOL_EXHAUSTIVE
                )
