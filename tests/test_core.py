import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln

from pitmanyor.core import (
    MAX_ENUMERATION_N,
    MAX_NORMALIZATION_N,
    Partition,
    PYParams,
    _partition_table,
    enumerate_partitions,
    log_rising_factorial,
    partition_from_allocations,
)
from pitmanyor.eppf import normalization_check


def bell_numbers(limit):
    """Bell-triangle recurrence, independent of the enumeration code."""
    row = [1]
    bells = [1]
    for _ in range(limit):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        bells.append(nxt[0])
        row = nxt
    return bells  # bells[n] = Bell(n)


BELL = bell_numbers(12)


class TestPYParams:
    def test_valid_range(self):
        PYParams(1.0, 0.5)
        PYParams(-0.3, 0.5)
        PYParams(0.0, 0.1)
        PYParams(5.0, 0.0)

    @pytest.mark.parametrize(
        "alpha,d",
        [(1.0, 1.0), (1.0, -0.1), (-0.5, 0.5), (-0.1, 0.1), (0.0, 0.0),
         (float("nan"), 0.5), (float("inf"), 0.5), (1.0, float("nan"))],
    )
    def test_invalid(self, alpha, d):
        with pytest.raises(ValueError):
            PYParams(alpha, d)

    def test_dirichlet_flag(self):
        assert PYParams(2.0, 0.0).is_dirichlet
        assert not PYParams(2.0, 0.2).is_dirichlet


class TestPartition:
    def test_from_blocks_canonicalizes(self):
        p = Partition.from_blocks([[3, 2], [1]])
        assert p.blocks == ((1,), (2, 3))
        assert p.n == 3

    def test_block_sizes(self):
        p = Partition.from_blocks([[1, 4], [2], [3]])
        assert p.block_sizes() == (2, 1, 1)
        assert p.num_blocks == 3

    @pytest.mark.parametrize(
        "blocks",
        [[[1, 2], [2, 3]],   # overlap
         [[1], [3]],         # gap
         [[0], [1]],         # out of range
         [[1], []],          # empty block
         [[2], [3]]],        # does not start at 1
    )
    def test_invalid_blocks(self, blocks):
        with pytest.raises(ValueError):
            Partition.from_blocks(blocks)

    def test_usable_as_dict_key(self):
        a = Partition.from_blocks([[2], [1, 3]])
        b = Partition.from_blocks([[1, 3], [2]])
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1


class TestPartitionFromAllocations:
    def test_single_block(self):
        assert partition_from_allocations((1, 1, 1)).blocks == ((1, 2, 3),)

    def test_label_values_irrelevant(self):
        assert partition_from_allocations((2, 7, 2)).blocks == ((1, 3), (2,))

    def test_grouping(self):
        assert partition_from_allocations((3, 1, 4, 1)).blocks == ((1,), (2, 4), (3,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            partition_from_allocations(())

    @given(
        z=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=9),
        offsets=st.lists(st.integers(min_value=0, max_value=50), min_size=6, max_size=6, unique=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_injective_relabeling_invariance(self, z, offsets):
        relabeled = [offsets[v - 1] + 1 for v in z]
        assert partition_from_allocations(z) == partition_from_allocations(relabeled)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_counts_match_bell_triangle(self, n):
        assert sum(1 for _ in enumerate_partitions(n)) == BELL[n]

    def test_n3_explicit(self):
        got = {p.blocks for p in enumerate_partitions(3)}
        assert got == {
            ((1, 2, 3),),
            ((1, 2), (3,)),
            ((1, 3), (2,)),
            ((1,), (2, 3)),
            ((1,), (2,), (3,)),
        }

    def test_unique_and_canonical(self):
        seen = set()
        for p in enumerate_partitions(7):
            assert p.blocks not in seen
            seen.add(p.blocks)
            least = [b[0] for b in p.blocks]
            assert least == sorted(least)

    @pytest.mark.parametrize("n", [0, -1, MAX_ENUMERATION_N + 1, 2.5])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            list(enumerate_partitions(n))


class TestPartitionTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_enumeration_and_is_built_once(self, n):
        table = _partition_table(n)
        assert table == tuple(enumerate_partitions(n))
        assert _partition_table(n) is table

    @pytest.mark.parametrize("n", [0, -1, MAX_NORMALIZATION_N + 1, 2.5, "3"])
    def test_out_of_range_message_unchanged(self, n):
        message = f"n must be an integer in 1..{MAX_NORMALIZATION_N}, got {n!r}"
        for call in (_partition_table, lambda n: normalization_check(PYParams(1.0, 0.5), n)):
            with pytest.raises(ValueError) as err:
                call(n)
            assert str(err.value) == message


class TestLogRisingFactorial:
    def test_empty_product(self):
        assert log_rising_factorial(3.7, 0) == 0.0

    def test_factorial(self):
        assert_allclose(log_rising_factorial(1.0, 4), math.log(24.0), rtol=1e-15)

    def test_half(self):
        assert_allclose(log_rising_factorial(0.5, 2), math.log(0.75), rtol=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_rising_factorial(-1.0, 3)
        with pytest.raises(ValueError):
            log_rising_factorial(0.0, 1)
        with pytest.raises(ValueError):
            log_rising_factorial(1.0, -1)

    @given(
        x=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        n=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x, n):
        lhs = log_rising_factorial(x, n + 1)
        rhs = log_rising_factorial(x, n) + math.log(x + n)
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @given(
        x=st.floats(min_value=0.05, max_value=50.0, allow_nan=False),
        n=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_log_gamma_ratio(self, x, n):
        # independent oracle across the summation/lgamma crossover
        assert_allclose(
            log_rising_factorial(x, n),
            float(gammaln(x + n) - gammaln(x)),
            rtol=1e-11,
            atol=1e-11,
        )
