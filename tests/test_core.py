import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln

import reference
from pitmanyor.core import (
    MAX_NORMALIZATION_N,
    Partition,
    PYParams,
    _growth_strings,
    _partition_table,
    _stirling_shift,
    _table_index,
    enumerate_partitions,
    log_gamma_ratio,
    log_rising_factorial,
    partition_from_allocations,
)
from pitmanyor.crp import _table_seating_codes
from pitmanyor.eppf import _size_profiles, normalization_check
from reference import restricted_growth

P = Partition.from_blocks


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

    @pytest.mark.parametrize(
        "z", [(1,), (0, 2), (0, -1), (0, 1.0), (0, np.int64(1)), [0, 1]], ids=repr
    )
    def test_rejects_non_growth_strings(self, z):
        with pytest.raises(ValueError):
            Partition(z)

    @given(st.integers(min_value=0, max_value=9).flatmap(
        lambda n: st.tuples(*[st.integers(min_value=0, max_value=i) for i in range(n)])
    ))
    @settings(max_examples=200, deadline=None)
    def test_growth_string_round_trips(self, draw):
        # clamp each entry to one past the earlier maximum: a growth string
        z, top = [], -1
        for b in draw:
            z.append(min(b, top + 1))
            top = max(top, z[-1])
        z = tuple(z)
        p = Partition(z)
        assert p.z == z
        assert Partition.from_blocks(p.blocks) == p
        if z:
            assert partition_from_allocations([b + 1 for b in p.z]) == p

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

    @pytest.mark.parametrize("n", [0, -1, MAX_NORMALIZATION_N + 1, 2.5])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            list(enumerate_partitions(n))

    def test_numpy_integer_n(self):
        assert list(enumerate_partitions(np.int64(4))) == list(enumerate_partitions(4))


# the four cached per-n builders and normalization_check, which share one n check
PER_N_ENTRY_POINTS = pytest.mark.parametrize(
    "build",
    [
        _partition_table,
        _growth_strings,
        _size_profiles,
        _table_seating_codes,
        pytest.param(
            lambda n: normalization_check(PYParams(1.0, 0.5), n), id="normalization_check"
        ),
    ],
    ids=lambda build: build.__name__,
)


class TestPartitionTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_enumeration_and_is_built_once(self, n):
        table = _partition_table(n)
        assert table == tuple(reference.enumerate_partitions(n))
        assert _partition_table(n) is table

    @pytest.mark.parametrize("n", range(1, 9))
    def test_growth_strings_are_the_table(self, n):
        z = _growth_strings(n)
        assert [restricted_growth(p) for p in _partition_table(n)] == list(map(tuple, z.tolist()))
        assert _growth_strings(n) is z
        assert not z.flags.writeable

    @PER_N_ENTRY_POINTS
    def test_numpy_integer_n(self, build):
        # a cached table is the same object, normalization_check the same float
        for n in (1, 4):
            first, second = build(np.int64(n)), build(n)
            assert first is second or first == second

    @PER_N_ENTRY_POINTS
    @pytest.mark.parametrize("n", [0, -1, MAX_NORMALIZATION_N + 1, 2.5, "3", [3]])
    def test_out_of_range_message_unchanged(self, build, n):
        message = f"n must be an integer in 1..{MAX_NORMALIZATION_N}, got {n!r}"
        with pytest.raises(ValueError) as err:
            build(n)
        assert str(err.value) == message


# stick labels reach about 2^53; 2^53 + 1 and 2^53 would merge as floats
HUGE = 2**53

# label matrices of 1 to 4 rows at n = 1..MAX_NORMALIZATION_N, with small
# labels and labels at the edge of float64's integers
LABEL_ROWS = st.integers(min_value=1, max_value=MAX_NORMALIZATION_N).flatmap(
    lambda n: st.lists(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=HUGE - 2, max_value=HUGE + 2),
            ),
            min_size=n,
            max_size=n,
        ),
        min_size=1,
        max_size=4,
    )
)


def equality_pattern(z):
    z = np.asarray(z)
    return z[:, :, None] == z[:, None, :]


class TestTableIndex:
    def rows(self, z):
        """`_table_index` of a label matrix and the table partitions it names."""
        z = np.asarray(z, dtype=np.int64)
        index = _table_index(z)
        table = _partition_table(z.shape[1])
        return index, [table[i] for i in index]

    def test_stick_sized_labels_need_no_relabelling(self):
        big = 10**12
        _, parts = self.rows([[big, big + 4, big, 3], [7, 7, 7, 7], [1, big, 2, big]])
        assert parts == [P([[1, 3], [2], [4]]), P([[1, 2, 3, 4]]), P([[1], [2, 4], [3]])]

    def test_ten_distinct_labels_give_the_last_row(self):
        # read against the growth strings: the n = 10 `Partition` table is not built
        row = [10**12 - 7 * j for j in range(10)]
        index = _table_index(np.array([row, [3] * 10], dtype=np.int64))
        assert index.tolist() == [bell_numbers(10)[10] - 1, 0] == [115_974, 0]
        assert _growth_strings(10)[index].tolist() == [list(range(10)), [0] * 10]

    def test_single_element(self):
        index, parts = self.rows([[4], [10**12]])
        assert index.tolist() == [0, 0]
        assert parts == [P([[1]]), P([[1]])]

    def test_scaled_restricted_growth_strings_give_enumeration_order(self):
        partitions = list(enumerate_partitions(5))
        z = np.array([restricted_growth(p) for p in partitions]) * 10**9 + 11
        index, parts = self.rows(z)
        assert index.tolist() == list(range(len(partitions)))
        assert parts == partitions

    @pytest.mark.parametrize("n", range(1, MAX_NORMALIZATION_N + 1))
    def test_inverts_the_growth_strings(self, n):
        index = _table_index(_growth_strings(n))
        assert index.tolist() == list(range(bell_numbers(n)[n]))

    @given(rows=LABEL_ROWS)
    @settings(max_examples=100, deadline=None)
    def test_row_has_the_equality_pattern_of_its_labels(self, rows):
        z = np.array(rows, dtype=np.int64)
        index = _table_index(z)
        growth = _growth_strings(z.shape[1])[index]
        assert (equality_pattern(growth) == equality_pattern(z)).all()

    @given(rows=LABEL_ROWS)
    @settings(max_examples=100, deadline=None)
    def test_memory_layout_does_not_change_the_index(self, rows):
        # the stick engine hands over the Fortran-ordered view z.T of an
        # (n, rows) array
        z = np.array(rows, dtype=np.int64)
        padded = np.zeros((2 * z.shape[0], 2 * z.shape[1] + 1), dtype=np.int64)
        padded[1::2, 1::2] = z
        views = [np.asfortranarray(z), np.ascontiguousarray(z.T).T, padded[1::2, 1::2]]
        expected = _table_index(z).tolist()
        for view in views:
            assert (view == z).all()
            assert _table_index(view).tolist() == expected


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

    @given(
        k=st.integers(min_value=1, max_value=10**12 * 2**10),
        n=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=200, deadline=None)
    def test_sum_of_logs_up_to_1e12(self, k, n):
        # x = k / 2^10 keeps every x + j exact, so the sum of logs is good to a
        # few ulps of the sum of their magnitudes
        x = k / 2**10
        logs = [math.log(x + j) for j in range(n)]
        scale = math.fsum(abs(v) for v in logs)
        assert abs(log_rising_factorial(x, n) - math.fsum(logs)) <= 1e-14 * scale

    @pytest.mark.parametrize("x, n", [(1e12, 100), (1e15, 65), (1e8, 100), (0.5, 1000)])
    def test_large_n_matches_sum_of_logs(self, x, n):
        # x + j is exact in every case, so the sum of logs is accurate to a few ulps;
        # a plain lgamma difference is off by 1.0 at (1e15, 65)
        want = math.fsum(math.log(x + j) for j in range(n))
        assert_allclose(log_rising_factorial(x, n), want, rtol=1e-15)


class TestLogGammaRatio:
    @pytest.mark.parametrize(
        "z, a, b", [(0.5, 3.0, 1.0), (10.0, 2.5, 0.0), (49.0, 0.0, 7.0), (60.0, 1.5, 0.25)]
    )
    def test_matches_lgamma_difference_at_small_z(self, z, a, b):
        want = math.lgamma(z + a) - math.lgamma(z + b)
        assert_allclose(log_gamma_ratio(z, a, b), want, rtol=1e-14)

    @pytest.mark.parametrize("z", [1e3, 1e8, 1e12, 1e15])
    def test_large_z_matches_sum_of_logs(self, z):
        # Gamma(z + 100.5) / Gamma(z + 0.5) = prod_{j<100} (z + 0.5 + j)
        want = math.fsum(math.log(z + 0.5 + j) for j in range(100))
        assert_allclose(log_gamma_ratio(z, 100.5, 0.5), want, rtol=1e-15)
        assert_allclose(log_gamma_ratio(z, 0.5, 100.5), -want, rtol=1e-15)

    def test_close_arguments_below_stirling_range(self):
        # mpmath 1.3.0 at 50 digits; the plain lgamma difference is off by
        # 5.1e-11 relative here
        want = 3.5205354307191733724e-4
        assert_allclose(log_gamma_ratio(34.3, 1.34e-3, 1.24e-3), want, rtol=1e-14)

    def test_shift_of_4e_12(self):
        # mpmath 1.3.0 at 60 digits; the shift is 4e-12, so a plain difference
        # of the two Stirling tails loses about eight digits
        want = 2.9738927569379262701e-12
        assert_allclose(
            log_gamma_ratio(0.906, -1.27107485e-5, -1.27107445e-5), want, rtol=1e-13
        )

    def test_stirling_kernel_on_arrays_and_past_overflow(self):
        # lgamma(w - 0.7) - lgamma(w) + 0.7 log w, mpmath 1.3.0 at 60 digits;
        # callers add delta log w, so the kernel is held to absolute accuracy
        w = np.array([50.0, 1e3, 1e8])
        want = [0.011996153958685213648, 0.00059523811806953192267, 5.950000023800000118e-9]
        assert_allclose(_stirling_shift(w, -0.7), want, rtol=0, atol=1e-15)
        # lgamma(w - 0.7) - lgamma(w) - (-0.7) log w ~ 0.595 / w, and stays
        # finite where w * (w + delta) overflows
        with np.errstate(invalid="raise"):
            far = _stirling_shift(np.array([1e160, 1e300]), -0.7)
        assert np.isfinite(far).all() and (np.abs(far) <= 1e-150).all()
        assert _stirling_shift(1e300, -0.7) == far[1]

    def test_nonpositive_z(self):
        # Gamma(60) / Gamma(70) = 1 / prod_{t=60}^{69} t, with z = -10
        want = -math.fsum(math.log(t) for t in range(60, 70))
        assert_allclose(log_gamma_ratio(-10.0, 70.0, 80.0), want, rtol=1e-15)
        want = math.lgamma(0.5) - math.lgamma(0.25)
        assert_allclose(log_gamma_ratio(-0.5, 1.0, 0.75), want, rtol=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma_ratio(1.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            log_gamma_ratio(-2.0, 1.0, 3.0)
