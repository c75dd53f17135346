"""Exact log-space evaluation of the random-partition law.

The two-parameter law assigns a partition C of [n] with k blocks probability

    prod_{i=1}^{k-1} (alpha + i d) / (alpha + 1)_(n-1) * prod_c (1 - d)_(|c|-1)

which is the standard product form with the common leading factor alpha
cancelled between numerator and denominator.  After cancellation every factor
is strictly positive on the whole admissible range (alpha > -d), so the
evaluation is safe in log space even for negative alpha and at alpha = 0.
d = 0 takes the Dirichlet form alpha^k / (alpha)_(n) * prod_c (|c| - 1)!
in a branch of the same evaluator, instead of relying on the limit.
"""

import math
from functools import lru_cache

import numpy as np

from .core import (
    MAX_NORMALIZATION_N,
    LogProb,
    Partition,
    PYParams,
    _growth_strings,
    _per_n_table,
    log_rising_factorial,
)

__all__ = ["eppf_log_prob", "dp_log_prob", "normalization_check", "MAX_NORMALIZATION_N"]

# The law cache is keyed by (parameters, sorted block sizes).  The widest
# user is `pitmanyor verify`: 17 grid points times the 66 size profiles of
# n <= 8 (p(1) + ... + p(8)), plus the Dirichlet-limit and bridge checks,
# about 1.2k keys in all.  4096 holds that with room to spare, so no caller
# in the package evicts, while a long-lived process sweeping many parameters
# cannot grow the cache without end.
_LAW_CACHE_SIZE = 4096


@lru_cache(maxsize=_LAW_CACHE_SIZE)
def _log_prob_from_sizes(alpha: float, d: float, sizes: tuple[int, ...]) -> float:
    # sizes arrive sorted: the law depends only on the size multiset, and a
    # fixed accumulation order makes equal-multiset evaluations bit-identical.
    n = sum(sizes)
    k = len(sizes)
    if d == 0.0:
        # (s-1)! per block, written as lgamma(s)
        within = sum(math.lgamma(s) for s in sizes)
        return k * math.log(alpha) + within - log_rising_factorial(alpha, n)
    new_block = sum(math.log(alpha + i * d) for i in range(1, k))
    within = sum(log_rising_factorial(1.0 - d, s - 1) for s in sizes)
    return new_block + within - log_rising_factorial(alpha + 1.0, n - 1)


def eppf_log_prob(params: PYParams, partition: Partition) -> LogProb:
    """log probability of a canonical partition under the two-parameter law.

    Depends only on the multiset of block sizes; permuting which indices form
    which block leaves the value bit-identical.
    """
    if partition.num_blocks == 0:
        raise ValueError("partition must have at least one block")
    sizes = tuple(sorted(partition.block_sizes()))
    return _log_prob_from_sizes(params.alpha, params.d, sizes)


def dp_log_prob(alpha: float, partition: Partition) -> LogProb:
    """log probability under the one-parameter (Dirichlet) law:
    alpha^k / (alpha)_(n) * prod_c (|c| - 1)!, the d = 0 case of
    `eppf_log_prob`."""
    return eppf_log_prob(PYParams(alpha, 0.0), partition)


@_per_n_table
def _size_profiles(n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The sorted block-size tuples of [n], and for each partition of
    `_partition_table(n)`, in table order, the index of its own tuple.

    Read-only: the law depends only on the size profile, so a whole table is
    evaluated with one law call per profile (p(8) = 22 at n = 8, against
    4140 partitions).  Each growth string's label counts, sorted with empty
    labels last as n + 1, compare like the size tuples; read as base-(n + 2)
    digits, one `np.unique` puts them in tuple order.
    """
    z = _growth_strings(n)
    sizes = np.stack([(z == b).sum(axis=1) for b in range(n)], axis=1)
    digits = np.sort(np.where(sizes > 0, sizes, n + 1), axis=1)
    codes = digits @ (n + 2) ** np.arange(n - 1, -1, -1)
    _, first, index = np.unique(codes, return_index=True, return_inverse=True)
    profiles = tuple(tuple(s for s in digits[i].tolist() if s <= n) for i in first)
    index.flags.writeable = False
    return profiles, index


def _profile_log_probs(params: PYParams, n: int) -> tuple[list[float], np.ndarray]:
    """The law at each profile of `_size_profiles(n)`, and the table index."""
    profiles, index = _size_profiles(n)
    return [_log_prob_from_sizes(params.alpha, params.d, sizes) for sizes in profiles], index


def _table_log_probs(params: PYParams, n: int) -> np.ndarray:
    """`eppf_log_prob(params, C)` for every C of `_partition_table(n)`, in
    table order; each entry is bit-identical to the scalar call."""
    values, index = _profile_log_probs(params, n)
    return np.array(values)[index]


def _table_probs(params: PYParams, n: int) -> np.ndarray:
    """`math.exp(eppf_log_prob(params, C))` for every C of
    `_partition_table(n)`, in table order, bit-identical to the scalar form
    (numpy's exp may differ from math.exp in the last bit)."""
    values, index = _profile_log_probs(params, n)
    return np.array(list(map(math.exp, values)))[index]


def normalization_check(params: PYParams, n: int) -> float:
    """Sum of exp(eppf_log_prob) over every partition of [n].

    The law is a probability distribution, so the result must equal 1 up to
    rounding; the exhaustive suites assert agreement to 1e-10.  The law is
    evaluated once per block-size profile and gathered over the cached
    partition table; `math.fsum` is exact, so the result does not depend on
    the order of the terms.
    """
    return math.fsum(_table_probs(params, n).tolist())
