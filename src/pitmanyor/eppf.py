"""Exact log-space evaluation of the random-partition law.

The two-parameter law assigns a partition C of [n] with k blocks probability

    prod_{i=1}^{k-1} (alpha + i d) / (alpha + 1)_(n-1) * prod_c (1 - d)_(|c|-1)

which is the standard product form with the common leading factor alpha
cancelled between numerator and denominator.  After cancellation every factor
is strictly positive on the whole admissible range (alpha > -d), so the
evaluation is safe in log space even for negative alpha and at alpha = 0.
d = 0 dispatches to the Dirichlet branch instead of relying on the limit.
"""

import math
from functools import lru_cache

from .core import (
    MAX_NORMALIZATION_N,
    LogProb,
    Partition,
    PYParams,
    _partition_table,
    log_rising_factorial,
)

__all__ = ["eppf_log_prob", "dp_log_prob", "normalization_check", "MAX_NORMALIZATION_N"]

# Both law caches are keyed by (parameters, sorted block sizes).  The widest
# user is `pitmanyor verify`: 17 grid points times the 66 size profiles of
# n <= 8 (p(1) + ... + p(8)), plus the Dirichlet-limit and bridge checks,
# about 1.2k keys in all.  4096 holds that with room to spare, so no caller
# in the package evicts, while a long-lived process sweeping many parameters
# cannot grow the caches without end.
_LAW_CACHE_SIZE = 4096


@lru_cache(maxsize=_LAW_CACHE_SIZE)
def _log_prob_from_sizes(alpha: float, d: float, sizes: tuple[int, ...]) -> float:
    # sizes arrive sorted: the law depends only on the size multiset, and a
    # fixed accumulation order makes equal-multiset evaluations bit-identical.
    if d == 0.0:
        return _dp_log_prob_from_sizes(alpha, sizes)
    n = sum(sizes)
    k = len(sizes)
    new_block = sum(math.log(alpha + i * d) for i in range(1, k))
    within = sum(log_rising_factorial(1.0 - d, s - 1) for s in sizes)
    return new_block + within - log_rising_factorial(alpha + 1.0, n - 1)


@lru_cache(maxsize=_LAW_CACHE_SIZE)
def _dp_log_prob_from_sizes(alpha: float, sizes: tuple[int, ...]) -> float:
    n = sum(sizes)
    k = len(sizes)
    # (s-1)! per block, written as lgamma(s)
    within = sum(math.lgamma(s) for s in sizes)
    return k * math.log(alpha) + within - log_rising_factorial(alpha, n)


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
    alpha^k / (alpha)_(n) * prod_c (|c| - 1)!."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    if partition.num_blocks == 0:
        raise ValueError("partition must have at least one block")
    sizes = tuple(sorted(partition.block_sizes()))
    return _dp_log_prob_from_sizes(alpha, sizes)


def normalization_check(params: PYParams, n: int) -> float:
    """Sum of exp(eppf_log_prob) over every partition of [n].

    The law is a probability distribution, so the result must equal 1 up to
    rounding; the exhaustive suites assert agreement to 1e-10.
    """
    return math.fsum(
        math.exp(eppf_log_prob(params, C)) for C in _partition_table(n)
    )
