"""Allocation-vector marginal and numerical oracles for the identity suite.

The exact allocation marginal is evaluated under the same cancelled-leading-
factor convention as the partition law.  The truncated-sum oracles never
extrapolate: they return the partial sum as-is, and the test suites assert
convergence by monotonicity at fixed truncation levels.

Throughout, positive integers start at 1: allocation labels are >= 1 and so
are the label gaps b_i of the gap parameterization, as required both by the
geometric series sum_{b>=1} E[X^b] = E[X/(1-X)] and by distinct labels having
gaps >= 1.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from .core import LogProb, Partition, PYParams, log_rising_factorial

__all__ = [
    "AllocationStats",
    "allocation_stats",
    "allocation_log_prob",
    "beta_moment",
    "lemma_b_truncated_sum",
    "lemma_c_check",
    "lemma_d_check",
    "truncated_label_mass",
    "MAX_PERMUTATION_K",
]

# k! enumeration ceiling shared by the permutation-sum oracles.
MAX_PERMUTATION_K = 8


@dataclass(frozen=True)
class AllocationStats:
    """Counting statistics of an allocation vector.

    m is the largest label; e[j-1] counts entries equal to j, f[j-1] entries
    strictly above j, g[j-1] entries at or above j.  By construction
    g_j = e_j + f_j, f_j = g_{j+1}, g_1 = n and g_{m+1} = 0.
    """

    m: int
    e: tuple[int, ...]
    f: tuple[int, ...]
    g: tuple[int, ...]


def allocation_stats(z: Sequence[int]) -> AllocationStats:
    if len(z) == 0:
        raise ValueError("allocation vector must be nonempty")
    for v in z:
        if not isinstance(v, (int, np.integer)) or v < 1:
            raise ValueError(f"labels must be integers >= 1, got {v!r}")
    m = int(max(z))
    e = [0] * m
    for v in z:
        e[v - 1] += 1
    g = [0] * m
    running = 0
    for j in range(m, 0, -1):
        running += e[j - 1]
        g[j - 1] = running
    f = [g[j] if j < m else 0 for j in range(1, m + 1)]
    return AllocationStats(m, tuple(e), tuple(f), tuple(g))


def allocation_log_prob(params: PYParams, z: Sequence[int]) -> LogProb:
    """log Pr of an allocation-label vector under the stick weights.

    Evaluates, in log space and with the leading alpha cancelled against the
    denominator so that negative alpha stays in domain,

        1/(alpha)_(n) * prod_blocks Gamma(|c|+1-d)/Gamma(1-d)
                      * prod_{j=1}^{m} (alpha+(j-1)d) / (g_j + alpha + (j-1)d).

    Requires d > 0; the formula collapses at d = 0 and the Dirichlet analogue
    is out of scope here.
    """
    if params.d == 0.0:
        raise ValueError("allocation marginal requires d > 0")
    stats = allocation_stats(z)
    alpha, d = params.alpha, params.d
    n = len(z)
    total = 0.0
    # leading numerator factor alpha (j = 1) cancelled against (alpha)_(n)
    for j in range(2, stats.m + 1):
        total += math.log(alpha + (j - 1) * d)
    total -= log_rising_factorial(alpha + 1.0, n - 1)
    for j in range(1, stats.m + 1):
        total -= math.log(stats.g[j - 1] + alpha + (j - 1) * d)
    for count in stats.e:
        if count > 0:
            total += math.lgamma(count + 1.0 - d) - math.lgamma(1.0 - d)
    return total


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def beta_moment(a: float, b: float, c: float, e: float) -> float:
    """E[y^c (1-y)^e] for y ~ Beta(a, b), i.e. B(a+c, b+e) / B(a, b)."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta shapes must be positive, got a={a}, b={b}")
    if not (a + c > 0.0 and b + e > 0.0):
        raise ValueError(f"moment orders must satisfy a+c > 0 and b+e > 0")
    return math.exp(_log_beta(a + c, b + e) - _log_beta(a, b))


def _distinct_suffix_sum_orders(sizes: Sequence[int]) -> Counter:
    """Multiplicities of the distinct suffix-sum vectors over all orderings."""
    out: Counter = Counter()
    for perm in permutations(sizes):
        suffix = []
        running = 0
        for s in reversed(perm):
            running += s
            suffix.append(running)
        out[tuple(reversed(suffix))] += 1
    return out


def _gap_sum_dp(alpha: float, d: float, a_seq: Sequence[float], total_cap: int,
                gap_cap: int | None) -> float:
    """Sum over gap vectors (b_1..b_k), each b_i >= 1, of

        prod_i prod_{r=0}^{b_i-1} (alpha + (B_{i-1}+r) d) / (a_i + alpha + (B_{i-1}+r) d)

    where B_i is the running gap total, restricted to B_k <= total_cap and,
    when gap_cap is given, to b_i <= gap_cap individually.

    The factor of a gap depends on its segment only through endpoint ratios of
    two cumulative products, so the recursion over the running total reduces
    to prefix sums: O(k * total_cap) instead of O(k * total_cap^2).  The lone
    sign-carrying factor alpha (position 1) is taken out as |alpha|; callers
    reapply the sign.
    """
    t = np.arange(total_cap + 1, dtype=float)
    num = np.empty(total_cap + 1)
    num[0] = 1.0
    if total_cap >= 1:
        num[1] = abs(alpha)
    if total_cap >= 2:
        num[2:] = alpha + (t[2:] - 1.0) * d
    state = np.zeros(total_cap + 1)
    state[0] = 1.0
    for a_i in a_seq:
        ratios = num[1:] / (a_i + alpha + (t[1:] - 1.0) * d)
        cumratio = np.concatenate([[1.0], np.cumprod(ratios)])
        scaled = np.divide(state, cumratio, out=np.zeros_like(state), where=cumratio > 0)
        prefix = np.cumsum(scaled)
        state = np.zeros(total_cap + 1)
        state[1:] = cumratio[1:] * prefix[:-1]
        if gap_cap is not None and total_cap >= gap_cap + 1:
            state[gap_cap + 1:] -= cumratio[gap_cap + 1:] * prefix[: -gap_cap - 1]
    return float(state.sum())


def lemma_b_truncated_sum(
    params: PYParams, partition: Partition, max_label: int
) -> tuple[float, float]:
    """Truncated label-sum oracle paired with its closed form.

    First value: the sum, over allocation vectors z with labels in
    {1..max_label} that induce `partition`, of
    prod_{j=1}^{max(z)} (alpha+(j-1)d) / (g_j(z)+alpha+(j-1)d).
    Second value: the limit d^k (alpha/d)_(k) / prod_c (|c| - d), evaluated in
    the product form prod_{i=0}^{k-1}(alpha + i d) / prod_c (|c| - d) that
    stays defined at d = 0.

    Such z correspond one-to-one to (block ordering, label gaps) pairs, and
    the sum is taken over that parameterization: k! orderings with a shared
    prefix-sum recursion over gap totals, exponentially smaller than scanning
    label vectors directly.  The partial sum is returned without any tail
    correction; for alpha > 0 it increases monotonically to the closed form
    as max_label grows, with a tail that decays like max_label^(-(1-d)/d):
    like 1/max_label at d = 1/2, and geometrically at d = 0.

    The block sizes are walked in sorted order, which fixes the order of
    every sum: partitions with the same size profile give bit-identical
    values.
    """
    sizes = sorted(partition.block_sizes())
    k = len(sizes)
    if max_label < k:
        raise ValueError(f"max_label must be at least the block count {k}")
    if k > MAX_PERMUTATION_K:
        raise ValueError(f"block count {k} exceeds the k! ceiling {MAX_PERMUTATION_K}")
    closed = 1.0
    for i in range(k):
        closed *= params.alpha + i * params.d
    for s in sizes:
        closed /= s - params.d
    if params.alpha == 0.0:
        # every term carries the factor alpha; both sides vanish
        return 0.0, 0.0
    sign = 1.0 if params.alpha > 0.0 else -1.0
    total = 0.0
    for a_vec, mult in _distinct_suffix_sum_orders(sizes).items():
        total += mult * _gap_sum_dp(params.alpha, params.d, a_vec, max_label, None)
    return sign * total, closed


def truncated_label_mass(params: PYParams, n: int, max_label: int) -> float:
    """Probability that all of n stick allocations have labels <= max_label.

    This is the mass the truncated label sum of `lemma_b_truncated_sum` keeps:
    summed over the partitions of [n], its reconstructions give this value,
    not 1.  With V_j ~ Beta(1-d, alpha+jd) the kept mass is
    E[(1 - prod_{j<=L} (1-V_j))^n]; expanding the power and using
    E[(1-V_j)^r] = (alpha+jd)_(r) / (alpha+1+(j-1)d)_(r) gives

        sum_{r=0}^{n} C(n,r) (-1)^r prod_{j=1}^{L} (alpha+jd)_(r) / (alpha+1+(j-1)d)_(r).

    Every factor is positive on the admissible range, alpha = 0 included.
    The cost is O(n * max_label), with no scan over label vectors.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if max_label < 1:
        raise ValueError(f"max_label must be >= 1, got {max_label}")
    # denominators alpha+1+(j-1)d; each numerator is 1-d below its denominator
    den = params.alpha + 1.0 + params.d * np.arange(max_label, dtype=float)
    log_keep = 0.0
    total = 1.0
    for r in range(1, n + 1):
        log_keep += float(np.log1p(-(1.0 - params.d) / (den + (r - 1))).sum())
        total += math.comb(n, r) * (-1) ** r * math.exp(log_keep)
    return total


@lru_cache(maxsize=MAX_PERMUTATION_K)
def _permutation_orders(k: int) -> np.ndarray:
    """Every ordering of range(k), one per row; read-only, since each call
    for the same k shares the array."""
    orders = np.array(list(permutations(range(k))))
    orders.flags.writeable = False
    return orders


def lemma_c_check(sizes: Sequence[int], d: float) -> tuple[float, float]:
    """Permutation-sum identity of sampling blocks without replacement.

    First value: sum over all orderings sigma of prod_{i=1}^{k}
    1 / (a_i(sigma) - (k-i+1) d) with a_i(sigma) the suffix sum of sizes in
    order sigma.  Second value: 1 / prod_i (n_i - d).  The two are equal
    exactly; the suites assert relative error <= 1e-12.
    """
    k = len(sizes)
    if not 1 <= k <= MAX_PERMUTATION_K:
        raise ValueError(f"need 1 <= k <= {MAX_PERMUTATION_K}, got {k}")
    if not 0.0 <= d < 1.0:
        raise ValueError(f"discount must lie in [0, 1), got {d}")
    for s in sizes:
        if not isinstance(s, (int, np.integer)) or s < 1:
            raise ValueError(f"sizes must be integers >= 1, got {s!r}")
    arr = np.asarray(sizes, dtype=float)
    picked = arr[_permutation_orders(k)]
    suffix = np.cumsum(picked[:, ::-1], axis=1)[:, ::-1]
    denom = suffix - d * np.arange(k, 0, -1, dtype=float)
    lhs = float((1.0 / denom).prod(axis=1).sum())
    rhs = float(1.0 / np.prod(arr - d))
    return lhs, rhs


def lemma_d_check(
    params: PYParams, a: Sequence[float], truncation: int
) -> tuple[float, float]:
    """Truncated nested gap sums paired with their closed form.

    First value: the nested sums, inner index shifted by the running total of
    earlier gaps and each gap truncated to {1..truncation}, of

        prod_i ( alpha/d + B_{i-1} )_(b_i) / ( (a_i+alpha)/d + B_{i-1} )_(b_i).

    Second value: (alpha/d)_(k) / prod_i (a_i/d - (k+1-i)).  Requires d > 0
    and a_i > d (k+1-i) so the closed-form denominators are positive and no
    summand ratio reaches one.  For alpha > 0 the partial sum increases
    monotonically to the closed form as the truncation grows.
    """
    if params.d == 0.0:
        raise ValueError("nested gap sums require d > 0")
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    k = len(a)
    if k < 1:
        raise ValueError("need at least one denominator offset")
    alpha, d = params.alpha, params.d
    for i, a_i in enumerate(a, start=1):
        if not a_i > d * (k + 1 - i):
            raise ValueError(
                f"divergence guard: need a_{i} > d*(k+1-{i}) = {d * (k + 1 - i)}, got {a_i}"
            )
    rhs = 1.0
    for i in range(k):
        rhs *= alpha / d + i
    for i, a_i in enumerate(a, start=1):
        rhs /= a_i / d - (k + 1 - i)
    if alpha == 0.0:
        return 0.0, 0.0
    sign = 1.0 if alpha > 0.0 else -1.0
    lhs = _gap_sum_dp(alpha, d, list(a), k * truncation, truncation)
    return sign * lhs, rhs
