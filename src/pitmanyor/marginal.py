"""Allocation-vector marginal and numerical oracles for the identity suite.

The exact allocation marginal is evaluated under the same cancelled-leading-
factor convention as the partition law.  The truncated-sum oracles never
extrapolate: they return the partial sum as-is, and the test suites assert
convergence by monotonicity at fixed truncation levels.

Throughout, positive integers start at 1: allocation labels are >= 1 and so
are the label gaps b_i of the gap parameterization, as required both by the
geometric series sum_{b>=1} E[X^b] = E[X/(1-X)] and by distinct labels having
gaps >= 1.

The two oracles that `verify` replays over whole grids have array
evaluators, and the public functions are their one-row and one-profile
calls: `_allocation_log_probs` scores every row of a label matrix, and
`_lemma_b_truncated_sums` evaluates the truncated label sum at many size
profiles from one walk over the shared prefixes of their gap recursions.
Both add their terms in the order of the scalar loops they replaced, so a
value does not depend on which entry point computed it.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from .core import LogProb, Partition, PYParams, log_gamma_ratio, log_rising_factorial
from .stickbreak import _hazard

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

# Cumulative-ratio arrays one gap-sum walk keeps, one per recent offset: the
# bridge's profiles of n <= 4 use four, and at max_label 1e5 each holds 0.8 MB.
_CUMRATIO_CACHE = 16


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


def _allocation_log_probs(params: PYParams, z) -> np.ndarray:
    """`allocation_log_prob` of every row of a (rows, n) label matrix.

    Row r's terms are written in the scalar evaluator's order: the level
    terms log(alpha + (j-1)d) for j = 2..m, the cancelled denominator
    -log (alpha+1)_(n-1), the terms -log(g_j + alpha + (j-1)d) for
    j = 1..m, and log (1-d)_(e_j) for each occupied label j.  Past the row's
    own max label m (g_j = 0) and at empty labels (e_j = 0) the term is a
    zero, which adds nothing.  The logs come from small per-call tables --
    one per level, one per distinct (g_j, j) pair, one per block size -- and
    `np.add.accumulate` adds each row's terms one at a time from 0.0, as
    `crp._sequential_log_probs` does, so every row is bit-identical to the
    scalar loop.  The work arrays hold 3 * max(z) floats per row.
    """
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError("allocation vectors must be nonempty rows of one matrix")
    if not np.issubdtype(z.dtype, np.integer) or z.min() < 1:
        raise ValueError("labels must be integers >= 1")
    rows, n = z.shape
    top = int(z.max())
    alpha, d = params.alpha, params.d
    # label-major, so each of the accumulation's steps runs down a contiguous row
    e = np.zeros((top + 1, rows), dtype=np.int64)
    row_index = np.arange(rows)
    for column in z.T:
        e[column, row_index] += 1
    e = e[1:]  # e[j-1, r] counts the entries of row r equal to j
    g = np.cumsum(e[::-1], axis=0)[::-1]  # entries at or above j
    live = g > 0
    level_logs = np.array([math.log(alpha + (j - 1) * d) for j in range(2, top + 1)])
    pairs, pair_index = np.unique((g * top + np.arange(top)[:, None])[live], return_inverse=True)
    pair_logs = np.array([math.log(p // top + alpha + (p % top) * d) for p in pairs.tolist()])
    block_logs = np.array([0.0] + [log_rising_factorial(1.0 - d, c) for c in range(1, n + 1)])
    terms = np.zeros((3 * top + 1, rows))  # row 0: the loop's starting 0.0
    terms[1:top] = np.where(live[1:], level_logs[:, None], 0.0)
    terms[top] = -log_rising_factorial(alpha + 1.0, n - 1)
    g_terms = terms[top + 1 : 2 * top + 1]
    g_terms[live] = -pair_logs[pair_index]
    terms[2 * top + 1 :] = block_logs[e]
    return np.add.accumulate(terms)[-1]


def allocation_log_prob(params: PYParams, z: Sequence[int]) -> LogProb:
    """log Pr of an allocation-label vector under the stick weights.

    Evaluates, in log space and with the leading alpha cancelled against the
    denominator so that negative alpha stays in domain,

        1/(alpha)_(n) * prod_blocks Gamma(|c|+1-d)/Gamma(1-d)
                      * prod_{j=1}^{m} (alpha+(j-1)d) / (g_j + alpha + (j-1)d).

    The same form holds at d = 0, where every stick fraction is
    Beta(1, alpha) and each block contributes |c|!.  A one-row call of the
    evaluator that `verify` runs over whole label grids.
    """
    return float(_allocation_log_probs(params, np.array([z]))[0])


def beta_moment(a: float, b: float, c: float, e: float) -> float:
    """E[y^c (1-y)^e] for y ~ Beta(a, b), i.e. B(a+c, b+e) / B(a, b),
    taken as three gamma ratios, so a shape far larger than the orders
    loses nothing to cancellation."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta shapes must be positive, got a={a}, b={b}")
    if not (a + c > 0.0 and b + e > 0.0):
        raise ValueError(f"moment orders must satisfy a+c > 0 and b+e > 0")
    return math.exp(
        log_gamma_ratio(a, c, 0.0)
        + log_gamma_ratio(b, e, 0.0)
        - log_gamma_ratio(a + b, c + e, 0.0)
    )


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


def _cumratios(alpha: float, d: float, total_cap: int):
    """The gap-sum recursion's cumulative ratio array for an offset a,

        C_a(B) = prod_{t=1}^{B} num_t / (a + alpha + (t-1) d),

    with num_1 = |alpha| (the lone sign-carrying factor taken out) and
    num_t = alpha + (t-1) d beyond, for B = 0..total_cap.  Returns a
    function of a that builds each array once and keeps the last few:
    one walk meets the same offset at many steps.
    """
    t = np.arange(total_cap + 1, dtype=float)
    num = np.empty(total_cap + 1)
    num[0] = 1.0
    if total_cap >= 1:
        num[1] = abs(alpha)
    if total_cap >= 2:
        num[2:] = alpha + (t[2:] - 1.0) * d

    @lru_cache(maxsize=_CUMRATIO_CACHE)
    def cumratio(a: float) -> np.ndarray:
        ratios = num[1:] / (a + alpha + (t[1:] - 1.0) * d)
        return np.concatenate([[1.0], np.cumprod(ratios)])

    return cumratio


def _gap_step(state: np.ndarray, cumratio: np.ndarray, gap_cap: int | None) -> np.ndarray:
    """One gap of the recursion over the running gap total B: the new state
    at B is the sum over earlier totals B' < B (and B - B' <= gap_cap) of
    state[B'] * C(B) / C(B'), taken as a prefix sum of state / C."""
    scaled = np.divide(state, cumratio, out=np.zeros_like(state), where=cumratio > 0)
    prefix = np.cumsum(scaled)
    out = np.zeros_like(state)
    out[1:] = cumratio[1:] * prefix[:-1]
    if gap_cap is not None and len(state) >= gap_cap + 2:
        out[gap_cap + 1:] -= cumratio[gap_cap + 1:] * prefix[: -gap_cap - 1]
    return out


def _start_state(total_cap: int) -> np.ndarray:
    state = np.zeros(total_cap + 1)
    state[0] = 1.0
    return state


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
    cumratio = _cumratios(alpha, d, total_cap)
    state = _start_state(total_cap)
    for a_i in a_seq:
        state = _gap_step(state, cumratio(a_i), gap_cap)
    return float(state.sum())


def _gap_sums(alpha: float, d: float, a_vecs, total_cap: int) -> dict:
    """`_gap_sum_dp(alpha, d, a_vec, total_cap, None)` for each of a_vecs,
    keyed by a_vec, from one depth-first walk over their shared prefixes.

    The state after i gaps depends only on the first i offsets, so the
    vectors are visited in sorted order, which puts every prefix before its
    extensions, and only the states on the current path are kept.  Each step
    is the one `_gap_sum_dp` takes, so the values are bit-identical to it.
    """
    cumratio = _cumratios(alpha, d, total_cap)
    path: list[float] = []
    states = [_start_state(total_cap)]
    out = {}
    for a_vec in sorted(set(a_vecs)):
        shared = 0
        while shared < min(len(path), len(a_vec)) and path[shared] == a_vec[shared]:
            shared += 1
        del path[shared:], states[shared + 1:]
        for a in a_vec[shared:]:
            states.append(_gap_step(states[-1], cumratio(a), None))
            path.append(a)
        out[a_vec] = float(states[-1].sum())
    return out


def _lemma_b_truncated_sums(
    params: PYParams, profiles: Sequence[tuple[int, ...]], max_label: int
) -> list[tuple[float, float]]:
    """`lemma_b_truncated_sum` at a partition of each sorted block-size
    profile, in the given order, with one gap-sum walk for all of them."""
    for sizes in profiles:
        k = len(sizes)
        if max_label < k:
            raise ValueError(f"max_label must be at least the block count {k}")
        if k > MAX_PERMUTATION_K:
            raise ValueError(f"block count {k} exceeds the k! ceiling {MAX_PERMUTATION_K}")
    if params.alpha == 0.0:
        # every term carries the factor alpha; both sides vanish
        return [(0.0, 0.0)] * len(profiles)
    orders = [_distinct_suffix_sum_orders(sizes) for sizes in profiles]
    sums = _gap_sums(params.alpha, params.d, [a for order in orders for a in order], max_label)
    sign = 1.0 if params.alpha > 0.0 else -1.0
    out = []
    for sizes, order in zip(profiles, orders):
        closed = 1.0
        for i in range(len(sizes)):
            closed *= params.alpha + i * params.d
        for s in sizes:
            closed /= s - params.d
        total = 0.0
        for a_vec, mult in order.items():
            total += mult * sums[a_vec]
        out.append((sign * total, closed))
    return out


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
    values.  A one-profile call of the batch that `verify` runs over every
    size profile at once.
    """
    sizes = tuple(sorted(partition.block_sizes()))
    return _lemma_b_truncated_sums(params, [sizes], max_label)[0]


def truncated_label_mass(params: PYParams, n: int, max_label: int) -> float:
    """Probability that all of n stick allocations have labels <= max_label.

    This is the mass the truncated label sum of `lemma_b_truncated_sum` keeps:
    summed over the partitions of [n], its reconstructions give this value,
    not 1.  With V_j ~ Beta(1-d, alpha+jd) the kept mass is
    E[(1 - prod_{j<=L} (1-V_j))^n]; expanding the power and using
    E[(1-V_j)^r] = (alpha+jd)_(r) / (alpha+1+(j-1)d)_(r) gives

        sum_{r=0}^{n} C(n,r) (-1)^r prod_{j=1}^{L} (alpha+jd)_(r) / (alpha+1+(j-1)d)_(r).

    Every factor is positive on the admissible range, alpha = 0 included.
    The product over j is exp(-H_r(max_label)), the stick engine's
    cumulative miss hazard: a cached table entry up to 2^14 labels and an
    O(r) closed form beyond, so no label is scanned and max_label may be as
    large as a float holds.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if max_label < 1:
        raise ValueError(f"max_label must be >= 1, got {max_label}")
    level = np.array([float(max_label)])
    terms = [
        math.comb(n, r) * (-1) ** r * math.exp(-_hazard(params.alpha, params.d, r, level)[0])
        for r in range(1, n + 1)
    ]
    return math.fsum([1.0, *terms])


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
