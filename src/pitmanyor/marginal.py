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
profiles at once.  Neither value depends on which entry point computed it.
Lemmas B and C sum over the k! orders in which blocks take their sticks by
one recursion over the sub-multisets of block sizes still to be placed,
`_order_sums`, so they take any block count within its state budget.
Lemma D's nested sums are a loop of capped gap steps.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
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
]

# Elements the states of one `_order_sums` call may hold: 128 MB of float64.
# The verify bridge's profiles of n <= 4 hold 1.2e6 at max_label 1e5.
_ORDER_SUM_BUDGET = 2**24


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
        raise ValueError(
            f"moment orders must satisfy a+c > 0 and b+e > 0, got a={a}, b={b}, c={c}, e={e}"
        )
    return math.exp(
        log_gamma_ratio(a, c, 0.0)
        + log_gamma_ratio(b, e, 0.0)
        - log_gamma_ratio(a + b, c + e, 0.0)
    )


def _cumratios(alpha: float, d: float, total_cap: int):
    """The gap-sum recursion's cumulative ratio array for an offset a,

        C_a(B) = prod_{t=1}^{B} (alpha + (t-1) d) / (a + alpha + (t-1) d),

    for B = 0..total_cap.  Only the first numerator, alpha, can be negative
    or zero, so every C_a(B) past C_a(0) = 1 carries alpha's sign, and all
    of them are 0 at alpha = 0.  Returns a function of a that builds each
    array once and keeps the last one: every caller meets each offset in
    one stretch of steps.
    """
    t = np.arange(1, total_cap + 1, dtype=float)
    num = alpha + (t - 1.0) * d

    @lru_cache(maxsize=1)
    def cumratio(a: float) -> np.ndarray:
        ratios = num / (a + alpha + (t - 1.0) * d)
        return np.concatenate([[1.0], np.cumprod(ratios)])

    return cumratio


def _gap_step(state: np.ndarray, cumratio: np.ndarray, gap_cap: int) -> np.ndarray:
    """One capped gap of lemma D's recursion over the running gap total B:
    the new state at B is the sum over earlier totals B' < B with
    B - B' <= gap_cap of state[B'] * C(B) / C(B'), taken as a prefix sum of
    state / C.  Past B = 0 every C has alpha's sign, so the first gap, from
    B' = 0, gives the state alpha's sign and later gaps keep it; a C of 0
    (alpha = 0, or an underflow) contributes nothing."""
    scaled = np.divide(state, cumratio, out=np.zeros_like(state), where=cumratio != 0)
    prefix = np.cumsum(scaled)
    out = np.zeros_like(state)
    out[1:] = cumratio[1:] * prefix[:-1]
    if len(state) >= gap_cap + 2:
        out[gap_cap + 1:] -= cumratio[gap_cap + 1:] * prefix[: -gap_cap - 1]
    return out


def _gap_step_transposed(v: np.ndarray, cumratio: np.ndarray) -> np.ndarray:
    """The transpose of the uncapped gap step: u[B'] is the sum over later
    totals B > B' of C(B) v[B] / C(B'), taken as a suffix sum of C v, and 0
    where C(B') = 0, the entries the forward step drops.  Only u[0] takes a
    C(B) without its C(B'), so u[0] carries alpha's sign and the rest,
    ratios of two Cs, are positive."""
    tail = np.cumsum((cumratio * v)[::-1])[::-1]
    out = np.zeros_like(v)
    np.divide(tail[1:], cumratio[:-1], out=out[:-1], where=cumratio[:-1] != 0)
    return out


def _order_sums(profiles: Sequence[Sequence[int]], empty, step) -> list:
    """V(profile) for each profile of block sizes: a sum over the k! orders
    in which its blocks take their sticks, by a recursion over the
    sub-multisets R of sizes still to be placed,

        V(()) = empty,   V(R) = step(sum_s m_s(R) V(R - {s}), |R|, len(R)),

    with m_s(R) the number of blocks of size s in R, summed in increasing s.
    A term depends on its order only through that chain of sub-multisets,
    so the k! orders collapse to prod_s (m_s + 1) states.  They are built
    bottom-up by element count, once for all the profiles, so the steps at
    one |R| run in one stretch.  Raises ValueError before any step when the
    states held so far plus the next profile's, each of np.size(empty)
    elements, exceed `_ORDER_SUM_BUDGET`.
    """
    width = np.size(empty)
    held = set()
    for sizes in profiles:
        counts = sorted(Counter(sizes).items())
        need = (len(held) + math.prod(m + 1 for _, m in counts)) * width
        if need > _ORDER_SUM_BUDGET:
            raise ValueError(f"{need} elements of state exceed the budget of {_ORDER_SUM_BUDGET}")
        subs = [()]
        for s, m in counts:  # sizes appended in increasing order keep each tuple sorted
            subs = [sub + (s,) * r for sub in subs for r in range(m + 1)]
        held.update(subs)
    states = {(): empty}
    for sub in sorted(held, key=lambda r: (sum(r), r))[1:]:  # () sorts first
        below = 0
        for s in dict.fromkeys(sub):
            i = sub.index(s)
            below += sub.count(s) * states[sub[:i] + sub[i + 1:]]
        states[sub] = step(below, sum(sub), len(sub))
    return [states[tuple(sorted(sizes))] for sizes in profiles]


def _lemma_b_truncated_sums(
    params: PYParams, profiles: Sequence[tuple[int, ...]], max_label: int
) -> list[tuple[float, float]]:
    """`lemma_b_truncated_sum` at a partition of each sorted block-size
    profile, in the given order.  With G_a the gap step at offset a, an order
    whose remaining sub-multisets are R_1, ..., R_k adds 1^T G_{|R_k|} ...
    G_{|R_1|} e_0: from the all-ones end, one transposed step per
    sub-multiset, so `_order_sums` from all ones, read at gap total 0."""
    for sizes in profiles:
        if max_label < len(sizes):
            raise ValueError(f"max_label must be at least the block count {len(sizes)}")
    cumratio = _cumratios(params.alpha, params.d, max_label)
    sums = _order_sums(
        profiles,
        np.ones(max_label + 1),
        lambda v, total, _: _gap_step_transposed(v, cumratio(total)),
    )
    out = []
    for sizes, v in zip(profiles, sums):
        closed = 1.0
        for i in range(len(sizes)):
            closed *= params.alpha + i * params.d
        for s in sizes:
            closed /= s - params.d
        out.append((float(v[0]), closed))
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
    the sum is taken over that parameterization: a prefix-sum recursion over
    gap totals, summed over the orders by `_order_sums` in one step per
    sub-multiset of block sizes, not one walk per ordering -- exponentially
    smaller than scanning label vectors directly.  The partial sum is returned without any tail
    correction; for alpha > 0 it increases monotonically to the closed form
    as max_label grows, with a tail that decays like max_label^(-(1-d)/d):
    like 1/max_label at d = 1/2, and geometrically at d = 0.

    The value depends only on the block sizes, so partitions with the same
    size profile give bit-identical values.  A one-profile call of the batch that `verify` runs over every
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


def lemma_c_check(sizes: Sequence[int], d: float) -> tuple[float, float]:
    """Permutation-sum identity of sampling blocks without replacement.

    First value: sum over all orderings sigma of prod_{i=1}^{k}
    1 / (a_i(sigma) - (k-i+1) d) with a_i(sigma) the suffix sum of sizes in
    order sigma, taken by `_order_sums` on scalars: the factor of a step is
    1 / (|R| - len(R) d) for the multiset R of sizes still to be placed.
    Second value: 1 / prod_i (n_i - d).  The two are equal exactly; the
    suites assert relative error <= 1e-12.
    """
    if len(sizes) < 1:
        raise ValueError("need at least one block size")
    if not 0.0 <= d < 1.0:
        raise ValueError(f"discount must lie in [0, 1), got {d}")
    for s in sizes:
        if not isinstance(s, (int, np.integer)) or s < 1:
            raise ValueError(f"sizes must be integers >= 1, got {s!r}")
    (lhs,) = _order_sums([sizes], 1.0, lambda x, total, count: x / (total - count * d))
    rhs = float(1.0 / np.prod(np.asarray(sizes, dtype=float) - d))
    return float(lhs), rhs


def lemma_d_check(
    params: PYParams, a: Sequence[float], truncation: int
) -> tuple[float, float]:
    """Truncated nested gap sums paired with their closed form.

    First value: the nested sums, inner index shifted by the running total of
    earlier gaps and each gap truncated to {1..truncation}, of

        prod_i ( alpha/d + B_{i-1} )_(b_i) / ( (a_i+alpha)/d + B_{i-1} )_(b_i).

    Second value: (alpha/d)_(k) / prod_i (a_i/d - (k+1-i)).  Requires d > 0
    and a_i > d (k+1-i) so the closed-form denominators are positive and no
    summand ratio reaches one.  Both values carry alpha's sign and are 0 at
    alpha = 0.  For alpha > 0 the partial sum increases monotonically to the
    closed form as the truncation grows.
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
    cumratio = _cumratios(alpha, d, k * truncation)
    state = np.zeros(k * truncation + 1)
    state[0] = 1.0
    for a_i in a:
        state = _gap_step(state, cumratio(a_i), truncation)
    return float(state.sum()), rhs
