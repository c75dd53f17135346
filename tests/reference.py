"""Independent scalar references for the two sampling routes and the
allocation-marginal and label-sum oracles.

The package samples each route with one batch engine.  These per-draw loops
are what the tests compare the engines against: the stick walk is the only
code that realizes the paper's stick fractions, and the seating loop applies
the restaurant rule one observation at a time.  Both are cheap per draw, so
the frequency tests that take tens of thousands of draws run them.
`restricted_growth` writes a partition as the first-appearance label string
that the restaurant sampler returns, for comparing the two.
`enumerate_partitions` is the recursive enumerator that the package's
growth-string table replaced; the tests compare that table to it.

`log_prob_from_sizes` and `dp_log_prob_from_sizes` are the two-parameter
and Dirichlet laws as two separate, uncached evaluators; the tests pin the
package's one cached law evaluator, whose d = 0 branch is the Dirichlet
law, to them bit for bit.

`allocation_log_prob` and `lemma_b_truncated_sum` are the per-vector and
per-ordering loops that the package's grid evaluators replaced; the tests
pin the evaluators to them bit for bit.  `_gap_sum` with a per-gap cap is
lemma D's nested sum, walked on its own rather than as a prefix walk.

`cumsum_label_matrix` and `hit_sizes` are the batch kernels written with
accumulates along axis 0 (`np.cumsum`, `np.cumprod`, a sum over axis 0),
which the package's row-at-a-time kernels replaced; the tests pin those
kernels to them bit for bit on the same random stream.

`check_beta_moment_mc` is the serial beta-moment Monte Carlo check that the
package's thread-pool check replaced: one `beta_sample` draw of all the
trials per config, then `mean()` and `std(ddof=1)`.  The tests pin the
threaded check's records to it byte for byte.
"""

import math
from bisect import bisect_right
from collections import Counter
from itertools import permutations

import numpy as np

from pitmanyor import constants
from pitmanyor.core import Partition, PYParams, log_rising_factorial, partition_from_allocations
from pitmanyor.marginal import allocation_stats, beta_moment
from pitmanyor.stickbreak import beta_sample
from pitmanyor.verify import BETA_MOMENT_CONFIGS, _record

# Sticks one walk may realize before it raises, so that a heavy tail fails
# loudly instead of hanging.  An observation needs more than L sticks with
# probability about L^(-(1-d)/d): about 3e-6 at (alpha, d) = (1, 0.5), but
# 0.23 at (1, 0.9), so tests walk only at light discounts.
STICK_CAP = 1_000_000


class StickState:
    """Lazily realized sticks of one draw of the random weights.

    v holds the beta fractions, pi the weights pi_j = v_j * prod_{i<j}(1-v_i),
    residual the unbroken remainder prod_i (1-v_i).  A running prefix sum of
    pi backs the inverse-cdf walk.
    """

    __slots__ = ("v", "pi", "residual", "_prefix")

    def __init__(self) -> None:
        self.v: list[float] = []
        self.pi: list[float] = []
        self.residual: float = 1.0
        self._prefix: list[float] = []

    @property
    def n_sticks(self) -> int:
        return len(self.v)

    @property
    def coverage(self) -> float:
        """Total realized weight so far (equals 1 - residual up to rounding)."""
        return self._prefix[-1] if self._prefix else 0.0


def extend_sticks(params: PYParams, state: StickState, rng: np.random.Generator) -> StickState:
    """Realize one more stick in place and return the same state.

    The i-th stick (1-based) uses shapes (1 - d, alpha + i d); at d = 0 that
    is (1, alpha) for every i.
    """
    if state.n_sticks >= STICK_CAP:
        raise RuntimeError(
            f"stick extension exceeded the hard cap of {STICK_CAP} sticks"
        )
    i = state.n_sticks + 1
    v = beta_sample(1.0 - params.d, params.alpha + i * params.d, rng)
    weight = v * state.residual
    state.v.append(v)
    state.pi.append(weight)
    state._prefix.append(state.coverage + weight)
    state.residual *= 1.0 - v
    return state


def sample_allocations(
    params: PYParams,
    n: int,
    rng: np.random.Generator,
    state: StickState | None = None,
) -> list[int]:
    """Stick indices (1-based) for n observations sharing one stick realization.

    Each observation draws u ~ Uniform(0,1) and walks the prefix sums of the
    realized weights, extending the sticks whenever u exceeds the current
    coverage.  All n observations read the same StickState: one draw of the
    weights, n draws from it.  Passing a state reuses its realized sticks.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if state is None:
        state = StickState()
    targets = rng.random(n)
    z = []
    for u in targets:
        while state.coverage <= u:
            extend_sticks(params, state, rng)
        z.append(bisect_right(state._prefix, u) + 1)
    return z


def seat_partition(params: PYParams, n: int, rng: np.random.Generator) -> Partition:
    """Draw one partition of [n] by seating observations 1..n sequentially.

    Draws the same uniforms as `crp_sample_partition`, one per observation
    after the first, so the two agree draw for draw at any seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sizes: list[int] = []
    labels: list[int] = []
    for i in range(n):
        if i == 0:
            choice = 0
            sizes.append(1)
        else:
            # walk the unnormalized weights; total is exactly alpha + i
            target = rng.random() * (params.alpha + i)
            acc = 0.0
            choice = len(sizes)
            for j, s in enumerate(sizes):
                acc += s - params.d
                if target < acc:
                    choice = j
                    break
            if choice == len(sizes):
                sizes.append(1)
            else:
                sizes[choice] += 1
        labels.append(choice + 1)
    return partition_from_allocations(labels)


def restricted_growth(partition: Partition) -> tuple[int, ...]:
    """0-based block index of each element, blocks in least-element order."""
    z = [0] * partition.n
    for b, block in enumerate(partition.blocks):
        for e in block:
            z[e - 1] = b
    return tuple(z)


def enumerate_partitions(n: int):
    """Yield every set partition of [n] once, each validated by `Partition`:
    element i joins each open block in turn, then opens a new one, which
    walks the restricted growth strings in lexicographic order."""
    blocks: list[list[int]] = []

    def grow(i: int):
        if i > n:
            yield Partition.from_blocks(blocks)
            return
        for j in range(len(blocks)):
            blocks[j].append(i)
            yield from grow(i + 1)
            blocks[j].pop()
        blocks.append([i])
        yield from grow(i + 1)
        blocks.pop()

    yield from grow(1)


def allocation_log_prob(params: PYParams, z) -> float:
    """log Pr of one allocation vector, term by term: the level factors
    alpha + (j-1)d for j = 2..m, the cancelled denominator (alpha+1)_(n-1),
    the factors g_j + alpha + (j-1)d, then (1-d)_(e_j) per occupied label."""
    stats = allocation_stats(z)
    alpha, d = params.alpha, params.d
    total = 0.0
    for j in range(2, stats.m + 1):
        total += math.log(alpha + (j - 1) * d)
    total -= log_rising_factorial(alpha + 1.0, len(z) - 1)
    for j in range(1, stats.m + 1):
        total -= math.log(stats.g[j - 1] + alpha + (j - 1) * d)
    for count in stats.e:
        if count > 0:
            total += log_rising_factorial(1.0 - d, count)
    return total


def log_prob_from_sizes(alpha: float, d: float, sizes) -> float:
    """The law at sorted block sizes, with the leading alpha cancelled:
    prod_{i=1}^{k-1} (alpha + i d) / (alpha + 1)_(n-1) * prod_c (1 - d)_(|c|-1)."""
    if d == 0.0:
        return dp_log_prob_from_sizes(alpha, sizes)
    n = sum(sizes)
    k = len(sizes)
    new_block = sum(math.log(alpha + i * d) for i in range(1, k))
    within = sum(log_rising_factorial(1.0 - d, s - 1) for s in sizes)
    return new_block + within - log_rising_factorial(alpha + 1.0, n - 1)


def dp_log_prob_from_sizes(alpha: float, sizes) -> float:
    """The Dirichlet law at sorted block sizes:
    alpha^k / (alpha)_(n) * prod_c (|c| - 1)!."""
    n = sum(sizes)
    k = len(sizes)
    within = sum(math.lgamma(s) for s in sizes)
    return k * math.log(alpha) + within - log_rising_factorial(alpha, n)


def _gap_sum(alpha: float, d: float, a_seq, total_cap: int, gap_cap: int | None = None) -> float:
    """One ordering's truncated gap sum, every step from scratch; with
    gap_cap, each gap is also capped at gap_cap by subtracting the prefix
    sum that ends gap_cap + 1 totals back."""
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
        if gap_cap is not None and total_cap > gap_cap:
            state[gap_cap + 1:] -= cumratio[gap_cap + 1:] * prefix[: -gap_cap - 1]
    return float(state.sum())


def lemma_b_truncated_sum(params: PYParams, sizes, max_label: int) -> tuple[float, float]:
    """Truncated label sum of a partition with these block sizes and its
    closed form, one gap-sum recursion per distinct suffix-sum order."""
    sizes = sorted(sizes)
    closed = 1.0
    for i in range(len(sizes)):
        closed *= params.alpha + i * params.d
    for s in sizes:
        closed /= s - params.d
    if params.alpha == 0.0:
        return 0.0, 0.0
    orders: Counter = Counter()
    for perm in permutations(sizes):
        orders[tuple(np.cumsum(perm[::-1])[::-1].tolist())] += 1
    total = 0.0
    for a_vec, mult in orders.items():
        total += mult * _gap_sum(params.alpha, params.d, a_vec, max_label)
    return math.copysign(total, params.alpha), closed


def cumsum_label_matrix(
    params: PYParams, n: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """`crp.sample_label_matrix` with every step's weights rebuilt from the
    block sizes and summed by one cumsum along axis 0 of (i + 1, trials)."""
    alpha, d = params.alpha, params.d
    labels = np.zeros((n, trials), dtype=np.int64)
    counts = np.zeros((n, trials), dtype=float)
    counts[0] = 1.0
    k = np.ones(trials, dtype=np.int64)
    cols = np.arange(trials)
    for i in range(1, n):
        w = counts[: i + 1] - d * (counts[: i + 1] > 0)
        w[k, cols] = alpha + k * d
        csum = np.cumsum(w, axis=0)
        target = rng.random(trials) * (alpha + i)
        choice = (csum < target).sum(axis=0)
        np.minimum(choice, k, out=choice)
        labels[i] = choice
        counts[choice, cols] += 1.0
        k += choice == k
    return labels.T


def hit_sizes(d: float, m: int, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """`stickbreak._hit_sizes` with the weight ratios held as (m, rows) and
    their running products and sums taken by cumprod and cumsum along axis 0."""
    h = np.arange(1, m)[:, None]
    cum = np.ones((m, b.size))
    with np.errstate(over="ignore"):
        ratio = ((m - h) * (h + 1.0 - d) / (h + 1.0)) / (b + (m - h - 1.0))
        np.cumprod(ratio, axis=0, out=cum[1:])
        np.cumsum(cum, axis=0, out=cum)
    u = rng.random(b.size) * cum[-1]
    return 1 + (cum[:-1] <= u).sum(axis=0)


def check_beta_moment_mc(trials: int, seed: int) -> list[dict]:
    """`verify.check_beta_moment_mc` run one config after another, each
    config's draws made by one `beta_sample` call."""
    out = []
    for idx, (a, b, c, e) in enumerate(BETA_MOMENT_CONFIGS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 11, idx]))
        values = beta_sample(a, b, rng, size=trials)
        work = 1.0 - values
        work **= e
        values **= c
        values *= work
        del work
        emp = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(trials))
        want = beta_moment(a, b, c, e)
        bound = constants.MC_SIGMA * se
        out.append(
            _record(
                "beta_moment_monte_carlo",
                abs(emp - want) <= bound,
                a=a,
                b=b,
                c=c,
                e=e,
                trials=trials,
                seed=seed,
                empirical=emp,
                exact=want,
                bound=bound,
            )
        )
    return out
