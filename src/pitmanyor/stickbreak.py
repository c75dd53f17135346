"""Stick-breaking construction: beta stick sampling and exact allocation draws.

The i-th stick fraction (1-based) is Beta(1 - d, alpha + i d); its weight is
the fraction times the mass left unbroken by earlier sticks.

The samplers never realize a stick.  Given the fractions, each of the
m observations not yet placed lands on stick i with probability V_i,
independently, so with V_i integrated out (the beta-moment lemma) the hit
count at stick i is BetaBinomial(m, 1 - d, alpha + i d), independently
across sticks.  A row therefore jumps from one hit stick to the next: the
next hit stick J inverts the closed-form survival of the empty sticks in
between, and the hit size follows P(H = h | H >= 1), proportional to
C(m, h) (1 - d)_h (alpha + J d)_(m - h).  The survival is exp(-H_m(j)),
read through `_hazard` (shared with `marginal.truncated_label_mass`).  Which
observations a hit takes is uniform, so the columns are filled in hit order
and each row is permuted once at the end.  A row takes at most n hit events,
whatever the tail, so there is no truncation level and no stick cap.  The
scalar `stickbreak_sample_partition` is a one-row call of this engine.

Every variate comes from numpy's ``Generator``, so a seed maps to one stream
whatever optional packages are importable.
"""

from functools import lru_cache

import numpy as np

from .core import Partition, PYParams, _stirling_shift, partition_from_allocations

__all__ = [
    "beta_sample",
    "sample_allocations_batch",
    "sample_partition_labels_batch",
    "stickbreak_sample_partition",
]

# sticks whose cumulative empty-stick hazard is tabulated; beyond them the
# hazard comes from Stirling's series
_TABLE_STICKS = 1 << 14
# largest stick index full-label mode returns: stick indices are carried as
# float64, which holds every integer up to 2^53
_MAX_LABEL = 2.0**53


def beta_sample(a: float, b: float, rng: np.random.Generator, size: int | None = None):
    """Beta(a, b) variates from ``rng.beta``; scalar when size is None.

    ``Generator.beta`` switches to log space when both shapes are at most
    one, so tiny shapes such as the first stick's (1 - d, alpha + d) near
    d = 1, alpha = -d give no 0/0 NaNs.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta shapes must be positive, got a={a}, b={b}")
    out = rng.beta(a, b, size)
    return float(out) if size is None else out


@lru_cache(maxsize=32)
def _hazard_table(alpha: float, d: float, m: int) -> np.ndarray:
    """Cumulative hazard H_m(j) = -log P(sticks 1..j all miss m observations)
    for j = 0.._TABLE_STICKS, increasing from H_m(0) = 0.

    Stick i misses m observations with probability
    prod_{r<m} (alpha + i d + r) / (alpha + 1 - d + i d + r).  Read-only,
    since every caller shares it.  Where that probability rounds to 0
    (below 2^-54) the hazard is inf; its true value is then above 37, which
    an Exp(1) target passes with probability below 2^-54.
    """
    i = np.arange(1, _TABLE_STICKS + 1)
    r = np.arange(m)[:, None]
    with np.errstate(divide="ignore"):
        per_stick = -np.log1p(-(1.0 - d) / (alpha + 1.0 - d + i * d + r)).sum(axis=0)
    table = np.concatenate(([0.0], np.cumsum(per_stick)))
    table.flags.writeable = False
    return table


def _far_hazard(alpha: float, d: float, m: int, j: np.ndarray) -> np.ndarray:
    """H_m(j) - H_m(K) for stick indices j >= K = _TABLE_STICKS.

    At d = 0 every stick has the same hazard (inf where a hit is sure to
    rounding, as in `_hazard_table`).  That linear form serves below
    d = 2^-106 too: 1 - d rounds to 1, and i d is below rounding against
    alpha + 1 + r at every stick i below 2^53 and at the sticks a search
    stops at, near target (alpha + 1) / m, while the gamma-ratio form loses
    its arguments to rounding (z_K overflows near d = 1e-303).  For larger
    d the product over sticks K+1..j telescopes into gamma ratios: with
    X_r = (alpha + r)/d and Y_r = (alpha + 1 - d + r)/d it is
    sum_r [lgamma(Y_r + j + 1) - lgamma(X_r + j + 1)] minus the same at j = K.
    Both arguments exceed K >= 50 here, so each ratio is Stirling's series
    (`_stirling_shift`) in z = Y_r + j + 1 and the shift
    delta = X_r - Y_r = -(1 - d)/d, with the delta log z parts combined into
    delta log1p((j - K) / z_K).
    """
    r = np.arange(m)
    if d < 2.0**-106:
        with np.errstate(divide="ignore"):
            return (j - _TABLE_STICKS) * -np.log1p(-1.0 / (alpha + 1.0 + r)).sum()
    delta = -(1.0 - d) / d
    z_k = (alpha + 1.0 - d + r) / d + _TABLE_STICKS + 1.0
    gap = (j - _TABLE_STICKS)[:, None]
    shifted = _stirling_shift(z_k + gap, delta) - _stirling_shift(z_k, delta)
    return -(delta * np.log1p(gap / z_k) + shifted).sum(axis=1)


def _hazard(alpha: float, d: float, m: int, j: np.ndarray) -> np.ndarray:
    """H_m(j) = -log P(sticks 1..j all miss m observations) for float stick
    indices j >= 0: the cached table up to _TABLE_STICKS, beyond it a closed
    form in gamma ratios from the Stirling kernel of `core`, inf at j = inf."""
    table = _hazard_table(alpha, d, m)
    out = np.full(j.shape, np.inf)
    near = j <= _TABLE_STICKS
    out[near] = table[j[near].astype(np.intp)]
    far = ~near & np.isfinite(j)
    # at tiny alpha + d the closed form's own constants lose every digit and
    # warn, though no search gets past the table there
    if far.any():
        out[far] = table[-1] + _far_hazard(alpha, d, m, j[far])
    return out


def _far_hit_sticks(
    alpha: float, d: float, m: int, start: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Smallest stick j >= start with H_m(j) - H_m(K) > target, for rows whose
    target lies beyond the table: doubling, then bisection, both in log j.

    Squaring the upper end reaches any float in at most seven steps, and
    bisecting log j down to one stick (or one ulp) takes at most about 60.  Indices are float64; a
    row whose hit lies beyond the float range gets j = inf.
    """
    lo = np.maximum(start - 1.0, float(_TABLE_STICKS))  # hazard(lo) <= target
    hi = np.full_like(lo, np.inf)  # hazard(hi) > target
    rows = np.flatnonzero(np.isfinite(lo))
    with np.errstate(over="ignore"):
        while rows.size:
            step = lo[rows] * lo[rows]
            keep = np.isfinite(step)
            rows, step = rows[keep], step[keep]
            past = _far_hazard(alpha, d, m, step) > target[rows]
            hi[rows[past]] = step[past]
            lo[rows[~past]] = step[~past]
            rows = rows[~past]
    rows = np.flatnonzero(np.isfinite(hi))
    while rows.size:
        mid = np.maximum(np.floor(np.sqrt(lo[rows]) * np.sqrt(hi[rows])), lo[rows] + 1.0)
        keep = (mid > lo[rows]) & (mid < hi[rows])
        rows, mid = rows[keep], mid[keep]
        past = _far_hazard(alpha, d, m, mid) > target[rows]
        hi[rows[past]] = mid[past]
        lo[rows[~past]] = mid[~past]
    return hi


def _hit_sizes(d: float, m: int, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """H ~ P(H = h | H >= 1), proportional to C(m, h) (1 - d)_h (b)_(m - h)
    for h = 1..m, built by the ratio of consecutive weights.

    The weight is one contiguous row over the batch, updated in place by each
    ratio, and each running sum adds it to the previous sum's row, one h at a
    time, never with an accumulate along axis 0.  The sizes count the running
    sums at or below the uniform target.  Where b is so small that the last
    ratio overflows, H = m has all the mass to rounding, and the weight inf
    takes all m.
    """
    weight = np.ones(b.size)
    sums = [np.ones(b.size)]
    with np.errstate(over="ignore"):
        for h in range(1, m):
            weight *= (m - h) * (h + 1.0 - d) / (h + 1.0) / (b + (m - h - 1.0))
            sums.append(sums[-1] + weight)
    u = rng.random(b.size) * sums[-1]
    taken = np.ones(b.size, dtype=np.intp)
    for below in sums[:-1]:
        taken += below <= u
    return taken


def _hit_events(
    params: PYParams, n: int, trials: int, rng: np.random.Generator, full_labels: bool
) -> np.ndarray:
    """The batch engine: each row's hit events, stage by stage.

    Stage m takes one hit event for every row with m observations unplaced.
    Its next hit stick J solves H_m(J) > H_m(start - 1) + E with E ~ Exp(1):
    one `searchsorted` on the cached table up to _TABLE_STICKS, a search of
    the closed form beyond it.  Returns float64 labels: the hit sticks J
    (full_labels, inf past the float range) or the hits' ordinals, which
    give the same partition.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    alpha, d = params.alpha, params.d
    remaining = np.full(trials, n)
    start = np.ones(trials)
    events = np.zeros(trials, dtype=np.intp)
    labels = np.zeros((trials, n))
    sizes = np.zeros((trials, n), dtype=np.intp)
    for m in range(n, 0, -1):
        rows = np.flatnonzero(remaining == m)
        if not rows.size:
            continue
        table = _hazard_table(alpha, d, m)
        first = start[rows]
        target = rng.standard_exponential(rows.size)
        target += _hazard(alpha, d, m, first - 1.0)
        hit = np.searchsorted(table, target, side="right").astype(float)
        # beyond the table, the search takes targets relative to H_m(K); a
        # row whose last hit left the float range stays there
        far = hit > _TABLE_STICKS
        hit[far] = _far_hit_sticks(alpha, d, m, first[far], target[far] - table[-1])
        taken = _hit_sizes(d, m, alpha + hit * d, rng) if m > 1 else 1
        slot = events[rows]
        labels[rows, slot] = hit if full_labels else slot + 1
        sizes[rows, slot] = taken
        events[rows] += 1
        remaining[rows] -= taken
        start[rows] = hit + 1.0
    z = np.repeat(labels.ravel(), sizes.ravel()).reshape(trials, n)
    return rng.permuted(z, axis=1, out=z)


def sample_allocations_batch(
    params: PYParams,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact allocation labels for independent trials, one row each.

    Returns a (trials, n) matrix of 1-based stick indices.  Every row has its
    own stick realization shared by its n observations, integrated out, so
    the labels have the exact allocation marginal with no truncation.

    The per-observation stick index is heavy-tailed for d >= 1/2 (survival
    ~ L^(-(1-d)/d)).  Indices are carried as float64, and a batch with any
    index beyond 2^53 raises OverflowError: at d = 0.9 about one observation
    in sixty lands there.  Below 2^53 an index is exact only while the
    inversion of the float hazard H_m(J) resolves single sticks, since its
    per-stick step shrinks like m (1 - d) / (d J).  At d = 0.9 that holds
    below about 1e11 sticks; beyond, a hit can be placed some sticks off
    (seen: up to about 100 in [1e12, 1e14), a few thousand near 2^53).  The
    partition the labels induce does not depend on that placement.  Use
    sample_partition_labels_batch when only the partition matters.
    """
    z = _hit_events(params, n, trials, rng, True)
    if z.max() > _MAX_LABEL:
        raise OverflowError(
            f"a stick index passed 2^53 at alpha={params.alpha}, d={params.d}: "
            "full labels are carried only up to 2^53; use "
            "sample_partition_labels_batch when only the partition matters"
        )
    return z.astype(np.int64)


def sample_partition_labels_batch(
    params: PYParams,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Allocation labels whose equality pattern has the exact induced-partition
    law.

    The same engine as sample_allocations_batch, but each hit is labelled by
    its ordinal within the row, so no label can overflow however far the hit
    stick lies (at d = 0.9 most of the tail is beyond 2^53).  Only the
    equality pattern of the returned labels is meaningful.
    """
    return _hit_events(params, n, trials, rng, False).astype(np.int64)


def stickbreak_sample_partition(
    params: PYParams, n: int, rng: np.random.Generator
) -> Partition:
    """Partition of [n] from one row of sample_partition_labels_batch.

    Exact at every admissible (alpha, d), with no stick cap.  Each call pays
    the engine's set-up, so draw many partitions with
    sample_partition_labels_batch or harness.run_monte_carlo.
    """
    return partition_from_allocations(sample_partition_labels_batch(params, n, 1, rng)[0].tolist())
