"""Stick-breaking construction: exact allocation draws with the sticks integrated out.

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
read through `_hazard` (shared with `marginal.truncated_label_mass`) and
inverted on its cached table by a guide table of equal hazard buckets, which
finds the crossing with one comparison for most rows.  Which
observations a hit takes is uniform, so each hit takes the row's next
unplaced columns, in hit order, and each row is permuted once at the end.
The engine keeps its labels position-major, one contiguous array row per
observation: a hit is written once, in its first column, and one fill
forward carries it over the rest.  A row takes at most n hit events,
whatever the tail, so there is no truncation level and no stick cap.  The
scalar `stickbreak_sample_partition` is a one-row call of this engine.

The partition is which observations share a stick, not the sticks' indices:
a hit stick J reaches it only through the hit size's b = alpha + J d and the
next search's start H_m(J).  So partition mode searches for J only while
m >= 2 observations are unplaced and d > 0.  At m = 1 the last observation
opens a block of size 1, and at d = 0 (the Dirichlet case) b = alpha
whatever J is.  A skipped search still draws its Exp(1) target, so both
modes draw one stream.

Every variate comes from numpy's ``Generator``, so a seed maps to one stream
whatever optional packages are importable.
"""

from functools import lru_cache

import numpy as np

from .core import Partition, PYParams, _stirling_shift, partition_from_allocations

__all__ = [
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
# buckets of the guide that inverts each hazard table, and the hazard it spans
# at most: a target is Exp(1) past the row's last hit, so few lie beyond
_GUIDE_BUCKETS = 1 << 12
_GUIDE_RANGE = 64.0


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
    x = alpha + 1.0 - d + np.arange(1, _TABLE_STICKS + 1) * d
    per_stick = np.zeros(_TABLE_STICKS)
    with np.errstate(divide="ignore"):
        for r in range(m):
            per_stick -= np.log1p(-(1.0 - d) / (x + r))
    table = np.concatenate(([0.0], np.cumsum(per_stick)))
    table.flags.writeable = False
    return table


def _bucket(x: np.ndarray, scale: float) -> np.ndarray:
    """The guide bucket min(floor(x scale), _GUIDE_BUCKETS) of hazards
    x >= 0, inf included: one float map for the guide's entries and for the
    targets it looks up."""
    return np.minimum(x * scale, float(_GUIDE_BUCKETS)).astype(np.intp)


# a guide is 8 KB, so its cache keeps every stage's guide up to n = 256
# (2 MB) where `_hazard_table`'s keeps 32 tables: past n = 32 a batch
# rebuilds its tables but not their guides
@lru_cache(maxsize=256)
def _hazard_guide(alpha: float, d: float, m: int) -> tuple[float, np.ndarray]:
    """Guide table (Chen and Asau 1974; Devroye 1986, III.2.4) that inverts
    `_hazard_table(alpha, d, m)`: returns (scale, start).

    Under `_bucket`, the scale splits [0, min(H_m(K), _GUIDE_RANGE)],
    K = _TABLE_STICKS, into _GUIDE_BUCKETS equal buckets and puts every
    hazard past it in one more.  Since `_bucket` never decreases, a target in
    bucket b has its first crossing between s_b and s_(b+1), where s_b counts
    the table entries in lower buckets.  Where bucket b holds at most one
    entry, start[b] = s_b, and one comparison with entry s_b decides (capped
    at K, whose entry then lies below the target); start[b] = -1 marks a
    crowded bucket.  The span is at least 2^-1000, which keeps the scale
    finite where every hazard rounds to nearly 0.
    """
    table = _hazard_table(alpha, d, m)
    scale = _GUIDE_BUCKETS / max(min(table[-1], _GUIDE_RANGE), 2.0**-1000)
    counts = np.bincount(_bucket(table, scale), minlength=_GUIDE_BUCKETS + 1)
    start = np.minimum(np.cumsum(counts) - counts, _TABLE_STICKS).astype(np.int16)
    start[counts > 1] = -1
    start.flags.writeable = False
    return scale, start


def _near_hits(alpha: float, d: float, m: int, target: np.ndarray) -> np.ndarray:
    """np.searchsorted(_hazard_table(alpha, d, m), target, side="right")
    through the guide: one comparison per target in an uncrowded bucket, one
    `searchsorted` over the rest."""
    table = _hazard_table(alpha, d, m)
    scale, start = _hazard_guide(alpha, d, m)
    # int16 keeps a guide at 8 KB, but numpy gathers fastest by intp; a
    # crowded bucket's -1 reads the last entry, and its rows are redone below
    lo = start[_bucket(target, scale)].astype(np.intp)
    hit = lo + (table[lo] <= target)
    crowded = np.flatnonzero(lo < 0)
    hit[crowded] = np.searchsorted(table, target[crowded], side="right")
    return hit


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
    form in gamma ratios from the Stirling kernel of `core`, inf at j = inf
    and past a table that ends at inf (the hazard never decreases)."""
    table = _hazard_table(alpha, d, m)
    out = np.full(j.shape, np.inf)
    near = j <= _TABLE_STICKS
    out[near] = table[j[near].astype(np.intp)]
    far = ~near & np.isfinite(j)
    # at tiny alpha + d the closed form's own constants lose every digit and
    # warn, though no search gets past the table there
    if far.any() and table[-1] < np.inf:
        out[far] = table[-1] + _far_hazard(alpha, d, m, j[far])
    return out


def _far_hit_sticks(
    alpha: float, d: float, m: int, prev: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Smallest stick j > prev with H_m(j) - H_m(K) > target, for rows whose
    target lies beyond the table, where H_m(prev) - H_m(K) <= target: one
    bracketing loop in log j, which squares a row's upper end while it is
    infinite and bisects once it is finite.

    Squaring reaches any float in at most seven steps, and bisecting log j
    down to one stick (or one ulp) takes at most about 60.  Indices are
    float64; a row whose hit lies beyond the float range gets j = inf.  So
    does every row where the gamma-ratio form's largest z_K overflows (alpha
    past about 1e308 d, with d >= 2^-106), which leaves that form no finite
    argument: those hits lie near E alpha / m sticks, far past 2^53.
    """
    lo = np.maximum(prev, float(_TABLE_STICKS))  # hazard(lo) <= target
    hi = np.full_like(lo, np.inf)  # hazard(hi) > target
    finite_z_k = d < 2.0**-106 or (alpha + 1.0 - d + (m - 1)) / d + _TABLE_STICKS + 1.0 < np.inf
    rows = np.flatnonzero(np.isfinite(lo) & finite_z_k)
    with np.errstate(over="ignore"):
        while rows.size:
            below, above = lo[rows], hi[rows]
            bisect = np.maximum(np.floor(np.sqrt(below) * np.sqrt(above)), below + 1.0)
            mid = np.where(above < np.inf, bisect, below * below)
            keep = (mid > below) & (mid < above)
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
    Its next hit stick J solves H_m(J) > H_m(prev) + E with E ~ Exp(1), where
    prev is the row's last hit stick (0 before its first hit):
    `_near_hits` on the cached table up to _TABLE_STICKS, a search of the
    closed form beyond it.  Labels are kept in an (n, trials) array z, and
    each event writes one value into z[n - m], its row's first unplaced
    column: the hit stick J (full_labels, inf past the float range) or 1.0.
    After the last stage a fill forward over the columns spreads each event
    over the columns it took, as a running maximum of the increasing hit
    sticks or as a running sum, the hits' ordinals, which give the same
    partition.  Returns the float64 labels as the Fortran-ordered
    (trials, n) view z.T, each row permuted in place.

    Without full_labels no J is searched for where it cannot change the
    partition: at m = 1, whose hit takes the last observation, and at every
    stage at d = 0, where the hit size's b = alpha + J d is alpha.  Such a
    stage still draws its targets, so both modes leave the generator in one
    state, and row for row they give the same partition.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    alpha, d = params.alpha, params.d
    remaining = np.full(trials, n)
    prev = np.zeros(trials)
    z = np.zeros((n, trials))
    for m in range(n, 0, -1):
        rows = np.flatnonzero(remaining == m)
        if not rows.size:
            continue
        target = rng.standard_exponential(rows.size)
        # a partition sees J only through b = alpha + J d and the next
        # stage's start, so it skips the search at m = 1 and at d = 0
        if full_labels or (m > 1 and d > 0):
            table = _hazard_table(alpha, d, m)
            last = prev[rows]
            target += _hazard(alpha, d, m, last)
            hit = _near_hits(alpha, d, m, target).astype(float)
            # beyond the table, the search takes targets relative to H_m(K); a
            # row whose last hit left the float range stays there.  Most stages
            # of a light tail have no such row, and skip the search's set-up
            far = hit > _TABLE_STICKS
            if far.any():
                hit[far] = _far_hit_sticks(alpha, d, m, last[far], target[far] - table[-1])
            prev[rows] = hit
        taken = 1
        if m > 1:
            # at d = 0, b = alpha even for a hit at inf, where inf * 0 is NaN
            b = alpha + hit * d if d > 0 else np.full(rows.size, alpha)
            taken = _hit_sizes(d, m, b, rng)
        z[n - m][rows] = hit if full_labels else 1.0
        remaining[rows] -= taken
    # a row loop of contiguous ufuncs: an accumulate along either axis of z
    # costs about 40 times as much at n = 4
    fill = np.maximum if full_labels else np.add
    for p in range(1, n):
        fill(z[p], z[p - 1], out=z[p])
    return rng.permuted(z.T, axis=1, out=z.T)


def sample_allocations_batch(
    params: PYParams,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact allocation labels for independent trials, one row each.

    Returns a (trials, n) int64 matrix of 1-based stick indices, stored in
    Fortran (column-major) order; a caller that needs a C-ordered buffer
    calls np.ascontiguousarray.  Every row has its own stick realization
    shared by its n observations, integrated out, so the labels have the
    exact allocation marginal with no truncation.

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

    Returns a (trials, n) int64 matrix in Fortran (column-major) order, as
    sample_allocations_batch does.  The same engine, but each hit is labelled
    by its ordinal within the row, so no label can overflow however far the hit
    stick lies (at d = 0.9 most of the tail is beyond 2^53).  Only the
    equality pattern of the returned labels is meaningful.  Since the
    partition depends on a hit stick only through the next hit's size, the
    engine skips the stick search for each row's last observation and, at
    d = 0, for every hit; the generator ends in the state
    sample_allocations_batch leaves, and each row gives the same partition.
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
