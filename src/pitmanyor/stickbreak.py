"""Stick-breaking construction: beta stick sampling and exact lazy allocation.

The i-th stick fraction (1-based) is Beta(1 - d, alpha + i d); its weight is
the fraction times the mass left unbroken by earlier sticks.  Allocation draws
walk the realized prefix sums and extend the stick sequence on demand, so
finite-dimensional samples are exact: there is no truncation level and hence
no truncation bias.

Every beta and gamma variate comes from numpy's ``Generator`` (``beta`` and
``standard_gamma``), so a seed maps to one stream whatever optional packages
are importable.

The tail work is genuinely heavy for d >= 1/2: the stick index of a single
observation has survival ~ L^(-(1-d)/d), so its expected value is infinite
and occasional draws need enormous extensions.  The scalar sampler keeps the
hard stick cap as a loud diagnostic.  For partition sampling at Monte Carlo
scale, sample_partition_labels_batch stops a row as soon as at most one of
its observations is uncovered: a lone straggler occupies some stick beyond
everything realized and is therefore a singleton block of the partition no
matter which far stick it is, so stopping there is exact for the induced
partition while squaring the tail exponent of the per-trial work.
"""

from bisect import bisect_right

import numpy as np

from .constants import PARTITION_STICK_CAP, STICK_CAP
from .core import Partition, PYParams, partition_from_allocations

__all__ = [
    "StickState",
    "beta_sample",
    "gamma_sample",
    "extend_sticks",
    "sample_allocations",
    "sample_allocations_batch",
    "sample_partition_labels_batch",
    "stickbreak_sample_partition",
]

# active-rows x chunk-width ceiling for one vectorized extension
_MAX_CHUNK_ELEMENTS = 1 << 22


class StickState:
    """Lazily realized sticks of one draw of the random weights.

    v holds the beta fractions, pi the weights pi_j = v_j * prod_{i<j}(1-v_i),
    residual the unbroken remainder prod_i (1-v_i).  A running prefix sum of
    pi backs the inverse-cdf walk.  Instances are mutable and single-threaded;
    run independent instances with independent streams for parallel work.
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


def gamma_sample(shape: float, rng: np.random.Generator, size: int | None = None):
    """Gamma(shape, 1) variates from ``rng.standard_gamma``; scalar when size is None."""
    if not shape > 0.0:
        raise ValueError(f"gamma shape must be positive, got {shape}")
    out = rng.standard_gamma(shape, size)
    return float(out) if size is None else out


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


def stickbreak_sample_partition(
    params: PYParams, n: int, rng: np.random.Generator
) -> Partition:
    """Partition of [n] induced by grouping equal allocation labels."""
    return partition_from_allocations(sample_allocations(params, n, rng))


def _extend_block(
    params: PYParams,
    n_rows: int,
    realized: int,
    width: int,
    residual: np.ndarray,
    coverage: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw `width` more sticks for each of n_rows rows (all rows share the
    same global stick positions realized+1 .. realized+width).  Returns the
    rows' new prefix-sum block and their updated residual and coverage."""
    b_row = params.alpha + params.d * np.arange(realized + 1, realized + width + 1)
    v = rng.beta(1.0 - params.d, b_row, size=(n_rows, width))
    keep = np.cumprod(1.0 - v, axis=1)
    # prefix sums telescope: sum of the chunk's weights up to column c equals
    # residual * (1 - prod_{c' <= c} (1 - v))
    prefix = coverage[:, None] + residual[:, None] * (1.0 - keep)
    return prefix, residual * keep[:, -1], prefix[:, -1]


def _vectorized_batch(params, n, targets, stops, rng, stick_cap):
    trials = targets.shape[0]
    z = np.ones((trials, n), dtype=np.int64)
    active = np.arange(trials)
    residual = np.ones(trials)
    coverage = np.zeros(trials)
    realized = 0
    width = 4
    while active.size:
        if realized >= stick_cap:
            raise RuntimeError(
                f"stick extension exceeded the cap of {stick_cap} "
                f"with {active.size} trials unfinished"
            )
        width = min(width, stick_cap - realized)
        prefix, residual, coverage = _extend_block(
            params, active.size, realized, width, residual, coverage, rng
        )
        for j in range(n):
            z[active, j] += (prefix < targets[active, j, None]).sum(axis=1)
        realized += width
        unfinished = coverage <= stops[active]
        active = active[unfinished]
        residual = residual[unfinished]
        coverage = coverage[unfinished]
        width = min(width * 2, max(1, _MAX_CHUNK_ELEMENTS // max(1, active.size)))
    return z


def _lazy_batch(params, n, trials, rng, partition_mode, stick_cap):
    """Shared engine: extend each row until its stop target is covered, while
    recording the first stick whose prefix sum reaches each observation target.

    In partition mode the stop target is the row's second-largest draw, so an
    observation can be left uncovered; it gets the first unrealized index.

    The walk is a vectorized active-set sweep: unfinished rows draw their
    next chunk of sticks together, in chunks that double from four columns.
    """
    targets = rng.random((trials, n))
    if partition_mode:
        if n == 1:
            stops = np.full(trials, -np.inf)
        else:
            stops = np.sort(targets, axis=1)[:, -2]
    else:
        stops = targets.max(axis=1)
    return _vectorized_batch(params, n, targets, stops, rng, stick_cap)


def sample_allocations_batch(
    params: PYParams,
    n: int,
    trials: int,
    rng: np.random.Generator,
    stick_cap: int = STICK_CAP,
) -> np.ndarray:
    """Vectorized sample_allocations across independent trials.

    Returns a (trials, n) matrix of 1-based stick indices.  Every row has its
    own stick realization shared by its n observations; rows are extended in
    growing column chunks until all their observations are covered, so the
    lazy-extension law holds exactly with no truncation.

    The per-observation stick index is heavy-tailed for d >= 1/2 (survival
    ~ L^(-(1-d)/d)), so large runs can legitimately exceed the default cap;
    raise stick_cap when full label resolution at scale is really needed, or
    use sample_partition_labels_batch when only the partition matters.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return _lazy_batch(params, n, trials, rng, False, stick_cap)


def sample_partition_labels_batch(
    params: PYParams,
    n: int,
    trials: int,
    rng: np.random.Generator,
    stick_cap: int = PARTITION_STICK_CAP,
) -> np.ndarray:
    """Allocation labels whose equality pattern has the exact induced-partition
    law, at far lower cost than full label resolution.

    A row stops extending once at most one of its observations is uncovered:
    every other observation holds a realized stick, so the lone straggler sits
    on some stick beyond all of them -- a singleton block of the partition no
    matter which -- and it keeps the first unrealized index as its label.
    Rows therefore only extend until their second-largest target is covered,
    which squares the tail exponent of the per-trial work and makes million-
    draw runs feasible even at d = 0.7.  Only the equality pattern of the
    returned labels is meaningful.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return _lazy_batch(params, n, trials, rng, True, stick_cap)
