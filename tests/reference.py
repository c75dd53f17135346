"""Independent scalar references for the two sampling routes.

The package samples each route with one batch engine.  These per-draw loops
are what the tests compare the engines against: the stick walk is the only
code that realizes the paper's stick fractions, and the seating loop applies
the restaurant rule one observation at a time.  Both are cheap per draw, so
the frequency tests that take tens of thousands of draws run them.
`restricted_growth` writes a partition as the first-appearance label string
that the restaurant sampler returns, for comparing the two.
"""

from bisect import bisect_right

import numpy as np

from pitmanyor.core import Partition, PYParams, partition_from_allocations
from pitmanyor.stickbreak import beta_sample

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
