"""Sequential (restaurant-style) sampling view of the partition law.

Observation i + 1 joins an open block of size s with probability
(s - d) / (alpha + i), or opens block k + 1 with probability
(alpha + k d) / (alpha + i).  `sample_label_matrix` seats every row of a
batch step by step, summing the weights of the open blocks only: a target
past every open block's sum means a new block, so the new block's weight is
never written.  The scalar `crp_sample_partition` is its one-row call.
`sequential_log_prob` multiplies the same one-step probabilities along a
given partition, and the sequential-product identity test pins that product
to the exact law.
"""

import math

import numpy as np

from .core import LogProb, Partition, PYParams, _growth_strings, _per_n_table

__all__ = [
    "crp_sample_partition",
    "sequential_log_prob",
    "sample_label_matrix",
]

# columns `sample_label_matrix` seats together: up to n = 10 or so, a tile's
# weights, sizes, labels and row temporaries stay in a 2 MB L2 cache through
# all of its steps, and a step reads only the weight rows of the tile's open
# blocks
_TILE = 4096


def crp_sample_partition(params: PYParams, n: int, rng: np.random.Generator) -> Partition:
    """Partition of [n] from one row of sample_label_matrix.

    Identical seeds yield identical partitions.  Each call pays the batch
    sampler's set-up, so draw many partitions with sample_label_matrix or
    harness.run_monte_carlo.
    """
    return Partition(tuple(sample_label_matrix(params, n, 1, rng)[0].tolist()))


def _seating_codes(z: np.ndarray) -> np.ndarray:
    """Event code of each step i = 2..n of seating observations 1..n, for
    each row of a (rows, n) restricted-growth-string matrix z: k - 1 when
    observation i opens block k + 1 (k blocks already open, so z_i = k),
    n - 2 + s when it joins a block already holding s.  Each code indexes
    the numerator table of `_sequential_log_probs`.
    """
    n = z.shape[1]
    earlier = np.arange(n)[:, None] > np.arange(n)  # [i, j]: j comes before i
    held = ((z[:, 1:, None] == z[:, None, :]) & earlier[1:]).sum(axis=2)
    return np.where(held == 0, z[:, 1:] - 1, n - 2 + held)


def _sequential_log_probs(params: PYParams, codes: np.ndarray) -> np.ndarray:
    """Sequential log-product of each row of a (rows, n - 1) event-code array.

    Step i adds log(alpha + k d) on opening block k + 1, or log(s - d) on
    joining a block of size s, then subtracts log(alpha + i - 1).  The logs
    come from one table per call, written as the per-step walk writes them,
    and `np.add.accumulate` adds each row's terms one at a time in the walk's
    order, so every row is bit-identical to that walk.
    """
    rows, steps = codes.shape
    n = steps + 1
    alpha, d = params.alpha, params.d
    numerators = [math.log(alpha + k * d) for k in range(1, n)]
    numerators += [math.log(s - d) for s in range(1, n)]
    terms = np.zeros((rows, 2 * n - 1))
    terms[:, 1::2] = np.array(numerators)[codes]
    terms[:, 2::2] = [-math.log(alpha + i - 1) for i in range(2, n + 1)]
    return np.add.accumulate(terms, axis=1)[:, -1]


@_per_n_table
def _table_seating_codes(n: int) -> np.ndarray:
    """The seating codes of `_growth_strings(n)`, read-only."""
    codes = _seating_codes(_growth_strings(n))
    codes.flags.writeable = False
    return codes


def _table_sequential_log_probs(params: PYParams, n: int) -> np.ndarray:
    """`sequential_log_prob(params, C)` for every C of `_partition_table(n)`,
    in table order."""
    return _sequential_log_probs(params, _table_seating_codes(n))


def sequential_log_prob(params: PYParams, partition: Partition) -> LogProb:
    """log of the product of one-step predictive probabilities accumulated by
    seating observations 1, ..., n into their blocks of `partition`.

    A one-row call of the evaluator that `verify` runs over whole partition
    tables, on the partition's own growth string, so the scalar and table
    values agree bit for bit at any n.
    """
    z = np.array([partition.z], dtype=np.intp)
    return float(_sequential_log_probs(params, _seating_codes(z))[0])


def sample_label_matrix(
    params: PYParams, n: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized restaurant sampler across independent trials.

    Returns a (trials, n) integer matrix whose rows are 0-based block labels
    in first-appearance order (a restricted growth string per row).  Trials
    only share the random stream.  crp_sample_partition is row 0 of a
    one-row call.

    The uniforms are drawn once, as (n - 1, trials): row i - 1 seats
    observation i + 1 of every trial, and the block holds what n - 1 calls
    of rng.random(trials) would return.  Trials are then seated tile-major,
    in column tiles of _TILE: all n - 1 steps of one tile run before the
    next tile starts, so the tile's state stays in cache from step to step.
    `_seat_tile` seats one tile on contiguous rows of the tile's width, and
    a step sums only the tile's open blocks, so a tile costs O(n K), K its
    largest block count, not O(n^2).  The result is a transposed view.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    uniforms = rng.random((n - 1, trials))
    labels = np.zeros((n, trials), dtype=np.int64)
    for lo in range(0, trials, _TILE):
        _seat_tile(params.alpha, params.d, uniforms[:, lo:lo + _TILE], labels[:, lo:lo + _TILE])
    return labels.T


def _seat_tile(alpha: float, d: float, uniforms: np.ndarray, labels: np.ndarray) -> None:
    """Seat one tile of trials: fill rows 1.. of the (n, width) label view
    from the (n - 1, width) uniforms.

    The seating weight of each row (s - d for an open block of size s, 0
    past a column's k open blocks) is state updated in place: only each
    column's chosen row changes per step, to 1 - d when it opens a block.
    The running sum of the weights is taken one row at a time, never with an
    accumulate along axis 0, adding in block order as the per-draw loop
    does, over rows 0..K - 1 only, K the tile's largest k; the choice counts
    the rows whose running sum is still below the target.  The new block's
    weight alpha + k d is never needed: a column's sums never decrease, and
    its rows from k on repeat its last open block's sum, so if that sum is
    below the target every row counts and the clamp to k picks the new
    block, as it would with the new-block row summed; otherwise no row from
    k on counts.
    """
    n, width = labels.shape
    # block sizes and seating weights; the gathers and scatters take flat
    # indices row * width + column, a third of the cost of a 2-D fancy index
    counts = np.zeros(n * width)
    counts[:width] = 1.0
    w = np.zeros((n, width))
    w[0] = 1.0 - d
    flat_w = w.reshape(-1)
    k = np.ones(width, dtype=np.int64)
    cols = np.arange(width)
    for i in range(1, n):
        target = uniforms[i - 1] * (alpha + i)
        run = w[0].copy()
        choice = labels[i]
        choice[:] = run < target
        for r in range(1, int(k.max())):
            run += w[r]
            choice += run < target
        np.minimum(choice, k, out=choice)  # every open block's sum below the target: a new block
        seat = choice * width + cols
        seated = counts[seat] + 1.0
        counts[seat] = seated
        flat_w[seat] = seated - d
        k += choice == k
