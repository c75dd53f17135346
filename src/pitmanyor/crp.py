"""Sequential (restaurant-style) sampling view of the partition law.

The one-step predictive rule is defined as the ratio of partition-law values
before and after seating the next observation, not taken on authority; the
sequential-product identity test pins it to the exact law.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import LogProb, Partition, PYParams, _partition_table, partition_from_allocations

__all__ = [
    "SeatingState",
    "crp_predictive",
    "crp_sample_partition",
    "sequential_log_prob",
    "sample_label_matrix",
]


@dataclass(frozen=True)
class SeatingState:
    """Sizes of currently occupied blocks, in the order they were opened."""

    block_sizes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for s in self.block_sizes:
            if not isinstance(s, int) or s < 1:
                raise ValueError(f"block sizes must be integers >= 1, got {s!r}")

    @property
    def n_seated(self) -> int:
        return sum(self.block_sizes)

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)


def crp_predictive(params: PYParams, state: SeatingState) -> np.ndarray:
    """Probabilities for the next observation: one entry per open block plus a
    final entry for opening a new block.

    Existing block j gets (size_j - d) / (alpha + n); a new block gets
    (alpha + k d) / (alpha + n).  The entries sum to one analytically since
    the block weights total n - k d.  The very first observation always opens
    a block, so the empty state returns [1.0].
    """
    k = state.n_blocks
    if k == 0:
        return np.array([1.0])
    denom = params.alpha + state.n_seated
    out = np.empty(k + 1)
    out[:k] = (np.asarray(state.block_sizes, dtype=float) - params.d) / denom
    out[k] = (params.alpha + k * params.d) / denom
    return out


def crp_sample_partition(params: PYParams, n: int, rng: np.random.Generator) -> Partition:
    """Draw one partition of [n] by seating observations 1..n sequentially.

    Identical seeds yield identical partitions.
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


def _seating_events(partition: Partition) -> list[int]:
    """Event code of each step i = 2..n of seating observations 1..n into
    their blocks of `partition`: k - 1 when observation i opens block k + 1
    (k blocks already open), n - 2 + s when it joins a block already holding
    s.  Each code indexes the numerator table of `_sequential_log_probs`.

    Because canonical blocks are ordered by least element, the canonical block
    order coincides with opening order along the walk.
    """
    n = partition.n
    block_of: dict[int, int] = {}
    for b, block in enumerate(partition.blocks):
        for e in block:
            block_of[e] = b
    seen_sizes = [0] * partition.num_blocks
    codes = []
    for i in range(1, n + 1):
        b = block_of[i]
        # the first observation opens its block with probability one
        if i > 1:
            codes.append(b - 1 if seen_sizes[b] == 0 else n - 2 + seen_sizes[b])
        seen_sizes[b] += 1
    return codes


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


_SEATING_CODES: dict[int, np.ndarray] = {}


def _table_sequential_log_probs(params: PYParams, n: int) -> np.ndarray:
    """`sequential_log_prob(params, C)` for every C of `_partition_table(n)`,
    in table order.  The event codes are built once per process and kept
    read-only."""
    table = _partition_table(n)  # validates n
    codes = _SEATING_CODES.get(n)
    if codes is None:
        codes = np.array([_seating_events(C) for C in table], dtype=np.intp)
        codes = codes.reshape(len(table), n - 1)
        codes.flags.writeable = False
        _SEATING_CODES[n] = codes
    return _sequential_log_probs(params, codes)


def sequential_log_prob(params: PYParams, partition: Partition) -> LogProb:
    """log of the product of one-step predictive probabilities accumulated by
    seating observations 1, ..., n into their blocks of `partition`.

    A one-row call of the evaluator that `verify` runs over whole partition
    tables, so the scalar and table values agree bit for bit.
    """
    codes = np.array([_seating_events(partition)], dtype=np.intp)
    return float(_sequential_log_probs(params, codes)[0])


def sample_label_matrix(
    params: PYParams, n: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized restaurant sampler across independent trials.

    Returns a (trials, n) integer matrix whose rows are 0-based block labels
    in first-appearance order (a restricted growth string per row).  Row
    distributions match crp_sample_partition exactly; trials only share the
    random stream.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    alpha, d = params.alpha, params.d
    labels = np.zeros((trials, n), dtype=np.int64)
    counts = np.zeros((trials, n), dtype=float)
    counts[:, 0] = 1.0
    k = np.ones(trials, dtype=np.int64)
    rows = np.arange(trials)
    for i in range(1, n):
        w = counts[:, : i + 1] - d * (counts[:, : i + 1] > 0)
        np.put_along_axis(w, k[:, None], (alpha + k * d)[:, None], axis=1)
        csum = np.cumsum(w, axis=1)
        target = rng.random(trials) * (alpha + i)
        choice = (csum < target[:, None]).sum(axis=1)
        np.minimum(choice, k, out=choice)  # guard against rounding past the new-block column
        opened = choice == k
        labels[:, i] = choice
        counts[rows, choice] += 1.0
        k += opened
    return labels
