"""Monte Carlo experiments, comparison metrics, and partition text I/O.

Trials run in fixed-size vectorized batches whose random streams are spawned
from the base seed, one child stream per batch.  A batch's output depends
only on its own stream, and results are merged in batch order, so every
experiment is bit-reproducible for a given seed whether batches run serially
or on a process pool.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

# enumerate_partitions stays importable from here: the benchmark's worker
# reads harness.enumerate_partitions
from .core import (
    Partition,
    PYParams,
    _partition_table,
    enumerate_partitions,  # noqa: F401
    partition_from_allocations,
)
from .crp import sample_label_matrix
from .eppf import MAX_NORMALIZATION_N, eppf_log_prob
from .stickbreak import sample_partition_labels_batch

__all__ = [
    "SAMPLERS",
    "EmpiricalPartitionDist",
    "GrowthRecord",
    "format_partition",
    "parse_partition",
    "sample_partitions",
    "run_monte_carlo",
    "tv_distance",
    "growth_experiment",
    "MAX_GROWTH_N",
]

SAMPLERS = ("stick", "crp")
BATCH_TRIALS = 1 << 15
MAX_GROWTH_N = 100_000
# uniforms per block of the growth chain (1 MiB of float64): long enough to
# amortise the per-block calls, small enough to leave peak memory alone
_GROWTH_BLOCK_ELEMENTS = 1 << 17


def format_partition(partition: Partition) -> str:
    """Render canonical text: blocks joined by '|', elements by ','  (e.g. '1,3|2')."""
    return "|".join(",".join(str(e) for e in block) for block in partition.blocks)


def parse_partition(text: str) -> Partition:
    """Parse the '1,3|2' format, canonicalize, and validate the cover of 1..n."""
    blocks = []
    for chunk in text.split("|"):
        elems = []
        for token in chunk.split(","):
            token = token.strip()
            if not token:
                raise ValueError(f"empty element in partition spec {text!r}")
            try:
                elems.append(int(token))
            except ValueError:
                raise ValueError(f"bad element {token!r} in partition spec {text!r}") from None
        blocks.append(elems)
    return Partition.from_blocks(blocks)


@dataclass(frozen=True)
class EmpiricalPartitionDist:
    """Frequency table of sampled partitions, keyed by canonical partition."""

    counts: dict[Partition, int]
    trials: int
    seed: int
    params: PYParams
    sampler: str
    n: int

    def freq(self, partition: Partition) -> float:
        return self.counts.get(partition, 0) / self.trials


def _partition_codes(z: np.ndarray) -> np.ndarray:
    """One int64 per row of a label matrix, equal for two rows exactly when
    they give the same partition.

    Column j of a row contributes first[j], the first column holding the
    label of column j, as the j-th base-n digit (most significant first).
    Label values never enter, so any labels work, and the codes sort like
    the rows' restricted growth strings.  n <= 10 keeps them below 10^10.
    """
    n = z.shape[1]
    first = (z[:, :, None] == z[:, None, :]).argmax(axis=2)
    return first @ n ** np.arange(n - 1, -1, -1)


def _code_partitions(codes: np.ndarray, n: int) -> list[Partition]:
    """Partitions of [n] for codes from `_partition_codes`: the digits of a
    code are an allocation vector of its partition."""
    digits = codes[:, None] // n ** np.arange(n - 1, -1, -1) % n + 1
    return [partition_from_allocations(row) for row in digits.tolist()]


def _batch_jobs(params, n, trials, sampler, seed):
    """One job per batch of the plan, each with its own spawned stream."""
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
    if n > MAX_NORMALIZATION_N:
        raise ValueError(f"n must be at most {MAX_NORMALIZATION_N}, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n_batches = -(-trials // BATCH_TRIALS)
    children = np.random.SeedSequence(seed).spawn(n_batches)
    sizes = [BATCH_TRIALS] * (n_batches - 1)
    sizes.append(trials - BATCH_TRIALS * (n_batches - 1))
    return [(params, n, size, sampler, child) for child, size in zip(children, sizes)]


def _batch_codes(job) -> np.ndarray:
    """Partition codes of one batch, sampled from the batch's own stream."""
    params, n, size, sampler, child = job
    rng = np.random.default_rng(child)
    if sampler == "stick":
        labels = sample_partition_labels_batch(params, n, size, rng)
    else:
        labels = sample_label_matrix(params, n, size, rng)
    return _partition_codes(labels)


def _batch_tally(job):
    return np.unique(_batch_codes(job), return_counts=True)


def sample_partitions(
    params: PYParams, n: int, trials: int, sampler: str, seed: int
) -> list[Partition]:
    """Sampled partitions in sampling order; deterministic for a given seed."""
    out: list[Partition] = []
    for job in _batch_jobs(params, n, trials, sampler, seed):
        codes, inverse = np.unique(_batch_codes(job), return_inverse=True)
        parts = _code_partitions(codes, n)
        out.extend(parts[i] for i in inverse.tolist())
    return out


def run_monte_carlo(
    params: PYParams, n: int, trials: int, sampler: str, seed: int, workers: int | None = None
) -> EmpiricalPartitionDist:
    """Tabulate sampled partitions of [n]; n is capped so the frequency table
    stays comparable against exhaustive enumeration.  Keys come in the order
    of their restricted growth strings.

    Batches are distributed over a process pool (`workers` defaults to the
    CPU count).  Each batch depends only on its own spawned stream and merge
    order is fixed, so the result is identical however batches are scheduled.
    """
    jobs = _batch_jobs(params, n, trials, sampler, seed)
    if workers is None:
        workers = min(os.cpu_count() or 1, len(jobs))
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(_batch_tally, jobs))
    else:
        tallies = [_batch_tally(job) for job in jobs]
    codes, inverse = np.unique(np.concatenate([c for c, _ in tallies]), return_inverse=True)
    totals = np.bincount(inverse, weights=np.concatenate([k for _, k in tallies]))
    counts = dict(zip(_code_partitions(codes, n), totals.astype(np.int64).tolist()))
    return EmpiricalPartitionDist(counts, trials, seed, params, sampler, n)


def tv_distance(emp: EmpiricalPartitionDist, params: PYParams | None = None) -> float:
    """Total variation distance between the empirical table and the exact law:
    half the L1 gap summed over every partition of [n], sampled or not.

    `params` defaults to the parameters the table was sampled under and, if
    given, must match them; comparing a table against a different law is
    almost always a bug.
    """
    if params is None:
        params = emp.params
    elif params != emp.params:
        raise ValueError(
            f"parameter mismatch: table sampled under {emp.params}, asked for {params}"
        )
    if emp.n > MAX_NORMALIZATION_N:
        raise ValueError(f"n must be at most {MAX_NORMALIZATION_N}, got {emp.n}")
    gap = 0.0
    for partition in _partition_table(emp.n):
        exact = math.exp(eppf_log_prob(params, partition))
        gap += abs(emp.counts.get(partition, 0) / emp.trials - exact)
    return 0.5 * gap


@dataclass(frozen=True)
class GrowthRecord:
    """Monte Carlo mean block count at one sample size."""

    n: int
    mean_kn: float
    se: float
    trials: int


def growth_experiment(
    params: PYParams, n_grid: list[int], trials: int, seed: int
) -> tuple[list[GrowthRecord], float]:
    """Mean block count along n_grid, plus the least-squares slope of
    log(mean) against log(n) fitted on the upper half of the grid (the lower
    half is dropped to reduce pre-asymptotic bias).

    Only the block-count chain is simulated: under the sequential predictive
    the chance of opening block k+1 after i observations is
    (alpha + k d)/(alpha + i), which depends on the state only through the
    block count, so the chain has exactly the law of the block count of a
    full restaurant run (the tests cross-check this against the full
    sampler).  That keeps the experiment cheap at n = 10^5.

    The uniforms come in blocks of rows, one row of `trials` per step and at
    most `_GROWTH_BLOCK_ELEMENTS` per block, and a block never runs past a
    grid point.  A (rows, trials) draw is the same stream as `rows` draws of
    `trials`, so the blocks change no output.  At d = 0 the chance is
    alpha/(alpha + i) whatever the state, so a whole block is one comparison
    and a column sum; at d > 0 the rows are applied one step at a time.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    grid = list(n_grid)
    if len(grid) < 1 or any(not isinstance(v, int) or v < 1 for v in grid):
        raise ValueError(f"degenerate grid {n_grid!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"grid must be strictly increasing, got {n_grid!r}")
    if grid[-1] > MAX_GROWTH_N:
        raise ValueError(f"grid exceeds the {MAX_GROWTH_N} ceiling: {n_grid!r}")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    alpha, d = params.alpha, params.d
    max_rows = max(1, _GROWTH_BLOCK_ELEMENTS // trials)
    k = np.ones(trials)
    records = []
    i = 1  # observations seated so far
    for n_now in grid:
        while i < n_now:
            rows = min(max_rows, n_now - i)
            u = rng.random((rows, trials))
            if d == 0.0:
                k += (u < (alpha / (alpha + np.arange(i, i + rows)))[:, None]).sum(axis=0)
            else:
                for step, row in enumerate(u, start=i):
                    k += row < (alpha + k * d) / (alpha + step)
            i += rows
        se = float(k.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        records.append(GrowthRecord(n_now, float(k.mean()), se, trials))

    if len(records) >= 2:
        cut = min(len(records) - 2, len(records) // 2)
        xs = np.log([r.n for r in records[cut:]])
        ys = np.log([r.mean_kn for r in records[cut:]])
        exponent = float(np.polyfit(xs, ys, 1)[0])
    else:
        exponent = float("nan")
    return records, exponent
