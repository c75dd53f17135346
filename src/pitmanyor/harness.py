"""Monte Carlo experiments, comparison metrics, and partition text I/O.

Trials run in fixed-size vectorized batches whose random streams are spawned
from the base seed, one child stream per batch.  A batch's output depends
only on its own stream, and results are merged in batch order, so every
experiment is bit-reproducible for a given seed whether batches run serially
or on a process pool.
"""

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

# enumerate_partitions stays importable from here: the benchmark's worker
# reads harness.enumerate_partitions
from .core import (
    Partition,
    PYParams,
    _checked_n,
    _growth_strings,
    _partition_table,
    _table_index,
    enumerate_partitions,  # noqa: F401
)
from .crp import sample_label_matrix
from .eppf import _table_probs
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

# every sampler takes (params, n, trials, rng) and returns a (trials, n)
# label matrix whose equality pattern in each row is one partition
SAMPLERS = {"stick": sample_partition_labels_batch, "crp": sample_label_matrix}
BATCH_TRIALS = 1 << 15
MAX_GROWTH_N = 100_000


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


@dataclass(frozen=True, eq=False)
class EmpiricalPartitionDist:
    """Sampled partitions of [n] as a read-only int vector: `tally[r]` counts
    row r of `_growth_strings(n)`.  `counts` and `freq` are its views by
    `Partition`; instances compare by identity, so compare their tallies."""

    tally: np.ndarray
    trials: int
    seed: int
    params: PYParams
    sampler: str
    n: int

    @property
    def counts(self) -> dict[Partition, int]:
        """The drawn partitions and their counts, in table order (builds the table)."""
        drawn = np.flatnonzero(self.tally).tolist()
        return dict(zip(map(_partition_table(self.n).__getitem__, drawn), self.tally[drawn].tolist()))

    def freq(self, partition: Partition) -> float:
        if partition.n != self.n:
            return 0.0
        return int(self.tally[_table_index([partition.z])[0]]) / self.trials


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _batch_jobs(params, n, trials, sampler, seed):
    """One job per batch of the plan, each with its own spawned stream.

    The whole request is checked before any draw; a job needs no table.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {tuple(SAMPLERS)}, got {sampler!r}")
    n = _checked_n(n)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n_batches = -(-trials // BATCH_TRIALS)
    children = np.random.SeedSequence(seed).spawn(n_batches)
    sizes = [BATCH_TRIALS] * (n_batches - 1)
    sizes.append(trials - BATCH_TRIALS * (n_batches - 1))
    return [(params, n, size, sampler, child) for child, size in zip(children, sizes)]


def _batch_index(job) -> np.ndarray:
    """`_growth_strings(n)` row indices of one batch's partitions: the label
    rows drawn from the batch's own stream, ranked by `_table_index`."""
    params, n, size, sampler, child = job
    return _table_index(SAMPLERS[sampler](params, n, size, np.random.default_rng(child)))


def sample_partitions(
    params: PYParams, n: int, trials: int, sampler: str, seed: int
) -> list[Partition]:
    """Sampled partitions in sampling order; deterministic for a given seed."""
    jobs = _batch_jobs(params, n, trials, sampler, seed)
    index = np.concatenate([_batch_index(job) for job in jobs])
    return list(map(_partition_table(n).__getitem__, index.tolist()))


def run_monte_carlo(
    params: PYParams, n: int, trials: int, sampler: str, seed: int, workers: int | None = None
) -> EmpiricalPartitionDist:
    """Tally sampled partitions of [n], one `bincount` of table indices per
    batch, summed; n is capped so the tally stays comparable against
    exhaustive enumeration.  No `Partition` is built.

    Batches run on a process pool (`workers` defaults to the CPUs the
    process may run on) and return their rows' growth-string ranks, the
    table indices the parent counts.  Each batch depends only on its own
    spawned stream and merge order is fixed, so the result is identical
    however batches are scheduled.
    """
    jobs = _batch_jobs(params, n, trials, sampler, seed)
    if workers is None:
        workers = min(_usable_cpus(), len(jobs))
    if workers > 1 and len(jobs) > 1:
        # imported here: the pool module pulls in multiprocessing, which a
        # serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            indices = list(pool.map(_batch_index, jobs))
    else:
        indices = map(_batch_index, jobs)
    tally = sum(np.bincount(index, minlength=len(_growth_strings(n))) for index in indices)
    tally.flags.writeable = False
    return EmpiricalPartitionDist(tally, trials, seed, params, sampler, n)


def tv_distance(emp: EmpiricalPartitionDist) -> float:
    """Total variation distance between the empirical table and the exact law
    it was sampled under: half the L1 gap summed over every partition of [n],
    sampled or not."""
    # accumulate adds the gaps one at a time in table order, as a loop would
    gap = np.add.accumulate(np.abs(emp.tally / emp.trials - _table_probs(emp.params, emp.n)))[-1]
    return 0.5 * float(gap)


@dataclass(frozen=True)
class GrowthRecord:
    """Monte Carlo mean block count at one sample size."""

    n: int
    mean_kn: float
    se: float
    trials: int


@np.errstate(divide="ignore", invalid="ignore")
def _block_counts(
    params: PYParams, grid: list[int], trials: int, rng: np.random.Generator
) -> np.ndarray:
    """K_n of `trials` independent block-count chains at each point n of a
    valid grid, as a (trials, len(grid)) float array; the event-to-event
    engine of growth_experiment."""
    alpha, d = params.alpha, params.d
    kn = np.empty((trials, len(grid)))
    k = np.ones(trials)
    start = 1
    for j, n_now in enumerate(grid):
        # every row restarts at the segment's first step with its block count
        rows, i, kk = np.arange(trials), np.full(trials, float(start)), k.copy()
        while rows.size:
            ai = alpha + i
            # c = i - 1 + Geometric(q) by inversion, with lam = -log(1 - q); a
            # q that rounds to 0 gives lam = 0 and c = inf or nan: no event
            lam = np.log(ai / (i - d * kk))
            c = i + np.floor(rng.standard_exponential(rows.size) / lam)
            live = c < n_now
            if not live.all():
                k[rows[~live]] = kk[~live]
                rows, i, kk, c, ai = rows[live], i[live], kk[live], c[live], ai[live]
            kk += rng.random(rows.size) * (alpha + c) < ai
            i = c + 1
        kn[:, j] = k
        start = n_now
    return kn


def growth_experiment(
    params: PYParams, n_grid: list[int], trials: int, seed: int
) -> tuple[list[GrowthRecord], float]:
    """Mean block count along n_grid, plus the least-squares slope of
    log(mean) against log(n) fitted on the upper half of the grid (the lower
    half is dropped to reduce pre-asymptotic bias).

    Only the block-count chain is simulated: under the sequential predictive
    the chance of opening block k+1 at step i (after i observations) is
    p_i(k) = (alpha + k d)/(alpha + i), which depends on the state only
    through the block count, so the chain has exactly the law of the block
    count of a full restaurant run (the tests cross-check this against the
    full sampler).

    The chain jumps from one candidate event to the next by exact thinning,
    all rows at once.  With k fixed, p_s(k) falls in s, so q = p_i(k) bounds
    every step from i until the next event.  A row proposes step
    c = i - 1 + Geometric(q), keeps it as a new block with probability
    p_c(k)/q = (alpha + i)/(alpha + c), and restarts at c + 1 either way:
    thinning Bernoulli(q) steps this way leaves exactly Bernoulli(p_s) steps.
    A proposal at or past the next grid point n ends the row's segment: its
    block count is K_n (the events at steps c <= n - 1), and it restarts at
    step n.  Each round moves every live row on by at least one step, so the
    work follows the blocks opened, not the steps: at d = 0.5 and n = 10^5,
    200 rows take about 1700 rounds, while near d = 1, where almost every
    step opens a block, the rounds approach n.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    try:
        grid = list(map(operator.index, n_grid))
    except TypeError:
        grid = []
    if not grid or min(grid) < 1:
        raise ValueError(f"degenerate grid {n_grid!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"grid must be strictly increasing, got {n_grid!r}")
    if grid[-1] > MAX_GROWTH_N:
        raise ValueError(f"grid exceeds the {MAX_GROWTH_N} ceiling: {n_grid!r}")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    kn = _block_counts(params, grid, trials, rng)
    records = []
    for n_now, col in zip(grid, kn.T):
        se = float(col.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        records.append(GrowthRecord(n_now, float(col.mean()), se, trials))

    if len(records) >= 2:
        cut = min(len(records) - 2, len(records) // 2)
        xs = np.log([r.n for r in records[cut:]])
        ys = np.log([r.mean_kn for r in records[cut:]])
        exponent = float(np.polyfit(xs, ys, 1)[0])
    else:
        exponent = float("nan")
    return records, exponent
