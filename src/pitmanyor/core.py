"""Shared numeric and combinatorial primitives.

Parameter validation, canonical set partitions, log-space rising factorials
and gamma ratios (one Stirling kernel, also behind the stick engine's hazard)
and exhaustive partition enumeration.  Everything here is a pure function and
safe to call from any number of threads.  The per-n tables are cached and
immutable, so every caller may share them.  A `Partition` is its restricted
growth string `z`; `_growth_strings(n)`, one read-only array of those
strings, fixes the table order and indexes every per-n array and tally.
`_partition_table(n)` is its `Partition` view and the one enumerator, and
`_table_index` maps any label matrix's rows back to their table rows.
"""

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import wraps
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "LogProb",
    "PYParams",
    "Partition",
    "log_rising_factorial",
    "log_gamma_ratio",
    "enumerate_partitions",
    "partition_from_allocations",
    "MAX_NORMALIZATION_N",
]

# Log-domain probability: a float <= 0, with -inf marking an impossible event.
LogProb = float

# Largest n of every per-n table, enumeration and tally; Bell(10) = 115,975.
MAX_NORMALIZATION_N = 10

# Below this the rising factorial is a direct sum of logs (exact for the small
# arguments that dominate the test paths); above it, a log-gamma ratio.
_LGAMMA_CROSSOVER = 64

# Smallest argument `_stirling_shift` takes: from here on Stirling's series
# through w^-5 is within 1e-15 of lgamma(w), while the plain difference of two
# lgamma values would lose about w log w ulps to cancellation.
_STIRLING_MIN_W = 50.0


@dataclass(frozen=True)
class PYParams:
    """Concentration alpha and discount d of the two-parameter clustering prior.

    Valid range: 0 <= d < 1 and alpha > -d.  d = 0 selects the one-parameter
    (Dirichlet) special case, which forces alpha > 0.
    """

    alpha: float
    d: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.d)):
            raise ValueError("alpha and d must be finite numbers")
        if not 0.0 <= self.d < 1.0:
            raise ValueError(f"discount d must lie in [0, 1), got {self.d}")
        if not self.alpha > -self.d:
            raise ValueError(
                f"alpha must exceed -d, got alpha={self.alpha}, d={self.d}"
            )

    @property
    def is_dirichlet(self) -> bool:
        return self.d == 0.0


@dataclass(frozen=True)
class Partition:
    """Set partition of {1, ..., n} as its restricted growth string z.

    z[i] is the 0-based block of element i + 1, and blocks are numbered in
    the order their least element appears, so each entry is at most one
    past the largest earlier one.  z is the partition's row of
    `_growth_strings(n)`; equality is structural, so instances work as dict
    keys for empirical frequency counting.  `blocks` reads the same
    partition as tuples of elements, ordered by least element.
    """

    z: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.z, tuple):
            raise ValueError(f"z must be a tuple, got {type(self.z).__name__}")
        top = -1
        for b in self.z:
            if not isinstance(b, int) or not 0 <= b <= top + 1:
                raise ValueError(f"z must be a restricted growth string of ints, got {self.z!r}")
            top = max(top, b)

    @classmethod
    def _of(cls, z: tuple[int, ...]) -> "Partition":
        """A Partition of a growth string known to be canonical, not
        re-validated: for the per-n table, built from `_growth_strings`."""
        self = object.__new__(cls)
        # set as the frozen __init__ sets it, so no per-instance dict is made:
        # the n = 10 table holds 24 MB this way, 32 MB through __dict__
        object.__setattr__(self, "z", z)
        return self

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Canonicalize arbitrary block order / element order and validate:
        the blocks must be nonempty and cover 1..n exactly once."""
        blocks = [list(b) for b in blocks]
        n = sum(map(len, blocks))
        block_of = [-1] * n
        for b, block in enumerate(blocks):
            if not block:
                raise ValueError("blocks must be nonempty")
            for e in block:
                if not isinstance(e, int) or not 1 <= e <= n:
                    raise ValueError(f"elements must be integers in 1..{n}, got {e!r}")
                if block_of[e - 1] >= 0:
                    raise ValueError(f"element {e} appears in more than one block")
                block_of[e - 1] = b
        return cls(_first_appearance(block_of))

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def num_blocks(self) -> int:
        return max(self.z, default=-1) + 1

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        blocks = [[] for _ in range(self.num_blocks)]
        for e, b in enumerate(self.z, start=1):
            blocks[b].append(e)
        return tuple(map(tuple, blocks))

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(Counter(self.z).values())


def _first_appearance(labels) -> tuple[int, ...]:
    """`labels` renumbered 0, 1, 2, ... in the order each value first appears."""
    number: dict = {}
    return tuple(number.setdefault(label, len(number)) for label in labels)


def log_rising_factorial(x: float, n: int) -> float:
    """log of x * (x+1) * ... * (x+n-1); the empty product (n = 0) gives 0.

    Every factor must be strictly positive.  Callers are expected to have
    cancelled any non-positive leading factor beforehand (see the partition
    law evaluator), so a non-positive factor here is a domain error.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return 0.0
    if n <= _LGAMMA_CROSSOVER:
        total = 0.0
        for j in range(n):
            factor = x + j
            if factor <= 0.0:
                raise ValueError(f"nonpositive factor {factor} at x={x}, j={j}")
            total += math.log(factor)
        return total
    if x <= 0.0:
        raise ValueError(f"x must be positive for large n, got x={x}")
    return log_gamma_ratio(x, n, 0.0)


def _stirling_shift(w, delta):
    """lgamma(w + delta) - lgamma(w) - delta log w by Stirling's series, for
    w and w + delta both at least _STIRLING_MIN_W; floats or numpy arrays.

    The series is differenced term by term in the shift: with u = w + delta,
    its leading part (u - 1/2) log u - (w - 1/2) log w - delta leaves
    (u - 1/2) log1p(delta / w) - delta once delta log w is taken out, and
    each correction 1/u^k - 1/w^k carries the factor -delta / (w u), so
    nothing cancels at close arguments.  The value tends to 0 as w grows;
    once w u overflows (w past about 1e154) the corrections are exactly 0.
    """
    u = w + delta
    s, t = 1.0 / w, 1.0 / u
    with np.errstate(over="ignore"):
        p = 1.0 / (w * u)
    s2, st, t2 = s * s, s * t, t * t
    q = s2 + st + t2  # (1/u^3 - 1/w^3) / (1/u - 1/w)
    quartic = s2 * s2 + t2 * t2 + st * q  # the same for the fifth powers
    # tail(u) - tail(w), where tail(w) = 1/(12 w) - 1/(360 w^3) + 1/(1260 w^5)
    tail = -delta * p * (1.0 / 12.0 - q / 360.0 + quartic / 1260.0)
    return (u - 0.5) * np.log1p(delta / w) - delta + tail


def log_gamma_ratio(z: float, a: float, b: float) -> float:
    """lgamma(z + a) - lgamma(z + b), accurate even where both lgamma values
    are huge against their difference (large z) or close to each other.

    Both z + a and z + b must be positive.  The ratio is rebased to
    w = z + b + k with the shift delta = a - b, where k >= 0 is the fewest
    steps that bring both arguments to at least 50, using
    lgamma(x) = lgamma(x + k) - sum_{t<k} log(x + t); the k step terms pair
    up as log1p(delta / (z + b + t)).  Stirling's series then gives
    lgamma(w + delta) - lgamma(w) differenced in delta (`_stirling_shift`).
    """
    wa, wb = z + a, z + b
    if not (wa > 0.0 and wb > 0.0):
        raise ValueError(f"z + a and z + b must be positive, got {wa} and {wb}")
    delta = a - b
    k = max(0, math.ceil(_STIRLING_MIN_W - min(wa, wb)))
    shift = math.fsum(math.log1p(delta / (wb + t)) for t in range(k))
    w = wb + k
    return float(delta * math.log(w) + _stirling_shift(w, delta)) - shift


def partition_from_allocations(z: Sequence[int]) -> Partition:
    """Partition of [n] grouping equal labels: i, j share a block iff z_i = z_j.

    Label values are irrelevant beyond equality, so any injective relabeling
    of z yields the same partition.
    """
    if len(z) == 0:
        raise ValueError("allocation vector must be nonempty")
    if min(z) < 1:
        raise ValueError(f"labels must be >= 1, got {min(z)}")
    return Partition(_first_appearance(z))


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every set partition of [n] once, in canonical form: the cached
    `_partition_table(n)`, n <= MAX_NORMALIZATION_N (kept: 24 MB at n = 10)."""
    yield from _partition_table(n)


def _checked_n(n) -> int:
    """n as a plain int, read through `operator.index` so numpy integers pass;
    anything else, or a value outside 1..MAX_NORMALIZATION_N, raises."""
    try:
        value = operator.index(n)
    except TypeError:
        value = 0
    if not 1 <= value <= MAX_NORMALIZATION_N:
        raise ValueError(f"n must be an integer in 1..{MAX_NORMALIZATION_N}, got {n!r}")
    return value


def _per_n_table(build):
    """Cache `build(n)` for each n in 1..MAX_NORMALIZATION_N, built on first
    use and kept for the process.  Any other n, hashable or not, raises the
    one message every per-n table gives."""
    tables = {}

    @wraps(build)
    def table(n):
        n = _checked_n(n)
        if n not in tables:
            tables[n] = build(n)
        return tables[n]

    return table


@_per_n_table
def _growth_strings(n: int) -> np.ndarray:
    """Every restricted growth string of length n, read-only, one row per
    partition in lexicographic order (each prefix is extended by 0..max + 1):
    row r, the table index r of tallies, holds the 0-based block of each
    element of `_partition_table(n)[r]`.  At n = 10 it holds about 9 MB.
    """
    z = np.zeros((1, 1), dtype=np.int64)
    for _ in range(1, n):
        width = z.max(axis=1) + 2
        parent = np.repeat(np.arange(len(z)), width)
        digit = np.arange(len(parent)) - np.repeat(np.cumsum(width) - width, width)
        z = np.column_stack([z[parent], digit])
    z.flags.writeable = False
    return z


def _table_index(z) -> np.ndarray:
    """The `_growth_strings(n)` row of each row's partition in a (rows, n)
    integer label matrix; only equal labels matter, not their values.

    Column j's growth digit is the block of an earlier column with its label,
    or else the next block; rows are in lexicographic order, so it adds
    digit * W(n-1-j, m), with m blocks open before column j and
    W(r, m) = m W(r-1, m) + W(r-1, m+1) completions of r more elements.
    Bell(25) < 2^63, so the index fits int64 up to n = 25.
    """
    cols = np.ascontiguousarray(np.asarray(z).T)
    n, rows = cols.shape
    w = np.ones((n, n + 1), dtype=np.int64)  # w[r, m] = W(r, m) wherever m + r < n
    for r in range(1, n):
        w[r, :-1] = np.arange(n) * w[r - 1, :-1] + w[r - 1, 1:]
    digits = np.zeros((n, rows), dtype=np.int8)
    blocks = np.ones(rows, dtype=np.intp)
    index = np.zeros(rows, dtype=np.int64)
    for j, digit in enumerate(digits[1:], start=1):
        digit[:] = blocks
        for k in range(j):  # arithmetic, not a masked copy: no branch per row
            digit += (cols[k] == cols[j]) * (digits[k] - digit)
        index += w[n - 1 - j][blocks] * digit
        blocks += digit == blocks
    return index


@_per_n_table
def _partition_table(n: int) -> tuple[Partition, ...]:
    """`_growth_strings(n)` as `Partition` objects, in the same order: what
    `enumerate_partitions`, `sample_partitions` and a tally's `counts` hand
    out.  The n = 8 table holds about 0.8 MB and the n = 10 one about 24 MB.

    Growth strings are canonical by construction, so the partitions skip
    validation.
    """
    return tuple(map(Partition._of, map(tuple, _growth_strings(n).tolist())))
