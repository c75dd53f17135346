"""The two batch kernels pinned bit for bit to their axis-0 references.

`crp.sample_label_matrix` and `stickbreak._hit_sizes` take their running sums
one contiguous row at a time.  The references in tests/reference.py take the
same sums with accumulates along axis 0.  Both must add the same floats in the
same order and read the same uniforms.  Labels and hit sizes alone would
hardly ever show a sum that is one ulp off, so the uniforms are handed out as
`LoggedUniforms`, which log every array they are compared with or scaled by:
the running sums themselves, in the order the kernel takes them.  The
restaurant kernel seats its columns in tiles of `crp._TILE`, all steps of a
tile before the next, so the reference's sums are compared tile by tile.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pitmanyor.crp as crp
import pitmanyor.stickbreak as sb
import reference
from pitmanyor.core import PYParams

# d = 1/3 as well, since (s - d) + 1 and (s + 1) - d differ there from s = 2 on,
# while they are equal at every block size for the other discounts
CONFIGS = pytest.mark.parametrize(
    "alpha, d",
    [(1.0, 0.5), (0.3, 0.7), (-0.3, 0.5), (5.0, 0.1), (1.0, 0.0), (1.0, 0.9), (1e6, 0.5),
     (0.5, 1 / 3)],
)
SIZES = pytest.mark.parametrize("n", [1, 2, 4, 8, 10])
# crp._TILE + 1 ends on a one-column tile
TRIALS = (1, 7, crp._TILE + 1, 32768)
SEEDS = (0, 1, 2)
# `sums < u` may reach a subclass of u as np.greater(u, sums)
COMPARISONS = (np.less, np.less_equal, np.greater, np.greater_equal)


class LoggedUniforms(np.ndarray):
    """Uniforms that log a copy of every plain array a ufunc combines them
    with; what a ufunc other than a comparison returns logs to the same list."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        self.log.extend(np.array(x) for x in inputs if type(x) is np.ndarray)
        plain = [x.view(np.ndarray) if isinstance(x, LoggedUniforms) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc in COMPARISONS:
            return result
        logged = result.view(LoggedUniforms)
        logged.log = self.log
        return logged


class LoggingGenerator:
    """A Generator whose `random` returns LoggedUniforms."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.log = []

    def random(self, size):
        u = self.rng.random(size).view(LoggedUniforms)
        u.log = self.log
        return u

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def logged_bytes(self):
        return b"".join(x.tobytes() for x in self.log)


def assert_same_draws(kernel, ref, *args, seed, regroup=lambda log: log):
    """`regroup` puts the reference's logged arrays in the kernel's order."""
    rng, ref_rng = LoggingGenerator(seed), LoggingGenerator(seed)
    got, want = kernel(*args, rng), ref(*args, ref_rng)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state
    assert rng.logged_bytes() == b"".join(x.tobytes() for x in regroup(ref_rng.log))


def tile_major(log):
    """The reference's running sums, one (i + 1, trials) array per step, cut
    into the column tiles of `crp._TILE`, tile by tile and step by step
    within a tile, as `crp.sample_label_matrix` takes them."""
    trials = log[0].shape[1] if log else 0
    return [step[:, lo:lo + crp._TILE] for lo in range(0, trials, crp._TILE) for step in log]


def assert_same_seating(params, n, trials, seed):
    assert_same_draws(crp.sample_label_matrix, reference.cumsum_label_matrix,
                      params, n, trials, seed=seed, regroup=tile_major)


def stick_weights(alpha, d, trials, seed):
    """b = alpha + J d at hit sticks J spread from 1 to about 1e15, as the
    engine passes them, far tail included."""
    sticks = np.floor(np.exp(np.random.default_rng([seed, trials]).uniform(0.0, 35.0, trials)))
    return alpha + sticks * d


@CONFIGS
@SIZES
def test_restaurant_seating_matches_cumsum(alpha, d, n):
    for trials in TRIALS:
        for seed in SEEDS:
            assert_same_seating(PYParams(alpha, d), n, trials, seed)


@CONFIGS
@pytest.mark.parametrize("m", [1, 2, 4, 8, 10])
def test_hit_sizes_match_axis0_accumulates(alpha, d, m):
    for trials in TRIALS:
        for seed in SEEDS:
            b = stick_weights(alpha, d, trials, seed)
            assert_same_draws(sb._hit_sizes, reference.hit_sizes, d, m, b, seed=seed)


@st.composite
def requests(draw):
    d = draw(st.floats(0.0, 0.95))
    alpha = draw(st.floats(-d, 1e6, exclude_min=True))
    n = draw(st.integers(1, 10))
    trials = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    return PYParams(alpha, d), n, trials, seed


@given(request=requests())
@settings(max_examples=100, deadline=None)
def test_both_routes_match_references_anywhere(request):
    params, n, trials, seed = request
    assert_same_seating(params, n, trials, seed)
    # the whole stick engine, with only its hit-size kernel swapped
    rng, ref_rng = LoggingGenerator(seed), LoggingGenerator(seed)
    got = sb._hit_events(params, n, trials, rng, True)
    with mock.patch.object(sb, "_hit_sizes", reference.hit_sizes):
        want = sb._hit_events(params, n, trials, ref_rng, True)
    assert got.tobytes() == want.tobytes()
    assert rng.logged_bytes() == ref_rng.logged_bytes()
