"""Verification suites behind the `verify` CLI subcommand.

Each check returns a plain record with a `passed` flag; a suite report passes
iff every one of its checks does.  Tolerances come from the shared constants
ledger; statistical checks use seeded streams with the seed recorded in the
report, so repeated runs are byte-identical.

The exact checks run over whole tables and grids, not one partition or label
vector at a time: the law and the sequential product over each n's partition
table, Prop A's marginal over each label grid with one
`marginal._allocation_log_probs` call, and the bridge's truncated label sums
over every size profile of n <= 4 with one `marginal._lemma_b_truncated_sums`
walk per truncation.  Each value is bit-identical to its scalar entry point.

The beta-moment Monte Carlo check draws its four configs' seeded streams
concurrently on a thread pool (`Generator.beta` runs with the GIL
released).  Each record depends only on its own stream, so the records do
not depend on scheduling or on the number of workers.

The label-sum bridge ("lemma_b_bridge_at_60") rebuilds partition
probabilities from the label sum truncated at 60.  A rebuilt value is the
probability of the partition *and* every label <= 60, so the check compares
the rebuilt values with the mass that truncation keeps, which has a closed
form in the stick beta moments.  Against the full law the truncation error
decays like max_label^(-(1-d)/d), so like 1/max_label at the default d = 0.5
(the label distribution is heavy-tailed -- that power law is the whole point
of the discount parameter): at max_label 60 the worst deficit over
partitions of up to four elements is about 0.11, and the record reports it
with the omitted mass.  The companion check at max_label 100000 shows the
same bridge meeting 1e-4 against the full law there; for d >= 0.7 the
companion fails, because 1e5 labels are still far from enough.  See the
README for the full analysis.
"""

import inspect
import math
from functools import partial
from itertools import product

import numpy as np

from . import constants
from .core import PYParams
from .crp import _table_sequential_log_probs
from .eppf import _size_profiles, _table_log_probs, _table_probs, normalization_check
from .harness import SAMPLERS, _usable_cpus, growth_experiment, run_monte_carlo, tv_distance
from .marginal import (
    _allocation_log_probs,
    _lemma_b_truncated_sums,
    allocation_stats,
    beta_moment,
    lemma_c_check,
    lemma_d_check,
    truncated_label_mass,
)

__all__ = ["SUITES", "run_suite", "default_parameter_grid"]

GRID_ALPHAS = (-0.3, 0.0, 0.5, 1.0, 5.0)
GRID_DISCOUNTS = (0.0, 0.1, 0.5, 0.9)
THEOREM_CONFIGS = (PYParams(1.0, 0.5), PYParams(0.3, 0.7), PYParams(5.0, 0.1), PYParams(1.0, 0.0))
DP_LIMIT_ALPHAS = (0.5, 1.0, 5.0)

# label-gap truncation at which the label-sum bridge demonstrably meets the
# 1e-4 target at d <= 0.5 (its error decays like max_label^(-(1-d)/d); see
# module docstring)
BRIDGE_CONVERGED_LABELS = 100_000

LEMMA_D_GRID = (
    (1.0, 0.5, (2.0,)),
    (1.0, 0.5, (4.0, 2.0)),
    (1.0, 0.5, (6.0, 4.0, 2.0)),
    (1.0, 0.3, (3.0, 2.0)),
    (2.0, 0.3, (5.0, 3.0, 2.0)),
    (0.5, 0.9, (6.0, 5.0, 4.0)),
)
LEMMA_D_TRUNCATIONS = (50, 100, 200, 500)

BETA_MOMENT_CONFIGS = (
    (1.0, 1.0, 1.0, 0.0),
    (2.0, 3.0, 1.0, 1.0),
    (0.5, 1.5, 1.0, 0.0),
    (0.3, 2.7, 2.0, 1.0),
)
# draws per `rng.beta` call in the beta-moment Monte Carlo check: chunks of
# 2^13 to 2^16 take the same time, and the smallest keeps peak memory lowest
_CHUNK = 1 << 13


def default_parameter_grid() -> list[PYParams]:
    return [
        PYParams(alpha, d)
        for alpha in GRID_ALPHAS
        for d in GRID_DISCOUNTS
        if alpha > -d
    ]


def _configs(alpha, d, defaults):
    """The configs a check runs: `PYParams(alpha, d)` when both are given,
    else `defaults`."""
    if (alpha is None) != (d is None):
        raise ValueError("alpha and d must be given together")
    return list(defaults) if alpha is None else [PYParams(alpha, d)]


def _check_trials(trials: int) -> None:
    # the Monte Carlo checks scale by 1/trials and take a ddof=1 spread
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")


def _record(name, passed, **fields):
    rec = {"name": name, "passed": bool(passed)}
    rec.update(fields)
    return rec


# ---------------------------------------------------------------------------
# exact / enumeration checks


def _worst_records(name, configs, gap, tolerance, **fields):
    """One record per config: the largest of the errors `gap(params, **fields)`
    yields, passing at or below `tolerance`.  `fields` (max_n, for the
    checks whose errors run over n = 1..max_n) are also written to the
    record, between d and the error."""
    out = []
    for params in configs:
        worst = max(gap(params, **fields))
        out.append(
            _record(
                name,
                worst <= tolerance,
                alpha=params.alpha,
                d=params.d,
                **fields,
                max_abs_error=worst,
                tolerance=tolerance,
            )
        )
    return out


def check_normalization(alpha=None, d=None, **_):
    def gap(params, max_n):
        return (abs(normalization_check(params, n) - 1.0) for n in range(1, max_n + 1))

    configs = _configs(alpha, d, default_parameter_grid())
    return _worst_records("eppf_normalization", configs, gap, constants.TOL_EXHAUSTIVE, max_n=8)


def check_sequential_identity(alpha=None, d=None, **_):
    def gap(params, max_n):
        for n in range(1, max_n + 1):
            diff = _table_sequential_log_probs(params, n) - _table_log_probs(params, n)
            yield float(np.abs(diff).max())

    configs = _configs(alpha, d, default_parameter_grid())
    return _worst_records(
        "sequential_product_identity", configs, gap, constants.TOL_EXHAUSTIVE, max_n=8
    )


def check_dp_limit(alpha=None, d=None, **_):
    alphas = DP_LIMIT_ALPHAS if alpha is None else (alpha,)
    configs = [PYParams(a, constants.DP_LIMIT_DISCOUNT) for a in alphas if a > 0]

    def gap(params, max_n):
        # d = 0 evaluates the Dirichlet branch, as dp_log_prob does
        dirichlet = PYParams(params.alpha, 0.0)
        for n in range(1, max_n + 1):
            yield float(np.abs(_table_probs(params, n) - _table_probs(dirichlet, n)).max())

    return _worst_records("dirichlet_limit", configs, gap, constants.TOL_DP_LIMIT, max_n=6)


# ---------------------------------------------------------------------------
# Monte Carlo checks


def _tv_bound(trials: int) -> float:
    # nominal bound holds at TV_TRIALS; scale with the usual 1/sqrt(trials)
    return constants.TV_BOUND * math.sqrt(constants.TV_TRIALS / trials)


# each sampler's TV check draws from its own block of seeds
_TV_SEED_OFFSETS = {"stick": 0, "crp": 100}


def check_sampler_law_tv(sampler, alpha=None, d=None, trials=constants.TV_TRIALS, seed=constants.DEFAULT_SEED, **_):
    _check_trials(trials)
    configs = _configs(alpha, d, THEOREM_CONFIGS)
    bound = _tv_bound(trials)
    out = []
    for idx, params in enumerate(configs):
        config_seed = seed + _TV_SEED_OFFSETS[sampler] + idx
        emp = run_monte_carlo(params, 4, trials, sampler, config_seed)
        tv = tv_distance(emp)
        out.append(
            _record(
                f"{sampler}_sampler_total_variation",
                tv < bound,
                alpha=params.alpha,
                d=params.d,
                n=4,
                trials=trials,
                seed=config_seed,
                tv=tv,
                bound=bound,
            )
        )
    return out


def check_sampling_determinism(seed=constants.DEFAULT_SEED, **_):
    params = PYParams(1.0, 0.5)
    out = []
    for sampler in SAMPLERS:
        first = run_monte_carlo(params, 4, 20_000, sampler, seed)
        second = run_monte_carlo(params, 4, 20_000, sampler, seed)
        out.append(
            _record(
                "sampling_determinism",
                np.array_equal(first.tally, second.tally),
                sampler=sampler,
                trials=20_000,
                seed=seed,
            )
        )
    return out


# ---------------------------------------------------------------------------
# allocation marginal (suite propA)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _allocation_oracle_log_prob(params: PYParams, z) -> float:
    # independent route: product of stick beta moments, one per label level
    stats = allocation_stats(z)
    alpha, d = params.alpha, params.d
    total = 0.0
    for j in range(1, stats.m + 1):
        e_j, f_j = stats.e[j - 1], stats.f[j - 1]
        total += _log_beta(e_j + 1.0 - d, f_j + alpha + j * d)
        total -= _log_beta(1.0 - d, alpha + j * d)
    return total


def check_allocation_marginal_oracle(alpha=None, d=None, **_):
    defaults = (PYParams(1.0, 0.5), PYParams(0.3, 0.7), PYParams(2.0, 0.9), PYParams(0.5, 0.2))
    grids = [np.array(list(product(range(1, 5), repeat=n))) for n in (1, 2, 3)]

    def gap(params):
        for z in grids:
            oracle = [_allocation_oracle_log_prob(params, row) for row in z.tolist()]
            yield float(np.abs(_allocation_log_probs(params, z) - oracle).max())

    configs = _configs(alpha, d, defaults)
    return _worst_records("allocation_marginal_oracle", configs, gap, constants.TOL_EXHAUSTIVE)


def check_allocation_truncated_normalization(alpha=None, d=None, **_):
    # The acceptance target (>= 0.99 by labels <= 60, monotone) is checked at
    # a discount where 60 labels actually carry that much mass; at d = 0.5 the
    # label tail is so heavy that labels <= 60 hold only ~0.91 of the mass
    # (see README), so d = 0.1 is the default here.
    (params,) = _configs(alpha, d, (PYParams(1.0, 0.1),))
    levels = (10, 20, 30, 40, 50, 60)
    # each pair is evaluated once, at the top level; fsum rounds exactly, so
    # summing a level's nested square from the shared table changes no bit
    labels = range(1, levels[-1] + 1)
    z = np.array(list(product(labels, repeat=2)))
    probs = np.array(list(map(math.exp, _allocation_log_probs(params, z).tolist())))
    probs = probs.reshape(len(labels), len(labels))
    partial_sums = [math.fsum(probs[:level, :level].flat) for level in levels]
    monotone = all(x < y for x, y in zip(partial_sums, partial_sums[1:]))
    return [
        _record(
            "allocation_truncated_normalization",
            monotone and partial_sums[-1] >= 0.99,
            alpha=params.alpha,
            d=params.d,
            n=2,
            levels=list(levels),
            partial_sums=partial_sums,
            target=0.99,
            monotone=monotone,
        )
    ]


# ---------------------------------------------------------------------------
# identity oracles (suites lemmaB / lemmaC / lemmaD / lemmaE)


def _bridge_reconstructions(params: PYParams, profiles, max_label: int) -> list[float]:
    """Pr(C and every label <= max_label) for a partition C of each sorted
    block-size profile, reassembled from the truncated label sum as
    prod_c (1-d)_(|c|) * sum / (alpha)_(n).

    For -d < alpha < 0 the sum and (alpha)_(n) both carry the sign of their
    one factor alpha, so the magnitudes are combined in log space and the
    sign of alpha is applied to the prefactor.  The value depends only on
    the profile, and the truncated sums of all the profiles come from one
    `marginal._lemma_b_truncated_sums` walk.
    """
    out = []
    for sizes, (truncated, _) in zip(
        profiles, _lemma_b_truncated_sums(params, profiles, max_label)
    ):
        log_pref = 0.0
        for j in range(sum(sizes)):
            log_pref -= math.log(abs(params.alpha + j))
        for s in sizes:
            log_pref += math.lgamma(s + 1.0 - params.d) - math.lgamma(1.0 - params.d)
        out.append(math.copysign(math.exp(log_pref), params.alpha) * truncated)
    return out


def check_lemma_b_bridge(alpha=None, d=None, **_):
    """The label-sum bridge at the nominal truncation and at a converged one.

    Truncated at max_label, the rebuilt value of a partition C is
    Pr(C and every label <= max_label): it never exceeds Pr(C), and over the
    partitions of [n] it sums to the kept mass `truncated_label_mass`.  Both
    hold exactly at every truncation, so both checks gate on them.  The
    converged check also asks the rebuilt values to reach Pr(C) itself
    within the tolerance.  The omitted labels carry probability of order
    max_label^(-(1-d)/d): about 0.1 at max_label 60 and d = 0.5, and still
    above the tolerance at 1e5 labels for d >= 0.7.  Each record reports
    the worst deficit against Pr(C) and the mass omitted at n = 4.

    A rebuilt value depends only on the block sizes, so it is evaluated once
    per size profile of `_size_profiles(n)`, for every n at once, and
    gathered back into table order.  Each n's rebuilt values are then
    compared with the law as one array: the sum adds them one at a time in
    table order, and the deficit and the below-the-law test take the worst
    partition.
    """
    (params,) = _configs(alpha, d, (PYParams(1.0, 0.5),))
    if params.alpha == 0.0:
        raise ValueError(
            "the label-sum bridge is 0/0 at alpha = 0: the truncated label sum "
            "and 1/(alpha)_(n) both carry the factor alpha, so it checks nothing there"
        )
    tol = constants.TOL_TRUNCATED
    by_n = {n: _size_profiles(n) for n in range(1, 5)}
    profiles = [sizes for n_profiles, _ in by_n.values() for sizes in n_profiles]
    out = []
    for max_label, label, against_law in (
        (60, "lemma_b_bridge_at_60", False),
        (BRIDGE_CONVERGED_LABELS, "lemma_b_bridge_converged", True),
    ):
        mass_error = deficit = 0.0
        below = True
        rebuilt_of = dict(zip(profiles, _bridge_reconstructions(params, profiles, max_label)))
        for n, (n_profiles, index) in by_n.items():
            got = np.array([rebuilt_of[sizes] for sizes in n_profiles])[index]
            want = _table_probs(params, n)
            rebuilt = float(np.add.accumulate(got)[-1])
            deficit = max(deficit, float((want - got).max()))
            below &= bool((got <= want + constants.TOL_ROUNDING).all())
            kept = truncated_label_mass(params, n, max_label)
            mass_error = max(mass_error, abs(rebuilt - kept))
        out.append(
            _record(
                label,
                below and mass_error <= tol and (deficit <= tol or not against_law),
                alpha=params.alpha,
                d=params.d,
                max_label=max_label,
                mass_error=mass_error,
                max_deficit=deficit,
                omitted_mass=1.0 - kept,
                below_law=below,
                tolerance=tol,
            )
        )
    return out


def check_lemma_c(seed=constants.DEFAULT_SEED, **_):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    out = []
    for d in (0.0, 0.3, 0.9):
        worst = 0.0
        for _i in range(100):
            k = int(rng.integers(1, 8))
            sizes = [int(v) for v in rng.integers(1, 11, size=k)]
            lhs, rhs = lemma_c_check(sizes, d)
            worst = max(worst, abs(lhs - rhs) / rhs)
        out.append(
            _record(
                "urn_permutation_identity",
                worst <= constants.TOL_LEMMA_C,
                d=d,
                vectors=100,
                seed=seed,
                max_rel_error=worst,
                tolerance=constants.TOL_LEMMA_C,
            )
        )
    return out


def check_lemma_d(**_):
    out = []
    for a, dd, offsets in LEMMA_D_GRID:
        params = PYParams(a, dd)
        values = [lemma_d_check(params, offsets, t) for t in LEMMA_D_TRUNCATIONS]
        rhs = values[0][1]
        lhs_seq = [v[0] for v in values]
        monotone = all(x < y for x, y in zip(lhs_seq, lhs_seq[1:]))
        below = all(v <= rhs for v in lhs_seq)
        gap = abs(lhs_seq[-1] - rhs)
        out.append(
            _record(
                "nested_gap_sum_convergence",
                monotone and below and gap <= constants.TOL_TRUNCATED,
                alpha=a,
                d=dd,
                offsets=list(offsets),
                truncations=list(LEMMA_D_TRUNCATIONS),
                final_gap=gap,
                tolerance=constants.TOL_TRUNCATED,
                monotone=monotone,
                below_limit=below,
            )
        )
    return out


def check_beta_moment_exact(**_):
    cases = (
        ((1.0, 1.0, 1.0, 0.0), 0.5),
        ((2.0, 3.0, 1.0, 1.0), 0.2),
        ((0.5, 1.5, 1.0, 0.0), 0.25),
    )
    worst = max(abs(beta_moment(*args) - want) for args, want in cases)
    return [
        _record(
            "beta_moment_closed_form",
            worst <= 1e-12,
            max_abs_error=worst,
            tolerance=1e-12,
        )
    ]


def _beta_moment_stats(config, rng, values):
    """Mean and sample standard deviation of y^c (1 - y)^e over `values.size`
    Beta(a, b) draws from `rng`, computed in `values`.

    `Generator.beta` fills in order, so each chunk holds exactly what one
    call for all the draws would return there.  The reductions are the ones
    `mean()` and `std(ddof=1)` make on a contiguous 1-D array, in place.
    """
    # calls `rng.beta`, not `beta_sample`: no traced public function runs off the main thread
    a, b, c, e = config
    trials = values.size
    for start in range(0, trials, _CHUNK):
        # y^c (1-y)^e in place, with one work array for (1-y)^e; `**=` takes
        # the same scalar-exponent paths as `**`, so no value moves
        y = rng.beta(a, b, min(_CHUNK, trials - start))
        work = 1.0 - y
        work **= e
        y **= c
        np.multiply(y, work, out=values[start : start + y.size])
    emp = np.add.reduce(values) / trials
    values -= emp
    values *= values
    return float(emp), np.sqrt(np.add.reduce(values) / (trials - 1))


def check_beta_moment_mc(trials=constants.TV_TRIALS, seed=constants.DEFAULT_SEED, **_):
    """The beta-moment lemma E[V^c (1 - V)^e] by Monte Carlo, one seeded
    stream per config, the four streams drawn concurrently on a thread pool.

    Each record depends only on its config's stream, not on scheduling or
    the number of workers.
    """
    _check_trials(trials)
    # imported here: a module-level import would load the pool module into
    # every `import pitmanyor`
    from concurrent.futures import ThreadPoolExecutor

    rngs = [
        np.random.default_rng(np.random.SeedSequence([seed, 11, idx]))
        for idx in range(len(BETA_MOMENT_CONFIGS))
    ]
    workers = min(_usable_cpus(), len(BETA_MOMENT_CONFIGS))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # `map` evaluates its arguments here, so each array is allocated by
        # the calling thread: glibc gives every pool thread its own heap and
        # keeps freed arrays of this size resident there
        arrays = (np.empty(trials) for _ in BETA_MOMENT_CONFIGS)
        stats = list(pool.map(_beta_moment_stats, BETA_MOMENT_CONFIGS, rngs, arrays))
    out = []
    for (a, b, c, e), (emp, std) in zip(BETA_MOMENT_CONFIGS, stats):
        se = float(std / math.sqrt(trials))
        want = beta_moment(a, b, c, e)
        bound = constants.MC_SIGMA * se
        out.append(
            _record(
                "beta_moment_monte_carlo",
                abs(emp - want) <= bound,
                a=a,
                b=b,
                c=c,
                e=e,
                trials=trials,
                seed=seed,
                empirical=emp,
                exact=want,
                bound=bound,
            )
        )
    return out


# ---------------------------------------------------------------------------
# growth (part of suite `all`)


def check_growth(seed=constants.DEFAULT_SEED, **_):
    grid = [100, 1_000, 10_000, 100_000]
    _, exponent = growth_experiment(PYParams(1.0, 0.5), grid, 200, seed + 3)
    records, _ = growth_experiment(PYParams(1.0, 0.0), grid, 200, seed + 4)
    ratio = records[-1].mean_kn / math.log(records[-1].n)
    return [
        _record(
            "power_law_growth_exponent",
            0.4 <= exponent <= 0.6,
            alpha=1.0,
            d=0.5,
            grid=grid,
            trials=200,
            seed=seed + 3,
            exponent=exponent,
            bounds=[0.4, 0.6],
        ),
        _record(
            "logarithmic_growth_ratio",
            abs(ratio - 1.0) <= 0.3,
            alpha=1.0,
            d=0.0,
            n=grid[-1],
            trials=200,
            seed=seed + 4,
            ratio=ratio,
            rel_tolerance=0.3,
        ),
    ]


# ---------------------------------------------------------------------------
# suite registry


SUITES = {
    "normalization": (check_normalization,),
    "equivalence": (
        check_sequential_identity,
        check_dp_limit,
        partial(check_sampler_law_tv, "stick"),
    ),
    "lemmaB": (check_lemma_b_bridge,),
    "lemmaC": (check_lemma_c,),
    "lemmaD": (check_lemma_d,),
    "lemmaE": (check_beta_moment_exact, check_beta_moment_mc),
    "propA": (
        check_allocation_marginal_oracle,
        check_allocation_truncated_normalization,
    ),
}
_EXTRA_ALL = (
    partial(check_sampler_law_tv, "crp"),
    check_growth,
    check_sampling_determinism,
)


def run_suite(
    suite: str,
    alpha: float | None = None,
    d: float | None = None,
    trials: int = constants.TV_TRIALS,
    seed: int = constants.DEFAULT_SEED,
) -> dict:
    """Run one named suite (or 'all') and return its report.  An (alpha, d)
    override goes to every check that takes one; a suite with no such check
    rejects it."""
    if suite == "all":
        checks = tuple(c for group in SUITES.values() for c in group) + _EXTRA_ALL
    elif suite in SUITES:
        checks = SUITES[suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    if (alpha is None) != (d is None):
        raise ValueError("alpha and d must be given together")
    # a suite whose checks all run fixed configs would echo an override it ignored
    if alpha is not None and not any("alpha" in inspect.signature(c).parameters for c in checks):
        raise ValueError(f"suite {suite!r} runs fixed configs and takes no alpha or d")
    _check_trials(trials)
    records = []
    for check in checks:
        records.extend(check(alpha=alpha, d=d, trials=trials, seed=seed))
    failures = sum(1 for r in records if not r["passed"])
    return {
        "suite": suite,
        "seed": seed,
        "trials": trials,
        "alpha": alpha,
        "d": d,
        "checks": records,
        "failures": failures,
        "passed": failures == 0,
    }
