"""Measurement worker: runs passes of one workload and prints one JSON line per pass.

A pass is one closed-loop request: every configured call of the workload, in
order, from the first call to the pass/fail verdict of its checks.  The
orchestrator (`run.py`) starts this script in a fresh interpreter, reads the
lines, and kills it if a pass overruns the hang limit.

    python3 perfbench/worker.py --workload crp_mc --seed 1 --first 0 --seconds 10 --trace 0

With --count N the worker runs exactly N passes instead of filling --seconds.
On stick_mc and crp_mc, pass i draws its inputs from SeedSequence([seed, i]),
so the same (seed, i) gives the same pass whether it runs traced or not.
identities runs its checks at the ledger's DEFAULT_SEED on every pass.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from pitmanyor import constants, eppf, harness, verify  # noqa: E402
from pitmanyor.core import PYParams  # noqa: E402

import tracer as tracing  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"

# (alpha, d, n).  Stick configs with d >= 0.7 are left out: the current walk
# has infinite mean work per batch there (see NOTES.md).
STICK_CONFIGS = ((1.0, 0.5, 4), (5.0, 0.1, 4), (1.0, 0.0, 4), (1.0, 0.5, 8))
CRP_CONFIGS = ((1.0, 0.5, 4), (0.3, 0.7, 4), (1.0, 0.5, 8))
# one batch (BATCH_TRIALS = 32768 rows) per stick config, two per CRP config,
# so a pass takes about one to two seconds on either route
STICK_TRIALS = 1 << 15
CRP_TRIALS = 1 << 16

# every verify check that is not a sampler-vs-law TV check, in suite order
IDENTITY_CHECKS = (
    "check_normalization",
    "check_sequential_identity",
    "check_dp_limit",
    "check_lemma_b_bridge",
    "check_lemma_c",
    "check_lemma_d",
    "check_beta_moment_exact",
    "check_beta_moment_mc",
    "check_allocation_marginal_oracle",
    "check_allocation_truncated_normalization",
    "check_growth",
)

# (workload, configs, trials); identities has no sampler configs
WORKLOADS = {
    "stick_mc": ("stick", STICK_CONFIGS, STICK_TRIALS),
    "crp_mc": ("crp", CRP_CONFIGS, CRP_TRIALS),
    "identities": (None, (), 0),
}

TRACE_TARGETS = (
    ("core", "enumerate_partitions", tracing.GEN),
    ("core", "partition_from_allocations", tracing.COUNT),
    ("eppf", "eppf_log_prob", tracing.SPAN),
    ("eppf", "normalization_check", tracing.SPAN),
    ("crp", "sample_label_matrix", tracing.BATCH),
    ("crp", "sequential_log_prob", tracing.SPAN),
    ("stickbreak", "sample_partition_labels_batch", tracing.BATCH),
    ("stickbreak", "beta_sample", tracing.SPAN),
    ("marginal", "lemma_b_truncated_sum", tracing.SPAN),
    ("marginal", "lemma_c_check", tracing.SPAN),
    ("marginal", "lemma_d_check", tracing.SPAN),
    ("marginal", "allocation_log_prob", tracing.SPAN),
    ("harness", "run_monte_carlo", tracing.SPAN),
    ("harness", "tv_distance", tracing.SPAN),
    ("harness", "growth_experiment", tracing.SPAN),
) + tuple(("verify", name, tracing.SPAN) for name in IDENTITY_CHECKS)

SELF_TIME_LAYERS = (
    "stickbreak.beta_sample",
    "crp.sequential_log_prob",
    "harness.run_monte_carlo",
    "harness.tv_distance",
    "harness.growth_experiment",
    "core.enumerate_partitions",
    "eppf.eppf_log_prob",
    "eppf.normalization_check",
    "marginal.lemma_b_truncated_sum",
    "marginal.lemma_c_check",
    "marginal.lemma_d_check",
    "marginal.allocation_log_prob",
)


def _tv_noise(params: PYParams, n: int) -> float:
    """sum over partitions of sqrt(p (1 - p)): the multinomial standard-error
    factor that sets the expected TV of an exact sampler at n."""
    total = 0.0
    for partition in harness.enumerate_partitions(n):
        p = math.exp(eppf.eppf_log_prob(params, partition))
        total += math.sqrt(p * (1.0 - p))
    return total


def tv_bounds(configs, trials: int) -> dict:
    """TV bound per config: the ledger's bound scaled with trials exactly as
    `verify._tv_bound` does.  The ledger bound is set for n = 4, the only n the
    verify suites sample; at n = 8 the exact sampler's expected TV is about
    four times it at any trial count, so it is scaled by the same standard-
    error factor, which keeps the margin the ledger has at n = 4."""
    out = {}
    for a, d, n in configs:
        params = PYParams(a, d)
        scale = 1.0 if n == 4 else _tv_noise(params, n) / _tv_noise(params, 4)
        out[(a, d, n)] = (verify._tv_bound(trials) * scale, verify._tv_bound(trials))
    return out


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter, small-array and
    large-array numpy work.

    The host's speed drifts by up to 1.8x within minutes, in interpreter-bound
    and memory-bound code alike, and one probe varies by 10-20% from the next.
    A pass's time divided by the median of the probes run before, between and
    after its steps cancels most of that drift.  The probe calls no pitmanyor
    code, so no change to the package moves it."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    small = rng.random((16384, 16))
    np.cumsum(small, axis=1)
    (small < 0.5).sum(axis=1)
    np.sort(small, axis=1)
    tally: dict[int, int] = {}
    for i in range(150_000):
        tally[i % 997] = tally.get(i % 997, 0) + 1
    for _ in range(8):  # in 2 MB chunks, so the probe never sets the peak RSS
        big = rng.standard_normal(1 << 18)
        np.log1p((1.0 + 0.1 * big) ** 2) < 0.5 * big * big
    return time.perf_counter() - t0


def pass_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def timed_steps(steps, probes: list) -> tuple[list, float]:
    """Run each step, then the probe; return the steps' results and the
    seconds spent in the steps, probes excluded."""
    results, busy = [], 0.0
    for step in steps:
        t = time.perf_counter()
        results.append(step())
        busy += time.perf_counter() - t
        probes.append(probe())
    return results, busy


def mc_pass(sampler, configs, trials, bounds, seed, probes):
    """run_monte_carlo then tv_distance per config; returns records, tallies,
    the pass time and the time spent inside run_monte_carlo."""

    def step(a, d, n, s):
        t = time.perf_counter()
        emp = harness.run_monte_carlo(PYParams(a, d), n, trials, sampler, s, workers=1)
        mc_s = time.perf_counter() - t
        tv = harness.tv_distance(emp)
        bound, ledger_bound = bounds[(a, d, n)]
        record = {
            "name": f"{sampler}_sampler_total_variation",
            "passed": tv < bound,
            "alpha": a, "d": d, "n": n, "trials": trials, "seed": s,
            "tv": tv, "bound": bound, "ledger_bound_n4": ledger_bound,
        }
        return record, emp.counts, mc_s

    seeds = np.random.SeedSequence(seed).generate_state(len(configs))
    steps = [partial(step, a, d, n, int(s)) for (a, d, n), s in zip(configs, seeds)]
    results, busy = timed_steps(steps, probes)
    records, tallies, mc_s = zip(*results)
    return list(records), list(tallies), busy, sum(mc_s)


def identities_pass(seed, probes):
    """Every identity check, at the seed the caller gives: the ledger's
    DEFAULT_SEED, as `pitmanyor verify` runs them.  The statistical checks'
    tolerances are budgeted for that one seed, and their run time does not
    depend on it."""
    steps = [partial(getattr(verify, name), seed=seed) for name in IDENTITY_CHECKS]
    results, busy = timed_steps(steps, probes)
    return [r for records in results for r in records], [], busy, 0.0


def digest(records, tallies) -> str:
    """Hash of the check records and tally dicts, to compare traced and untraced passes."""
    tables = [
        sorted((harness.format_partition(p), c) for p, c in counts.items())
        for counts in tallies
    ]
    blob = json.dumps([records, tables], sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()


def layer_values(summary: dict, cache_delta: tuple[int, int], mc_s: float, draws: int) -> dict:
    spans, counts = summary["spans"], summary["counts"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    out = {}
    for a, d, n in STICK_CONFIGS:
        label = tracing.config_label(a, d, n)
        span = f"stickbreak.sample_partition_labels_batch.{label}"
        t = self_s(span)
        rows = counts.get(f"stickbreak.sample_partition_labels_batch.rows.{label}", 0)
        out[f"stickbreak.sample_partition_labels_batch.self_s.{label}"] = t
        out[f"stickbreak.sample_partition_labels_batch.rows_per_s.{label}"] = rows / t if t else 0.0
    for a, d, n in CRP_CONFIGS:
        label = tracing.config_label(a, d, n)
        out[f"crp.sample_label_matrix.self_s.{label}"] = self_s(f"crp.sample_label_matrix.{label}")
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = self_s(layer)
    out["core.enumerate_partitions.items"] = counts.get("core.enumerate_partitions.items", 0)
    out["core.partition_from_allocations.calls"] = counts.get("core.partition_from_allocations.calls", 0)
    out["eppf.eppf_log_prob.calls"] = spans.get("eppf.eppf_log_prob", {}).get("calls", 0)
    hits, misses = cache_delta
    out["eppf.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["harness.run_monte_carlo.draws_per_s"] = draws / mc_s if mc_s else 0.0
    for name in IDENTITY_CHECKS:
        out[f"verify.{name}.s"] = spans.get(f"verify.{name}", {}).get("s", 0.0)
    return out


def _cache_counts() -> tuple[int, int]:
    # the size-keyed law cache, while the package keeps one
    cache = getattr(eppf, "_log_prob_from_sizes", None)
    if cache is None or not hasattr(cache, "cache_info"):
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.misses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--count", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if (args.seconds is None) == (args.count is None):
        ap.error("give exactly one of --seconds and --count")

    sampler, configs, trials = WORKLOADS[args.workload]
    if sampler is None:
        run_pass = identities_pass
    else:
        bounds = tv_bounds(configs, trials)

        def run_pass(seed, probes):
            return mc_pass(sampler, configs, trials, bounds, seed, probes)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(TRACE_TARGETS)
    probe()  # warm-up: the first call pays one-off allocation costs
    probes = [probe()]
    started = time.perf_counter()
    index = args.first
    while True:
        seed = constants.DEFAULT_SEED if sampler is None else pass_seed(args.seed, index)
        mark = tracer.mark() if tracer is not None else None
        cache_before = _cache_counts()
        records, tallies, verified_s, mc_s = run_pass(seed, probes)
        cache_after = _cache_counts()
        line = {
            "index": index,
            "seed": seed,
            "verified_s": verified_s,
            "probe_s": statistics.median(probes),
            "mc_s": mc_s,
            "draws": trials * len(configs),
            "checks": len(records),
            "failed_checks": [r["name"] for r in records if not r["passed"]],
            "digest": digest(records, tallies),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None:
            delta = (cache_after[0] - cache_before[0], cache_after[1] - cache_before[1])
            line["layers"] = layer_values(tracer.summary(mark), delta, mc_s, line["draws"])
            line["missing"] = tracer.missing
        print(json.dumps(line), flush=True)
        probes = probes[-1:]
        index += 1
        if args.count is not None:
            if index - args.first >= args.count:
                break
        elif time.perf_counter() - started >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans_{args.workload}_seed{args.seed}_first{args.first}.npz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
