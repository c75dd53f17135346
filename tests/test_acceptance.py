"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see every line.

Criteria 1, 2, 3, 7, 8 and 9, and the truncated-normalization half of
criterion 4, assert over the records of the `pitmanyor.verify` check that
implements each one, and over the coverage the criterion states (record
count, seeds, trials, bound or tolerance), so the gate cannot drift from
`pitmanyor verify` or be weakened by editing it.  The rest keep independent
routes: criterion 4's scipy `betaln` oracle, criterion 5's own
`default_rng(SEED)` stream, criterion 6 with its `kept_label_mass` oracle,
and criterion 10's CLI runs.

Criterion 6 rebuilds partition probabilities from the label sum truncated
at max_label 60.  Such a rebuilt value is Pr(C and every label <= 60), not
Pr(C): the label distribution is heavy-tailed (that power law is the point
of the discount parameter), so at d = 0.5 the omitted labels carry
Theta(1/max_label) probability.  The criterion therefore checks the
truncated values against the mass the truncation keeps, computed from the
stick beta moments, and reports the deficit against the full law.  The
companion test directly below it shows the same bridge meeting 1e-4 against
the full law at max_label 100000.  See README, "Known failing checks".
"""

import math
from itertools import product

import numpy as np
from scipy.special import betaln

from pitmanyor import constants
from pitmanyor.cli import cli_main
from pitmanyor.core import PYParams, enumerate_partitions
from pitmanyor.eppf import eppf_log_prob
from pitmanyor.marginal import (
    allocation_log_prob,
    allocation_stats,
    beta_moment,
    lemma_b_truncated_sum,
    lemma_c_check,
)
from pitmanyor.verify import (
    check_allocation_truncated_normalization,
    check_dp_limit,
    check_growth,
    check_lemma_d,
    check_normalization,
    check_sampler_law_tv,
    check_sequential_identity,
)

SEED = 20_260_810


def report(number, description, passed, detail):
    print(f"ACCEPTANCE {number:>2} {'PASS' if passed else 'FAIL'} {description} ({detail})")
    return passed


def test_criterion_01_partition_law_normalization():
    records = check_normalization()
    assert len(records) == 17
    assert all(r["tolerance"] == 1e-10 and r["max_n"] == 8 for r in records)
    worst = max(r["max_abs_error"] for r in records)
    ok = report(1, "partition-law normalization on the 17-point grid, n <= 8",
                worst <= 1e-10 and all(r["passed"] for r in records),
                f"max |sum-1| = {worst:.2e}, tol 1e-10")
    assert ok


def test_criterion_02_sequential_product_identity():
    records = check_sequential_identity()
    assert len(records) == 17
    assert all(r["tolerance"] == 1e-10 and r["max_n"] == 8 for r in records)
    worst = max(r["max_abs_error"] for r in records)
    ok = report(2, "sequential predictive product equals the partition law, n <= 8",
                worst <= 1e-10 and all(r["passed"] for r in records),
                f"max |gap| = {worst:.2e}, tol 1e-10")
    assert ok


def test_criterion_03_stick_sampler_total_variation():
    records = check_sampler_law_tv("stick", trials=1_000_000, seed=SEED)
    assert [r["seed"] for r in records] == [SEED, SEED + 1, SEED + 2, SEED + 3]
    assert all(r["n"] == 4 and r["trials"] == 1_000_000 and r["bound"] == 0.005
               for r in records)
    worst = max(r["tv"] for r in records)
    detail = ", ".join(f"({r['alpha']},{r['d']}): {r['tv']:.4f}" for r in records)
    ok = report(3, "one million stick-construction draws vs the law, n = 4",
                worst < 0.005 and all(r["passed"] for r in records), f"{detail}; bound 0.005")
    assert ok


def test_criterion_04_allocation_marginal():
    # exact-route vs independent beta-moment route, all labels <= 4, n <= 3
    def oracle(params, z):
        stats = allocation_stats(z)
        total = 0.0
        for j in range(1, stats.m + 1):
            e, f = stats.e[j - 1], stats.f[j - 1]
            total += betaln(e + 1.0 - params.d, f + params.alpha + j * params.d)
            total -= betaln(1.0 - params.d, params.alpha + j * params.d)
        return float(total)

    worst = 0.0
    for params in (PYParams(1.0, 0.5), PYParams(0.3, 0.7), PYParams(2.0, 0.9)):
        for n in (1, 2, 3):
            for z in product(range(1, 5), repeat=n):
                worst = max(worst, abs(allocation_log_prob(params, z) - oracle(params, z)))

    # truncated normalization at n = 2: monotone, reaching 0.99 by labels 60.
    # The criterion leaves (alpha, d) open; d = 0.1 is used because 60 labels
    # hold that much mass there (at d = 0.5 they provably hold only ~0.91).
    (record,) = check_allocation_truncated_normalization()
    assert (record["alpha"], record["d"], record["n"]) == (1.0, 0.1, 2)
    assert record["levels"][-1] == 60 and record["target"] == 0.99
    partial, monotone = record["partial_sums"], record["monotone"]
    ok = report(
        4,
        "allocation marginal: oracle match (n <= 3) and truncated normalization",
        worst <= 1e-10 and monotone and partial[-1] >= 0.99 and record["passed"],
        f"max |gap| = {worst:.2e} (tol 1e-10); partial sum at 60 labels = "
        f"{partial[-1]:.6f} (target 0.99, alpha=1, d=0.1), monotone={monotone}",
    )
    assert ok


def test_criterion_05_urn_permutation_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for d in (0.0, 0.3, 0.9):
        for _ in range(100):
            k = int(rng.integers(1, 8))
            sizes = [int(v) for v in rng.integers(1, 11, size=k)]
            lhs, rhs = lemma_c_check(sizes, d)
            worst = max(worst, abs(lhs - rhs) / rhs)
    ok = report(5, "permutation-sum urn identity, 100 random size vectors per d",
                worst <= 1e-12, f"max rel err = {worst:.2e}, tol 1e-12")
    assert ok


def bridge_values(params, max_label):
    """(n, rebuilt, exact) for every partition of up to four elements."""
    for n in range(1, 5):
        for partition in enumerate_partitions(n):
            truncated, _ = lemma_b_truncated_sum(params, partition, max_label)
            log_pref = -math.fsum(
                math.log(params.alpha + j) for j in range(partition.n)
            )
            for s in partition.block_sizes():
                log_pref += math.lgamma(s + 1.0 - params.d) - math.lgamma(1.0 - params.d)
            got = math.exp(log_pref) * truncated
            want = math.exp(eppf_log_prob(params, partition))
            yield n, got, want


def bridge_worst_error(params, max_label):
    return max(abs(got - want) for _, got, want in bridge_values(params, max_label))


def kept_label_mass(params, n, max_label):
    """Pr(z_1..z_n <= max_label) = E[(1 - prod_{j<=L} (1-V_j))^n] with
    V_j ~ Beta(1-d, alpha+jd), expanded binomially into beta moments."""
    total = 0.0
    for r in range(n + 1):
        keep = math.prod(
            beta_moment(1.0 - params.d, params.alpha + j * params.d, 0.0, r)
            for j in range(1, max_label + 1)
        )
        total += math.comb(n, r) * (-1) ** r * keep
    return total


def test_criterion_06_label_sum_bridge_at_nominal_truncation():
    # Truncated at 60, the rebuilt values are Pr(C and every label <= 60):
    # never above Pr(C), and summing over the partitions of [n] to the kept
    # mass.  Off by one label, the kept mass moves by more than 7e-4 here.
    params, max_label = PYParams(1.0, 0.5), 60
    rebuilt = {n: 0.0 for n in range(1, 5)}
    deficit = 0.0
    below = True
    for n, got, want in bridge_values(params, max_label):
        rebuilt[n] += got
        deficit = max(deficit, want - got)
        below &= got <= want + constants.TOL_ROUNDING
    kept = {n: kept_label_mass(params, n, max_label) for n in rebuilt}
    worst = max(abs(rebuilt[n] - kept[n]) for n in rebuilt)
    ok = report(
        6,
        "label-sum bridge at max_label 60 matches the mass the truncation keeps",
        below and worst <= constants.TOL_TRUNCATED,
        f"max |sum - kept mass| = {worst:.2e}, tol {constants.TOL_TRUNCATED:g}; "
        f"below the law: {below}; worst deficit against the law = {deficit:.3f} "
        f"and omitted mass at n = 4 = {1.0 - kept[4]:.3f}, both decaying like "
        "1/max_label -- see the companion test and README",
    )
    assert ok


def test_criterion_06_companion_bridge_converged():
    worst = bridge_worst_error(PYParams(1.0, 0.5), 100_000)
    ok = report(
        6,
        "companion: label-sum bridge within 1e-4 at max_label 100000",
        worst <= 1e-4,
        f"max |err| = {worst:.2e}",
    )
    assert ok


def test_criterion_07_nested_gap_sums():
    records = check_lemma_d()
    assert len(records) == 6
    assert all(r["tolerance"] == 1e-4 and r["truncations"][-1] == 500 for r in records)
    worst = max(r["final_gap"] for r in records)
    monotone = all(r["monotone"] and r["below_limit"] for r in records)
    ok = report(7, "nested gap sums approach their closed form monotonically",
                worst <= 1e-4 and monotone and all(r["passed"] for r in records),
                f"max gap at truncation 500 = {worst:.2e}, tol 1e-4; monotone={monotone}")
    assert ok


def test_criterion_08_block_count_growth():
    power, log = check_growth(seed=SEED + 5)
    assert (power["seed"], log["seed"]) == (SEED + 8, SEED + 9)
    assert power["bounds"] == [0.4, 0.6]
    assert log["n"] == 100_000 and log["rel_tolerance"] == 0.3
    ok = report(
        8,
        "power-law block growth (d=0.5) and logarithmic growth (d=0)",
        0.4 <= power["exponent"] <= 0.6 and abs(log["ratio"] - 1.0) <= 0.3
        and power["passed"] and log["passed"],
        f"fitted exponent = {power['exponent']:.4f} (bounds [0.4, 0.6]); "
        f"mean/log(n) at n=1e5 = {log['ratio']:.4f} (within 30% of alpha=1)",
    )
    assert ok


def test_criterion_09_dirichlet_limit():
    records = check_dp_limit()
    assert [r["alpha"] for r in records] == [0.5, 1.0, 5.0]
    assert all(r["d"] == 1e-8 and r["tolerance"] == 1e-6 and r["max_n"] == 6
               for r in records)
    worst = max(r["max_abs_error"] for r in records)
    ok = report(9, "discount 1e-8 matches the Dirichlet branch in probability space",
                worst <= 1e-6 and all(r["passed"] for r in records),
                f"max |gap| = {worst:.2e}, tol 1e-6")
    assert ok


def test_criterion_10_cli_determinism(capsys):
    sample_argv = ["sample", "--method", "stick", "--alpha", "1", "--d", "0.5",
                   "--n", "4", "--trials", "1000", "--seed", "42", "--tabulate"]
    verify_argv = ["verify", "--suite", "lemmaC", "--seed", "11"]
    outputs = []
    for argv in (sample_argv, sample_argv, verify_argv, verify_argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        outputs.append((argv[0], code, captured.out))
    same_sample = outputs[0] == outputs[1]
    same_verify = outputs[2] == outputs[3]
    with capsys.disabled():
        ok = report(10, "repeated CLI invocations with fixed seeds are byte-identical",
                    same_sample and same_verify,
                    f"sample identical={same_sample}, verify identical={same_verify}")
    assert ok
