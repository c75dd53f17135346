"""Two constructions, one partition law.

The process has two standard sampling routes:

  * stick-breaking: a unit stick broken by independent beta fractions, with
    each observation on the stick it lands on, and observations that share a
    stick grouped.  The engine realizes no stick: it integrates the fractions
    out, so the observations not yet placed hit each stick in beta-binomial
    numbers, and it jumps from one hit stick to the next;
  * restaurant-style: seat observations one at a time, joining an existing
    block with probability proportional to (size - d) and opening a new
    block with probability proportional to (alpha + #blocks * d).

Both induce the same distribution over partitions.  This script checks the
claim three ways: exactly (the sequential product of predictive probabilities
reproduces the law factor for factor), and empirically for both samplers via
total variation distance against the exact law.
"""

import math

from pitmanyor import (
    PYParams,
    enumerate_partitions,
    eppf_log_prob,
    format_partition,
    run_monte_carlo,
    sequential_log_prob,
    tv_distance,
)

params = PYParams(alpha=1.0, d=0.5)

print("Exact route: sequential predictive product vs the law, all partitions of [5]")
worst = 0.0
for partition in enumerate_partitions(5):
    gap = abs(sequential_log_prob(params, partition) - eppf_log_prob(params, partition))
    worst = max(worst, gap)
print(f"  largest |log difference| = {worst:.2e}")
print()

trials = 200_000
print(f"Empirical route: {trials} draws of a partition of [4] per sampler")
print(f"{'partition':<14}{'exact':>10}{'stick':>10}{'crp':>10}")
stick = run_monte_carlo(params, 4, trials, "stick", seed=101)
crp = run_monte_carlo(params, 4, trials, "crp", seed=202)
for partition in enumerate_partitions(4):
    exact = math.exp(eppf_log_prob(params, partition))
    print(
        f"{format_partition(partition):<14}"
        f"{exact:>10.5f}{stick.freq(partition):>10.5f}{crp.freq(partition):>10.5f}"
    )
print()
print(f"total variation to the exact law: stick {tv_distance(stick):.5f}, "
      f"crp {tv_distance(crp):.5f}")
print("(a million-draw run drives both below 0.005; see the verify suite)")
