"""The identity suite behind the partition law, checked numerically.

The equality of the two constructions rests on a handful of identities:

  * the allocation-label marginal (closed form vs a product of beta moments);
  * a permutation-sum identity from size-biased sampling without replacement;
  * nested geometric-style gap sums with a rising-factorial closed form;
  * a label-sum identity tying the allocation marginal to the partition law.

Each has an independent numerical oracle here: brute enumeration, truncated
sums with monotone convergence, or sums over block orders taken by a
recursion over sub-multisets of block sizes.  The label-sum bridge
converges slowly on purpose -- the omitted labels carry Theta(1/max_label)
probability because the label distribution is itself a power law.
"""

import math

from pitmanyor import (
    Partition,
    PYParams,
    allocation_log_prob,
    beta_moment,
    eppf_log_prob,
    lemma_b_truncated_sum,
    lemma_c_check,
    lemma_d_check,
)

params = PYParams(alpha=1.0, d=0.5)

print("Allocation-label marginal at alpha=1, d=0.5 (closed form):")
for z in ((1,), (2,), (3,), (1, 1), (1, 2)):
    print(f"  Pr(z = {z}) = {math.exp(allocation_log_prob(params, z)):.6f}")
print("  (Pr(z1 = b) = 3/((b+2)(b+3)) here: a power-law tail in the label)")
print()

print("Beta moments, closed form B(a+c, b+e)/B(a, b):")
print(f"  E[y]      for Beta(1.0, 1.0)  = {beta_moment(1.0, 1.0, 1.0, 0.0):.6f}")
print(f"  E[y(1-y)] for Beta(2.0, 3.0)  = {beta_moment(2.0, 3.0, 1.0, 1.0):.6f}")
print()

print("Permutation-sum urn identity (exact for every size vector):")
for sizes, d in (([2, 3], 0.5), ([4, 1, 1, 2], 0.3), ([1, 1, 1], 0.0)):
    lhs, rhs = lemma_c_check(sizes, d)
    print(f"  sizes {sizes}, d={d}: permutation sum {lhs:.12f} vs product form {rhs:.12f}")
print()

print("Nested gap sums converge monotonically to their closed form:")
offsets = [4.0, 2.0]
for cap in (25, 50, 100, 200, 400):
    lhs, rhs = lemma_d_check(params, offsets, cap)
    print(f"  cap {cap:>4}: partial {lhs:.10f}   (limit {rhs:.10f}, gap {rhs - lhs:.2e})")
print()

print("Label-sum bridge: rebuild Pr(partition) from the truncated label sum.")
partition = Partition.from_blocks([[1], [2]])
exact = math.exp(eppf_log_prob(params, partition))
print(f"  target: Pr(1|2) = {exact}")
for max_label in (60, 600, 6_000, 60_000):
    truncated, _ = lemma_b_truncated_sum(params, partition, max_label)
    prefactor = math.exp(
        sum(math.lgamma(s + 1 - params.d) - math.lgamma(1 - params.d)
            for s in partition.block_sizes())
        - sum(math.log(params.alpha + j) for j in range(partition.n))
    )
    value = prefactor * truncated
    print(f"  labels <= {max_label:>6}: reconstruction {value:.8f}  (gap {exact - value:.2e})")
print("  the gap shrinks like 1/max_label -- the price of a power-law label tail")
