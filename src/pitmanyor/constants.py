"""Shared constants: tolerance ledger and seed defaults.

Tests, the verification suites and the docs all read tolerances from here so
they cannot drift apart.
"""

# Default CLI / verification seed.  A fixed constant, never wall-clock, so
# repeated invocations are byte-identical.
DEFAULT_SEED = 1729

# Exact identities checked by exhaustive enumeration (normalization of the
# partition law, sequential-product identity, addition consistency).
TOL_EXHAUSTIVE = 1e-10

# Continuity of the partition law at the Dirichlet limit, measured in
# probability space at d = 1e-8.
TOL_DP_LIMIT = 1e-6
DP_LIMIT_DISCOUNT = 1e-8

# One-step predictive vector must sum to one to this absolute accuracy.
TOL_PREDICTIVE_SUM = 1e-15

# Relative error of the permutation-sum (size-biased urn) identity.
TOL_LEMMA_C = 1e-12

# Truncated-sum agreement targets (label-sum bridge, nested gap sums).
TOL_TRUNCATED = 1e-4

# Rounding slack for inequalities that hold exactly, such as a truncated sum
# of positive terms never exceeding its limit.
TOL_ROUNDING = 1e-12

# Total variation bound for million-draw sampler-vs-law comparisons.
TV_BOUND = 0.005
TV_TRIALS = 1_000_000

# z-score used to derive Monte Carlo tolerances from binomial standard
# errors; 3.5 sigma keeps the flake probability of the whole suite below 1%.
MC_SIGMA = 3.5

# Hard cap on the sticks the scalar walk realizes: turns a pathological
# RNG/parameter interaction into a loud error instead of a hang.  Note that
# for d >= 0.5 the stick index of a single observation is heavy-tailed enough
# that one draw in ~10^5 legitimately needs more than this many sticks;
# sampling at scale uses the batch samplers, which realize no sticks.
STICK_CAP = 1_000_000
