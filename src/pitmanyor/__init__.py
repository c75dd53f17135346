"""Two-parameter (concentration/discount) random partitions.

The package provides the two standard routes to the same partition law --
the stick-breaking construction and the sequential restaurant-style sampler
-- together with exact log-space evaluators and a verification harness that
confirms numerically that the two routes agree, along with the supporting
identities used to prove it.
"""

from .constants import DEFAULT_SEED
from .core import (
    LogProb,
    Partition,
    PYParams,
    enumerate_partitions,
    log_rising_factorial,
    partition_from_allocations,
)
from .crp import (
    crp_sample_partition,
    sample_label_matrix,
    sequential_log_prob,
)
from .eppf import dp_log_prob, eppf_log_prob, normalization_check
from .harness import (
    EmpiricalPartitionDist,
    GrowthRecord,
    format_partition,
    growth_experiment,
    parse_partition,
    run_monte_carlo,
    sample_partitions,
    tv_distance,
)
from .marginal import (
    AllocationStats,
    allocation_log_prob,
    allocation_stats,
    beta_moment,
    lemma_b_truncated_sum,
    lemma_c_check,
    lemma_d_check,
)
from .stickbreak import (
    beta_sample,
    sample_allocations_batch,
    sample_partition_labels_batch,
    stickbreak_sample_partition,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "LogProb",
    "PYParams",
    "Partition",
    "AllocationStats",
    "EmpiricalPartitionDist",
    "GrowthRecord",
    "log_rising_factorial",
    "enumerate_partitions",
    "partition_from_allocations",
    "eppf_log_prob",
    "dp_log_prob",
    "normalization_check",
    "crp_sample_partition",
    "sequential_log_prob",
    "sample_label_matrix",
    "beta_sample",
    "sample_allocations_batch",
    "sample_partition_labels_batch",
    "stickbreak_sample_partition",
    "allocation_stats",
    "allocation_log_prob",
    "beta_moment",
    "lemma_b_truncated_sum",
    "lemma_c_check",
    "lemma_d_check",
    "format_partition",
    "parse_partition",
    "sample_partitions",
    "run_monte_carlo",
    "tv_distance",
    "growth_experiment",
    "run_suite",
]
