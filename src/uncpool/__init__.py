"""uncpool: partition-averaged Bayesian pooling of survey estimates.

Combines point estimates from several sources by averaging over all set
partitions of the sources, so data are pooled only within clusters the data
support.  Includes a complete-pooling baseline, a Dirichlet-process-mixture
baseline, and a simulation harness for coverage and bias studies.
"""

import importlib

from .errors import ComputationError, DomainError, ParseError, UncpoolError
from .grid import (DeltaGrid, JointGridPosterior, PartitionMass, PoolAllPosterior,
                   PosteriorDraws, SummaryTable, build_grid, evaluate_joint,
                   exact_mixture_moments, marginal_delta2, marginal_g, pool_all, sample_mu,
                   summarize)
from .io import DpmConfig, ReportDocument, RunConfig, input_echo, logit_transform, parse_input
from .model import (ClusterStats, ConditionalMoments, SurveyData, cluster_stats,
                    conditional_moments, log_inv_beta_prior, log_joint_kernel,
                    log_partition_likelihood, q_statistic, shrinkage)
from .partitions import (Partition, PartitionSpace, bell_number, display_label_l3,
                         enumerate_partitions)
__version__ = "0.1.0"

# The simulation harness and the DPM load on first use, so CLI commands that
# need neither skip importing them.
_LAZY = {
    **dict.fromkeys(("DELTA_STEP", "SimReport", "SimScenario", "generate_replicate",
                     "parse_scenario", "run_scenario", "sd_reduction"), "simulation"),
    **dict.fromkeys(("DpmDraws", "DpmExactResult", "DpmQuadrature", "dpm_exact", "dpm_gibbs",
                     "dpm_partition_prior", "dpm_quadrature"), "baselines"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)

#: Array backend of the numeric kernels; numpy is the only one.
BACKEND = "numpy"

__all__ = [
    "BACKEND", "ClusterStats", "ComputationError", "ConditionalMoments",
    "DELTA_STEP", "DeltaGrid", "DomainError", "DpmConfig", "DpmDraws",
    "DpmExactResult", "DpmQuadrature", "JointGridPosterior", "Partition",
    "PartitionMass", "PartitionSpace", "ParseError", "PoolAllPosterior",
    "PosteriorDraws",
    "ReportDocument", "RunConfig", "SimReport", "SimScenario", "SummaryTable",
    "SurveyData", "UncpoolError", "bell_number", "build_grid", "cluster_stats",
    "conditional_moments", "display_label_l3", "dpm_exact", "dpm_gibbs",
    "dpm_partition_prior", "dpm_quadrature", "enumerate_partitions", "evaluate_joint",
    "exact_mixture_moments", "generate_replicate", "input_echo",
    "log_inv_beta_prior", "log_joint_kernel", "log_partition_likelihood",
    "logit_transform", "marginal_delta2", "marginal_g", "parse_input",
    "parse_scenario", "pool_all", "q_statistic", "run_scenario", "sample_mu",
    "sd_reduction", "shrinkage", "summarize",
]
