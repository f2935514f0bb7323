"""rankmix: clustering partially observed ranking data from mixtures of
random utility models, via pairwise-marginal embeddings, hard singular value
thresholding, and single-linkage clustering.
"""

from .clustering import ClusteringResult, single_linkage
from .estimation import (
    HsvtEstimate,
    ObservationMatrix,
    SpectralGapReport,
    SvdResult,
    compute_svd,
    delta_bound,
    estimate_p_hat,
    hsvt,
    select_threshold,
    spectral_gap_check,
)
from .evaluation import (
    EvaluationReport,
    empirical_tau,
    misclassification_rate,
    separation_gamma,
)
from .experiments import (
    EXP2_COLUMNS,
    EXP3_COLUMNS,
    EXPERIMENTS,
    ExperimentConfig,
    default_config,
    run_experiment,
)
from .fileio import (
    read_key_values,
    read_labels,
    read_matrix,
    read_mixture_spec,
    write_key_values,
    write_labels,
    write_matrix,
    write_mixture_spec,
)
from .generators import (
    ComponentSpec,
    MixtureSpec,
    SampleBatch,
    cluster_mean,
    exact_pairwise_marginal,
    mask,
    normal_utilities,
    sample_mixture,
)
from .pipeline import PipelineError, PipelineResult, run_pipeline, run_pipeline_samples
from .rankings import (
    Permutation,
    embed,
    embedding_distance_sq,
    kendall_tau,
    pair_index,
    pair_of,
)
from .seeding import substream

__all__ = [
    "EXP2_COLUMNS",
    "EXP3_COLUMNS",
    "EXPERIMENTS",
    "ClusteringResult",
    "ComponentSpec",
    "EvaluationReport",
    "ExperimentConfig",
    "HsvtEstimate",
    "MixtureSpec",
    "ObservationMatrix",
    "Permutation",
    "PipelineError",
    "PipelineResult",
    "SampleBatch",
    "SpectralGapReport",
    "SvdResult",
    "cluster_mean",
    "compute_svd",
    "default_config",
    "delta_bound",
    "embed",
    "embedding_distance_sq",
    "empirical_tau",
    "estimate_p_hat",
    "exact_pairwise_marginal",
    "hsvt",
    "kendall_tau",
    "mask",
    "misclassification_rate",
    "normal_utilities",
    "pair_index",
    "pair_of",
    "read_key_values",
    "read_labels",
    "read_matrix",
    "read_mixture_spec",
    "run_experiment",
    "run_pipeline",
    "run_pipeline_samples",
    "sample_mixture",
    "select_threshold",
    "separation_gamma",
    "single_linkage",
    "spectral_gap_check",
    "substream",
    "write_key_values",
    "write_labels",
    "write_matrix",
    "write_mixture_spec",
]

__version__ = "0.13.0"
