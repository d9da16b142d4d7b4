"""Cross-domain collaborative filtering through cluster-level rating patterns.

Users share one cluster space across all rating domains; items belong to
common clusters (whose rating patterns transfer across domains) and to
domain-specific clusters.  Training is annealed EM over the pooled rating
triples; prediction mixes the two bilinear rating functions per domain.
"""

from .baselines import NmfFactors, common_only_train, domain_matrix, fmm_train, nmf_predict, nmf_train
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    CrossDomainDataset,
    DataError,
    GivenNSplit,
    RatingTriple,
    RawRating,
    ScaleSpec,
    build_dataset,
    given_n_split,
    load_dataset,
    normalize_scale,
    parse_ratings,
    save_dataset,
    select_subset,
)
from .em import (
    ModelDims,
    ModelError,
    PclfParams,
    Responsibilities,
    TraceEntry,
    TrainConfig,
    e_step,
    init_params,
    log_likelihood,
    m_step,
    train,
)
from .evaluate import (
    ExperimentConfig,
    ResultsReport,
    SyntheticSpec,
    mae,
    report_table,
    run_experiment,
    synth_generate,
)
from .inference import (
    ClusterRatingMatrices,
    MembershipVectors,
    PredictionWeights,
    cluster_rating_matrices,
    complete_matrix,
    memberships,
    predict,
    predict_cross,
    predict_many,
)
from .kernels import active_backend

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "ClusterRatingMatrices",
    "CrossDomainDataset",
    "DataError",
    "ExperimentConfig",
    "GivenNSplit",
    "MembershipVectors",
    "ModelDims",
    "ModelError",
    "NmfFactors",
    "PclfParams",
    "PredictionWeights",
    "RatingTriple",
    "RawRating",
    "Responsibilities",
    "ResultsReport",
    "ScaleSpec",
    "SyntheticSpec",
    "TraceEntry",
    "TrainConfig",
    "active_backend",
    "build_dataset",
    "cluster_rating_matrices",
    "common_only_train",
    "complete_matrix",
    "domain_matrix",
    "e_step",
    "fmm_train",
    "given_n_split",
    "init_params",
    "load_checkpoint",
    "load_dataset",
    "log_likelihood",
    "m_step",
    "mae",
    "memberships",
    "nmf_predict",
    "nmf_train",
    "normalize_scale",
    "parse_ratings",
    "predict",
    "predict_cross",
    "predict_many",
    "report_table",
    "run_experiment",
    "save_checkpoint",
    "save_dataset",
    "select_subset",
    "synth_generate",
    "train",
]
