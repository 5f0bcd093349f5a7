"""coreselect: weighted benchmark coresets for multi-task model evaluation.

Selects minimal weighted item subsets whose scores reproduce full-benchmark
model rankings, and trains linear regressors on subset scores to predict
human preference ratings.
"""

__version__ = "0.1.0"

from .errors import ValidationError
from .pool import (
    HumanRatingsTable,
    ItemRecord,
    NormalizationRule,
    ScoreMatrix,
    load_pool,
    load_ratings,
    normalize,
    rescale_rating,
)
from .weighting import (
    SubsetSpec,
    apw_score,
    apw_scores,
    balance_weights,
    reference_score,
    reference_scores,
)
from .embeddings import EmbeddingSet, assemble_combined, minmax_scale, pca_reduce
from .selectors import ClusterResult, SelectorConfig, run_selector, weighted_kmeans
from .irt import BinarizedResponses, IrtModel, binarize, estimate_ability, fit_m2pl
from .regression import RidgeModel, pairwise_52, preference_lomo, ridge_cv, ridge_fit
from .evaluation import (
    CorrelationCurve,
    EvalReport,
    aucc,
    crossval_curves,
    kendall,
    n_threshold,
    pearson,
    spearman,
)
from .synth import SynthConfig, gen_benchmark, gen_m2pl_dataset

__all__ = [
    "ValidationError",
    "ItemRecord",
    "NormalizationRule",
    "ScoreMatrix",
    "HumanRatingsTable",
    "load_pool",
    "load_ratings",
    "normalize",
    "rescale_rating",
    "SubsetSpec",
    "balance_weights",
    "reference_score",
    "reference_scores",
    "apw_score",
    "apw_scores",
    "EmbeddingSet",
    "pca_reduce",
    "minmax_scale",
    "assemble_combined",
    "SelectorConfig",
    "ClusterResult",
    "weighted_kmeans",
    "run_selector",
    "BinarizedResponses",
    "IrtModel",
    "binarize",
    "fit_m2pl",
    "estimate_ability",
    "RidgeModel",
    "ridge_fit",
    "ridge_cv",
    "preference_lomo",
    "pairwise_52",
    "pearson",
    "spearman",
    "kendall",
    "CorrelationCurve",
    "EvalReport",
    "crossval_curves",
    "aucc",
    "n_threshold",
    "SynthConfig",
    "gen_benchmark",
    "gen_m2pl_dataset",
]
