"""Corpus abnormality scoring and pruning.

Featurizes every context of a question-answering corpus as positional
n-gram densities, scores each example's squared Mahalanobis distance from
the corpus feature distribution, selects reduced training sets from the
low tail, high tail, and mean-proximal region of the score distribution,
and emits distribution reports (histogram, kurtosis, length-score
correlation).
"""

from .analyze import DistributionStats, Histogram, emit_report, histogram, moments_stats, pearson
from .corpus import (
    Corpus,
    ingest_file,
    ingest_jsonl,
    ingest_squad,
    write_subset,
)
from .errors import (
    AbnormalityError,
    CapacityError,
    FitError,
    ParseError,
    SchemaError,
    SingularityError,
    StaleScoresError,
    StatError,
)
from .featurize import (
    DensityTable,
    FeatureMatrix,
    build_matrix,
    fit_density,
    tokenize,
)
from .mahalanobis import (
    Moments,
    MomentModel,
    ScoreVector,
    fit_moments,
    regularized_factorize,
    score_all,
)
from .sampler import Selection, SelectionSpec, select_bucketed, select_global

__version__ = "0.1.0"

__all__ = [
    "AbnormalityError",
    "CapacityError",
    "Corpus",
    "DensityTable",
    "DistributionStats",
    "FeatureMatrix",
    "FitError",
    "Histogram",
    "Moments",
    "MomentModel",
    "ParseError",
    "SchemaError",
    "ScoreVector",
    "Selection",
    "SelectionSpec",
    "SingularityError",
    "StaleScoresError",
    "StatError",
    "build_matrix",
    "emit_report",
    "fit_density",
    "fit_moments",
    "histogram",
    "ingest_file",
    "ingest_jsonl",
    "ingest_squad",
    "moments_stats",
    "pearson",
    "regularized_factorize",
    "score_all",
    "select_bucketed",
    "select_global",
    "tokenize",
    "write_subset",
]
