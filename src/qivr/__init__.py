"""Query-by-image video retrieval over distance-sensitive Bloom filters.

Scenes are indexed as Bloom filters of locality-sensitive hash buckets;
queries probe the same buckets through an inverted index and scenes are
ranked by hash-match counts or TF-IDF weighted scores. Binarized
Fisher-vector baselines with exhaustive Hamming search are included for
comparison.
"""

from .bloom import FilterConfig, SceneFilter, bit_budget
from .embedding import (DescriptorSet, DiagonalGmm, FisherVector, PcaModel,
                        PointIndexedTriplet, apply_pca, compute_fv, fit_gmm,
                        fit_pca, point_index, point_index_batch, posteriors,
                        reconstruct_hard_fv)
from .errors import (BucketRangeError, ConfigError, DimensionMismatch,
                     EmptyInputError, FingerprintMismatch, FormatError,
                     InsufficientData, QivrError)
from .evaluation import (EvalReport, SyntheticSpec, aggregate_trials,
                         average_precision, gen_synthetic, mean_ap,
                         run_benchmark)
from .hashing import (HashBank, HashFamilyConfig, sample_hash_bank,
                      train_vq_bank)
from .index import (InvertedIndex, ModelBundle, QueryResult, SceneRecord,
                    ScoringConfig, build_bf_gd, build_bf_pi, compute_idf,
                    materialize_filters, rank_ties, score_query)

__version__ = "0.1.0"

__all__ = [
    "BucketRangeError",
    "ConfigError",
    "DescriptorSet",
    "DiagonalGmm",
    "DimensionMismatch",
    "EmptyInputError",
    "EvalReport",
    "FilterConfig",
    "FingerprintMismatch",
    "FisherVector",
    "FormatError",
    "HashBank",
    "HashFamilyConfig",
    "InsufficientData",
    "InvertedIndex",
    "ModelBundle",
    "PcaModel",
    "PointIndexedTriplet",
    "QivrError",
    "QueryResult",
    "SceneFilter",
    "SceneRecord",
    "ScoringConfig",
    "SyntheticSpec",
    "aggregate_trials",
    "apply_pca",
    "average_precision",
    "bit_budget",
    "build_bf_gd",
    "build_bf_pi",
    "compute_fv",
    "compute_idf",
    "fit_gmm",
    "fit_pca",
    "gen_synthetic",
    "materialize_filters",
    "mean_ap",
    "point_index",
    "point_index_batch",
    "posteriors",
    "rank_ties",
    "reconstruct_hard_fv",
    "run_benchmark",
    "sample_hash_bank",
    "score_query",
    "train_vq_bank",
]
