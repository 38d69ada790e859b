"""Identify source-code file experts from version-control history.

The pipeline mines a repository's non-merge history, unifies author
aliases, computes twelve development variables per (developer, file) pair,
and scores expertise with three linear techniques plus machine-learning
classifiers, with calibration and correlation tooling for study-style
evaluation.
"""

from .diffs import (
    BlameState,
    ChangeStats,
    DiffHunk,
    apply_hunks,
    classify_changes,
    count_conditionals,
    line_diff,
    replay_blame,
)
from .errors import FileExpertsError
from .expertise import (
    DOA,
    BLAME,
    NUM_COMMITS,
    TECHNIQUES,
    ExpertiseScore,
    OracleSets,
    ThresholdCurve,
    calibrate,
    classify,
    doa,
    evaluate,
    technique_scores,
)
from .features import (
    FeatureTable,
    FeatureVector,
    compute_all,
    compute_features,
    developer_ids,
    feature_table_to_csv,
    read_feature_csv,
    write_feature_csv,
)
from .gitlog import (
    CommitHistory,
    CommitRecord,
    FileChangeEvent,
    RawIdentity,
    extract_history,
    filter_source_files,
    load_history,
    resolve_lineages,
    save_history,
)
from .identities import DeveloperId, canonicalize_history, levenshtein, resolve_identities
from .ml import (
    ClassifierSpec,
    CVReport,
    MLDataset,
    cross_validate,
    grid_search,
    standardize,
    train,
)
from .stats import (
    CorrelationResult,
    correlation_matrix,
    knowledge_correlations,
    spearman,
    spearman_permutation_p,
)
from .study import (
    GroundTruthEntry,
    RepoMetrics,
    detect_bulk_import,
    generate_sample,
    process_answers,
    quartile_filter,
    read_ground_truth_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
