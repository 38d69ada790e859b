"""Identify source-code file experts from version-control history.

The pipeline mines a repository's non-merge history, unifies author
aliases, computes twelve development variables per (developer, file) pair,
and scores expertise with three linear techniques plus machine-learning
classifiers, with calibration and correlation tooling for study-style
evaluation.

The names below are loaded on first use (PEP 562), so importing the
package, or one numpy-free submodule, does not import numpy: only ``ml``,
``stats``, ``study`` and ``validation`` do.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "diffs": ("ChangeStats", "DiffHunk", "classify_changes", "count_conditionals", "levenshtein"),
    "errors": ("FileExpertsError",),
    "expertise": (
        "BLAME", "DOA", "NUM_COMMITS", "TECHNIQUES", "ExpertiseScore", "OracleSets",
        "ThresholdCurve", "calibrate", "classify", "doa", "technique_scores",
    ),
    "features": (
        "FeatureTable", "FeatureVector", "MiningInputs", "compute_all", "feature_table",
        "feature_table_to_csv", "mine_history", "read_feature_csv", "write_feature_csv",
    ),
    "gitlog": (
        "BlobReader", "CommitHistory", "CommitRecord", "FileChangeEvent", "RawIdentity",
        "extract_history", "filter_source_files", "load_history", "resolve_lineages",
        "save_history",
    ),
    "identities": ("DeveloperId", "canonicalize_history", "developer_ids", "resolve_identities"),
    "ml": (
        "CVReport", "ClassifierSpec", "MLDataset", "cross_validate", "grid_search", "train",
    ),
    "stats": (
        "CorrelationResult", "correlation_matrix", "knowledge_correlations", "spearman",
        "spearman_permutation_p",
    ),
    "study": (
        "GroundTruthEntry", "RepoMetrics", "detect_bulk_import", "generate_sample",
        "process_answers", "quartile_filter", "read_ground_truth_csv",
    ),
}
_SUBMODULES = (*_EXPORTS, "fileio", "languages", "validation")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted((*_ORIGIN, *_SUBMODULES))


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    elif name in _ORIGIN:
        value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
