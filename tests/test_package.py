"""The package namespace: every public name, loaded on first use."""

import os
import re
import subprocess
import sys
import types
from importlib import import_module
from pathlib import Path

import pytest

import fileexperts
from fileexperts.features import compute_all, mine_history
from fileexperts.fixtures import RepoBuilder

PUBLIC = [
    "BLAME", "BlobReader", "CVReport", "ChangeStats", "ClassifierSpec", "CommitHistory", "CommitRecord",
    "CorrelationResult", "DOA", "DeveloperId", "DiffHunk", "ExpertiseScore", "FeatureTable",
    "FeatureVector", "FileChangeEvent", "FileExpertsError", "GroundTruthEntry", "MLDataset",
    "MiningInputs", "NUM_COMMITS", "OracleSets", "RawIdentity", "RepoMetrics", "TECHNIQUES",
    "ThresholdCurve", "calibrate", "canonicalize_history", "classify", "classify_changes",
    "compute_all", "correlation_matrix", "count_conditionals", "cross_validate",
    "detect_bulk_import", "developer_ids", "diffs", "doa", "errors", "expertise",
    "extract_history", "feature_table", "feature_table_to_csv", "features", "fileio",
    "filter_source_files", "generate_sample", "gitlog", "grid_search", "identities",
    "knowledge_correlations",
    "languages", "levenshtein", "load_history", "mine_history", "ml", "process_answers",
    "quartile_filter", "read_feature_csv", "read_ground_truth_csv", "resolve_identities",
    "resolve_lineages", "save_history", "spearman", "spearman_permutation_p",
    "stats", "study", "technique_scores", "train", "validation", "write_feature_csv",
]

SUBMODULES = {"diffs", "errors", "expertise", "features", "fileio", "gitlog", "identities",
              "languages", "ml", "stats", "study", "validation"}


def _fresh_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(fileexperts.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip()


def test_all_is_the_pinned_public_names():
    assert len(PUBLIC) == 70
    assert fileexperts.__all__ == PUBLIC


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public name that only the tests use is test-only API. Each name
    must appear in the library (outside ``__init__.py``, on a line other
    than its own ``def`` or ``class``), the benchmark, the demos or the
    README."""
    root = Path(__file__).resolve().parents[1]
    sources = [
        path.read_text(encoding="utf-8")
        for pattern in ("src/fileexperts/*.py", "bench/*.py", "demos/*.py", "README.md")
        for path in sorted(root.glob(pattern))
        if path.name != "__init__.py"
    ]
    assert len(sources) > 20
    uncalled = [
        name for name in PUBLIC
        if not any(
            re.search(rf"^(?!\s*(?:def|class) {name}\b).*\b{name}\b", text, re.MULTILINE)
            for text in sources
        )
    ]
    assert uncalled == []


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_defining_module_attribute(name):
    value = getattr(fileexperts, name)
    if name in SUBMODULES:
        assert value is import_module(f"fileexperts.{name}")
        return
    owner = import_module(f"fileexperts.{fileexperts._ORIGIN[name]}")
    assert value is getattr(owner, name)
    if isinstance(value, (type, types.FunctionType)):
        assert value.__module__ == owner.__name__


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fileexperts import *", namespace)
    assert set(PUBLIC) <= namespace.keys()
    assert namespace["compute_all"] is fileexperts.compute_all


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fileexperts.no_such_name
    assert not hasattr(fileexperts, "no_such_name")
    assert hasattr(fileexperts, "compute_all")


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(fileexperts))


def test_bare_import_loads_no_numpy():
    assert _fresh_python("import sys, fileexperts; print('numpy' in sys.modules)") == "False"


def test_mining_loads_no_openssl(demo_repo_path, tmp_path):
    """A cold and then a warm mine name their cache entry without hashlib,
    which would map OpenSSL's libcrypto into the process."""
    argv = ["mine", "--repo", str(demo_repo_path), "--branch", "main",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out.csv")]
    loaded = _fresh_python(
        "import sys; from fileexperts.cli import main; "
        f"assert main({argv!r}) == main({argv!r}) == 0; "
        "print(sorted({'hashlib', '_hashlib', 'ssl', '_ssl'} & sys.modules.keys()))"
    )
    assert loaded == "[]"
    assert len(list((tmp_path / "cache").glob("features-*.csv"))) == 1


def test_no_command_imports_scipy(tmp_path):
    """The t-approximation p-values are computed in the package, so no
    command loads scipy, whether run cold or on a warm cache: each runs in
    its own fresh interpreter."""
    repo = RepoBuilder(tmp_path / "repo")
    for i in range(12):
        name = ("Ana", "Bo", "Cy")[i % 3]
        repo.commit(name, f"{name.lower()}@x.com", 1_600_000_000 + i * 86_400,
                    writes={f"src/f{i}.py": f"start_{i} = {i}\nif start_{i} > 2:\n    w = 1\n"})
    for i in range(6):
        name = ("Bo", "Cy", "Ana")[i % 3]
        repo.commit(name, f"{name.lower()}@x.com", 1_601_000_000 + i * 86_400,
                    writes={f"src/f{i}.py": f"start_{i} = {i}\nextra_{i} = 1\n"})
    repo = repo.finish()
    truth = tmp_path / "truth.csv"
    rows = ["repo,developer_email,file,knowledge"] + [
        f"fixture,{row.developer},{row.file},{5 if i % 2 else 2}"
        for i, row in enumerate(compute_all(mine_history(repo, "main")).rows)
    ]
    truth.write_text("\n".join(rows) + "\n")
    common = ["--repo", str(repo), "--branch", "main", "--cache-dir", str(tmp_path / "cache"),
              "--out", str(tmp_path / "out")]
    labeled = ["--truth", str(truth), "--folds", "3"]
    commands = [
        ["mine"],
        ["rank", "--technique", "doa", "--file", "src/f0.py"],
        ["correlate", "--truth", str(truth)],
        ["correlate", "--matrix", "--truth", str(truth)],
        ["correlate", "--exact-p", "--truth", str(truth)],
        ["calibrate", "--technique", "doa", *labeled],
        ["evaluate", "--classifier", "logistic_regression", *labeled],
    ]
    for command in commands:
        loaded = _fresh_python(
            "import sys; from fileexperts.cli import main; "
            f"print(main({[*command, *common]!r}), 'scipy' in sys.modules)"
        )
        assert (command, loaded) == (command, "0 False")


def test_diffs_is_a_text_layer():
    """diffs imports no pipeline module and loads no language table, since
    features hands it each lineage's ``LanguageSpec``; features owns the
    lineage replay and identities takes its edit distance from diffs. The
    benchmark tracer wraps these functions through each owner's
    ``__dict__``."""
    loaded = _fresh_python(
        "import sys, fileexperts.diffs; "
        "print(sorted(m for m in sys.modules if m.startswith('fileexperts.')))"
    )
    assert "fileexperts.gitlog" not in loaded
    assert "fileexperts.identities" not in loaded
    from fileexperts import diffs, features, identities

    assert "LanguageConfig" not in diffs.__dict__
    assert "default_language_config" not in diffs.__dict__
    assert "blame_from_events" in features.__dict__
    assert "blame_from_events" not in diffs.__dict__
    assert "BlameState" not in features.__dict__
    assert identities.__dict__["levenshtein"] is diffs.__dict__["levenshtein"]
