"""Acceptance gate: each numbered criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Criterion 10 needs an external reference dataset and
is skipped (not failed) when that data is absent.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fileexperts.expertise import (
    BLAME,
    DOA,
    NUM_COMMITS,
    ExpertiseScore,
    OracleSets,
    calibrate,
    classify,
    doa,
    technique_scores,
)
from fileexperts.features import CSV_HEADER, compute_all, feature_table, mine_history
from fileexperts.fixtures import perf_repo, random_repo
from fileexperts.gitlog import resolve_lineages
from fileexperts.ml import (
    KNN,
    LOGISTIC_REGRESSION,
    RANDOM_FOREST,
    ClassifierSpec,
    MLDataset,
    cross_validate,
    logistic_gradient,
    logistic_loss,
)
from fileexperts.stats import spearman, spearman_permutation_p
from fileexperts.study import generate_sample, process_answers, read_ground_truth_csv
from oracles import naive_feature_table, precise_doa, spearman_no_ties
from test_ml import separable_dataset

REFERENCE_DATA_ENV = "FILEEXPERTS_REFERENCE_DATA"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS: {description}")


@pytest.fixture(scope="module")
def fixture_pipelines(tmp_path_factory):
    """25 seeded fixture repositories mined through the full pipeline."""
    base = tmp_path_factory.mktemp("acceptance")
    started = time.monotonic()
    pipelines = []
    for seed in range(100, 125):
        history = mine_history(random_repo(base / f"repo{seed}", seed=seed), "main")
        pipelines.append((history, compute_all(history)))
    elapsed = time.monotonic() - started
    return pipelines, elapsed


def test_criterion_1_doa_formula():
    with criterion(1, "authorship formula at its fixed constants (1e-9)"):
        assert abs(doa(1, 0, 0) - 4.391) <= 1e-9
        assert abs(doa(0, 0, 0) - 3.293) <= 1e-9
        assert abs(doa(1, 10, 5) - precise_doa(1, 10, 5)) <= 1e-9


def test_criterion_2_normalization_worked_example():
    with criterion(2, "blame {10,15,20} normalizes to {0.5,0.75,1.0}; k=0.7 picks d2,d3"):
        from datetime import datetime, timezone

        from fileexperts.features import FeatureRow, FeatureTable, FeatureVector

        rows = []
        for dev, blame in (("d1", 10), ("d2", 15), ("d3", 20)):
            rows.append(
                FeatureRow(
                    developer=dev,
                    file="f.py",
                    features=FeatureVector(
                        adds=blame, dels=0, mods=0, conds=0, amount=blame,
                        fa=int(dev == "d1"), blame=blame, num_commits=1,
                        num_days=0, num_mod_devs=0, size=45, avg_days_commits=0.0,
                    ),
                )
            )
        table = FeatureTable(
            rows=tuple(rows),
            reference_time=datetime(2021, 1, 1, tzinfo=timezone.utc),
        )
        scores = technique_scores(table, BLAME)
        assert {s.developer: s.normalized for s in scores} == {
            "d1": 0.5,
            "d2": 0.75,
            "d3": 1.0,
        }
        assert classify(scores, 0.7) == {("d2", "f.py"), ("d3", "f.py")}


def test_criterion_3_piecewise_boundary():
    with criterion(3, "k=0 requires normalized > 0; k=0.1 includes exactly 0.1"):
        scores = [
            ExpertiseScore("zero", "f.py", BLAME, raw=0.0, normalized=0.0),
            ExpertiseScore("tenth", "f.py", BLAME, raw=1.0, normalized=1.0 / 10.0),
            ExpertiseScore("top", "f.py", BLAME, raw=10.0, normalized=1.0),
        ]
        assert ("zero", "f.py") not in classify(scores, 0.0)
        assert ("tenth", "f.py") in classify(scores, 0.1)


def test_criterion_4_feature_brute_force_equivalence(fixture_pipelines):
    pipelines, build_elapsed = fixture_pipelines
    with criterion(4, "25 fixture repos match the naive replay oracle on all 12 fields"):
        started = time.monotonic()
        total_pairs = 0
        rename_events = sum(
            1
            for history, _table in pipelines
            for commit in history.commits
            for event in commit.changes
            if event.change_kind == "rename"
        )
        modified_pairs = sum(
            row.features.mods for _history, table in pipelines for row in table.rows
        )
        assert rename_events > 0 and modified_pairs > 0  # fixtures exercise both
        for history, table in pipelines:
            expected = naive_feature_table(history)
            actual = {
                (row.developer, row.file): dict(
                    zip(CSV_HEADER[2:], row.features.as_tuple())
                )
                for row in table.rows
            }
            assert set(actual) == set(expected)
            for pair in expected:
                assert actual[pair] == expected[pair], pair
            total_pairs += len(expected)
        elapsed = build_elapsed + (time.monotonic() - started)
        assert total_pairs > 0
        assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_blame_conservation(fixture_pipelines):
    pipelines, _elapsed = fixture_pipelines
    with criterion(5, "sum of blame equals size for every file in every fixture"):
        for _history, table in pipelines:
            per_file = {}
            for row in table.rows:
                per_file.setdefault(row.file, []).append(row.features)
            for file, vectors in per_file.items():
                assert sum(v.blame for v in vectors) == vectors[0].size, file


def test_criterion_6_spearman():
    with criterion(6, "rho ±1 (1e-12); 1000 no-tie vectors vs rank formula; permutation p"):
        assert abs(spearman([1, 2, 3, 4], [10, 20, 30, 40]).rho - 1.0) <= 1e-12
        assert abs(spearman([1, 2, 3, 4], [40, 30, 20, 10]).rho + 1.0) <= 1e-12

        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            assert abs(spearman(x, y).rho - spearman_no_ties(list(x), list(y))) <= 1e-12

        for trial in range(10):
            x = rng.permutation(8).astype(float)
            y = rng.permutation(8).astype(float)
            if np.all(x == y):
                continue
            t_approx = spearman(x, y).p_value
            exact = spearman_permutation_p(x, y)
            assert abs(t_approx - exact) <= 0.05, (trial, t_approx, exact)


def test_criterion_7_ml_sanity():
    with criterion(7, "separable F>=0.95 all classifiers; permuted in [0.35,0.65]; gradient 1e-5"):
        started = time.monotonic()
        data = separable_dataset(200, seed=42)
        for kind in (KNN, LOGISTIC_REGRESSION, RANDOM_FOREST):
            report = cross_validate(ClassifierSpec(kind), data, folds=10, seed=0)
            assert report.mean_f >= 0.95, (kind, report.mean_f)

        rng = np.random.default_rng(777)
        permuted = MLDataset(features=data.features, labels=rng.permutation(data.labels))
        for kind in (KNN, LOGISTIC_REGRESSION, RANDOM_FOREST):
            report = cross_validate(ClassifierSpec(kind), permuted, folds=10, seed=0)
            assert 0.35 <= report.mean_f <= 0.65, (kind, report.mean_f)

        grad_rng = np.random.default_rng(5)
        for l2 in (0.0, 0.01, 1.0):
            X = grad_rng.normal(size=(15, 4))
            y = grad_rng.random(15) > 0.5
            if y.all() or not y.any():
                y[0] = not y[0]
            params = grad_rng.normal(size=5)
            analytic = logistic_gradient(params, X, y, l2)
            numeric = np.empty_like(analytic)
            h = 1e-6
            for i in range(len(params)):
                up, down = params.copy(), params.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (
                    logistic_loss(up, X, y, l2) - logistic_loss(down, X, y, l2)
                ) / (2 * h)
            relative = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1e-8)
            assert relative.max() <= 1e-5
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_8_calibration_recovery():
    with criterion(8, "planted threshold 0.5 recovered with mean F exactly 1.0"):
        scores = []
        experts = set()
        non_experts = set()
        for level in range(10):
            normalized = level / 10 + 0.05
            for i in range(4):
                dev, file = f"d{level}_{i}", f"f{level}_{i}.py"
                scores.append(
                    ExpertiseScore(dev, file, BLAME, raw=100 * normalized, normalized=normalized)
                )
                (experts if normalized >= 0.5 else non_experts).add((dev, file))
        oracle = OracleSets(
            declared_experts=frozenset(experts),
            declared_non_experts=frozenset(non_experts),
        )
        curve = calibrate(scores, oracle, folds=10, seed=0)
        assert curve.best_k == 0.5
        assert next(p.f_measure for p in curve.points if p.k == 0.5) == 1.0


def test_criterion_9_sample_invariants(fixture_pipelines):
    pipelines, _elapsed = fixture_pipelines
    with criterion(9, "100 seeded sampling runs: cap respected, files carry all developers"):
        runs = 0
        for history, table in pipelines[:5]:
            devs_per_file = {
                path: {c.author.key() for c, _e in lineage.events}
                for path, lineage in resolve_lineages(history).items()
            }
            for seed in range(20):
                pairs = generate_sample(table, file_limit=5, seed=seed)
                per_dev: dict[str, int] = {}
                per_file: dict[str, set] = {}
                for dev, file in pairs:
                    per_dev[dev] = per_dev.get(dev, 0) + 1
                    per_file.setdefault(file, set()).add(dev)
                assert all(count <= 5 for count in per_dev.values())
                for file, devs in per_file.items():
                    assert devs == devs_per_file[file], file
                runs += 1
        assert runs == 100


def reference_reproduction(root: str, folds: int = 10, cache_dir: str | None = None):
    """Mine a reference dataset (truth.csv + repos/<name>/) and recompute
    the headline numbers: each technique's best calibrated F-measure and
    the variables ordered by their correlation with knowledge. Each
    repository's feature table is cached under ``cache_dir``, if given.

    Per-repo tables are pooled with repo-qualified file paths so that
    (developer, file) pairs stay unique across the corpus.
    """
    from dataclasses import replace as dc_replace

    from fileexperts.features import FeatureTable
    from fileexperts.stats import knowledge_correlations
    from fileexperts.study import knowledge_map

    entries = read_ground_truth_csv(os.path.join(root, "truth.csv"))
    all_rows = []
    developers = {}
    reference_time = None
    for name in sorted({e.repo for e in entries}):
        table = feature_table(os.path.join(root, "repos", name), None, cache_dir=cache_dir)
        all_rows.extend(dc_replace(row, file=f"{name}:{row.file}") for row in table.rows)
        developers.update(table.developers)
        if reference_time is None or table.reference_time > reference_time:
            reference_time = table.reference_time
    pooled = FeatureTable(rows=tuple(all_rows), reference_time=reference_time,
                          developers=developers)
    qualified = [dc_replace(e, file=f"{e.repo}:{e.file}") for e in entries]

    processed = process_answers(qualified, pooled)
    best_f = {}
    for technique in (DOA, NUM_COMMITS, BLAME):
        scores = technique_scores(pooled, technique)
        curve = calibrate(scores, processed.oracle, folds=folds, seed=0)
        best_f[technique] = max(p.f_measure for p in curve.points)

    knowledge, _unresolved = knowledge_map(qualified, pooled)
    results, _errors = knowledge_correlations(pooled, knowledge)
    return best_f, [r.variable for r in results]


def test_criterion_10_reference_dataset_reproduction(tmp_path):
    data_dir = os.environ.get(REFERENCE_DATA_ENV)
    if not data_dir:
        print("ACCEPTANCE 10 SKIP: reference dataset absent "
              f"(set {REFERENCE_DATA_ENV} to a directory with truth.csv and repos/)")
        pytest.skip("reference dataset not available")
    with criterion(10, "reference dataset reproduces the expected F-measures within 0.02"):
        best_f, variables_ascending = reference_reproduction(os.path.abspath(data_dir))
        for technique, expected in {DOA: 0.70, NUM_COMMITS: 0.70, BLAME: 0.67}.items():
            assert abs(best_f[technique] - expected) <= 0.02, (technique, best_f[technique])
        assert variables_ascending[-1] == "fa"  # most positive
        assert variables_ascending[0] == "num_days"  # most negative


def test_reference_reproduction_plumbing(tmp_path, monkeypatch):
    """Exercise the criterion-10 pipeline on a synthetic mini-dataset so the
    code path stays verified even while the real data is unavailable; a
    second run on the same cache reads every table without mining."""
    import csv

    import fileexperts.features as features
    from fileexperts.fixtures import RepoBuilder

    (tmp_path / "repos").mkdir()
    pairs = []
    for repo_name, devs in (("alpha", 3), ("beta", 2)):
        builder = RepoBuilder(tmp_path / "repos" / repo_name)
        when = 1_600_000_000
        contents = {}
        for d in range(devs):
            for f in range(3):
                path = f"src/{repo_name}_{d}_{f}.py"
                body = "\n".join(
                    f"v_{d}_{f}_{k} = {k}" for k in range(2 + 3 * d + 2 * f)
                ) + f"\nif v_{d}_{f}_0 > {f}:\n    pass\n"
                builder.commit(
                    f"Dev {d}", f"dev{d}@{repo_name}.com", when, writes={path: body}
                )
                contents[path] = body
                pairs.append((repo_name, f"dev{d}@{repo_name}.com", path))
                when += 86_400
        # cross edits vary fa, blame, num_mod_devs and commit counts
        for f in range(2):
            path = f"src/{repo_name}_0_{f}.py"
            updated = contents[path] + f"extra_{f} = {f}\nmore_{f} = {f + 1}\n"
            builder.commit("Dev 1", f"dev1@{repo_name}.com", when, writes={path: updated})
            pairs.append((repo_name, f"dev1@{repo_name}.com", path))
            when += 43_200
        builder.finish()
    with open(tmp_path / "truth.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["repo", "developer_email", "file", "knowledge"])
        for i, (repo_name, dev, path) in enumerate(pairs):
            writer.writerow([repo_name, dev, path, 5 if i % 2 == 0 else 2])

    cache = str(tmp_path / "cache")
    reproduced = reference_reproduction(str(tmp_path), folds=3, cache_dir=cache)
    best_f, variables_ascending = reproduced
    assert set(best_f) == {DOA, NUM_COMMITS, BLAME}
    assert all(0.0 <= value <= 1.0 for value in best_f.values())
    assert set(variables_ascending) <= set(CSV_HEADER[2:])
    assert len(variables_ascending) >= 6

    def refuse(*_args, **_kwargs):
        raise AssertionError("a cached repository was mined again")

    monkeypatch.setattr(features, "mine_history", refuse)
    monkeypatch.setattr(features, "compute_all", refuse)
    assert reference_reproduction(str(tmp_path), folds=3, cache_dir=cache) == reproduced


def test_criterion_11_performance(tmp_path):
    with criterion(11, "mining + features on a 1000-commit, 200-file fixture in < 60s"):
        repo = perf_repo(tmp_path / "perf", commits=1000, files=200, seed=0)
        started = time.monotonic()
        history = mine_history(repo, "main")
        table = compute_all(history)
        elapsed = time.monotonic() - started
        assert len(history.commits) == 1000
        assert len(sorted({row.file for row in table.rows})) == 200
        assert elapsed < 60.0, f"mining + features took {elapsed:.1f}s"
