"""Corpus filtering, bulk-import detection, sampling, ground truth."""

import re
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fileexperts import ml, validation
from fileexperts.errors import InvalidGroundTruth, InvalidKnowledgeValue, TooFewRepos
from fileexperts.expertise import DOA, THRESHOLD_GRID, calibrate, technique_scores
from fileexperts.features import compute_all, mine_history
from fileexperts.fixtures import random_repo
from fileexperts.ml import ML_FEATURE_NAMES
from fileexperts.study import (
    GroundTruthEntry,
    RepoMetrics,
    detect_bulk_import,
    generate_sample,
    knowledge_map,
    process_answers,
    quartile_filter,
    read_ground_truth_csv,
    sample_to_csv,
)
from conftest import add, make_history, mod, ren
from oracles import lineage_sample


def _metrics(commits):
    return [
        RepoMetrics(repo=f"r{i}", commits=c, files=100, developers=50)
        for i, c in enumerate(commits)
    ]


class TestQuartileFilter:
    def test_hand_computed_q1(self):
        # commits 10,20,30,40: Q1 by linear interpolation is 17.5
        assert float(np.quantile([10, 20, 30, 40], 0.25)) == 17.5
        included = quartile_filter(_metrics([10, 20, 30, 40]))
        assert included == {"r1", "r2", "r3"}

    def test_identical_repos_all_retained(self):
        included = quartile_filter(_metrics([25, 25, 25, 25]))
        assert len(included) == 4

    def test_any_metric_rule(self):
        metrics = [
            RepoMetrics("big", commits=1000, files=500, developers=100),
            RepoMetrics("alsobig", commits=900, files=400, developers=90),
            RepoMetrics("medium", commits=800, files=300, developers=80),
            RepoMetrics("lowfiles", commits=950, files=10, developers=95),
        ]
        included = quartile_filter(metrics)
        assert "lowfiles" not in included

    def test_too_few(self):
        with pytest.raises(TooFewRepos):
            quartile_filter(_metrics([1, 2, 3]))

    def test_subset_of_input(self):
        metrics = _metrics([5, 10, 20, 40, 80, 160])
        included = quartile_filter(metrics)
        assert included <= {m.repo for m in metrics}

    def test_matches_recomputation_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            metrics = [
                RepoMetrics(
                    repo=f"r{i}",
                    commits=int(rng.integers(1, 1000)),
                    files=int(rng.integers(1, 500)),
                    developers=int(rng.integers(1, 200)),
                )
                for i in range(int(rng.integers(4, 15)))
            ]
            expected = set()
            q_commits = np.quantile([m.commits for m in metrics], 0.25)
            q_files = np.quantile([m.files for m in metrics], 0.25)
            q_devs = np.quantile([m.developers for m in metrics], 0.25)
            for m in metrics:
                if m.commits >= q_commits and m.files >= q_files and m.developers >= q_devs:
                    expected.add(m.repo)
            assert quartile_filter(metrics) == expected


class TestBulkImport:
    def test_uniform_additions_not_flagged(self):
        commits = [
            (f"d@x.com", i, [add(f"f{i}.py", "x = 1\n")]) for i in range(100)
        ]
        flag, outliers = detect_bulk_import(make_history(commits))
        assert flag is False
        assert outliers == frozenset()

    def test_single_huge_commit_flagged(self):
        commits = [(f"d@x.com", i, [add(f"f{i}.py", "x = 1\n")]) for i in range(99)]
        bulk = [add(f"bulk{j}.py", "y = 1\n") for j in range(200)]
        commits.append(("d@x.com", 99, bulk))
        flag, outliers = detect_bulk_import(make_history(commits))
        assert flag is True
        assert outliers == {"c0099"}

    @staticmethod
    def _adds_per_commit(*counts):
        return make_history(
            [
                ("d@x.com", i, [add(f"c{i}_{j}.py", "x = 1\n") for j in range(n)])
                for i, n in enumerate(counts)
            ]
        )

    def test_tukey_fence_boundary(self):
        # Q1 1, Q3 3, so the fence is 3 + 1.5 * 2 == 6: 6 additions are not
        # an outlier, 7 are; neither reaches half of all additions
        base = (1, 1, 1, 1, 3, 3, 3, 3)
        assert detect_bulk_import(self._adds_per_commit(*base, 6)) == (False, frozenset())
        assert detect_bulk_import(self._adds_per_commit(*base, 7)) == (False, {"c0008"})

    def test_outlier_share_boundary(self):
        # the fence is 1, so the last commit is the outlier: 10 of 20
        # additions is exactly half and not flagged, 11 of 21 is
        base = (1,) * 10
        assert detect_bulk_import(self._adds_per_commit(*base, 10)) == (False, {"c0010"})
        assert detect_bulk_import(self._adds_per_commit(*base, 11)) == (True, {"c0010"})

    def test_single_commit_history_not_flagged(self):
        history = make_history([("d@x.com", 0, [add("a.py", "x\n"), add("b.py", "y\n")])])
        flag, outliers = detect_bulk_import(history)
        assert flag is False
        assert outliers == frozenset()


def _sample_history():
    files = {}
    commits = []
    day = 0
    for i in range(8):
        content = f"v{i} = {i}\n"
        commits.append((f"solo@x.com", day, [add(f"solo{i}.py", content)]))
        day += 1
    commits.append(("a@x.com", day, [add("shared.py", "s = 1\n")]))
    commits.append(("b@y.com", day + 1, [mod("shared.py", "s = 1\n", "s = 2\n")]))
    return make_history(commits)


class TestGenerateSample:
    def test_single_shared_file(self):
        history = make_history(
            [
                ("d1@x.com", 0, [add("f.py", "x = 1\n")]),
                ("d2@y.com", 1, [mod("f.py", "x = 1\n", "x = 2\n")]),
            ]
        )
        pairs = generate_sample(compute_all(history), file_limit=5, seed=0)
        assert sorted(pairs) == [("d1@x.com", "f.py"), ("d2@y.com", "f.py")]

    def test_file_limit_enforced(self):
        history = _sample_history()
        for seed in range(20):
            pairs = generate_sample(compute_all(history), file_limit=5, seed=seed)
            per_dev = {}
            for dev, _file in pairs:
                per_dev[dev] = per_dev.get(dev, 0) + 1
            assert all(count <= 5 for count in per_dev.values())
            assert per_dev["solo@x.com"] == 5  # 8 candidate files, capped at 5

    def test_all_or_nothing_rule(self):
        # d1 gets saturated by solo files; a file shared with d2 must then
        # be rejected entirely, leaving d2 without that file too
        commits = [(f"d1@x.com", i, [add(f"only{i}.py", f"x{i} = 1\n")]) for i in range(5)]
        commits.append(("d1@x.com", 50, [add("shared.py", "s = 1\n")]))
        commits.append(("d2@y.com", 51, [mod("shared.py", "s = 1\n", "s = 2\n")]))
        history = make_history(commits)
        for seed in range(30):
            pairs = generate_sample(compute_all(history), file_limit=5, seed=seed)
            sampled_files = {f for _d, f in pairs}
            if "shared.py" in sampled_files:
                assert ("d1@x.com", "shared.py") in pairs
                assert ("d2@y.com", "shared.py") in pairs

    def test_sampled_file_carries_all_developers(self):
        history = _sample_history()
        lineage_devs = {
            "shared.py": {"a@x.com", "b@y.com"},
        }
        pairs = generate_sample(compute_all(history), file_limit=5, seed=3)
        by_file = {}
        for dev, file in pairs:
            by_file.setdefault(file, set()).add(dev)
        for file, devs in by_file.items():
            if file in lineage_devs:
                assert devs == lineage_devs[file]

    def test_equals_lineage_draw(self, demo_history, tmp_path):
        histories = [demo_history, _sample_history()]
        histories.append(  # a rename, and a file deleted before the reference version
            make_history(
                [
                    ("d1@x.com", 0, [add("old.py", "x = 1\n"), add("gone.py", "g = 1\n")]),
                    ("d2@y.com", 1, [ren("new.py", "old.py", "x = 1\n", "x = 2\n")]),
                    ("d3@z.com", 2, [mod("gone.py", "g = 1\n", "g = 2\n")]),
                ],
                present={"new.py"},
            )
        )
        for seed in range(6):
            histories.append(mine_history(random_repo(tmp_path / f"repo{seed}", seed=seed)))
        for history in histories:
            table = compute_all(history)
            for file_limit in (1, 2, 5):
                for seed in (0, 7, 11):
                    assert generate_sample(table, file_limit, seed) == lineage_sample(
                        history, file_limit, seed
                    )

    def test_csv_grouped_by_developer(self):
        pairs = [("b@y.com", "f1"), ("a@x.com", "f2"), ("a@x.com", "f3")]
        lines = sample_to_csv(pairs).splitlines()
        assert lines[0] == "developer_email,file"
        assert lines[1:] == ["a@x.com,f2", "a@x.com,f3", "b@y.com,f1"]


class TestGroundTruth:
    def test_label_boundary(self):
        table = compute_all(
            make_history(
                [
                    ("d1@x.com", 0, [add("a.py", "x = 1\n")]),
                    ("d2@y.com", 1, [mod("a.py", "x = 1\n", "x = 2\n")]),
                ]
            )
        )
        entries = [
            GroundTruthEntry("r", "d1@x.com", "a.py", 4),
            GroundTruthEntry("r", "d2@y.com", "a.py", 3),
        ]
        oracle = process_answers(entries, table).oracle
        assert oracle.declared_experts == {("d1@x.com", "a.py")}
        assert oracle.declared_non_experts == {("d2@y.com", "a.py")}

    def test_a_raw_history_table_resolves_its_keys(self):
        """A history that was not canonicalized records no developer, so its
        table holds none; each row's key still resolves, in any case."""
        table = compute_all(
            make_history(
                [
                    ("d1@x.com", 0, [add("a.py", "x = 1\n")]),
                    ("d2@y.com", 1, [mod("a.py", "x = 1\n", "x = 2\n")]),
                ]
            )
        )
        assert table.developers == {}
        entries = [
            GroundTruthEntry("r", " D1@X.com", "a.py", 5),
            GroundTruthEntry("r", "d2@y.com", "a.py", 2),
        ]
        processed = process_answers(entries, table)
        assert processed.knowledge == {("d1@x.com", "a.py"): 5, ("d2@y.com", "a.py"): 2}
        assert processed.unresolved == ()

    def test_out_of_range_knowledge(self):
        with pytest.raises(InvalidKnowledgeValue):
            GroundTruthEntry("r", "d@x.com", "f.py", 6)
        with pytest.raises(InvalidKnowledgeValue):
            GroundTruthEntry("r", "d@x.com", "f.py", 0)

    def test_csv_reader_with_column_map(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text(
            "Project,Email,Path,Score\nrepo1,d@x.com,src/a.py,5\nrepo1,e@y.com,src/b.py,2\n"
        )
        entries = read_ground_truth_csv(
            path,
            column_map={
                "repo": "Project",
                "developer_email": "Email",
                "file": "Path",
                "knowledge": "Score",
            },
        )
        assert [e.knowledge for e in entries] == [5, 2]

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("repo,file,knowledge\nr,a.py,5\n", "lacks columns ['developer_email']"),
            ("repo,developer_email,file,knowledge\nr,d@x.com,a.py,5\nr,d@x.com\n", "line 3"),
            ("", "lacks columns ['repo', 'developer_email', 'file', 'knowledge']"),
            ("repo,developer_email,file,knowledge\nr,d@x.com,a.py,5,extra\n",
             "line 2: 5 fields, expected 4"),
            ("repo,developer_email,file,knowledge,file\n", "names columns ['file'] more than once"),
        ],
        ids=["missing-column", "short-row", "empty-file", "long-row", "repeated-column"],
    )
    def test_malformed_csv_is_a_domain_error(self, tmp_path, text, problem):
        path = tmp_path / "truth.csv"
        path.write_text(text)
        with pytest.raises(InvalidGroundTruth, match=re.escape(problem)):
            read_ground_truth_csv(path)

    def test_non_integer_knowledge_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text(
            "repo,developer_email,file,knowledge\nr,d@x.com,a.py,5\nr,d@x.com,b.py,high\n"
        )
        with pytest.raises(InvalidKnowledgeValue) as raised:
            read_ground_truth_csv(path)
        assert str(raised.value) == (
            f"ground-truth CSV {path} line 3: knowledge 'high' is not an integer"
        )
        assert raised.value.__suppress_context__

    def test_out_of_range_knowledge_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text(
            "repo,developer_email,file,knowledge\nr,d@x.com,a.py,5\nr,d@x.com,b.py,6\n"
        )
        with pytest.raises(InvalidKnowledgeValue) as raised:
            read_ground_truth_csv(path)
        assert str(raised.value) == (
            f"ground-truth CSV {path} line 3: knowledge 6 for (d@x.com, b.py) is outside 1..5"
        )

    def test_process_answers_join(self):
        history = make_history(
            [
                ("d1@x.com", 0, [add("a.py", "x = 1\n")]),
                ("d2@y.com", 1, [mod("a.py", "x = 1\n", "x = 2\n")]),
            ]
        )
        table = compute_all(history)
        entries = [
            GroundTruthEntry("r", "d1@x.com", "a.py", 5),
            GroundTruthEntry("r", "d2@y.com", "a.py", 3),
            GroundTruthEntry("r", "ghost@z.com", "a.py", 4),
            GroundTruthEntry("r", "d1@x.com", "missing.py", 4),
        ]
        processed = process_answers(entries, table)
        assert processed.oracle.declared_experts == {("d1@x.com", "a.py")}
        assert processed.oracle.declared_non_experts == {("d2@y.com", "a.py")}
        reasons = sorted(u.reason for u in processed.unresolved)
        assert reasons == ["pair not in history", "unknown developer"]
        assert processed.knowledge == {("d1@x.com", "a.py"): 5, ("d2@y.com", "a.py"): 3}
        assert (processed.knowledge, processed.unresolved) == knowledge_map(entries, table)
        assert len(processed.dataset) == 2
        # ML features are [adds, fa, size, num_days]
        assert processed.dataset.features.shape == (2, 4)

    def test_process_answers_columns_follow_ml_feature_names(self):
        history = make_history(
            [
                ("d1@x.com", 0, [add("a.py", "x = 1\ny = 2\n")]),
                ("d2@y.com", 3, [mod("a.py", "x = 1\ny = 2\n", "x = 1\ny = 2\n"
                                     + "".join(f"z{i} = {i}\n" for i in range(5)))]),
            ]
        )
        table = compute_all(history)
        entries = [
            GroundTruthEntry("r", "d1@x.com", "a.py", 5),
            GroundTruthEntry("r", "d2@y.com", "a.py", 2),
        ]
        processed = process_answers(entries, table)
        dataset, oracle = processed.dataset, processed.oracle
        assert dataset.feature_names == ML_FEATURE_NAMES == ("adds", "fa", "size", "num_days")
        pair_map = table.pair_map()
        # rows follow the labeled pairs in sorted order
        assert dataset.features.tolist() == [
            [getattr(pair_map[pair], name) for name in ML_FEATURE_NAMES]
            for pair in sorted(oracle.declared_experts | oracle.declared_non_experts)
        ]
        assert dataset.features.tolist() == [[2, 1, 7, 3], [5, 0, 7, 0]]

    def test_disjoint_union_covers_valid_entries(self):
        history = make_history(
            [
                ("d1@x.com", 0, [add("a.py", "x = 1\n"), add("b.py", "y = 1\n")]),
                ("d2@y.com", 1, [mod("a.py", "x = 1\n", "x = 2\n")]),
            ]
        )
        table = compute_all(history)
        entries = [
            GroundTruthEntry("r", "d1@x.com", "a.py", 5),
            GroundTruthEntry("r", "d1@x.com", "b.py", 1),
            GroundTruthEntry("r", "d2@y.com", "a.py", 4),
        ]
        processed = process_answers(entries, table)
        oracle = processed.oracle
        assert not (oracle.declared_experts & oracle.declared_non_experts)
        assert len(oracle.declared_experts | oracle.declared_non_experts) == 3

    def test_alias_email_resolves_to_canonical(self):
        history = make_history(
            [
                ("ana@x.com", 0, [add("a.py", "x = 1\n")]),
                ("ANA@x.com", 1, [mod("a.py", "x = 1\n", "x = 2\n")]),
            ]
        )
        from fileexperts.identities import canonicalize_history

        table = compute_all(canonicalize_history(history))
        entries = [GroundTruthEntry("r", "ANA@X.COM", "a.py", 5)]
        knowledge, unresolved = knowledge_map(entries, table)
        assert knowledge == {("ana@x.com", "a.py"): 5}
        assert unresolved == ()


_DEVELOPERS = ("d1@x.com", "d2@y.com", "d3@z.com")


@cache
def _shared_table():
    """Three developers on four files: d1 creates a, b and c; d2 edits a and
    b and creates d; d3 edits a, c and d. Nine (developer, file) pairs."""
    d1, d2, d3 = _DEVELOPERS
    return compute_all(make_history([
        (d1, 0, [add("a.py", "a = 1\n"), add("b.py", "b = 1\n"), add("c.py", "c = 1\n")]),
        (d2, 1, [mod("a.py", "a = 1\n", "a = 2\n"), mod("b.py", "b = 1\n", "b = 2\n"),
                 add("d.py", "d = 1\nd2 = 2\n")]),
        (d3, 2, [mod("a.py", "a = 2\n", "a = 3\n"), mod("c.py", "c = 1\n", "c = 3\n"),
                 mod("d.py", "d = 1\nd2 = 2\n", "d = 3\nd2 = 2\n")]),
    ]))


def test_both_technique_families_get_the_same_folds(monkeypatch):
    """calibrate and cross_validate, given one process_answers result, hand
    stratified_folds the same label sequence and so hold out the same
    positions, and both score them through validation.fold_prf with those
    folds. The expert set is chosen so that rows ordered any other way,
    by (file, developer) say, give a different label sequence."""
    table = _shared_table()
    experts = {("d1@x.com", "a.py"), ("d1@x.com", "b.py"), ("d2@y.com", "d.py"),
               ("d3@z.com", "c.py")}
    pairs = sorted(table.pair_map())
    entries = [GroundTruthEntry("r", dev, file, 5 if (dev, file) in experts else 2)
               for dev, file in pairs]
    by_file = sorted(pairs, key=lambda pair: (pair[1], pair[0]))
    assert [p in experts for p in by_file] != [p in experts for p in pairs]

    calls = []
    real = validation.stratified_folds

    def spy(labels, folds, seed=0):
        fold_indices = real(labels, folds, seed)
        calls.append((np.asarray(labels).tolist(), [f.tolist() for f in fold_indices]))
        return fold_indices

    monkeypatch.setattr(validation, "stratified_folds", spy)
    monkeypatch.setattr(ml, "stratified_folds", spy)
    scored = []
    real_fold_prf = validation.fold_prf

    def fold_prf_spy(predicted, actual, fold_indices):
        scored.append([f.tolist() for f in fold_indices])
        return real_fold_prf(predicted, actual, fold_indices)

    monkeypatch.setattr(validation, "fold_prf", fold_prf_spy)
    monkeypatch.setattr(ml, "fold_prf", fold_prf_spy)
    processed = process_answers(entries, table)
    calibrate(technique_scores(table, DOA), processed.oracle, folds=3, seed=5)
    ml.cross_validate(ml.ClassifierSpec(kind=ml.KNN, hyperparameters={"k": 1}),
                      processed.dataset, folds=3, seed=5)
    (calibrate_labels, calibrate_folds), (cv_labels, cv_folds) = calls
    assert calibrate_labels == cv_labels == [p in experts for p in pairs]
    assert calibrate_folds == cv_folds
    # one call per threshold of the grid, then one for the classifier
    assert scored == [calibrate_folds] * (len(THRESHOLD_GRID) + 1)


_answers = st.builds(
    lambda email, shout, file, knowledge: GroundTruthEntry(
        "r", email.upper() if shout else email, file, knowledge
    ),
    st.sampled_from((*_DEVELOPERS, "ghost@nowhere.com")),
    st.booleans(),
    st.sampled_from(("a.py", "b.py", "c.py", "d.py", "missing.py")),
    st.integers(1, 5),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_answers, max_size=30))
def test_dataset_rows_follow_the_oracle_order(entries):
    """Whatever the answers (repeated, in another case, by unknown
    developers or on pairs not in history), the oracle sorts the labeled
    pairs and the dataset's rows and labels follow that order."""
    table = _shared_table()
    pair_map = table.pair_map()
    last_answer = {}
    for entry in entries:
        pair = (entry.developer.lower(), entry.file)
        if pair in pair_map:
            last_answer[pair] = entry.knowledge
    processed = process_answers(entries, table)
    oracle, dataset = processed.oracle, processed.dataset
    assert oracle.declared_experts == {p for p, k in last_answer.items() if k >= 4}
    assert oracle.declared_non_experts == {p for p, k in last_answer.items() if k < 4}
    assert len(processed.unresolved) == sum(
        (e.developer.lower(), e.file) not in pair_map for e in entries
    )
    assert oracle.pairs == tuple(sorted(oracle.labeled))
    assert oracle.labels == tuple(pair in oracle.declared_experts for pair in oracle.pairs)
    assert dataset.labels.tolist() == list(oracle.labels)
    assert dataset.features.tolist() == [
        [getattr(pair_map[pair], name) for name in ML_FEATURE_NAMES] for pair in oracle.pairs
    ]
