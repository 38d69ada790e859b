"""Classifier training, cross-validation and grid search."""

import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import counts_prf, numpy_grow_tree

from fileexperts.errors import InvalidCount, SingleClassData, TooFewSamples, ZeroVarianceWarning
from fileexperts.ml import (
    KNN,
    LOGISTIC_REGRESSION,
    RANDOM_FOREST,
    ClassifierSpec,
    MLDataset,
    _grow_tree,
    _map,
    cross_validate,
    grid_search,
    logistic_gradient,
    logistic_loss,
    standardize,
    train,
)
from fileexperts.validation import prf, stratified_folds


def separable_dataset(n: int = 200, seed: int = 42) -> MLDataset:
    """Linearly separable by the adds column: experts add far more lines."""
    rng = np.random.default_rng(seed)
    half = n // 2
    expert_adds = rng.uniform(50, 100, half)
    non_adds = rng.uniform(0, 30, n - half)
    features = np.column_stack(
        [
            np.concatenate([expert_adds, non_adds]),
            rng.integers(0, 2, n),
            rng.uniform(10, 500, n),
            rng.uniform(0, 300, n),
        ]
    )
    labels = np.array([True] * half + [False] * (n - half))
    order = rng.permutation(n)
    return MLDataset(features=features[order], labels=labels[order])


class TestStandardize:
    def test_two_point_symmetry(self):
        data = MLDataset(
            features=np.array([[0.0, 0, 5.0, 1.0], [10.0, 1, 5.0, 3.0]]),
            labels=np.array([True, False]),
        )
        with pytest.warns(ZeroVarianceWarning):
            scaled, scaler = standardize(data)
        assert scaled.features[:, 0].tolist() == [-1.0, 1.0]
        # fa untouched
        assert scaled.features[:, 1].tolist() == [0.0, 1.0]
        # constant column passed through unscaled
        assert scaled.features[:, 2].tolist() == [5.0, 5.0]

    def test_standardized_columns_have_zero_mean_unit_std(self):
        data = separable_dataset()
        scaled, _ = standardize(data)
        for col in (0, 2, 3):
            assert abs(scaled.features[:, col].mean()) < 1e-9
            assert scaled.features[:, col].std() == pytest.approx(1.0, abs=1e-9)

    def test_empty_dataset(self):
        empty = MLDataset(features=np.empty((0, 4)), labels=np.array([], dtype=bool))
        with pytest.raises(TooFewSamples):
            standardize(empty)


class TestModels:
    def test_knn_k1_predicts_own_label(self):
        data = separable_dataset(60)
        model = train(ClassifierSpec(KNN, {"k": 1}), data)
        assert (model.predict(data.features) == data.labels).all()

    def test_knn_scores_bounded(self):
        data = separable_dataset(60)
        model = train(ClassifierSpec(KNN, {"k": 5}), data)
        scores = model.predict_score(data.features)
        assert ((scores >= 0) & (scores <= 1)).all()
        assert ((scores >= 0.5) == model.predict(data.features)).all()

    def test_logistic_separable_training_accuracy(self):
        rng = np.random.default_rng(7)
        n = 200
        # two features, margin >= 1 around the separating line x0 = 0
        x0 = np.concatenate([rng.uniform(1.0, 3.0, n // 2), rng.uniform(-3.0, -1.0, n // 2)])
        x1 = rng.normal(0, 1, n)
        labels = np.array([True] * (n // 2) + [False] * (n // 2))
        data = MLDataset(
            features=np.column_stack([x0, x1]),
            labels=labels,
            feature_names=("f0", "f1"),
        )
        model = train(ClassifierSpec(LOGISTIC_REGRESSION, {"l2": 0.01}), data)
        accuracy = (model.predict(data.features) == labels).mean()
        assert accuracy >= 0.99

    def test_logistic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            X = rng.normal(size=(12, 4))
            y = rng.random(12) > 0.5
            if y.all() or not y.any():
                y[0] = not y[0]
            params = rng.normal(size=5)
            l2 = [0.0, 0.01, 0.5, 1.0, 3.0][trial]
            analytic = logistic_gradient(params, X, y, l2)
            numeric = np.empty_like(analytic)
            h = 1e-6
            for i in range(len(params)):
                up, down = params.copy(), params.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (logistic_loss(up, X, y, l2) - logistic_loss(down, X, y, l2)) / (
                    2 * h
                )
            scale = np.maximum(np.abs(analytic), 1e-8)
            assert (np.abs(analytic - numeric) / scale).max() <= 1e-5

    def test_forest_stump_predicts_majority(self):
        data = separable_dataset(90)  # 45 experts, 45 non: make it uneven
        uneven = MLDataset(
            features=data.features,
            labels=np.array([True] * 60 + [False] * 30),
        )
        model = train(
            ClassifierSpec(RANDOM_FOREST, {"trees": 1, "max_depth": 0}), uneven, seed=0
        )
        scores = model.predict_score(uneven.features)
        assert np.unique(scores).size == 1
        assert model.predict(uneven.features).all()

    @pytest.mark.parametrize("kind", [KNN, LOGISTIC_REGRESSION, RANDOM_FOREST])
    def test_score_predict_coherence(self, kind):
        data = separable_dataset(80)
        model = train(ClassifierSpec(kind), data, seed=1)
        scores = model.predict_score(data.features)
        assert ((scores >= 0) & (scores <= 1)).all()
        assert ((scores >= 0.5) == model.predict(data.features)).all()

    def test_single_class_rejected(self):
        data = separable_dataset(40)
        onesided = MLDataset(features=data.features, labels=np.ones(40, dtype=bool))
        for kind in (LOGISTIC_REGRESSION, RANDOM_FOREST):
            with pytest.raises(SingleClassData):
                train(ClassifierSpec(kind), onesided)
        train(ClassifierSpec(KNN), onesided)  # knn tolerates one class


def preorder(tree) -> list[tuple]:
    """(feature, threshold, probability) of every node, parents first,
    left before right; floats by repr, so -0.0 and NaN compare exactly."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append((node.feature, repr(node.threshold), repr(node.probability)))
        if node.feature is not None:
            stack += [node.right, node.left]
    return out


def mixed_columns(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Columns with many ties: integer-valued, rounded, constant, signed
    zeros, and continuous. None holds two adjacent floats."""
    kinds = [
        lambda: rng.integers(0, 4, n).astype(float),
        lambda: np.round(rng.normal(size=n), 1),
        lambda: np.full(n, 2.5),
        lambda: rng.choice([0.0, -0.0, 1.0], n),
        lambda: rng.normal(size=n),
    ]
    return np.column_stack([kinds[rng.integers(len(kinds))]() for _ in range(d)])


class TestForestTrees:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 120),
        d=st.integers(1, 5),
        max_depth=st.sampled_from([None, 0, 1, 3]),
        max_features=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_presorted_grower_equals_numpy_oracle(self, seed, n, d, max_depth, max_features):
        data_rng = np.random.default_rng(seed)
        X = mixed_columns(data_rng, n, d)
        y = data_rng.random(n) < data_rng.random()
        sample = data_rng.integers(0, n, size=n)  # a bootstrap, duplicates included
        grown, expected = np.random.default_rng(seed), np.random.default_rng(seed)
        tree = _grow_tree(X[sample], y[sample], max_depth, max_features, grown)
        oracle = numpy_grow_tree(X[sample], y[sample], max_depth, max_features, expected)
        assert preorder(tree) == preorder(oracle)
        assert grown.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize(
        "lo, hi",
        [(1 + 2**-52, 1 + 2**-51), (1.7e308, 1.75e308), (-1.75e308, -1.7e308)],
        ids=["adjacent-floats", "sum-overflows", "sum-overflows-negative"],
    )
    def test_every_split_separates_its_rows(self, lo, hi):
        # the midpoint of lo and hi rounds to hi, or to an infinity
        data = MLDataset(
            features=np.array([[lo], [lo], [lo], [hi], [hi], [hi]]),
            labels=np.array([False, True, False, True, True, False]),
            feature_names=("x",),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train(ClassifierSpec(RANDOM_FOREST, {"max_features": 1}), data, seed=0)
        splits = 0
        for tree in model.trees:
            stack = [tree]
            while stack:
                node = stack.pop()
                assert np.isfinite(node.probability)
                if node.feature is not None:
                    assert node.threshold == lo
                    splits += 1
                    stack += [node.left, node.right]
        assert splits > 0


def per_row_lexsort_scores(model, X: np.ndarray) -> np.ndarray:
    """kNN scores with one lexsort per query row, ties by training index."""
    scores = np.empty(len(X))
    for i, row in enumerate(X):
        if model.metric == "euclidean":
            dists = np.sqrt(((row - model.X) ** 2).sum(axis=1))
        else:
            dists = np.abs(row - model.X).sum(axis=1)
        nearest = np.lexsort((np.arange(len(dists)), dists))[: model.k]
        scores[i] = model.y[nearest].mean()
    return scores


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_knn_scores_equal_per_row_lexsort(metric):
    rng = np.random.default_rng(5)
    X = rng.integers(0, 3, size=(40, 3)).astype(float)  # many equal distances
    y = rng.random(40) < 0.4
    queries = rng.integers(0, 3, size=(25, 3)).astype(float)
    for k in (1, 2, 5, 8, 40):
        model = train(ClassifierSpec(KNN, {"k": k, "metric": metric}), MLDataset(X, y))
        assert model.predict_score(queries).tolist() == per_row_lexsort_scores(
            model, queries
        ).tolist()


class TestCrossValidate:
    def test_fold_sizes_even(self):
        data = separable_dataset(100)
        folds = stratified_folds(data.labels, 10, seed=0)
        assert sorted(len(f) for f in folds) == [10] * 10

    def test_stratification_within_one_sample(self):
        data = separable_dataset(100, seed=5)
        folds = stratified_folds(data.labels, 10, seed=0)
        global_fraction = data.labels.mean()
        for fold in folds:
            experts = data.labels[fold].sum()
            assert abs(experts - global_fraction * len(fold)) <= 1

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=30), st.booleans())
    def test_prf_equals_counting(self, pairs, none_predicted):
        predicted = [p and not none_predicted for p, _a in pairs]
        actual = [a for _p, a in pairs]
        tp = sum(p and a for p, a in zip(predicted, actual))
        fp = sum(p and not a for p, a in zip(predicted, actual))
        fn = sum(a and not p for p, a in zip(predicted, actual))
        assert prf(np.array(predicted, dtype=bool), np.array(actual, dtype=bool)) == counts_prf(
            tp, fp, fn
        )

    @pytest.mark.parametrize("kind", [KNN, LOGISTIC_REGRESSION, RANDOM_FOREST])
    def test_separable_scores_high(self, kind):
        report = cross_validate(ClassifierSpec(kind), separable_dataset(), folds=10, seed=0)
        assert report.mean_f >= 0.95

    @pytest.mark.parametrize("kind", [KNN, LOGISTIC_REGRESSION, RANDOM_FOREST])
    def test_label_permutation_baseline(self, kind):
        data = separable_dataset()
        rng = np.random.default_rng(123)
        permuted = MLDataset(
            features=data.features, labels=rng.permutation(data.labels)
        )
        report = cross_validate(ClassifierSpec(kind), permuted, folds=10, seed=0)
        assert 0.35 <= report.mean_f <= 0.65

    def test_deterministic_reports(self):
        data = separable_dataset()
        a = cross_validate(ClassifierSpec(RANDOM_FOREST), data, folds=10, seed=0)
        b = cross_validate(ClassifierSpec(RANDOM_FOREST), data, folds=10, seed=0)
        assert a == b

    def test_errors(self):
        data = separable_dataset(8)
        with pytest.raises(TooFewSamples):
            cross_validate(ClassifierSpec(KNN), data, folds=10)
        onesided = MLDataset(
            features=separable_dataset(20).features, labels=np.ones(20, dtype=bool)
        )
        with pytest.raises(SingleClassData):
            cross_validate(ClassifierSpec(KNN), onesided, folds=5)


class TestGridSearch:
    def test_singleton_grid(self):
        data = separable_dataset(60)
        spec, report = grid_search(
            KNN, data, grids={"k": [3], "metric": ["euclidean"]}, folds=5
        )
        assert spec.hyperparameters == {"k": 3, "metric": "euclidean"}
        assert report.mean_f > 0.9

    def test_noisy_labels_prefer_smoothing(self):
        rng = np.random.default_rng(11)
        n = 120
        x = rng.uniform(0, 1, n)
        labels = x > 0.5
        flips = rng.choice(n, size=n // 10, replace=False)
        labels = labels.copy()
        labels[flips] = ~labels[flips]
        data = MLDataset(
            features=np.column_stack([x, np.zeros(n), x, x]),
            labels=labels,
        )
        k1 = cross_validate(ClassifierSpec(KNN, {"k": 1}), data, folds=10, seed=0)
        k5 = cross_validate(ClassifierSpec(KNN, {"k": 5}), data, folds=10, seed=0)
        assert k5.mean_f > k1.mean_f
        spec, _report = grid_search(
            KNN, data, grids={"k": [1, 5], "metric": ["euclidean"]}, folds=10, seed=0
        )
        assert spec.hyperparameters["k"] == 5

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            grid_search(KNN, separable_dataset(40), grids={})
        with pytest.raises(ValueError):
            grid_search(KNN, separable_dataset(40), grids={"k": []})


class TestWorkers:
    """Folds and grid combinations on forked workers give what one process gives."""

    @pytest.mark.parametrize("kind", [KNN, LOGISTIC_REGRESSION, RANDOM_FOREST])
    def test_cross_validate_does_not_depend_on_jobs(self, kind):
        data = separable_dataset(60, seed=3)
        serial = cross_validate(ClassifierSpec(kind), data, folds=5, seed=4)
        assert cross_validate(ClassifierSpec(kind), data, folds=5, seed=4, jobs=3) == serial

    def test_grid_search_does_not_depend_on_jobs(self):
        data = separable_dataset(60, seed=3)
        grid = {"k": [1, 3, 5], "metric": ["euclidean", "manhattan"]}
        serial = grid_search(KNN, data, grids=grid, folds=5, seed=1)
        assert grid_search(KNN, data, grids=grid, folds=5, seed=1, jobs=4) == serial

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers fork on Linux only")
    @pytest.mark.parametrize("jobs", [2, 5])
    def test_units_run_in_workers_and_return_in_order(self, jobs):
        results = _map(lambda unit: (unit * unit, os.getpid()), range(7), jobs)
        assert [square for square, _pid in results] == [unit * unit for unit in range(7)]
        assert os.getpid() not in {pid for _square, pid in results}

    @pytest.mark.parametrize("jobs", [1, 2, 6])
    def test_warnings_then_the_first_failure_in_unit_order(self, jobs):
        def unit(number):
            if number in (1, 3, 5):
                warnings.warn(f"unit {number}", ZeroVarianceWarning)
            if number >= 3:
                raise SingleClassData(f"unit {number} failed")
            return number

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SingleClassData, match="unit 3 failed"):
                _map(unit, range(6), jobs)
        assert [str(w.message) for w in caught] == ["unit 1", "unit 3"]
        assert {w.category for w in caught} == {ZeroVarianceWarning}

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_filter_naming_the_warning_module_matches_whatever_the_jobs(self, jobs):
        data = separable_dataset(30, seed=2)
        data.features[:, 0] = 1.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings("error", module=r"fileexperts\.ml$")
            with pytest.raises(ZeroVarianceWarning, match="'adds' is constant"):
                cross_validate(ClassifierSpec(KNN), data, folds=3, jobs=jobs)
        assert caught == []

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_default_action_warns_once_per_process_whatever_the_jobs(self, jobs):
        data = separable_dataset(30, seed=2)
        data.features[:, 0] = 1.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(2):
                cross_validate(ClassifierSpec(KNN), data, folds=3, jobs=jobs)
        assert [str(w.message) for w in caught] == ["feature 'adds' is constant; left unscaled"]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_are_refused(self, jobs):
        with pytest.raises(InvalidCount, match=f"jobs must be >= 1, got {jobs}"):
            _map(abs, range(4), jobs)
