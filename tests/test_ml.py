"""Classifier training, cross-validation and grid search."""

import itertools
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import counts_prf, gradient_descent_logistic, numpy_grow_tree

from fileexperts import ml
from fileexperts.errors import InvalidCount, SingleClassData, TooFewSamples, ZeroVarianceWarning
from fileexperts.features import compute_all, mine_history
from fileexperts.fixtures import perf_repo
from fileexperts.ml import (
    DEFAULT_GRIDS,
    DEFAULT_HYPERPARAMETERS,
    KNN,
    LOGISTIC_REGRESSION,
    ML_FEATURE_NAMES,
    RANDOM_FOREST,
    ClassifierSpec,
    LogisticModel,
    MLDataset,
    _grow_tree,
    cross_validate,
    fit_scaler,
    grid_search,
    logistic_gradient,
    logistic_hessian,
    logistic_loss,
    train,
)
from fileexperts.study import EXPERT_KNOWLEDGE_FLOOR
from fileexperts.validation import fold_prf, prf, stratified_folds


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
            scaled = fit_scaler(data).transform(data.features)
        assert scaled[:, 0].tolist() == [-1.0, 1.0]
        # fa untouched
        assert scaled[:, 1].tolist() == [0.0, 1.0]
        # constant column passed through unscaled
        assert scaled[:, 2].tolist() == [5.0, 5.0]

    def test_standardized_columns_have_zero_mean_unit_std(self):
        data = separable_dataset()
        scaled = fit_scaler(data).transform(data.features)
        for col in (0, 2, 3):
            assert abs(scaled[:, col].mean()) < 1e-9
            assert scaled[:, col].std() == pytest.approx(1.0, abs=1e-9)

    def test_the_binary_column_is_found_by_name(self):
        """Only the column named fa passes through; a dataset whose second
        column has another name has it scaled like the rest."""
        features = np.array([[0.0, 2.0, 1.0], [2.0, 4.0, 0.0], [4.0, 6.0, 1.0]])
        labels = np.array([True, False, True])
        scaler = fit_scaler(MLDataset(features, labels, feature_names=("a", "b", "c")))
        assert scaler.mean.tolist() == [2.0, 4.0, 2 / 3]
        assert scaler.scale.tolist() == features.std(axis=0).tolist()
        scaler = fit_scaler(MLDataset(features, labels, feature_names=("a", "b", "fa")))
        assert scaler.mean.tolist() == [2.0, 4.0, 0.0]
        assert scaler.scale.tolist() == [*features.std(axis=0)[:2].tolist(), 1.0]

    def test_a_dataset_names_each_of_its_columns(self):
        """The default names are the four study columns, so a two-column
        dataset must name its own; its second column is then scaled, not
        taken for the binary fa."""
        with pytest.raises(ValueError, match="4 feature names for 2 columns"):
            MLDataset([[1, 10], [2, 20], [3, 40]], [True, False, True])
        data = MLDataset([[1, 10], [2, 20], [3, 40]], [True, False, True], ("a", "b"))
        assert fit_scaler(data).scale.tolist() == data.features.std(axis=0).tolist()

    def test_empty_dataset(self):
        empty = MLDataset(features=np.empty((0, 4)), labels=np.array([], dtype=bool))
        with pytest.raises(TooFewSamples):
            fit_scaler(empty)


class TestModels:
    def test_knn_k1_predicts_own_label(self):
        data = separable_dataset(60)
        model = train(ClassifierSpec(KNN, {"k": 1}), data)
        assert ((model.predict_score(data.features) >= 0.5) == data.labels).all()

    def test_knn_scores_bounded(self):
        data = separable_dataset(60)
        model = train(ClassifierSpec(KNN, {"k": 5}), data)
        scores = model.predict_score(data.features)
        assert ((scores >= 0) & (scores <= 1)).all()

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
        accuracy = ((model.predict_score(data.features) >= 0.5) == labels).mean()
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

    def test_logistic_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            X = rng.normal(size=(12, 4))
            y = rng.random(12) > 0.5
            params = rng.normal(size=5)
            l2 = [0.0, 0.01, 0.5, 1.0, 3.0][trial]
            analytic = logistic_hessian(params, X, y, l2)
            numeric = np.empty_like(analytic)
            h = 1e-6
            for i in range(len(params)):  # column i, the bias column last
                up, down = params.copy(), params.copy()
                up[i] += h
                down[i] -= h
                numeric[:, i] = (
                    logistic_gradient(up, X, y, l2) - logistic_gradient(down, X, y, l2)
                ) / (2 * h)
            assert np.abs(analytic - numeric).max() <= 1e-7
            assert analytic == pytest.approx(analytic.T, rel=1e-12, abs=1e-15)
            # l2 sits on the weight diagonal only; the bias is unpenalized
            unpenalized = logistic_hessian(params, X, y, 0.0)
            assert (analytic - unpenalized)[:4, :4] == pytest.approx(l2 * np.eye(4))
            assert (analytic[-1] == unpenalized[-1]).all()
            assert (analytic[:, -1] == unpenalized[:, -1]).all()

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
        assert (scores >= 0.5).all()

    @pytest.mark.parametrize("kind", [KNN, LOGISTIC_REGRESSION, RANDOM_FOREST])
    def test_score_predict_coherence(self, kind):
        data = separable_dataset(80)
        model = train(ClassifierSpec(kind), data, seed=1)
        scores = model.predict_score(data.features)
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_negative_max_features_is_refused(self):
        with pytest.raises(ValueError):
            train(ClassifierSpec(RANDOM_FOREST, {"max_features": -1}), separable_dataset(40))

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


def grow(X, y, max_depth, max_features, rng, counts=None):
    """``_grow_tree`` on the rows of X, row i standing for ``counts[i]``
    copies of itself (one by default), each feature sorted on its own."""
    weights = np.ones(len(y), dtype=int) if counts is None else counts
    return _grow_tree(
        X.T.tolist(),
        [np.argsort(column, kind="stable").tolist() for column in X.T],
        weights.tolist(),
        (weights * y).tolist(),
        max_depth,
        max_features,
        rng,
    )


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
        tree = grow(X[sample], y[sample], max_depth, max_features, grown)
        oracle = numpy_grow_tree(X[sample], y[sample], max_depth, max_features, expected)
        assert preorder(tree) == preorder(oracle)
        assert grown.bit_generator.state == expected.bit_generator.state

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 120),
        d=st.integers(1, 5),
        max_depth=st.sampled_from([None, 0, 1, 3]),
        max_features=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_distinct_rows_with_counts_equal_the_bootstrap(
        self, seed, n, d, max_depth, max_features
    ):
        data_rng = np.random.default_rng(seed)
        X = mixed_columns(data_rng, n, d)
        y = data_rng.random(n) < data_rng.random()
        sample = data_rng.integers(0, n, size=n)
        counts = np.bincount(sample, minlength=n)
        rows = np.flatnonzero(counts)
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        weighted = grow(X[rows], y[rows], max_depth, max_features, rngs[0], counts[rows])
        repeated = grow(X[sample], y[sample], max_depth, max_features, rngs[1])
        oracle = numpy_grow_tree(X[sample], y[sample], max_depth, max_features, rngs[2])
        assert preorder(weighted) == preorder(repeated) == preorder(oracle)
        states = [rng.bit_generator.state for rng in rngs]
        assert states[0] == states[1] == states[2]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 120),
        d=st.integers(1, 5),
        max_depth=st.sampled_from([None, 0, 1, 3]),
        max_features=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_presort_per_fit_grows_the_trees_of_each_bootstrap(
        self, seed, n, d, max_depth, max_features
    ):
        """The forest filters one presort of all rows to each tree's
        bootstrap rows; sorting those distinct rows alone grows the same
        trees from the same draws."""
        data_rng = np.random.default_rng(seed)
        X = mixed_columns(data_rng, n, d)
        y = data_rng.random(n) < data_rng.random()
        model = ml.RandomForestModel(X, y, 4, max_depth, max_features, seed)
        rng = np.random.default_rng(seed)
        for tree in model.trees:
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            rows = np.flatnonzero(counts)
            expected = grow(X[rows], y[rows], max_depth, max_features, rng, counts[rows])
            assert preorder(tree) == preorder(expected)

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


def survey_dataset(path, seed: int = 0, count: int = 400) -> MLDataset:
    """Labeled pairs of a seeded perf_repo, drawn like the benchmark's survey
    labels: knowledge is a noisy function of the blame share, and answers
    of 4 and above are experts."""
    repo = perf_repo(path, commits=1000, files=200, devs=6, seed=seed)
    history = mine_history(repo, "main")
    rng = random.Random(seed)
    labeled = {}
    for row in rng.sample(compute_all(history).rows, count):
        share = row.features.blame / max(1, row.features.size)
        knowledge = min(5, max(1, round(1 + 4 * share + rng.gauss(0.0, 1.0))))
        labeled[(row.developer, row.file)] = (
            [getattr(row.features, name) for name in ML_FEATURE_NAMES],
            knowledge >= EXPERT_KNOWLEDGE_FLOOR,
        )
    pairs = sorted(labeled)
    return MLDataset(
        features=np.array([labeled[pair][0] for pair in pairs], dtype=float),
        labels=np.array([labeled[pair][1] for pair in pairs]),
    )


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    return survey_dataset(tmp_path_factory.mktemp("survey") / "repo")


def fit_params(model: LogisticModel) -> np.ndarray:
    return np.append(model.weights, model.bias)


class TestNewtonFit:
    """The damped Newton fit against gradient descent (the oracle)."""

    TOL = DEFAULT_HYPERPARAMETERS[LOGISTIC_REGRESSION]["tol"]
    MAX_ITER = DEFAULT_HYPERPARAMETERS[LOGISTIC_REGRESSION]["max_iter"]

    @pytest.mark.parametrize("l2", DEFAULT_GRIDS[LOGISTIC_REGRESSION]["l2"])
    def test_equals_gradient_descent_on_every_fold(self, survey, l2):
        assert 0 < survey.labels.sum() < len(survey)
        for test_idx in stratified_folds(survey.labels, 10, seed=0):
            train_idx = np.setdiff1d(np.arange(len(survey)), test_idx)
            scaler = fit_scaler(survey.subset(train_idx))
            X, y = scaler.transform(survey.features[train_idx]), survey.labels[train_idx]
            held_out = scaler.transform(survey.features[test_idx])
            model = LogisticModel(X, y, l2, self.TOL, self.MAX_ITER)
            oracle = gradient_descent_logistic(X, y, l2, self.TOL, self.MAX_ITER)
            params = fit_params(model)
            expected = ml._sigmoid(held_out @ oracle[:-1] + oracle[-1]) >= 0.5
            assert ((model.predict_score(held_out) >= 0.5) == expected).all()
            assert np.abs(logistic_gradient(params, X, y, l2)).max() <= self.TOL
            assert logistic_loss(params, X, y, l2) <= logistic_loss(oracle, X, y, l2)

    def fit_recording_losses(self, monkeypatch, X, y, l2=0.0) -> tuple[LogisticModel, list]:
        """The fit, and the loss at the start of each Newton step."""
        losses = []

        def recording(params, X, y, l2):
            losses.append(logistic_loss(params, X, y, l2))
            return logistic_hessian(params, X, y, l2)

        monkeypatch.setattr(ml, "logistic_hessian", recording)
        return LogisticModel(X, y, l2, self.TOL, self.MAX_ITER), losses

    def test_loss_falls_at_every_step_on_heavy_tailed_data(self, monkeypatch):
        # heavy-tailed rows: from the seventh iterate on a full Newton step
        # raises the loss, and undamped steps end in a two-cycle
        X = np.array([[-41.0, -1.33], [0.456, -0.00232], [-0.926, 0.314], [-2.34, -3.0]])
        y = np.array([True, False, True, False])
        model, losses = self.fit_recording_losses(monkeypatch, X, y, l2=0.001)
        assert len(losses) > 6
        assert all(later < earlier for earlier, later in zip(losses, losses[1:]))
        assert np.abs(logistic_gradient(fit_params(model), X, y, 0.001)).max() <= self.TOL

    def test_unpenalized_separable_data_stops_by_tolerance(self, monkeypatch):
        rng = np.random.default_rng(7)
        x0 = np.concatenate([rng.uniform(1.0, 3.0, 100), rng.uniform(-3.0, -1.0, 100)])
        X = np.column_stack([x0, rng.normal(0, 1, 200)])
        y = np.array([True] * 100 + [False] * 100)
        model, losses = self.fit_recording_losses(monkeypatch, X, y)
        assert len(losses) < self.MAX_ITER
        assert np.isfinite(fit_params(model)).all()
        assert np.abs(logistic_gradient(fit_params(model), X, y, 0.0)).max() <= self.TOL
        assert ((model.predict_score(X) >= 0.5) == y).all()

    @pytest.mark.parametrize("value", [5.0, 1.0], ids=["zero-variance", "constant-one"])
    def test_unpenalized_collinear_column_stops_by_tolerance(self, monkeypatch, value):
        # with l2 = 0 a constant column duplicates the bias, so the Hessian
        # is singular, and a plain np.linalg.solve may refuse it
        rng = np.random.default_rng(8)
        x = rng.normal(size=200)
        X = np.column_stack([x, np.full(200, value)])
        y = rng.random(200) < 1.0 / (1.0 + np.exp(-x))
        assert np.linalg.matrix_rank(logistic_hessian(np.zeros(3), X, y, 0.0)) == 2
        model, losses = self.fit_recording_losses(monkeypatch, X, y)
        assert len(losses) < self.MAX_ITER
        assert np.isfinite(fit_params(model)).all()
        assert np.abs(logistic_gradient(fit_params(model), X, y, 0.0)).max() <= self.TOL


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


class TestNodeDraws:
    """``_NodeDraws`` against numpy's ``Generator.choice`` and ``integers``,
    on generators that also draw words between the trees."""

    @pytest.mark.parametrize("seed", range(5))
    def test_choice_equals_numpy_choice(self, seed):
        expected, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        for d in range(1, 13):
            draws = ml._NodeDraws(drawn)
            for size in range(d + 1):
                for _ in range(3):
                    assert draws.choice(d, size) == expected.choice(d, size, False).tolist()
            draws.close()
            assert (drawn.integers(0, 17, size=d).tolist()
                    == expected.integers(0, 17, size=d).tolist())
        assert drawn.bit_generator.state == expected.bit_generator.state

    def test_a_source_spanning_several_chunks_ends_where_numpy_ends(self):
        expected, drawn = np.random.default_rng(7), np.random.default_rng(7)
        expected.integers(0, 2**32, 1, np.uint32)  # start on the second half of a 64-bit word
        drawn.integers(0, 2**32, 1, np.uint32)
        draws = ml._NodeDraws(drawn)
        for _ in range(60):
            assert draws.choice(12, 12) == expected.choice(12, 12, False).tolist()
        assert draws.used > 2 * ml._WORD_CHUNK
        draws.close()
        assert drawn.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize(
        "d, size", [(10001, 200), (10001, 201), (12000, 5000), (10001, 10001)],
        ids=["floyd-at-the-bound", "tail-shuffle", "tail-shuffle-half", "tail-shuffle-all"],
    )
    def test_large_populations_draw_as_numpy_draws(self, d, size):
        # above 10,000 candidates and d // 50 draws numpy shuffles a tail
        expected, drawn = np.random.default_rng(d), np.random.default_rng(d)
        draws = ml._NodeDraws(drawn)
        assert draws.choice(d, size) == expected.choice(d, size, False).tolist()
        draws.close()
        assert drawn.bit_generator.state == expected.bit_generator.state

    def test_bounded_draws_reject_as_numpy_rejects(self):
        """Over d <= 12 a word is rejected with odds near 2**-32; below
        3 * 2**30 + 1 about a quarter of the words are."""
        expected, drawn = np.random.default_rng(1), np.random.default_rng(1)
        draws = ml._NodeDraws(drawn)
        bound = 3 * 2**30 + 1
        assert [draws.below(bound) for _ in range(1000)] == expected.integers(
            0, bound, size=1000
        ).tolist()
        assert draws.used > 1200  # about 1,333 words for 1,000 draws
        draws.close()
        assert drawn.bit_generator.state == expected.bit_generator.state


class TestPrefixFamilies:
    """A t-tree forest and a k-NN model score exactly like the prefixes of
    larger ones with the same seed, so a grid scores them from one fit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        d=st.integers(1, 4),
        max_depth=st.sampled_from([None, 1, 3]),
        max_features=st.sampled_from([1, 2, 4]),
        trees=st.integers(1, 6),
        extra=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_forest_scores_like_the_prefix_of_a_larger_one(
        self, seed, n, d, max_depth, max_features, trees, extra
    ):
        data_rng = np.random.default_rng(seed)
        X = mixed_columns(data_rng, n, d)
        y = data_rng.random(n) < data_rng.random()
        queries = mixed_columns(data_rng, 9, d)
        small = ml.RandomForestModel(X, y, trees, max_depth, max_features, [seed, 1])
        large = ml.RandomForestModel(X, y, trees + extra, max_depth, max_features, [seed, 1])
        assert [preorder(t) for t in small.trees] == [preorder(t) for t in large.trees[:trees]]
        assert (small.predict_score(queries).tolist()
                == large.prefix_scores(queries, [trees])[0].tolist())

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        k=st.integers(1, 45),
        extra=st.integers(0, 10),
        metric=st.sampled_from(["euclidean", "manhattan"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_knn_model_scores_like_the_prefix_of_a_larger_one(self, seed, n, k, extra, metric):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, size=(n, 3)).astype(float)  # many equal distances
        y = rng.random(n) < 0.5
        queries = rng.integers(0, 3, size=(11, 3)).astype(float)
        small = ml.KNNModel(X, y, k, metric)
        large = ml.KNNModel(X, y, k + extra, metric)
        assert (small.predict_score(queries).tolist()
                == large.prefix_scores(queries, [k])[0].tolist())

    @pytest.mark.parametrize(
        "kind, grid",
        [
            (KNN, {"k": [5, 1, 3, 60], "metric": ["euclidean", "manhattan"]}),
            (RANDOM_FOREST, {"trees": [3, 1, 5], "max_depth": [2, None], "max_features": [1, 2]}),
            (RANDOM_FOREST, {"max_depth": [None, 2]}),
            (LOGISTIC_REGRESSION, {"l2": [0.01, 1.0]}),
            (LOGISTIC_REGRESSION, {"l2": [0.1, 0.1]}),
        ],
        ids=["knn", "random-forest", "random-forest-default-trees", "logistic-regression",
             "logistic-regression-repeated-value"],
    )
    def test_every_cell_reports_what_cross_validate_reports(self, kind, grid):
        """A grid's cells in ``itertools.product`` order, each with the
        report ``cross_validate`` gives it alone; a repeated value makes
        two equal cells, which a kind without a prefix parameter fits once."""
        data = separable_dataset(60, seed=3)
        data = MLDataset(data.features, np.random.default_rng(2).permutation(data.labels))
        specs = [
            ClassifierSpec(kind, dict(zip(grid, combo)))
            for combo in itertools.product(*grid.values())
        ]
        reports = ml._reports(specs, data, folds=5, seed=2, jobs=1)
        assert [report.spec for report in reports] == specs
        for spec, report in zip(specs, reports):
            assert report == cross_validate(spec, data, folds=5, seed=2)
        best = max(reports, key=lambda report: report.mean_f)
        assert grid_search(kind, data, grid, folds=5, seed=2) == (best.spec, best)

    @staticmethod
    def count_predict_score(monkeypatch) -> list:
        """The models whose ``predict_score`` is called, one entry a call."""
        calls = []
        for model in (ml.KNNModel, ml.LogisticModel, ml.RandomForestModel):
            original = model.predict_score
            monkeypatch.setattr(
                model, "predict_score",
                lambda self, X, original=original: calls.append(self) or original(self, X),
            )
        return calls

    @pytest.mark.parametrize("kind", [KNN, LOGISTIC_REGRESSION, RANDOM_FOREST])
    def test_cross_validate_calls_predict_score_once_per_fold(self, monkeypatch, kind):
        """A family of one is fitted with its own spec and scored by
        ``predict_score``, so the traced ``ml.predict_score`` spans keep
        timing the fits ``cross_validate`` makes."""
        calls = self.count_predict_score(monkeypatch)
        spec = ClassifierSpec(kind, {"trees": 3} if kind == RANDOM_FOREST else {})
        cross_validate(spec, separable_dataset(40), folds=4)
        model = {KNN: ml.KNNModel, LOGISTIC_REGRESSION: LogisticModel,
                 RANDOM_FOREST: ml.RandomForestModel}[kind]
        assert [type(called) for called in calls] == [model] * 4

    def test_a_grid_of_prefix_families_calls_no_predict_score(self, monkeypatch):
        """Families of two or more members are scored by ``prefix_scores``
        of their largest member's fit only."""
        calls = self.count_predict_score(monkeypatch)
        data = separable_dataset(40)
        grid_search(KNN, data, {"k": [1, 3], "metric": ["euclidean", "manhattan"]}, folds=4)
        grid_search(RANDOM_FOREST, data, {"trees": [1, 2], "max_depth": [1, None]}, folds=4)
        assert calls == []

    def test_a_forest_grid_grows_each_family_once_per_fold(self, monkeypatch):
        grown = []
        original = ml._grow_tree
        monkeypatch.setattr(ml, "_grow_tree", lambda *args: grown.append(1) or original(*args))
        grid = {"trees": [1, 2, 4], "max_depth": [1, None]}
        grid_search(RANDOM_FOREST, separable_dataset(40), grid, folds=4)
        # two families, four folds, four trees; cell by cell it would be seven
        assert len(grown) == 2 * 4 * 4

    def test_forest_grid_search_does_not_depend_on_jobs(self):
        data = separable_dataset(60, seed=3)
        grid = {"trees": [2, 5], "max_depth": [1, None], "max_features": [1, 2]}
        specs = [
            ClassifierSpec(RANDOM_FOREST, dict(zip(grid, combo)))
            for combo in itertools.product(*grid.values())
        ]
        serial = ml._reports(specs, data, folds=5, seed=1, jobs=1)
        assert ml._reports(specs, data, folds=5, seed=1, jobs=3) == serial


@pytest.mark.parametrize("d", [4, 9])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_knn_scores_do_not_depend_on_the_query_block(monkeypatch, metric, d):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(70, d))
    y = rng.random(70) < 0.4
    queries = rng.normal(size=(50, d))
    model = ml.KNNModel(X, y, 7, metric)
    assert len(queries) <= ml._KNN_QUERY_BLOCK
    one_block = model.prefix_scores(queries, [1, 7, 70])
    monkeypatch.setattr(ml, "_KNN_QUERY_BLOCK", 8)  # seven blocks, the last one short
    assert [s.tolist() for s in model.prefix_scores(queries, [1, 7, 70])] == [
        s.tolist() for s in one_block
    ]


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_knn_scores_equal_per_row_lexsort(metric):
    rng = np.random.default_rng(5)
    X = rng.integers(0, 3, size=(40, 3)).astype(float)  # many equal distances
    y = rng.random(40) < 0.4
    queries = rng.integers(0, 3, size=(25, 3)).astype(float)
    data = MLDataset(X, y, feature_names=("a", "b", "c"))
    for k in (1, 2, 5, 8, 40):
        model = train(ClassifierSpec(KNN, {"k": k, "metric": metric}), data)
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

    @settings(max_examples=200)
    @given(st.data())
    def test_fold_prf_equals_counting_per_fold(self, data):
        folds = data.draw(st.integers(1, 5))
        rows = data.draw(
            st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(0, folds - 1)),
                     max_size=30)
        )
        predicted = np.array([p for p, _a, _f in rows], dtype=bool)
        actual = np.array([a for _p, a, _f in rows], dtype=bool)
        fold_indices = [
            np.array([i for i, row in enumerate(rows) if row[2] == fold], dtype=int)
            for fold in range(folds)
        ]
        expected = []
        for fold in range(folds):
            members = [(p, a) for p, a, f in rows if f == fold]
            expected.append(counts_prf(
                sum(p and a for p, a in members),
                sum(p and not a for p, a in members),
                sum(a and not p for p, a in members),
            ))
        per_fold, means = fold_prf(predicted, actual, fold_indices)
        assert per_fold == tuple(expected)
        assert means == tuple(sum(metrics[i] for metrics in expected) / folds for i in range(3))

    @pytest.mark.parametrize(
        "spec",
        [ClassifierSpec(KNN), ClassifierSpec(KNN, {"k": 4}), ClassifierSpec(LOGISTIC_REGRESSION),
         ClassifierSpec(RANDOM_FOREST)],
        ids=["knn", "knn-even-k", "logistic-regression", "random-forest"],
    )
    @pytest.mark.parametrize("labels", ["separable", "permuted"])
    def test_report_holds_the_held_out_scores_of_each_fold(self, spec, labels):
        """Each fold's scores are those of a model fitted by hand on the
        other folds, in dataset order, and each fold is scored by prf of
        its scores at 0.5 and above. Permuted labels spread the scores, and
        an even k gives scores of exactly 0.5."""
        data, seed = separable_dataset(), 3
        if labels == "permuted":
            data = MLDataset(data.features, np.random.default_rng(9).permutation(data.labels))
        report = cross_validate(spec, data, folds=5, seed=seed)
        scores = np.array(report.scores)
        assert len(scores) == len(data)
        fold_indices = stratified_folds(data.labels, 5, seed)
        for fold, test_idx in enumerate(fold_indices):
            train_idx = np.setdiff1d(np.arange(len(data)), test_idx)
            scaler = fit_scaler(data.subset(train_idx))
            scaled = MLDataset(scaler.transform(data.features[train_idx]), data.labels[train_idx])
            model = train(spec, scaled, seed=[seed, fold])
            held_out = model.predict_score(scaler.transform(data.features[test_idx]))
            assert scores[test_idx].tolist() == held_out.tolist()
        assert report.per_fold == tuple(
            prf(scores[idx] >= 0.5, data.labels[idx]) for idx in fold_indices
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

    @pytest.mark.parametrize("metrics", [["euclidean", "manhattan"], ["manhattan", "euclidean"]])
    def test_a_tie_keeps_the_first_cell(self, metrics):
        # on one column both distances are |d|, since sqrt(d*d) == abs(d) in
        # binary64, so the two cells' reports tie and the first cell wins
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 60)
        data = MLDataset(np.column_stack([x]), (x > 0.5) ^ (rng.uniform(0, 1, 60) < 0.2), ("a",))
        first, second = (
            cross_validate(ClassifierSpec(KNN, {"k": 3, "metric": metric}), data, folds=5)
            for metric in metrics
        )
        assert (first.per_fold, first.scores) == (second.per_fold, second.scores)
        spec, report = grid_search(KNN, data, grids={"k": [3], "metric": metrics}, folds=5)
        assert spec.hyperparameters["metric"] == metrics[0]
        assert report == first

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            grid_search(KNN, separable_dataset(40), grids={})
        with pytest.raises(ValueError):
            grid_search(KNN, separable_dataset(40), grids={"k": []})


class TestWorkers:
    """Folds and grid combinations on forked workers (``workers.map``, tested
    in test_workers.py) give what one process gives."""

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
            cross_validate(ClassifierSpec(KNN), separable_dataset(30), folds=3, jobs=jobs)
