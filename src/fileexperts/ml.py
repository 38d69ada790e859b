"""Binary expert classification on development features.

Classifiers are implemented on numpy and plain Python: k-nearest
neighbors, L2-regularized logistic regression fitted by damped Newton
steps, and a random forest of Gini-split trees with bootstrap sampling and
per-split feature subsampling. Each tree is grown on the distinct rows of
its bootstrap sample, weighted by their counts, sorts every feature once
and scores its nodes in plain float arithmetic, which is exact and, at the
dozen rows of a typical node, cheaper than per-node numpy calls.
Evaluation runs seeded, stratified 10-fold cross-validation with the
expert class as positive; standardization is fit on each training split
only. Models only score; ``cross_validate`` gathers the held-out scores of
all folds, calls a score of at least 0.5 an expert, in that one place, and
scores the folds by ``validation.fold_prf``, as ``expertise.calibrate`` does.

Folds and grid combinations are independent, and each fold draws from its
own seed ``[seed, fold]``, so ``cross_validate`` and ``grid_search`` map
them over ``jobs`` forked workers with ``workers.map``; a free worker takes
the next fold or combination, so cells of uneven cost spread evenly.
Results and warnings come back in unit order, so a report does not depend
on ``jobs``.

The feature layout follows the study design, ML_FEATURE_NAMES:
[adds, fa, size, num_days], where fa is binary and left unscaled.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import workers
from .errors import SingleClassData, TooFewSamples, ZeroVarianceWarning
from .kinds import KINDS, KNN, LOGISTIC_REGRESSION, RANDOM_FOREST
from .validation import fold_prf, stratified_folds

ML_FEATURE_NAMES = ("adds", "fa", "size", "num_days")
_BINARY_FEATURES = ("fa",)

# A logistic fit stops once every entry of the loss gradient is within
# ``tol``, or after ``max_iter`` Newton steps. Newton steps converge
# quadratically, so a fit meets ``tol`` in a handful of steps (4 to 6 on
# standardized survey labels) and ``max_iter`` is only a safety bound.
DEFAULT_HYPERPARAMETERS: dict[str, dict] = {
    KNN: {"k": 5, "metric": "euclidean"},
    LOGISTIC_REGRESSION: {"l2": 0.1, "tol": 1e-6, "max_iter": 10000},
    RANDOM_FOREST: {"trees": 100, "max_depth": None, "max_features": 2},
}

DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    KNN: {"k": [1, 3, 5, 7, 9, 11], "metric": ["euclidean", "manhattan"]},
    RANDOM_FOREST: {
        "trees": [50, 100, 200],
        "max_depth": [4, 8, 16, None],
        "max_features": [2, 4],
    },
    LOGISTIC_REGRESSION: {"l2": [0.001, 0.01, 0.1, 1.0, 10.0]},
}


@dataclass(frozen=True, eq=False)
class MLDataset:
    """Feature matrix plus expert labels, with one name per column."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) bool, True = expert
    feature_names: tuple[str, ...] = ML_FEATURE_NAMES

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=bool))
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (n, d) aligned with n labels")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError(
                f"{len(self.feature_names)} feature names for {self.features.shape[1]} columns"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices: np.ndarray) -> "MLDataset":
        return MLDataset(
            features=self.features[indices],
            labels=self.labels[indices],
            feature_names=self.feature_names,
        )


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    hyperparameters: Mapping = field(default_factory=dict)

    def merged(self) -> dict:
        params = dict(DEFAULT_HYPERPARAMETERS.get(self.kind, {}))
        params.update(self.hyperparameters)
        return params


@dataclass(frozen=True)
class CVReport:
    spec: ClassifierSpec
    per_fold: tuple[tuple[float, float, float], ...]  # (precision, recall, f)
    mean_precision: float
    mean_recall: float
    mean_f: float
    scores: tuple[float, ...] = field(repr=False)  # held-out, in dataset order

    def to_dict(self) -> dict:
        return {
            "classifier": self.spec.kind,
            "hyperparameters": {
                k: v for k, v in sorted(self.spec.merged().items())
            },
            "folds": [
                {"precision": p, "recall": r, "f_measure": f} for p, r, f in self.per_fold
            ],
            "mean_precision": self.mean_precision,
            "mean_recall": self.mean_recall,
            "mean_f": self.mean_f,
        }


@dataclass(frozen=True)
class Scaler:
    """Column-wise standardization parameters fitted on a training split."""

    mean: np.ndarray
    scale: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.scale


def fit_scaler(dataset: MLDataset) -> Scaler:
    """Zero-mean unit-variance parameters for the continuous columns.

    The binary column, the one named fa, passes through untouched, wherever
    it stands. A constant continuous column is passed through unscaled with
    a ZeroVarianceWarning.
    """
    if len(dataset) == 0:
        raise TooFewSamples("cannot standardize an empty dataset")
    X = dataset.features
    mean = X.mean(axis=0)
    scale = X.std(axis=0)  # population std
    for col in range(X.shape[1]):
        name = dataset.feature_names[col]
        if name in _BINARY_FEATURES:
            mean[col], scale[col] = 0.0, 1.0
        elif scale[col] == 0.0:
            warnings.warn(f"feature {name!r} is constant; left unscaled", ZeroVarianceWarning)
            mean[col], scale[col] = 0.0, 1.0
    return Scaler(mean=mean, scale=scale)


def standardize(dataset: MLDataset) -> tuple[MLDataset, Scaler]:
    """Standardized copy of the dataset plus the fitted parameters."""
    scaler = fit_scaler(dataset)
    return (
        MLDataset(
            features=scaler.transform(dataset.features),
            labels=dataset.labels,
            feature_names=dataset.feature_names,
        ),
        scaler,
    )


# -- k-nearest neighbors -------------------------------------------------------

class KNNModel:
    def __init__(self, X: np.ndarray, y: np.ndarray, k: int, metric: str):
        if metric not in ("euclidean", "manhattan"):
            raise ValueError(f"unknown metric {metric!r}")
        self.X = X
        self.y = y
        self.k = min(k, len(X))
        self.metric = metric

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        diff = X[:, None, :] - self.X[None, :, :]
        if self.metric == "euclidean":
            dists = np.sqrt((diff**2).sum(axis=2))
        else:
            dists = np.abs(diff).sum(axis=2)
        # stable order: ties in distance resolved by training index
        nearest = np.argsort(dists, axis=1, kind="stable")[:, : self.k]
        return self.y[nearest].mean(axis=1)


# -- logistic regression -------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss(params: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean log-loss plus L2 penalty on the weights (bias excluded).

    ``params`` stacks the weight vector and the bias as its last entry;
    ``y`` holds booleans with True as the positive class.
    """
    w, b = params[:-1], params[-1]
    z = X @ w + b
    sign = np.where(y, 1.0, -1.0)
    return float(np.logaddexp(0.0, -sign * z).mean() + 0.5 * l2 * (w @ w))


def logistic_gradient(params: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    w, b = params[:-1], params[-1]
    z = X @ w + b
    residual = _sigmoid(z) - y.astype(float)
    grad_w = X.T @ residual / len(y) + l2 * w
    grad_b = residual.mean()
    return np.concatenate([grad_w, [grad_b]])


def logistic_hessian(params: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    """``A.T @ diag(p(1-p)) @ A / n`` with ``A = [X, 1]``, plus ``l2`` on the
    weight diagonal; the bias is not penalized. ``y`` does not enter."""
    w, b = params[:-1], params[-1]
    p = _sigmoid(X @ w + b)
    A = np.column_stack([X, np.ones(len(X))])
    hessian = (A.T * (p * (1.0 - p))) @ A / len(X)
    hessian[np.arange(len(w)), np.arange(len(w))] += l2
    return hessian


class LogisticModel:
    """Minimizer of ``logistic_loss`` by damped Newton steps: each step
    solves the Hessian system, then halves from the full step until the
    loss falls by the Armijo margin. The fit stops once every gradient
    entry is within ``tol`` or after ``max_iter`` steps."""

    def __init__(self, X: np.ndarray, y: np.ndarray, l2: float, tol: float, max_iter: int):
        params = np.zeros(X.shape[1] + 1)
        loss = logistic_loss(params, X, y, l2)
        for _ in range(max_iter):
            grad = logistic_gradient(params, X, y, l2)
            if np.abs(grad).max() <= tol:
                break
            # minimum-norm solution: with l2 = 0 a constant column makes the
            # Hessian singular, and the gradient still lies in its range
            direction = -np.linalg.lstsq(logistic_hessian(params, X, y, l2), grad, rcond=None)[0]
            slope = float(grad @ direction)
            step = 1.0
            while True:
                candidate = params + step * direction
                new_loss = logistic_loss(candidate, X, y, l2)
                if new_loss <= loss + 1e-4 * step * slope or step < 1e-12:
                    break
                step *= 0.5
            params, loss = candidate, new_loss
        self.weights = params[:-1]
        self.bias = float(params[-1])

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _sigmoid(X @ self.weights + self.bias)


# -- random forest --------------------------------------------------------------

class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "probability")

    def __init__(self, probability: float):
        self.feature: int | None = None
        self.threshold = 0.0
        self.left: "_TreeNode | None" = None
        self.right: "_TreeNode | None" = None
        self.probability = probability


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int | None,
    max_features: int,
    rng: np.random.Generator,
    counts: np.ndarray | None = None,
) -> _TreeNode:
    """Grow one Gini tree, depth first, right child first, drawing the
    candidate features of each node from ``rng``. Row ``i`` stands for
    ``counts[i]`` copies of itself (one by default), so a bootstrap sample
    can be passed as its distinct rows and their counts.

    Each feature is sorted once (SLIQ; Mehta, Agrawal & Rissanen 1996). A
    node carries, per feature, its rows in that order; a split partitions
    every list by ``col[i] <= threshold``, which keeps each list a stable
    argsort of the node's rows. Split scores are plain float arithmetic in
    the order a vectorized scan uses, so the tree is exact, not approximate.
    A split is scored only where the value changes, and copies of a row
    share its value, so the counts enter only as sums over whole runs of
    equal values: the tree is the one grown on the rows repeated.
    """
    n, d = X.shape
    columns = X.T.tolist()
    weights = [1] * n if counts is None else counts.tolist()
    positives = [c if label else 0 for c, label in zip(weights, y.tolist())]
    size = min(max_features, d)

    def splittable(rows: int, pos: int, depth: int) -> bool:
        return 0 < pos < rows and (max_depth is None or depth < max_depth)

    rows, total = sum(weights), sum(positives)
    root = _TreeNode(probability=total / rows)
    orders = [np.argsort(X[:, f], kind="stable").tolist() for f in range(d)]
    stack = [(root, orders, rows, total, 0)] if splittable(rows, total, 0) else []
    while stack:
        node, orders, m, pos, depth = stack.pop()
        # first minimum within a feature, strict improvement across features
        best_gini = math.inf
        best = None
        # positional: keyword parsing is about a third of this call's cost
        for feature in rng.choice(d, size, False).tolist():
            col = columns[feature]
            left = left_pos = 0
            prev = None
            for i in orders[feature]:
                value = col[i]
                if left and value != prev:
                    right = m - left
                    pl = left_pos / left
                    pr = (pos - left_pos) / right
                    gini = (left * 2.0 * pl * (1.0 - pl) + right * 2.0 * pr * (1.0 - pr)) / m
                    if gini < best_gini:
                        best_gini = gini
                        best = (feature, left, left_pos, prev, value)
                prev = value
                left += weights[i]
                left_pos += positives[i]
        if best is None:
            continue
        feature, left, left_pos, lo, hi = best
        threshold = (lo + hi) / 2.0
        if not lo <= threshold < hi:  # adjacent floats, or lo + hi overflowed
            threshold = lo
        col = columns[feature]
        node.feature = feature
        node.threshold = threshold
        node.left = _TreeNode(probability=left_pos / left)
        node.right = _TreeNode(probability=(pos - left_pos) / (m - left))
        # a child that cannot split draws nothing, so it needs no row lists
        if splittable(left, left_pos, depth + 1):
            lists = [[i for i in order if col[i] <= threshold] for order in orders]
            stack.append((node.left, lists, left, left_pos, depth + 1))
        if splittable(m - left, pos - left_pos, depth + 1):
            lists = [[i for i in order if col[i] > threshold] for order in orders]
            stack.append((node.right, lists, m - left, pos - left_pos, depth + 1))
    return root


def _tree_scores(node: _TreeNode, X: np.ndarray) -> np.ndarray:
    scores = np.empty(len(X))
    for i, row in enumerate(X):
        current = node
        while current.feature is not None:
            current = current.left if row[current.feature] <= current.threshold else current.right
        scores[i] = current.probability
    return scores


class RandomForestModel:
    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        trees: int,
        max_depth: int | None,
        max_features: int,
        seed,
    ):
        rng = np.random.default_rng(seed)
        self.trees: list[_TreeNode] = []
        n = len(y)
        for _ in range(trees):
            # a tree grown on the distinct rows, weighted by their counts,
            # is the tree grown on the sample; about 63% of its rows are distinct
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            rows = np.flatnonzero(counts)
            self.trees.append(
                _grow_tree(X[rows], y[rows], max_depth, max_features, rng, counts[rows])
            )

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.mean([_tree_scores(tree, X) for tree in self.trees], axis=0)


# -- training and evaluation -----------------------------------------------------

def train(spec: ClassifierSpec, data: MLDataset, seed=0):
    """Fit a model for the spec. Logistic regression and the forest require
    both classes; nearest neighbors tolerates one."""
    if spec.kind not in KINDS:
        raise ValueError(f"unknown classifier kind {spec.kind!r}")
    params = spec.merged()
    X, y = data.features, data.labels
    if spec.kind != KNN and (y.all() or not y.any()):
        raise SingleClassData(f"{spec.kind} needs both classes in the training data")
    if spec.kind == KNN:
        return KNNModel(X, y, k=int(params["k"]), metric=params["metric"])
    if spec.kind == LOGISTIC_REGRESSION:
        return LogisticModel(
            X,
            y,
            l2=float(params["l2"]),
            tol=float(params["tol"]),
            max_iter=int(params["max_iter"]),
        )
    return RandomForestModel(
        X,
        y,
        trees=int(params["trees"]),
        max_depth=params["max_depth"],
        max_features=int(params["max_features"]),
        seed=seed,
    )


def cross_validate(
    spec: ClassifierSpec, dataset: MLDataset, folds: int = 10, seed: int = 0, jobs: int = 1
) -> CVReport:
    """Stratified seeded k-fold evaluation with expert as the positive class.

    Standardization is fitted on each training split and applied to the
    held-out split, so no information leaks across the boundary. The folds'
    held-out ``predict_score`` values form ``scores``, one vector in dataset
    order (``oracle.pairs`` order from ``study.process_answers``); a score of
    at least 0.5 is an expert, and ``validation.fold_prf`` scores the folds
    as it scores ``expertise.calibrate``'s thresholds. The folds run on up
    to ``jobs`` forked workers (see ``workers.map``).
    """
    fold_indices = stratified_folds(dataset.labels, folds, seed)
    if dataset.labels.all() or not dataset.labels.any():
        raise SingleClassData("cross-validation needs both classes")
    all_indices = np.arange(len(dataset))

    def score_fold(fold_number: int) -> np.ndarray:
        test_idx = fold_indices[fold_number]
        train_mask = ~np.isin(all_indices, test_idx)
        train_set = dataset.subset(all_indices[train_mask])
        scaled_train, scaler = standardize(train_set)
        model = train(spec, scaled_train, seed=[seed, fold_number])
        return model.predict_score(scaler.transform(dataset.features[test_idx]))

    held_out = workers.map(score_fold, range(len(fold_indices)), jobs)
    scores = np.empty(len(dataset))
    scores[np.concatenate(fold_indices)] = np.concatenate(held_out)
    per_fold, means = fold_prf(scores >= 0.5, dataset.labels, fold_indices)
    return CVReport(spec, per_fold, *means, scores=tuple(scores.tolist()))


def grid_search(
    kind: str,
    dataset: MLDataset,
    grids: dict[str, list] | None = None,
    folds: int = 10,
    seed: int = 0,
    jobs: int = 1,
) -> tuple[ClassifierSpec, CVReport]:
    """Exhaustive hyperparameter search maximizing mean F-measure.

    Combinations are evaluated in deterministic grid order and ties keep
    the first maximum. Each combination is one serial ``cross_validate``,
    run on up to ``jobs`` forked workers (see ``workers.map``).
    """
    grid = DEFAULT_GRIDS[kind] if grids is None else grids
    if not grid or not all(grid.values()):
        raise ValueError("hyperparameter grid is empty")
    names = list(grid)
    specs = [
        ClassifierSpec(kind=kind, hyperparameters=dict(zip(names, combo)))
        for combo in itertools.product(*(grid[name] for name in names))
    ]
    reports = workers.map(
        lambda spec: cross_validate(spec, dataset, folds=folds, seed=seed), specs, jobs
    )
    return max(zip(specs, reports), key=lambda pair: pair[1].mean_f)
