"""Binary expert classification on development features.

Classifiers are implemented on numpy and plain Python: k-nearest
neighbors, L2-regularized logistic regression fitted by damped Newton
steps, and a random forest of Gini-split trees with bootstrap sampling and
per-split feature subsampling. A forest sorts every feature once per fit;
each tree is grown on the distinct rows of its bootstrap sample, weighted
by their counts, from that presort filtered to those rows, and scores its
nodes in plain float arithmetic, which is exact and, at the dozen rows of a
typical node, cheaper than per-node numpy calls. A node's candidate
features are the draws of ``rng.choice(d, size, False)``, taken from a
chunk of the generator's 32-bit words as numpy takes them (``_NodeDraws``).
kNN scores query rows in fixed blocks, so its memory stays bounded.
Evaluation runs seeded, stratified 10-fold cross-validation with the
expert class as positive; standardization is fit on each training split
only. Models only score; one driver, ``_reports``, gathers the held-out
scores of all folds, calls a score of at least 0.5 an expert, in that one
place, and scores the folds by ``validation.fold_prf``, as
``expertise.calibrate`` does. ``cross_validate`` is its one-spec case and
``grid_search`` its grid case.

Each fold draws from its own seed ``[seed, fold]``, so a forest's first t
trees are the t-tree forest of that fold, and a kNN model's first k
neighbours in its stable order are the k-NN model's. The driver fits each
such prefix family of two or more specs once per fold, with its largest
``trees`` or ``k``, and scores every member from that fit; a spec alone in
its family is fitted as itself. So a grid's reports equal
``cross_validate``'s, and the default forest grid grows 43% fewer trees
than one fit per combination. The (family, fold) pairs are independent,
so the driver maps them over ``jobs`` forked workers with ``workers.map``;
a free worker takes the next unit, so units of uneven cost spread evenly.
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


# -- k-nearest neighbors -------------------------------------------------------

# kNN scores its query rows this many at a time, so the (rows, training rows,
# features) difference array stays bounded: 64 queries against 9,000
# training rows of 4 features take 18 MB. Each row is scored alone, so the
# block size never changes a score.
_KNN_QUERY_BLOCK = 64


class KNNModel:
    def __init__(self, X: np.ndarray, y: np.ndarray, k: int, metric: str):
        if metric not in ("euclidean", "manhattan"):
            raise ValueError(f"unknown metric {metric!r}")
        self.X = X
        self.y = y
        self.k = min(k, len(X))
        self.metric = metric

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        return self.prefix_scores(X, [self.k])[0]

    def prefix_scores(self, X: np.ndarray, ks: list[int]) -> list[np.ndarray]:
        """``predict_score`` of this model with each k in ``ks``: the mean
        label of the first k neighbours in one stable order, ties in
        distance resolved by training index."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scores = [np.empty(len(X)) for _ in ks]
        for start in range(0, len(X), _KNN_QUERY_BLOCK):
            block = slice(start, start + _KNN_QUERY_BLOCK)
            diff = X[block, None, :] - self.X[None, :, :]
            if self.metric == "euclidean":
                dists = np.sqrt((diff**2).sum(axis=2))
            else:
                dists = np.abs(diff).sum(axis=2)
            order = np.argsort(dists, axis=1, kind="stable")
            for out, k in zip(scores, ks):
                out[block] = self.y[order[:, : min(k, len(self.X))]].mean(axis=1)
        return scores


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


# Words a tree's node draws take from its generator at a time; a tree of
# the survey's 360 training rows takes a few hundred.
_WORD_CHUNK = 256


class _NodeDraws:
    """``rng.choice(d, size, False)``, drawn as numpy draws it, from 32-bit
    words of ``rng`` taken a chunk at a time.

    numpy's ``Generator.choice`` without replacement is Floyd's sampling
    algorithm (Bentley & Floyd 1987) followed by a Fisher-Yates shuffle of
    the sample, or for ``d`` above 10,000 and ``size`` above ``d // 50`` a
    partial shuffle of ``range(d)``. Each of their bounded integers is
    Lemire's (2019) multiply-and-reject draw on the generator's next 32-bit
    word, as ``below`` draws it. ``close`` rewinds ``rng`` to where the
    first chunk began and draws exactly the words used, so ``rng`` ends
    where the ``choice`` calls would have left it.
    """

    __slots__ = ("rng", "state", "words", "used")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.state = None
        self.words: list[int] = []
        self.used = 0

    def below(self, n: int) -> int:
        """A uniform integer in ``range(n)``; ``n == 1`` takes no word."""
        if n == 1:
            return 0
        m = self._word() * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._word() * n
        return m >> 32

    def choice(self, d: int, size: int) -> list[int]:
        if d > 10000 and size > d // 50:
            pool = list(range(d))
            for i in range(d - 1, max(d - size, 1) - 1, -1):
                j = self.below(i + 1)
                pool[i], pool[j] = pool[j], pool[i]
            return pool[d - size :]
        sample: list[int] = []
        for j in range(d - size, d):
            value = self.below(j + 1)
            sample.append(j if value in sample else value)
        for i in range(size - 1, 0, -1):
            j = self.below(i + 1)
            sample[i], sample[j] = sample[j], sample[i]
        return sample

    def close(self) -> None:
        if self.state is not None:
            self.rng.bit_generator.state = self.state
            self.rng.integers(0, 2**32, self.used, np.uint32)

    def _word(self) -> int:
        if self.used == len(self.words):
            if self.state is None:
                self.state = self.rng.bit_generator.state
            # positional: keyword parsing is a good part of a small draw's cost
            self.words += self.rng.integers(0, 2**32, _WORD_CHUNK, np.uint32).tolist()
        self.used += 1
        return self.words[self.used - 1]


def _grow_tree(
    columns: list[list[float]],
    orders: list[list[int]],
    weights: list[int],
    positives: list[int],
    max_depth: int | None,
    max_features: int,
    rng: np.random.Generator,
) -> _TreeNode:
    """Grow one Gini tree, depth first, right child first, drawing the
    candidate features of each node as ``rng.choice(d, size, False)`` would
    (``_NodeDraws``), and leaving ``rng`` where those calls would.

    ``columns[f][i]`` is feature ``f`` of row ``i``, which stands for
    ``weights[i]`` copies of itself, ``positives[i]`` of them experts; so a
    bootstrap sample can be passed as its distinct rows and their counts.
    ``orders[f]`` is a stable argsort of feature ``f`` over the rows in the
    tree (SLIQ; Mehta, Agrawal & Rissanen 1996): rows left out of it, such
    as those of weight 0, take no part. A node carries, per feature, its
    rows in that order; a split partitions every list by
    ``col[i] <= threshold``, which keeps each list a stable argsort of the
    node's rows. Split scores are plain float arithmetic in the order a
    vectorized scan uses, so the tree is exact, not approximate. A split is
    scored only where the value changes, and copies of a row share its
    value, so the weights enter only as sums over whole runs of equal
    values: the tree is the one grown on the rows repeated.
    """
    d = len(columns)
    size = min(max_features, d)
    draws = _NodeDraws(rng)

    def splittable(rows: int, pos: int, depth: int) -> bool:
        return 0 < pos < rows and (max_depth is None or depth < max_depth)

    rows, total = sum(weights), sum(positives)
    root = _TreeNode(probability=total / rows)
    stack = [(root, orders, rows, total, 0)] if splittable(rows, total, 0) else []
    while stack:
        node, orders, m, pos, depth = stack.pop()
        # first minimum within a feature, strict improvement across features
        best_gini = math.inf
        best = None
        for feature in draws.choice(d, size):
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
    draws.close()
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
        if max_features < 0:
            raise ValueError(f"max_features must be >= 0, got {max_features}")
        rng = np.random.default_rng(seed)
        self.trees: list[_TreeNode] = []
        n = len(y)
        # one presort per fit: a tree's rows, filtered from it, stay in the
        # order of a stable argsort of those rows alone
        columns = X.T.tolist()
        orders = [np.argsort(column, kind="stable") for column in X.T]
        for _ in range(trees):
            # a tree grown on the distinct rows, weighted by their counts,
            # is the tree grown on the sample; about 63% of its rows are distinct
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            drawn = counts > 0
            self.trees.append(_grow_tree(
                columns,
                [order[drawn[order]].tolist() for order in orders],
                counts.tolist(),
                (counts * y).tolist(),
                max_depth,
                max_features,
                rng,
            ))

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        return self.prefix_scores(X, [len(self.trees)])[0]

    def prefix_scores(self, X: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
        """``predict_score`` of the forest of this one's first t trees, for
        each t in ``sizes``: a reduction over axis 0 adds the tree rows in
        order, so a prefix's mean is that of the smaller forest."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        rows = np.array([_tree_scores(tree, X) for tree in self.trees])
        return [np.mean(rows[:t], axis=0) for t in sizes]


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


# The hyperparameter along which one fit holds the fits of all its smaller
# values with the same seed: a forest's first t trees are the t-tree forest,
# and a kNN model's first k neighbours in its stable order are the k-NN model's.
_PREFIX_PARAMETER = {KNN: "k", RANDOM_FOREST: "trees"}


def _held_out(
    spec: ClassifierSpec,
    sizes: list[int] | None,
    dataset: MLDataset,
    fold_indices: list[np.ndarray],
    seed: int,
    fold_number: int,
) -> list[np.ndarray]:
    """The held-out scores of one fold, from the spec's model fitted on the
    other folds with the fold's seed ``[seed, fold_number]``: its
    ``prefix_scores`` for each of ``sizes``, or its one ``predict_score``.
    A scaler fitted on the training split alone standardizes both splits."""
    test_idx = fold_indices[fold_number]
    all_indices = np.arange(len(dataset))
    train_set = dataset.subset(all_indices[~np.isin(all_indices, test_idx)])
    scaler = fit_scaler(train_set)
    scaled_train = MLDataset(
        scaler.transform(train_set.features), train_set.labels, train_set.feature_names
    )
    model = train(spec, scaled_train, seed=[seed, fold_number])
    X = scaler.transform(dataset.features[test_idx])
    return [model.predict_score(X)] if sizes is None else model.prefix_scores(X, sizes)


def _reports(
    specs: list[ClassifierSpec], dataset: MLDataset, folds: int, seed: int, jobs: int
) -> list[CVReport]:
    """The CV report of each spec, in order: the one classifier CV.

    The specs that differ only in their prefix parameter (kNN's ``k``, the
    forest's ``trees``) form one family. A family of one is fitted with its
    own spec and scored by ``predict_score``. A larger family is fitted
    with its largest value and each member is scored by that fit's
    ``prefix_scores``, unless its kind has no prefix parameter: then its
    members are one spec repeated, and share the one ``predict_score``.
    Every (family, fold) pair is one unit, run on up to ``jobs`` forked
    workers (see ``workers.map``). The folds' held-out scores are written
    into one vector in dataset order; a score of at least 0.5 is an expert.
    """
    fold_indices = stratified_folds(dataset.labels, folds, seed)
    if dataset.labels.all() or not dataset.labels.any():
        raise SingleClassData("cross-validation needs both classes")
    families: dict[tuple, list[int]] = {}  # kind and the other hyperparameters: positions
    for position, spec in enumerate(specs):
        params = spec.merged()
        params.pop(_PREFIX_PARAMETER.get(spec.kind), None)
        families.setdefault((spec.kind, *sorted(params.items())), []).append(position)
    runs = []  # per family: the spec fitted on each fold, the sizes it scores
    for members in families.values():
        spec = specs[members[0]]
        prefix = _PREFIX_PARAMETER.get(spec.kind)
        if len(members) == 1 or prefix is None:
            runs.append((spec, None))
        else:
            sizes = [int(specs[position].merged()[prefix]) for position in members]
            runs.append((ClassifierSpec(spec.kind, {**spec.merged(), prefix: max(sizes)}), sizes))
    held_out = workers.map(
        lambda unit: _held_out(*runs[unit[0]], dataset, fold_indices, seed, unit[1]),
        list(itertools.product(range(len(runs)), range(len(fold_indices)))),
        jobs,
    )
    order = np.concatenate(fold_indices)
    reports = [None] * len(specs)
    for run, members in enumerate(families.values()):
        fold_scores = held_out[run * len(fold_indices) : (run + 1) * len(fold_indices)]
        for member, position in enumerate(members):
            pick = 0 if runs[run][1] is None else member
            scores = np.empty(len(dataset))
            scores[order] = np.concatenate([fold[pick] for fold in fold_scores])
            per_fold, means = fold_prf(scores >= 0.5, dataset.labels, fold_indices)
            reports[position] = CVReport(
                specs[position], per_fold, *means, scores=tuple(scores.tolist())
            )
    return reports


def cross_validate(
    spec: ClassifierSpec, dataset: MLDataset, folds: int = 10, seed: int = 0, jobs: int = 1
) -> CVReport:
    """Stratified seeded k-fold evaluation with expert as the positive class.

    Standardization is fitted on each training split and applied to the
    held-out split, so no information leaks across the boundary. The folds'
    held-out ``predict_score`` values form ``scores``, one vector in dataset
    order (``oracle.pairs`` order from ``study.process_answers``); a score of
    at least 0.5 is an expert, and ``validation.fold_prf`` scores the folds
    as it scores ``expertise.calibrate``'s thresholds. This is the one-spec
    case of ``_reports``; the folds run on up to ``jobs`` forked workers
    (see ``workers.map``).
    """
    return _reports([spec], dataset, folds, seed, jobs)[0]


def grid_search(
    kind: str,
    dataset: MLDataset,
    grids: dict[str, list] | None = None,
    folds: int = 10,
    seed: int = 0,
    jobs: int = 1,
) -> tuple[ClassifierSpec, CVReport]:
    """Exhaustive hyperparameter search maximizing mean F-measure.

    Combinations are evaluated in ``itertools.product`` order of the grid
    and ties keep the first maximum. Each one's report is the one
    ``cross_validate`` gives it, though ``_reports`` fits each prefix family
    once per fold and scores every combination of it from that fit.
    """
    grid = DEFAULT_GRIDS[kind] if grids is None else grids
    if not grid or not all(grid.values()):
        raise ValueError("hyperparameter grid is empty")
    specs = [
        ClassifierSpec(kind=kind, hyperparameters=dict(zip(grid, combo)))
        for combo in itertools.product(*grid.values())
    ]
    best = max(_reports(specs, dataset, folds, seed, jobs), key=lambda report: report.mean_f)
    return best.spec, best
