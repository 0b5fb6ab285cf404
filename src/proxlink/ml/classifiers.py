"""The six classifier kinds of the prediction pipeline.

Every classifier is seed-deterministic, exposes fit / predict_proba /
predict, and validates its hyperparameters. Scale-sensitive kinds
(nearest neighbours, linear SVM, SGD logistic) standardize internally on
their own training statistics, so a fold's validation rows never leak
into the scaler.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._base import ParamsMixin, check_fitted
from .._validation import check_array, check_X_y, check_both_classes
from ..logit import sigmoid
from .tree import CartTree, presort

CLASSIFIER_KINDS = (
    "logistic-sgd",
    "gaussian-naive-bayes",
    "k-nearest-neighbors",
    "linear-svm",
    "random-forest",
    "gradient-boosted-trees",
)


def _stack_proba(p1: np.ndarray) -> np.ndarray:
    return np.column_stack([1.0 - p1, p1])


class _Standardizer:
    def fit(self, X):
        self.mu = X.mean(axis=0)
        self.sd = X.std(axis=0)
        self.sd[self.sd == 0] = 1.0
        return self

    def transform(self, X):
        return (X - self.mu) / self.sd


# cap on the bytes of one block of pairwise differences in the neighbour search
BLOCK_BYTES = 2 ** 20


def k_nearest(R: np.ndarray, k: int, Q: np.ndarray | None = None) -> np.ndarray:
    """Ids of the ``k`` nearest rows of ``R`` to each row of ``Q``.

    Rows are ordered by squared Euclidean distance, ties by the lower row
    index of ``R``. Without ``Q``, each row of ``R`` is matched against
    the others and never against itself (needs ``k < len(R)``); with
    ``Q``, needs ``k <= len(R)`` and finite ``Q``. Distances are computed
    for a block of query rows at a time, so the temporaries stay within a
    few times ``BLOCK_BYTES`` (and at least one query row) whatever the
    row counts.
    """
    exclude_self = Q is None
    if exclude_self:
        Q = R
    n_ref, n_features = R.shape
    n_query = len(Q)
    rows_per_block = max(1, BLOCK_BYTES // (8 * n_ref * n_features))
    out = np.empty((n_query, k), dtype=np.intp)
    for start in range(0, n_query, rows_per_block):
        stop = min(n_query, start + rows_per_block)
        d2 = ((Q[start:stop, None, :] - R[None, :, :]) ** 2).sum(axis=-1)
        if exclude_self:
            d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        # every candidate tied with the k-th smallest distance is kept, so
        # the (distance, index) order below matches a full stable sort
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        rows, cols = np.nonzero(d2 <= kth[:, None])  # cols ascend per row
        order = np.lexsort((d2[rows, cols], rows))  # stable: index breaks ties
        first = np.searchsorted(rows, np.arange(stop - start))
        out[start:stop] = cols[order][first[:, None] + np.arange(k)]
    return out


class _ClassifierBase(ParamsMixin):
    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(int)

    def _check_fit_inputs(self, X, y):
        X, y = check_X_y(X, y)
        check_both_classes(y)
        return X, y


class SgdLogistic(_ClassifierBase):
    """Logistic regression by stochastic gradient descent on the log loss."""

    def __init__(self, lr: float = 0.1, epochs: int = 30, l2: float = 1e-4,
                 seed: int = 0):
        if lr <= 0 or epochs < 1 or l2 < 0:
            raise ValueError("lr must be > 0, epochs >= 1, l2 >= 0")
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed
        self.coef_ = None

    def fit(self, X, y):
        X, y = self._check_fit_inputs(X, y)
        self._scaler = _Standardizer().fit(X)
        Z = self._scaler.transform(X)
        n, f = Z.shape
        rng = np.random.default_rng(self.seed)
        w = np.zeros(f)
        b = 0.0
        t = 0
        for _ in range(self.epochs):
            for i in rng.permutation(n):
                t += 1
                eta = self.lr / (1.0 + self.lr * self.l2 * t)
                p = float(sigmoid(Z[i] @ w + b))
                grad = p - y[i]
                w -= eta * (grad * Z[i] + self.l2 * w)
                b -= eta * grad
        self.coef_ = w
        self.intercept_ = b
        return self

    def predict_proba(self, X):
        check_fitted(self, "coef_")
        Z = self._scaler.transform(np.asarray(X, dtype=float))
        return _stack_proba(sigmoid(Z @ self.coef_ + self.intercept_))

    def to_json(self):
        check_fitted(self, "coef_")
        return {"kind": "logistic-sgd", "params": self.get_params(),
                "coef": self.coef_.tolist(), "intercept": self.intercept_,
                "scale_mu": self._scaler.mu.tolist(), "scale_sd": self._scaler.sd.tolist()}


class GaussianNaiveBayes(_ClassifierBase):
    """Per-class Gaussian feature model with a variance floor."""

    def __init__(self, var_smoothing: float = 1e-9):
        if var_smoothing < 0:
            raise ValueError("var_smoothing must be >= 0")
        self.var_smoothing = var_smoothing
        self.theta_ = None

    def fit(self, X, y):
        X, y = self._check_fit_inputs(X, y)
        self.classes_ = np.array([0, 1])
        floor = self.var_smoothing * X.var(axis=0).max()
        self.theta_ = np.stack([X[y == c].mean(axis=0) for c in (0, 1)])
        self.var_ = np.stack([X[y == c].var(axis=0) for c in (0, 1)]) + floor
        self.var_ = np.maximum(self.var_, 1e-300)
        self.log_prior_ = np.log(np.array([(y == c).mean() for c in (0, 1)]))
        return self

    def _log_joint(self, X):
        X = np.asarray(X, dtype=float)
        out = np.empty((X.shape[0], 2))
        for c in (0, 1):
            diff = X - self.theta_[c]
            out[:, c] = self.log_prior_[c] - 0.5 * (
                np.log(2.0 * np.pi * self.var_[c]) + diff ** 2 / self.var_[c]
            ).sum(axis=1)
        return out

    def predict_proba(self, X):
        check_fitted(self, "theta_")
        lj = self._log_joint(X)
        lj -= lj.max(axis=1, keepdims=True)
        p = np.exp(lj)
        p /= p.sum(axis=1, keepdims=True)
        return p

    def to_json(self):
        check_fitted(self, "theta_")
        return {"kind": "gaussian-naive-bayes", "params": self.get_params(),
                "theta": self.theta_.tolist(), "var": self.var_.tolist(),
                "log_prior": self.log_prior_.tolist()}


class KNearestNeighbors(_ClassifierBase):
    """Vote of the k nearest training rows in standardized space.

    Neighbours come from ``k_nearest``: distance ties resolve to the lower
    training-row index, so predictions do not depend on sort stability,
    and queries are searched in blocks whose temporaries stay within a
    few times ``BLOCK_BYTES``.
    """

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.X_ = None

    def fit(self, X, y):
        X, y = self._check_fit_inputs(X, y)
        if self.k > len(y):
            raise ValueError(f"k={self.k} exceeds {len(y)} training rows")
        self._scaler = _Standardizer().fit(X)
        self.X_ = self._scaler.transform(X)
        self.y_ = y
        return self

    def predict_proba(self, X):
        check_fitted(self, "X_")
        X = check_array(X)
        if X.shape[1] != self.X_.shape[1]:
            raise ValueError(f"X has {X.shape[1]} features; the model was fitted "
                             f"on {self.X_.shape[1]}")
        Z = self._scaler.transform(X)
        return _stack_proba(self.y_[k_nearest(self.X_, self.k, Z)].mean(axis=1))

    def to_json(self):
        check_fitted(self, "X_")
        return {"kind": "k-nearest-neighbors", "params": self.get_params(),
                "n_train": int(len(self.y_))}


class LinearSvm(_ClassifierBase):
    """Linear SVM trained by SGD on the L2-regularized hinge loss.

    predict_proba squashes the margin through a sigmoid; it is a monotone
    score, not a calibrated probability, which is all AUC needs.
    """

    def __init__(self, l2: float = 1e-3, epochs: int = 30, seed: int = 0):
        if l2 <= 0 or epochs < 1:
            raise ValueError("l2 must be > 0 and epochs >= 1")
        self.l2 = l2
        self.epochs = epochs
        self.seed = seed
        self.coef_ = None

    def fit(self, X, y):
        X, y = self._check_fit_inputs(X, y)
        self._scaler = _Standardizer().fit(X)
        Z = self._scaler.transform(X)
        s = 2.0 * y - 1.0  # hinge targets in {-1, +1}
        n, f = Z.shape
        rng = np.random.default_rng(self.seed)
        w = np.zeros(f)
        b = 0.0
        t = 0
        for _ in range(self.epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (self.l2 * t)
                margin = s[i] * (Z[i] @ w + b)
                w *= 1.0 - eta * self.l2
                if margin < 1.0:
                    w += eta * s[i] * Z[i]
                    b += eta * s[i]
        self.coef_ = w
        self.intercept_ = b
        return self

    def decision_function(self, X):
        check_fitted(self, "coef_")
        Z = self._scaler.transform(np.asarray(X, dtype=float))
        return Z @ self.coef_ + self.intercept_

    def predict_proba(self, X):
        return _stack_proba(sigmoid(self.decision_function(X)))

    def to_json(self):
        check_fitted(self, "coef_")
        return {"kind": "linear-svm", "params": self.get_params(),
                "coef": self.coef_.tolist(), "intercept": self.intercept_}


class RandomForest(_ClassifierBase):
    """Bagged Gini CART trees with per-node feature subsampling.

    ``bootstrap=False`` trains every tree on the full sample, so a
    one-tree forest with all features degenerates to a single CART fit.
    """

    def __init__(self, n_trees: int = 100, max_depth: int = 8,
                 min_samples_leaf: int = 1, max_features: str | int | None = "sqrt",
                 bootstrap: bool = True, seed: int = 0):
        if n_trees < 1 or max_depth < 1 or min_samples_leaf < 1:
            raise ValueError("n_trees, max_depth, min_samples_leaf must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees_ = None

    def _resolve_max_features(self, n_features: int):
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        mf = int(self.max_features)
        if not (1 <= mf <= n_features):
            raise ValueError(f"max_features={mf} outside [1, {n_features}]")
        return mf

    def fit(self, X, y):
        X, y = self._check_fit_inputs(X, y)
        n = len(y)
        mf = self._resolve_max_features(X.shape[1])
        root = np.random.default_rng(self.seed)
        self.trees_ = []
        for _ in range(self.n_trees):
            rng = np.random.default_rng(root.integers(0, 2 ** 63 - 1))
            idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = CartTree(max_depth=self.max_depth,
                            min_samples_leaf=self.min_samples_leaf,
                            criterion="gini", max_features=mf, rng=rng)
            X_tree = X[idx]
            tree.fit(X_tree, y[idx].astype(float), presort(X_tree))
            self.trees_.append(tree)
        return self

    def predict_proba(self, X):
        check_fitted(self, "trees_")
        X = np.asarray(X, dtype=float)
        votes = np.zeros(X.shape[0])
        for tree in self.trees_:
            votes += tree.predict(X)
        return _stack_proba(votes / len(self.trees_))

    def to_json(self):
        check_fitted(self, "trees_")
        return {"kind": "random-forest", "params": self.get_params(),
                "trees": [t.to_dict() for t in self.trees_]}


class GradientBoostedTrees(_ClassifierBase):
    """Stagewise regression trees on logistic-loss gradients with shrinkage.

    Stage m fits a variance-reduction CART to the residual y - p, then sets
    each leaf to the Newton step sum(residual) / sum(p * (1 - p)) and adds
    lr times the tree to the log-odds score.
    """

    def __init__(self, n_trees: int = 100, lr: float = 0.1, max_depth: int = 3,
                 min_samples_leaf: int = 1, seed: int = 0):
        if n_trees < 1 or not (0 < lr <= 1) or max_depth < 1 or min_samples_leaf < 1:
            raise ValueError("need n_trees >= 1, 0 < lr <= 1, max_depth >= 1, "
                             "min_samples_leaf >= 1")
        self.n_trees = n_trees
        self.lr = lr
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.trees_ = None

    def fit(self, X, y):
        X, y = self._check_fit_inputs(X, y)
        y = y.astype(float)
        pos_rate = y.mean()
        self.base_score_ = float(np.log(pos_rate / (1.0 - pos_rate)))
        score = np.full(len(y), self.base_score_)
        order = presort(X)  # every round fits the same rows
        self.trees_ = []
        for _ in range(self.n_trees):
            p = sigmoid(score)
            residual = y - p
            hess = np.maximum(p * (1.0 - p), 1e-12)

            def newton_leaf(idx, residual=residual, hess=hess):
                return float(residual[idx].sum() / hess[idx].sum())

            tree = CartTree(max_depth=self.max_depth,
                            min_samples_leaf=self.min_samples_leaf,
                            criterion="mse")
            score += self.lr * tree.fit_values(X, residual, order, newton_leaf)
            self.trees_.append(tree)
        return self

    def decision_function(self, X):
        check_fitted(self, "trees_")
        X = np.asarray(X, dtype=float)
        score = np.full(X.shape[0], self.base_score_)
        for tree in self.trees_:
            score += self.lr * tree.predict(X)
        return score

    def predict_proba(self, X):
        return _stack_proba(sigmoid(self.decision_function(X)))

    def to_json(self):
        check_fitted(self, "trees_")
        return {"kind": "gradient-boosted-trees", "params": self.get_params(),
                "base_score": self.base_score_,
                "trees": [t.to_dict() for t in self.trees_]}


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier kind plus hyperparameters, buildable via make_classifier."""

    kind: str
    hyperparameters: tuple = field(default_factory=tuple)  # sorted (name, value) pairs
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}; "
                             f"choose from {CLASSIFIER_KINDS}")

    @classmethod
    def create(cls, kind: str, seed: int = 0, **hyperparameters) -> "ClassifierSpec":
        return cls(kind=kind, hyperparameters=tuple(sorted(hyperparameters.items())),
                   seed=seed)

    @property
    def params(self) -> dict:
        return dict(self.hyperparameters)


_SEEDED_KINDS = {"logistic-sgd", "linear-svm", "random-forest", "gradient-boosted-trees"}

_KIND_CLASS = {
    "logistic-sgd": SgdLogistic,
    "gaussian-naive-bayes": GaussianNaiveBayes,
    "k-nearest-neighbors": KNearestNeighbors,
    "linear-svm": LinearSvm,
    "random-forest": RandomForest,
    "gradient-boosted-trees": GradientBoostedTrees,
}


def make_classifier(spec: ClassifierSpec):
    kwargs = spec.params
    if spec.kind in _SEEDED_KINDS:
        kwargs = {**kwargs, "seed": spec.seed}
    return _KIND_CLASS[spec.kind](**kwargs)


def model_size(spec: ClassifierSpec) -> float:
    """Complexity used to break evaluation ties toward the smaller model."""
    p = spec.params
    if spec.kind in ("random-forest", "gradient-boosted-trees"):
        return p.get("n_trees", 100) * p.get("max_depth", 3)
    if spec.kind == "k-nearest-neighbors":
        return p.get("k", 5)
    if spec.kind in ("logistic-sgd", "linear-svm"):
        return p.get("epochs", 30)
    return 0.0
