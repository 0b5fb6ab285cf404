"""The six classifier kinds of the prediction pipeline.

Every classifier is seed-deterministic, exposes fit / predict_proba /
predict, and validates its hyperparameters. Scale-sensitive kinds
(nearest neighbours, linear SVM, SGD logistic) standardize internally on
their own training statistics, so a fold's validation rows never leak
into the scaler.

The two linear kinds, SGD logistic and the linear SVM, share one fit,
``linear_lanes``, which takes log-loss or hinge-loss steps for many
(model, fold) lanes: in lockstep, or below ``FLOAT_LOOP_LANES`` lanes one
lane at a time in Python floats, with the same bits. A model fitted alone
is its one-lane case.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul

import numpy as np

from .._base import ParamsMixin, check_fitted
from .._validation import check_array, check_X_y, check_both_classes
from ..logit import sigmoid
from .tree import CartTree, grow, presort


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


# cap on the bytes of one block of the neighbour search's distance arrays
BLOCK_BYTES = 2 ** 20


def _squared_distances(Q: np.ndarray, RT: np.ndarray) -> np.ndarray:
    """``((Q[:, None, :] - R[None, :, :]) ** 2).sum(axis=-1)`` bit for bit,
    from ``RT = R.T`` (contiguous).

    numpy adds fewer than 8 terms of a short contiguous axis in order, so
    below 8 features the terms are added one column at a time, with two
    (rows of Q) x (rows of R) arrays alive. From 8 up, where numpy sums in
    another order, the expression itself runs on a C-ordered tensor: one
    laid out like the strided operand ``RT.T`` sums to other last bits.
    """
    n_features, n_ref = RT.shape
    if n_features >= 8:
        diff = np.subtract(Q[:, None, :], RT.T[None],
                           out=np.empty((len(Q), n_ref, n_features)))
        diff *= diff
        return diff.sum(axis=-1)

    def term(j):  # each term dies once it is added
        t = Q[:, j, None] - RT[j]
        t *= t
        return t

    acc = term(0)
    for j in range(1, n_features):
        acc += term(j)
    return acc


def _nearest_in_block(Q: np.ndarray, RT: np.ndarray, k: int,
                      self_start: int | None) -> np.ndarray:
    """``k_nearest`` for one block of query rows; query row i is reference
    row ``self_start + i`` unless ``self_start`` is None. Its temporaries
    die on return."""
    d2 = _squared_distances(Q, RT)
    n = len(Q)
    if self_start is not None:
        d2[np.arange(n), np.arange(self_start, self_start + n)] = np.inf
    # every candidate tied with the k-th smallest distance is kept, so
    # the (distance, index) order below matches a full stable sort
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(d2 <= kth[:, None])  # cols ascend per row
    order = np.lexsort((d2[rows, cols], rows))  # stable: index breaks ties
    first = np.searchsorted(rows, np.arange(n))
    return cols[order][first[:, None] + np.arange(k)]


def k_nearest(R: np.ndarray, k: int, Q: np.ndarray | None = None) -> np.ndarray:
    """Ids of the ``k`` nearest rows of ``R`` to each row of ``Q``.

    Rows are ordered by squared Euclidean distance, ties by the lower row
    index of ``R``. Without ``Q``, each row of ``R`` is matched against
    the others and never against itself (needs ``k < len(R)``); with
    ``Q``, needs ``k <= len(R)`` and finite ``Q``. The distances equal
    the difference tensor's ``((q - r) ** 2).sum(-1)`` to the last bit
    (``_squared_distances``), for a block of query rows at a time. Below 8
    features a (block x ``len(R)``) float array takes a third of
    ``BLOCK_BYTES``, from 8 up the block's tensor and sums take all of it
    (a block has at least one row), so the temporaries besides a
    transposed copy of ``R`` stay within two ``BLOCK_BYTES``.
    """
    exclude_self = Q is None
    if exclude_self:
        Q = R
    RT = np.ascontiguousarray(R.T)
    row_bytes = 24 if R.shape[1] < 8 else 8 * (R.shape[1] + 1)
    rows_per_block = max(1, BLOCK_BYTES // (row_bytes * len(R)))
    out = np.empty((len(Q), k), dtype=np.intp)
    for start in range(0, len(Q), rows_per_block):
        stop = min(len(Q), start + rows_per_block)
        out[start:stop] = _nearest_in_block(Q[start:stop], RT, k,
                                            start if exclude_self else None)
    return out


def _step_rows(seed: int, n: int, epochs: int, block: int):
    """One SGD lane's row ids, ``block`` steps at a time.

    Each epoch is a fresh ``permutation(n)`` of ``default_rng(seed)``;
    after the last epoch the blocks are padded with row 0.
    """
    rng = np.random.default_rng(seed)
    rows = np.empty(0, dtype=np.intp)
    for _ in range(epochs):
        rows = np.concatenate([rows, rng.permutation(n)])
        while len(rows) >= block:
            yield rows[:block]
            rows = rows[block:]
    while True:
        yield np.concatenate([rows, np.zeros(block - len(rows), dtype=np.intp)])
        rows = rows[:0]


# below this many lanes (and 8 features) ``linear_lanes`` fits each lane
# on its own in Python floats, which beats the lockstep kernel's per-step
# numpy calls there
FLOAT_LOOP_LANES = 6


def linear_lanes(Z: list, y: list, lanes: list, hinge: bool) -> tuple:
    """Fit C linear SGD lanes; returns weights (C, F) and intercepts (C,).

    ``Z`` and ``y`` hold standardized training matrices and their 0/1
    labels. Lane c is ``(set, lr, l2, epochs, seed)``: it trains on
    ``Z[set]`` for ``epochs`` passes, each over a fresh permutation from
    ``default_rng(seed)``, with an unpenalized intercept.

    Below ``FLOAT_LOOP_LANES`` lanes and 8 features, each lane runs on
    its own in Python floats (``_float_lanes``), where numpy's per-call
    cost would outweigh a step's few flops. Every other call runs the
    lanes in lockstep, all taking step t together. Both paths do the
    same IEEE operations in the same order, so they give the same bits.

    * Log loss (``hinge=False``): step size ``lr / (1 + lr * l2 * t)``
      at the t-th step (``_sgd_steps``).
    * Hinge loss (``hinge=True``, Pegasos; ``lr`` is unused): targets
      ``s = 2y - 1`` and step size ``eta = 1 / (l2 * t)``. Each step takes
      the margin ``s * (x . w + b)``, shrinks ``w`` by ``1 - eta * l2``,
      then adds ``eta * s`` times ``x`` to ``w`` and ``eta * s`` to ``b``
      where the margin is below 1 (``_hinge_steps``).

    In lockstep, a lane past its last step gets step size 0 (the hinge
    lanes shrink by 1.0 and add 0.0), which leaves finite weights as they
    are. Every operation acts on each lane's row alone, and
    ``(x * W).sum(axis=1)`` adds a row's F products in the same order
    whatever C is, so a lane's bits do not depend on the other lanes.
    Everything that does not depend on the weights (step sizes, shrink
    factors) is worked out once per block of steps. The gathered step
    rows are built ``block`` steps at a time, so they stay within about
    ``BLOCK_BYTES`` (and at least one step); besides them, each distinct
    (seed, set) holds one epoch's permutation.
    """
    if len(lanes) < FLOAT_LOOP_LANES and Z[0].shape[1] < 8:
        return _float_lanes(Z, y, lanes, hinge)
    sets, lr, l2, epochs, seeds = zip(*lanes)
    l2 = np.array(l2, dtype=float)
    n_rows = np.array([len(labels) for labels in y])
    offsets = np.cumsum(n_rows) - n_rows
    Z_all = np.concatenate(Z)
    y_all = np.concatenate(y).astype(float)
    if hinge:
        y_all = 2.0 * y_all - 1.0  # targets in {-1, +1}
    else:
        lr = np.array(lr, dtype=float)
        lr_l2, l2_col = lr * l2, l2[:, None]
    n_lanes, n_features = len(lanes), Z_all.shape[1]
    lane_offset, lane_rows = offsets[list(sets)], n_rows[list(sets)]
    last_step = np.array(epochs) * lane_rows
    n_steps = int(last_step.max())
    block = max(1, BLOCK_BYTES // (8 * n_lanes * n_features))

    # lanes with one seed and one row set walk one stream of row ids
    streams: dict = {}
    for seed, s, e in zip(seeds, sets, epochs):
        streams[seed, s] = max(streams.get((seed, s), 0), e)
    position = {key: i for i, key in enumerate(streams)}
    stream_of = [position[key] for key in zip(seeds, sets)]
    walks = [_step_rows(seed, n_rows[s], e, block) for (seed, s), e in streams.items()]

    W = np.zeros((n_lanes, n_features))
    b = np.zeros(n_lanes)
    for start in range(0, n_steps, block):
        stop = min(n_steps, start + block)
        ids = np.stack([next(walk) for walk in walks])[stream_of, :stop - start].T
        ids += lane_offset
        t = np.arange(start + 1, stop + 1, dtype=float)[:, None]
        done = t > last_step
        targets = y_all[ids]
        if hinge:
            eta = 1.0 / (l2 * t)
            shrink = 1.0 - eta * l2
            shrink[done] = 1.0
            eta *= targets  # eta * s
            eta[done] = 0.0
            _hinge_steps(W, b, Z_all[ids], targets, shrink, eta)
        else:
            eta = lr / (1.0 + lr_l2 * t)
            eta[done] = 0.0
            _sgd_steps(W, b, Z_all[ids], targets, eta, l2_col)
    return W, b


def _sgd_steps(W, b, X_steps, y_steps, eta, l2_col) -> None:
    """Log-loss steps: update ``W`` and ``b`` in place, one step per row of ``eta``.

    A function of its own, so that the loop variables (views into this
    block) are gone before the caller gathers the next block.
    """
    for x, target, step in zip(X_steps, y_steps, eta):
        grad = sigmoid((x * W).sum(axis=1) + b) - target
        W -= step[:, None] * (grad[:, None] * x + l2_col * W)
        b -= step * grad


def _hinge_steps(W, b, X_steps, s_steps, shrink, eta_s) -> None:
    """Hinge-loss steps, as ``_sgd_steps``: ``eta_s`` holds ``eta * s``."""
    for x, s, factor, step in zip(X_steps, s_steps, shrink, eta_s):
        margin = s * ((x * W).sum(axis=1) + b)
        W *= factor[:, None]
        step = step * (margin < 1.0)
        W += step[:, None] * x
        b += step


def _float_lanes(Z: list, y: list, lanes: list, hinge: bool) -> tuple:
    """``linear_lanes`` one lane at a time in Python floats, bit for bit.

    Each lane reads its rows from one ``.tolist()`` of its row set and
    draws one ``default_rng(seed).permutation(n)`` per epoch, as
    ``_step_rows`` does, and stops after its last step. A step repeats
    ``_sgd_steps`` or ``_hinge_steps`` for one lane: below 8 terms numpy
    adds ``x * w`` in order before ``+ b``, and the sigmoid's exp is
    ``np.exp`` on a Python float, which equals the array's element
    (``math.exp`` differs in the last bit).
    """
    rows: dict = {}
    W = np.zeros((len(lanes), Z[0].shape[1]))
    b = np.zeros(len(lanes))
    for c, (s, lr, l2, epochs, seed) in enumerate(lanes):
        if s not in rows:
            targets = np.asarray(y[s], dtype=float)
            if hinge:
                targets = 2.0 * targets - 1.0
            rows[s] = Z[s].tolist(), targets.tolist()
        X, targets = rows[s]
        rng = np.random.default_rng(seed)
        orders = (rng.permutation(len(X)).tolist() for _ in range(epochs))
        if hinge:
            W[c], b[c] = _hinge_lane(X, targets, float(l2), orders)
        else:
            W[c], b[c] = _log_loss_lane(X, targets, float(lr), float(l2), orders)
    return W, b


def _log_loss_lane(X, targets, lr, l2, orders) -> tuple:
    """One lane's ``_sgd_steps`` over the row ids of each epoch in ``orders``."""
    lr_l2 = lr * l2
    w, b, t = [0.0] * len(X[0]), 0.0, 0.0
    for order in orders:
        for i in order:
            x = X[i]
            t += 1.0
            eta = lr / (1.0 + lr_l2 * t)
            z = reduce(add, map(mul, x, w)) + b
            if z >= 0.0:
                e = float(np.exp(-z))
                grad = 1.0 / (1.0 + e) - targets[i]
            else:
                e = float(np.exp(z))
                grad = e / (1.0 + e) - targets[i]
            w = [wj - eta * (grad * xj + l2 * wj) for xj, wj in zip(x, w)]
            b -= eta * grad
    return w, b


def _hinge_lane(X, targets, l2, orders) -> tuple:
    """One lane's ``_hinge_steps``, as ``_log_loss_lane``."""
    w, b, t = [0.0] * len(X[0]), 0.0, 0.0
    for order in orders:
        for i in order:
            x, s = X[i], targets[i]
            t += 1.0
            eta = 1.0 / (l2 * t)
            factor = 1.0 - eta * l2
            margin = s * (reduce(add, map(mul, x, w)) + b)
            step = eta * s * (margin < 1.0)
            w = [wj * factor + step * xj for xj, wj in zip(x, w)]
            b += step
    return w, b


def _fit_inputs(X, y):
    X, y = check_X_y(X, y)
    check_both_classes(y)
    return X, y


class _ClassifierBase(ParamsMixin):
    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(int)

    def _check_fit_inputs(self, X, y):
        X, y = _fit_inputs(X, y)
        self.n_features_in_ = X.shape[1]
        return X, y

    def _check_query(self, X) -> np.ndarray:
        """A finite 2-D float matrix with the training feature count."""
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(f"X has {X.shape[1]} features; the model was fitted "
                             f"on {self.n_features_in_}")
        return X


class _LinearSgd(_ClassifierBase):
    """A linear model fitted by ``linear_lanes``.

    ``fit`` is ``fit_grid`` with one model and one fold, i.e. one lane,
    which ``linear_lanes`` runs in Python floats below 8 features and in
    lockstep from 8 up. Both paths give a lane the same bits, so a model
    fitted alone gets the same bits as when it is fitted among a search's
    candidates. Each subclass sets ``hinge``, its loss, and checks its
    hyperparameters.
    """

    hinge: bool

    def fit(self, X, y):
        return type(self).fit_grid([self], [(X, y)])[0][0]

    @classmethod
    def fit_grid(cls, models: list, folds: list) -> list:
        """Fit every model on every ``(X, y)`` fold in one ``linear_lanes`` call.

        Returns ``out[m][f]``: ``models[m]`` itself where there is one
        fold, else a fitted copy per fold. The models of a fold share one
        standardizer, fitted on that fold's rows.
        """
        checked = [_fit_inputs(X, y) for X, y in folds]
        scalers = [_Standardizer().fit(X) for X, _ in checked]
        W, b = linear_lanes(
            [sc.transform(X) for sc, (X, _) in zip(scalers, checked)],
            [y for _, y in checked],
            [(f, getattr(m, "lr", None), m.l2, m.epochs, m.seed)
             for m in models for f in range(len(folds))],
            cls.hinge)
        out = []
        for m, model in enumerate(models):
            row = []
            for f, scaler in enumerate(scalers):
                fitted = model if len(folds) == 1 else cls(**model.get_params())
                lane = m * len(folds) + f
                fitted._scaler, fitted.n_features_in_ = scaler, W.shape[1]
                fitted.coef_, fitted.intercept_ = W[lane], float(b[lane])
                row.append(fitted)
            out.append(row)
        return out

    def decision_function(self, X):
        check_fitted(self, "coef_")
        Z = self._scaler.transform(self._check_query(X))
        return Z @ self.coef_ + self.intercept_

    def predict_proba(self, X):
        return _stack_proba(sigmoid(self.decision_function(X)))

    def to_json(self):
        check_fitted(self, "coef_")
        return {"kind": self.kind, "params": self.get_params(),
                "coef": self.coef_.tolist(), "intercept": self.intercept_,
                "scale_mu": self._scaler.mu.tolist(), "scale_sd": self._scaler.sd.tolist()}


class SgdLogistic(_LinearSgd):
    """Logistic regression by stochastic gradient descent on the log loss."""

    kind = "logistic-sgd"
    hinge = False

    def __init__(self, lr: float = 0.1, epochs: int = 30, l2: float = 1e-4,
                 seed: int = 0):
        if lr <= 0 or epochs < 1 or l2 < 0:
            raise ValueError("lr must be > 0, epochs >= 1, l2 >= 0")
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed
        self.coef_ = None


class GaussianNaiveBayes(_ClassifierBase):
    """Per-class Gaussian feature model with a variance floor."""

    kind = "gaussian-naive-bayes"

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
        X = self._check_query(X)
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
        return {"kind": self.kind, "params": self.get_params(),
                "theta": self.theta_.tolist(), "var": self.var_.tolist(),
                "log_prior": self.log_prior_.tolist()}


class KNearestNeighbors(_ClassifierBase):
    """Vote of the k nearest training rows in standardized space.

    Neighbours come from ``k_nearest``: distance ties resolve to the lower
    training-row index, so predictions do not depend on sort stability.
    Queries are searched in blocks, by a column loop below 8 features and
    the difference tensor itself from 8 up, with the tensor's bits and
    temporaries within two ``BLOCK_BYTES``.
    """

    kind = "k-nearest-neighbors"

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
        Z = self._scaler.transform(self._check_query(X))
        return _stack_proba(self.y_[k_nearest(self.X_, self.k, Z)].mean(axis=1))

    def to_json(self):
        check_fitted(self, "X_")
        return {"kind": self.kind, "params": self.get_params(),
                "n_train": int(len(self.y_))}


class LinearSvm(_LinearSgd):
    """Linear SVM trained by SGD on the L2-regularized hinge loss (Pegasos).

    predict_proba squashes the margin through a sigmoid; it is a monotone
    score, not a calibrated probability, which is all AUC needs.
    """

    kind = "linear-svm"
    hinge = True

    def __init__(self, l2: float = 1e-3, epochs: int = 30, seed: int = 0):
        if l2 <= 0 or epochs < 1:
            raise ValueError("l2 must be > 0 and epochs >= 1")
        self.l2 = l2
        self.epochs = epochs
        self.seed = seed
        self.coef_ = None


class RandomForest(_ClassifierBase):
    """Bagged Gini CART trees with per-node feature subsampling.

    ``bootstrap=False`` trains every tree on the full sample, so a
    one-tree forest with all features degenerates to a single CART fit.
    """

    kind = "random-forest"

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
        n, n_features = X.shape
        mf = self._resolve_max_features(n_features)
        y = y.astype(float)
        tables = presort(X)
        root = np.random.default_rng(self.seed)
        self.trees_ = [CartTree(max_depth=self.max_depth,
                                min_samples_leaf=self.min_samples_leaf, criterion="gini",
                                max_features=mf,
                                rng=np.random.default_rng(root.integers(0, 2 ** 63 - 1)))
                       for _ in range(self.n_trees)]
        # a group's row buffer holds trees x rows entries, and a scan chunk's
        # eight arrays of 8-byte entries stay within BLOCK_BYTES
        grow(self.trees_, tables, y, self.bootstrap,
             group=max(1, BLOCK_BYTES // (8 * n)), block=BLOCK_BYTES // 64)
        return self

    def predict_proba(self, X):
        check_fitted(self, "trees_")
        X = self._check_query(X)
        votes = np.zeros(X.shape[0])
        for tree in self.trees_:
            votes += tree.predict(X)
        return _stack_proba(votes / len(self.trees_))

    def to_json(self):
        check_fitted(self, "trees_")
        return {"kind": self.kind, "params": self.get_params(),
                "trees": [t.to_dict() for t in self.trees_]}


class GradientBoostedTrees(_ClassifierBase):
    """Stagewise regression trees on logistic-loss gradients with shrinkage.

    Stage m fits a variance-reduction CART to the residual y - p, then sets
    each leaf to the Newton step sum(residual) / sum(p * (1 - p)) and adds
    lr times the tree to the log-odds score.
    """

    kind = "gradient-boosted-trees"

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
        tables = presort(X)  # every round fits the same rows
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
            score += self.lr * tree.fit_values(tables, residual, newton_leaf)
            self.trees_.append(tree)
        return self

    def decision_function(self, X):
        check_fitted(self, "trees_")
        X = self._check_query(X)
        score = np.full(X.shape[0], self.base_score_)
        for tree in self.trees_:
            score += self.lr * tree.predict(X)
        return score

    def predict_proba(self, X):
        return _stack_proba(sigmoid(self.decision_function(X)))

    def to_json(self):
        check_fitted(self, "trees_")
        return {"kind": self.kind, "params": self.get_params(),
                "base_score": self.base_score_,
                "trees": [t.to_dict() for t in self.trees_]}


_KIND_CLASS = {cls.kind: cls for cls in (SgdLogistic, GaussianNaiveBayes, KNearestNeighbors,
                                         LinearSvm, RandomForest, GradientBoostedTrees)}
CLASSIFIER_KINDS = tuple(_KIND_CLASS)
_SEEDED_KINDS = {kind for kind, cls in _KIND_CLASS.items() if "seed" in cls._param_names()}


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


def make_classifier(spec: ClassifierSpec):
    kwargs = spec.params
    if spec.kind in _SEEDED_KINDS:
        kwargs = {**kwargs, "seed": spec.seed}
    return _KIND_CLASS[spec.kind](**kwargs)


def model_size(spec: ClassifierSpec) -> float:
    """Complexity used to break evaluation ties toward the smaller model."""
    p = make_classifier(spec).get_params()
    if spec.kind in ("random-forest", "gradient-boosted-trees"):
        return p["n_trees"] * p["max_depth"]
    if spec.kind == "k-nearest-neighbors":
        return p["k"]
    if spec.kind in ("logistic-sgd", "linear-svm"):
        return p["epochs"]
    return 0.0
