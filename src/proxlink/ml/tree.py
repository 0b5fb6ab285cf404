"""CART decision tree with exhaustive, deterministic split search.

The caller argsorts the sample once per feature (``presort``) and hands
that order to the fit, so trees grown on the same rows, as in boosting,
share one sort. Each node carries its own F x n order matrix, row f
listing the node's rows in ascending order of feature f; a split
partitions every row stably into the two children's matrices, so no
node rescans the full sample. A node's split search is one vectorized
scan over all candidate features: cumulative sums along each sorted row
give the impurity gain at every position whose adjacent values differ
(midpoint threshold, or the lower value where the midpoint rounds onto
the upper one), and one flat argmax picks the best. Equal gains resolve
to the lower feature index, then the lower threshold, making every fit
reproducible.

Supports variance-reduction splits for regression (used by gradient
boosting, with pluggable leaf values) and Gini splits for classification
(used by the random forest). ``fit_values`` also returns each training
row's leaf value, which boosting adds to its score without a predict.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_MIN_GAIN = 1e-12


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def presort(X: np.ndarray) -> np.ndarray:
    """Read-only F x n matrix whose row f lists the rows of ``X`` in
    ascending order of feature f, ties by row index."""
    order = np.argsort(X, axis=0, kind="mergesort").T.copy()
    order.flags.writeable = False
    return order


class CartTree:
    """Binary decision tree; criterion "mse" or "gini".

    ``max_features`` subsamples split candidates per node (random forest
    style) using the supplied rng; None considers every feature.
    ``leaf_value_fn(indices) -> float`` overrides the default leaf value
    (mean target for mse, positive-class fraction for gini).
    """

    def __init__(self, max_depth: int = 3, min_samples_leaf: int = 1,
                 min_samples_split: int = 2, criterion: str = "mse",
                 max_features: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        if criterion not in ("mse", "gini"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.criterion = criterion
        self.max_features = max_features
        self.rng = rng
        self.nodes: list[_Node] = []

    def fit(self, X, y, order: np.ndarray,
            leaf_value_fn: Optional[Callable] = None) -> "CartTree":
        self.fit_values(X, y, order, leaf_value_fn)
        return self

    def fit_values(self, X, y, order: np.ndarray,
                   leaf_value_fn: Optional[Callable] = None) -> np.ndarray:
        """Fit the tree on ``X`` with its ``order = presort(X)`` and return
        each training row's leaf value, equal to ``predict(X)`` bit for bit."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.n_features_ = X.shape[1]
        self.nodes = []
        if leaf_value_fn is None:
            leaf_value_fn = lambda idx: float(y[idx].mean())
        out = np.empty(len(y))
        self._build(X, y, np.arange(len(y)), order, 0, leaf_value_fn, out)
        return out

    def _leaf(self, idx, leaf_value_fn, out) -> int:
        value = leaf_value_fn(idx)
        out[idx] = value
        self.nodes.append(_Node(value=value))
        return len(self.nodes) - 1

    def _build(self, X, y, idx, order, depth, leaf_value_fn, out) -> int:
        """Grow the subtree over rows ``idx`` (ascending) whose per-feature
        sorted orders are the rows of ``order``."""
        n = len(idx)
        if (depth >= self.max_depth or n < self.min_samples_split
                or n < 2 * self.min_samples_leaf):
            return self._leaf(idx, leaf_value_fn, out)

        best = self._best_split(X, y, idx, order)
        if best is None:
            return self._leaf(idx, leaf_value_fn, out)
        feature, threshold = best

        go_left = X[:, feature] <= threshold
        mask = go_left[idx]
        left_idx = idx[mask]
        right_idx = idx[~mask]
        in_left = go_left[order]
        left_order = order[in_left].reshape(len(order), len(left_idx))
        right_order = order[~in_left].reshape(len(order), len(right_idx))
        node_id = len(self.nodes)
        self.nodes.append(_Node(feature=feature, threshold=threshold))
        self.nodes[node_id].left = self._build(
            X, y, left_idx, left_order, depth + 1, leaf_value_fn, out)
        self.nodes[node_id].right = self._build(
            X, y, right_idx, right_order, depth + 1, leaf_value_fn, out)
        return node_id

    def _candidate_features(self) -> np.ndarray:
        if self.max_features is None or self.max_features >= self.n_features_:
            return np.arange(self.n_features_)
        if self.rng is None:
            raise ValueError("max_features requires an rng")
        picked = self.rng.choice(self.n_features_, size=self.max_features, replace=False)
        return np.sort(picked)

    def _best_split(self, X, y, idx, order) -> Optional[tuple[int, float]]:
        n = len(idx)
        min_leaf = self.min_samples_leaf

        y_node = y[idx]
        total_sum = float(y_node.sum())
        total_pos = total_sum
        if self.criterion == "mse":
            total_sq = float((y_node ** 2).sum())
            parent_impurity = total_sq - total_sum * total_sum / n
        else:
            parent_impurity = self._gini_ss(total_pos, n)

        lo, hi = min_leaf - 1, n - min_leaf  # candidate split positions
        if hi <= lo:
            return None
        feats = self._candidate_features()
        rows = order[feats]
        values = X[rows, feats[:, None]]
        ys = y[rows]

        # column j splits each sorted row after position lo + j
        boundary = values[:, lo:hi] != values[:, lo + 1:hi + 1]
        n_l = np.arange(lo + 1.0, hi + 1.0)
        n_r = n - n_l
        if self.criterion == "mse":
            s_l = ys.cumsum(axis=1)[:, lo:hi]
            sq_l = (ys ** 2).cumsum(axis=1)[:, lo:hi]
            imp_l = sq_l - s_l * s_l / n_l
            s_r = total_sum - s_l
            imp_r = (total_sq - sq_l) - s_r * s_r / n_r
        else:
            pos_l = ys.cumsum(axis=1)[:, lo:hi]
            imp_l = n_l - (pos_l ** 2 + (n_l - pos_l) ** 2) / n_l
            pos_r = total_pos - pos_l
            imp_r = n_r - (pos_r ** 2 + (n_r - pos_r) ** 2) / n_r
        gains = np.where(boundary, parent_impurity - imp_l - imp_r, -np.inf)
        # the flat argmax is row-major: first the lower feature, then
        # the lower threshold
        f, i = divmod(int(np.argmax(gains)), hi - lo)
        if not gains[f, i] > _MIN_GAIN:
            return None
        i += lo
        threshold = (values[f, i] + values[f, i + 1]) / 2.0
        # the midpoint of adjacent floats can round up onto the upper
        # value, which would leave the right child empty
        if not threshold < values[f, i + 1]:
            threshold = values[f, i]
        return int(feats[f]), float(threshold)

    @staticmethod
    def _gini_ss(pos: float, n: int) -> float:
        # n * gini = n - (pos^2 + neg^2)/n, comparable across splits
        neg = n - pos
        return n - (pos * pos + neg * neg) / n

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0], dtype=float)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node_id, idx = stack.pop()
            if len(idx) == 0:
                continue
            node = self.nodes[node_id]
            if node.is_leaf:
                out[idx] = node.value
            else:
                mask = X[idx, node.feature] <= node.threshold
                stack.append((node.left, idx[mask]))
                stack.append((node.right, idx[~mask]))
        return out

    @property
    def root_split(self) -> Optional[tuple[int, float]]:
        """(feature, threshold) of the root, or None for a stump-less tree."""
        if not self.nodes or self.nodes[0].is_leaf:
            return None
        return self.nodes[0].feature, self.nodes[0].threshold

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "nodes": [
                {"feature": n.feature, "threshold": n.threshold,
                 "left": n.left, "right": n.right, "value": n.value}
                for n in self.nodes
            ],
        }
