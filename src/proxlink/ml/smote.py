"""Synthetic minority oversampling by neighbour interpolation."""
from __future__ import annotations

import numpy as np

from .._base import ParamsMixin
from .._validation import check_X_y, check_both_classes
from .classifiers import _Standardizer, k_nearest


class Smote(ParamsMixin):
    """Oversample the minority class with convex combinations of neighbours.

    Each synthetic row is x + u * (nn - x) for a minority row x, one of its
    ``k`` nearest minority neighbours nn (Euclidean distance on
    per-feature standardized copies, ties to the lower row), and u drawn
    uniformly from (0, 1). The neighbours come from ``k_nearest`` (a column
    loop below 8 features, the difference tensor from 8 up, a block at a
    time): its temporaries stay within two ``BLOCK_BYTES`` whatever the
    minority size.
    Enough rows are added to bring the minority count to ``target_ratio``
    times the majority count. Must only ever see training rows.
    """

    def __init__(self, k: int = 5, target_ratio: float = 1.0, seed: int = 0):
        self.k = k
        self.target_ratio = target_ratio
        self.seed = seed

    def fit_resample(self, X, y) -> tuple[np.ndarray, np.ndarray]:
        X, y = check_X_y(X, y)
        check_both_classes(y)
        n_pos = int((y == 1).sum())
        n_neg = len(y) - n_pos
        minority = 1 if n_pos < n_neg else 0
        min_idx = np.flatnonzero(y == minority)
        n_min, n_maj = len(min_idx), len(y) - len(min_idx)
        if n_min < self.k + 1:
            raise ValueError(
                f"minority class has {n_min} samples; need at least k+1={self.k + 1}"
            )

        n_new = max(0, int(round(self.target_ratio * n_maj)) - n_min)
        if n_new == 0:
            self.n_synthetic_ = 0
            return X.copy(), y.copy()

        # neighbour search in standardized space; interpolation in the original
        Z = _Standardizer().fit(X).transform(X[min_idx])
        neighbour_ids = k_nearest(Z, self.k)

        rng = np.random.default_rng(self.seed)
        base = rng.integers(0, n_min, size=n_new)
        pick = rng.integers(0, self.k, size=n_new)
        u = rng.uniform(0.0, 1.0, size=n_new)

        X_min = X[min_idx]
        x0 = X_min[base]
        nn = X_min[neighbour_ids[base, pick]]
        synthetic = x0 + u[:, None] * (nn - x0)

        self.n_synthetic_ = n_new
        X_out = np.vstack([X, synthetic])
        y_out = np.concatenate([y, np.full(n_new, minority, dtype=y.dtype)])
        return X_out, y_out
