"""Input validation helpers used across the package."""
from __future__ import annotations

import numpy as np


def sorted_distinct(a) -> np.ndarray:
    """The distinct values of ``a``, flattened and sorted, as a plain
    ``np.unique(a)`` gives them (NaNs aside), without the import of
    ``numpy.ma`` that ``np.unique`` makes on numpy >= 2.3."""
    a = np.sort(np.asarray(a), axis=None)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def check_array(X, name="X", ndim=2, dtype=float):
    """Coerce to a contiguous float ndarray and validate shape/finiteness."""
    arr = np.ascontiguousarray(X, dtype=dtype)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def check_X_y(X, y):
    """Validate a feature matrix and aligned binary label vector."""
    X = check_array(X, "X", ndim=2)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-dimensional, got shape {y.shape}")
    if len(y) != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {len(y)}")
    uniq = sorted_distinct(y)
    if not np.isin(uniq, (0, 1)).all():
        raise ValueError(f"y must be binary 0/1, found values {uniq}")
    return X, y.astype(np.int64)


def check_both_classes(y, name="y"):
    y = np.asarray(y)
    if not ((y == 0).any() and (y == 1).any()):
        raise ValueError(f"{name} must contain both classes (0 and 1)")
    return y
