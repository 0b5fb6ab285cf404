"""Stratified train/test split and cross-validation folds."""
from __future__ import annotations

import numpy as np

from .._validation import check_both_classes, sorted_distinct


TRAIN_FRACTION = 0.9


def stratified_split(y, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test indices with per-class proportions.

    Test counts per class use largest-remainder rounding so the overall
    test size is round((1 - TRAIN_FRACTION) * n).
    """
    y = np.asarray(check_both_classes(y))
    rng = np.random.default_rng(seed)
    n = len(y)
    test_fraction = 1.0 - TRAIN_FRACTION
    test_total = int(round(test_fraction * n))

    classes = sorted_distinct(y)
    shuffled = {c: rng.permutation(np.flatnonzero(y == c)) for c in classes}
    quota = {c: test_fraction * len(shuffled[c]) for c in classes}
    take = {c: int(np.floor(quota[c])) for c in classes}
    short = test_total - sum(take.values())
    for c in sorted(classes, key=lambda c: -(quota[c] - take[c])):
        if short <= 0:
            break
        take[c] += 1
        short -= 1

    test_idx = np.concatenate([shuffled[c][:take[c]] for c in classes])
    train_idx = np.concatenate([shuffled[c][take[c]:] for c in classes])
    return np.sort(train_idx), np.sort(test_idx)


def stratified_folds(y, folds: int = 5, seed: int = 0
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold partition; returns (train_idx, val_idx) per fold.

    Each class is shuffled then dealt round-robin, so per-fold class counts
    differ from the proportional share by at most one sample.
    """
    y = np.asarray(check_both_classes(y))
    if folds < 2:
        raise ValueError("need at least 2 folds")
    for c in sorted_distinct(y):
        if (y == c).sum() < folds:
            raise ValueError(f"class {c} has fewer samples than folds={folds}")
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=int)
    for c in sorted_distinct(y):
        idx = rng.permutation(np.flatnonzero(y == c))
        assignment[idx] = np.arange(len(idx)) % folds

    out = []
    for f in range(folds):
        val = np.flatnonzero(assignment == f)
        train = np.flatnonzero(assignment != f)
        out.append((train, val))
    return out
