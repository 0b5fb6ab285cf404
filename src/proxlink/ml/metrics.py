"""Ranking metric for the classification pipeline."""
from __future__ import annotations

import numpy as np

from .._validation import check_both_classes


def auc(scores, labels) -> float:
    """Area under the ROC curve, Mann-Whitney form with midranks for ties.

    Equals the probability that a random positive outscores a random
    negative, counting ties as one half.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-d arrays")
    check_both_classes(labels, "labels")

    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # tie runs [i, j] of equal sorted scores; `!=` rather than a difference,
    # so that equal infinities tie and each NaN is a run of its own
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)] - 1
    ranks = np.empty(len(scores), dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)  # midrank, 1-based

    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
