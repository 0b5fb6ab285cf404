import gc
import hashlib
import json
import os
import pickle
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from proxlink.ml import (
    CLASSIFIER_KINDS,
    CartTree,
    ClassifierSpec,
    GaussianNaiveBayes,
    GradientBoostedTrees,
    KNearestNeighbors,
    LinearSvm,
    RandomForest,
    SgdLogistic,
    Smote,
    TunePlan,
    auc,
    make_classifier,
    model_size,
    stratified_folds,
    stratified_split,
    tune_kinds,
)
from proxlink.ml import classifiers as classifiers_mod
from proxlink.logit import sigmoid
from proxlink.ml import tree as tree_mod
from proxlink.ml.tree import _MIN_GAIN, presort
from proxlink.ml.tune import SmoteConfig, build_fold_sets, score_spec
from synth_data import synth_logit_data


def root_split(tree):
    """(feature, threshold) of a fitted tree's root split."""
    return int(tree.feature[0]), float(tree.threshold[0])


def separable_dataset(n=2000, seed=0, margin=0.5):
    """Linearly separable 7-feature rows mimicking the pair-feature schema."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    w = np.array([-0.8, 2.0, 0.3, -1.5, -0.4, -0.6, -0.5])
    b = 1.0
    while len(rows) < n:
        ln_geo = rng.uniform(0, 10)
        ln_tenb = rng.uniform(0, 2.5)
        x = np.array([ln_geo, ln_tenb, ln_geo * ln_tenb, rng.uniform(0, 2),
                      rng.integers(0, 2), rng.integers(0, 2), rng.integers(0, 2)],
                     dtype=float)
        score = w @ x + b
        if abs(score) < margin:
            continue
        rows.append(x)
        labels.append(1 if score > 0 else 0)
    return np.array(rows), np.array(labels)


def overlapping_blobs():
    """Overlapping, imbalanced 3-feature blobs: 120 negatives, 30 positives."""
    rng = np.random.default_rng(11)
    X = np.vstack([rng.normal(0.0, 1.0, size=(120, 3)),
                   rng.normal(0.8, 1.0, size=(30, 3))])
    return X, np.array([0] * 120 + [1] * 30)


def gaussian_blobs(n_per_class=200, dim=4, gap=5.0, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, size=(n_per_class, dim))
    X1 = rng.normal(gap, 1.0, size=(n_per_class, dim))
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(n_per_class, int), np.ones(n_per_class, int)])
    return X, y


def test_every_exported_name_resolves():
    import proxlink.ml as ml
    assert [name for name in ml.__all__ if not hasattr(ml, name)] == []
    assert len(set(ml.__all__)) == len(ml.__all__)


class TestSmote:
    def test_synthetic_row_count(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        y = np.array([1] * 3 + [0] * 97)
        X2, y2 = Smote(k=2, target_ratio=1.0, seed=0).fit_resample(X, y)
        assert len(y2) == 100 + 94
        assert (y2 == 1).sum() == 97

    def test_synthetic_rows_lie_on_segments(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 4))
        y = np.array([1] * 12 + [0] * 48)
        smote = Smote(k=5, target_ratio=1.0, seed=3)
        X2, y2 = smote.fit_resample(X, y)
        originals = X[y == 1]
        synthetic = X2[len(X):]
        assert len(synthetic) == smote.n_synthetic_
        for s in synthetic:
            on_some_segment = False
            for a_i in range(len(originals)):
                for b_i in range(len(originals)):
                    if a_i == b_i:
                        continue
                    a, b = originals[a_i], originals[b_i]
                    d = b - a
                    denom = d @ d
                    if denom == 0:
                        continue
                    u = (s - a) @ d / denom
                    if -1e-9 <= u <= 1 + 1e-9 and np.allclose(a + u * d, s, atol=1e-9):
                        on_some_segment = True
                        break
                if on_some_segment:
                    break
            assert on_some_segment

    def test_minority_too_small_for_k(self):
        X = np.ones((10, 2)) * np.arange(10)[:, None]
        y = np.array([1] * 4 + [0] * 6)
        with pytest.raises(ValueError, match="k\\+1"):
            Smote(k=5).fit_resample(X, y)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        y = np.array([1] * 10 + [0] * 40)
        a = Smote(k=3, seed=9).fit_resample(X, y)
        b = Smote(k=3, seed=9).fit_resample(X, y)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_neighbours_found_in_standardized_space(self):
        # rescaling a feature leaves the neighbour choice alone, and a
        # constant column (zero spread) does not break the scaling
        rng = np.random.default_rng(4)
        X = np.column_stack([rng.normal(size=40), rng.normal(size=40), np.full(40, 3.0)])
        y = np.array([1] * 10 + [0] * 30)
        scale = np.array([1000.0, 1.0, 1.0])
        a, _ = Smote(k=3, seed=5).fit_resample(X, y)
        b, _ = Smote(k=3, seed=5).fit_resample(X * scale, y)
        assert np.allclose(b, a * scale, rtol=1e-9)


    @pytest.mark.parametrize("block_bytes", [1, 8 * 40 * 2 * 3, 2 ** 40])
    def test_blocked_neighbours_match_dense_sort(self, monkeypatch, block_bytes):
        # duplicate rows and a coarse grid give many tied distances; small
        # blocks split the minority over several blocks
        rng = np.random.default_rng(6)
        Z = rng.integers(0, 3, size=(40, 2)).astype(float)
        Z[10:15] = Z[3]
        d2 = ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        monkeypatch.setattr(classifiers_mod, "BLOCK_BYTES", block_bytes)
        for k in (1, 4, 9, 39):
            expected = np.argsort(d2, axis=1, kind="mergesort")[:, :k]
            assert np.array_equal(classifiers_mod.k_nearest(Z, k), expected), k

    def test_block_size_leaves_resample_unchanged(self, monkeypatch):
        rng = np.random.default_rng(7)
        X = np.round(rng.normal(size=(90, 3)), 1)
        y = np.array([1] * 30 + [0] * 60)
        a = Smote(k=5, seed=1).fit_resample(X, y)
        monkeypatch.setattr(classifiers_mod, "BLOCK_BYTES", 8 * 30 * 3 * 7)
        b = Smote(k=5, seed=1).fit_resample(X, y)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def reference_knn_ids(R, Q, k):
    """The per-row search the blocked kernel replaced in the kNN
    classifier: one full lexsort over every reference row per query."""
    idx_key = np.arange(len(R))
    return np.array([np.lexsort((idx_key, ((R - q) ** 2).sum(axis=1)))[:k] for q in Q])


class TestNeighbourKernel:
    @pytest.mark.parametrize("block_bytes", [1, 8 * 30 * 2 * 4, 2 ** 40])
    def test_queries_match_per_row_sort(self, monkeypatch, block_bytes):
        # duplicate reference rows and queries on the same coarse grid give
        # exact ties and zero distances; blocks of 1 row, 4 rows and all
        rng = np.random.default_rng(12)
        R = rng.integers(0, 3, size=(30, 2)).astype(float)
        R[5:9] = R[0]
        Q = np.vstack([rng.integers(0, 3, size=(17, 2)).astype(float), R[:3],
                       [[0.5, 1.5], [9.0, -9.0]]])
        R_cont = rng.normal(size=(300, 7))
        Q_cont = np.vstack([rng.normal(size=(60, 7)), R_cont[::50]])
        monkeypatch.setattr(classifiers_mod, "BLOCK_BYTES", block_bytes)
        for R, Q, ks in ((R, Q, (1, 2, 7, 30)), (R_cont, Q_cont, (1, 5, 300))):
            for k in ks:
                expected = reference_knn_ids(R, Q, k)
                assert np.array_equal(classifiers_mod.k_nearest(R, k, Q), expected), k

    @pytest.mark.golden
    @pytest.mark.parametrize("n_features", [*range(1, 21), 129, 300])
    def test_column_sums_equal_the_difference_tensor(self, n_features):
        # numpy sums a short last axis in order below 8 terms, in 8 running
        # sums from 8 up and in halves above 128; duplicate rows give zero
        # distances, and binary columns exact small squares
        rng = np.random.default_rng(n_features)
        R = rng.normal(size=(40, n_features)) * 10.0 ** rng.integers(-3, 4, size=n_features)
        R[:, ::3] = rng.integers(0, 2, size=R[:, ::3].shape)
        R[10:14] = R[0]
        Q = np.vstack([rng.normal(size=(9, n_features)), R[:5]])
        expected = ((Q[:, None, :] - R[None, :, :]) ** 2).sum(axis=-1)
        got = classifiers_mod._squared_distances(Q, np.ascontiguousarray(R.T))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.golden
    @pytest.mark.parametrize("block_bytes", [1, 2 ** 20])
    @pytest.mark.parametrize("n_features", [8, 9, 17])
    def test_queries_match_per_row_sort_from_eight_features(
            self, monkeypatch, block_bytes, n_features):
        rng = np.random.default_rng(20 + n_features)
        R = rng.normal(size=(200, n_features))
        R[:, 0] = rng.integers(0, 2, size=200)  # ties on a binary column
        R[50:53] = R[7]
        Q = np.vstack([rng.normal(size=(40, n_features)), R[::40]])
        monkeypatch.setattr(classifiers_mod, "BLOCK_BYTES", block_bytes)
        for k in (1, 5, 200):
            expected = reference_knn_ids(R, Q, k)
            assert np.array_equal(classifiers_mod.k_nearest(R, k, Q), expected), k

    @pytest.mark.parametrize("n_features", [7, 9, 20])
    def test_temporaries_stay_within_two_blocks(self, monkeypatch, n_features):
        # one difference tensor would take 168 MB or more here; from 8
        # features up each block builds its own
        rng = np.random.default_rng(15)
        R = rng.normal(size=(2000, n_features))
        Q = rng.normal(size=(1500, n_features))
        monkeypatch.setattr(classifiers_mod, "BLOCK_BYTES", 2 ** 20)
        for args in ((R, 5, Q), (R, 5)):
            tracemalloc.start()
            try:
                out = classifiers_mod.k_nearest(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2 ** 20 + out.nbytes, len(args)


class TestSplits:
    def test_90_10_split_stratified_exactly(self):
        y = np.array([1] * 10 + [0] * 90)
        train, test = stratified_split(y, seed=0)
        assert len(test) == 10
        assert y[test].sum() == 1
        assert len(np.intersect1d(train, test)) == 0
        assert len(train) + len(test) == 100

    def test_folds_partition_exactly(self):
        y = np.array([1] * 25 + [0] * 75)
        folds = stratified_folds(y, folds=5, seed=1)
        all_val = np.concatenate([va for _, va in folds])
        assert sorted(all_val.tolist()) == list(range(100))
        for tr, va in folds:
            assert len(np.intersect1d(tr, va)) == 0
            assert len(tr) + len(va) == 100

    def test_fold_class_counts_within_one(self):
        y = np.array([1] * 23 + [0] * 77)
        for _, va in stratified_folds(y, folds=5, seed=2):
            pos = y[va].sum()
            assert abs(pos - 23 / 5) < 1.0

    def test_same_seed_identical(self):
        y = np.array([1] * 20 + [0] * 30)
        s1 = stratified_split(y, seed=7)
        s2 = stratified_split(y, seed=7)
        assert np.array_equal(s1[0], s2[0]) and np.array_equal(s1[1], s2[1])

    def test_class_smaller_than_folds_errors(self):
        y = np.array([1] * 3 + [0] * 20)
        with pytest.raises(ValueError, match="fewer samples than folds"):
            stratified_folds(y, folds=5, seed=0)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_reversed_ranking(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_ties_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=200)
        labels = (scores + rng.normal(0, 1, 200) > 0).astype(int)
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("case", ["many ties", "all tied", "one positive", "one negative",
                                      "infinities", "continuous"])
    def test_matches_midrank_loop_bit_for_bit(self, case):
        rng = np.random.default_rng(8)
        for n in (2, 3, 17, 400):
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, n)
            labels[:2] = (0, 1)
            if case == "many ties":
                scores = rng.integers(0, 4, n) / 3.0
            elif case == "all tied":
                scores = np.full(n, 0.25)
            elif case == "one positive":
                labels = np.eye(n, dtype=int)[n // 2]
            elif case == "one negative":
                labels = 1 - np.eye(n, dtype=int)[n - 1]
            elif case == "infinities":
                scores[rng.integers(0, n, n // 2 + 1)] = np.inf
                scores[0] = -np.inf
            assert auc(scores, labels) == reference_auc(scores, labels), (case, n)


def reference_auc(scores, labels) -> float:
    """The per-run midrank loop that ``auc`` replaced."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores), dtype=float)
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def grown(tree, X, y):
    """``tree`` after growing it on ``X``."""
    tree.fit_values(presort(X), y)
    return tree


class TestCartTree:
    def test_stump_matches_exhaustive_split_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = grown(CartTree(max_depth=1, criterion="mse"), X, y)

        def sse(values):
            return float(((values - values.mean()) ** 2).sum()) if len(values) else 0.0

        best = (None, None, -np.inf)
        for f in range(3):
            for t in sorted(set((a + b) / 2 for a, b in
                                zip(sorted(X[:, f])[:-1], sorted(X[:, f])[1:]))):
                left = y[X[:, f] <= t]
                right = y[X[:, f] > t]
                if len(left) == 0 or len(right) == 0:
                    continue
                gain = sse(y) - sse(left) - sse(right)
                if gain > best[2]:
                    best = (f, t, gain)
        assert root_split(tree)[0] == best[0]
        assert root_split(tree)[1] == pytest.approx(best[1], abs=1e-12)

    def test_tie_breaks_to_lower_feature(self):
        # two identical columns: the split must name column 0
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([x, x])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = grown(CartTree(max_depth=1, criterion="mse"), X, y)
        assert root_split(tree) == (0, 1.5)

    @pytest.mark.parametrize("criterion", ["mse", "gini"])
    def test_adjacent_float_split_leaves_no_empty_child(self, criterion):
        # (lo + hi) / 2 rounds up onto hi for adjacent floats; the split
        # must still send hi to the right child
        hi = 2.0
        lo = np.nextafter(hi, 0.0)
        X = np.array([[lo], [lo], [hi], [hi]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tree = grown(CartTree(max_depth=1, criterion=criterion), X, y)
        feature, threshold = root_split(tree)
        assert lo <= threshold < hi
        assert np.array_equal(tree.predict(X), y)


    def test_gini_needs_labels_and_default_leaves(self):
        X = np.arange(4.0)[:, None]
        with pytest.raises(ValueError, match="0/1 labels"):
            CartTree(criterion="gini").fit_values(presort(X), np.array([0.0, 2.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="mse trees only"):
            CartTree(criterion="gini").fit_values(presort(X), np.array([0.0, 1.0, 1.0, 0.0]),
                                                  np.ones(4))

    def test_lockstep_grower_takes_gini_trees_only(self):
        # mse trees grow one at a time through grow_regression
        X, y = np.arange(6.0)[:, None], np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        trees = [CartTree(criterion="gini"), CartTree(criterion="mse")]
        with pytest.raises(ValueError, match="gini trees only"):
            tree_mod.grow(trees, presort(X), y, bootstrap=False, group=2, block=0)
        assert all(tree.value is None for tree in trees)

    def test_rejects_empty_leaves(self):
        with pytest.raises(ValueError, match="min_samples_leaf"):
            CartTree(min_samples_leaf=0)

    def test_mse_tree_takes_every_feature(self):
        with pytest.raises(ValueError, match="gini trees only"):
            CartTree(criterion="mse", max_features=1)
        CartTree(criterion="gini", max_features=1)


class ReferenceCartTree(CartTree):
    """The per-feature split search the vectorized kernel replaced: one
    full-sample argsort filtered by a membership mask at every node, and
    a Python loop over the candidate features. It builds the four node
    arrays in its own recursive preorder."""

    def fit(self, X, y, hess=None):
        """Grow on ``X``; a leaf holds the mean of ``y`` over its rows, or
        with ``hess``, ``y``'s sum over ``hess``'s sum (the Newton step)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.n_features_ = X.shape[1]
        self._order = np.argsort(X, axis=0, kind="mergesort")
        self._columns = ([], [], [], [])  # feature, threshold, right, value
        if hess is None:
            leaf_value_fn = lambda idx: float(y[idx].mean())
        else:
            leaf_value_fn = lambda idx: float(y[idx].sum() / hess[idx].sum())
        self._build(X, y, np.arange(len(y)), 0, leaf_value_fn)
        self.feature, self.threshold, self.right, self.value = map(np.array, self._columns)
        del self._order, self._columns
        return self

    def _add(self, feature=-1, threshold=0.0, value=0.0) -> int:
        """Append a node, without its right child; returns its id."""
        for column, entry in zip(self._columns, (feature, threshold, -1, value)):
            column.append(entry)
        return len(self._columns[0]) - 1

    def _candidate_features(self) -> np.ndarray:
        """This node's candidate features, ascending: one ``rng.choice``
        per scanned node, the draws ``tree.grow`` makes in bulk."""
        if self.max_features is None or self.max_features >= self.n_features_:
            return np.arange(self.n_features_)
        if self.rng is None:
            raise ValueError("max_features requires an rng")
        picked = self.rng.choice(self.n_features_, size=self.max_features, replace=False)
        return np.sort(picked)

    def _build(self, X, y, idx, depth, leaf_value_fn):
        n = len(idx)
        if depth >= self.max_depth or n < 2 * self.min_samples_leaf:
            return self._add(value=leaf_value_fn(idx))
        best = self._best_split(X, y, idx)
        if best is None:
            return self._add(value=leaf_value_fn(idx))
        feature, threshold = best
        mask = X[idx, feature] <= threshold
        node_id = self._add(feature, threshold)
        self._build(X, y, idx[mask], depth + 1, leaf_value_fn)  # node_id + 1
        self._columns[2][node_id] = self._build(X, y, idx[~mask], depth + 1, leaf_value_fn)
        return node_id

    def _best_split(self, X, y, idx):
        n = len(idx)
        member = np.zeros(X.shape[0], dtype=bool)
        member[idx] = True
        min_leaf = self.min_samples_leaf
        best_gain = _MIN_GAIN
        best = None
        total_sum = float(y[idx].sum())
        total_pos = total_sum
        if self.criterion == "mse":
            total_sq = float((y[idx] ** 2).sum())
            parent_impurity = total_sq - total_sum * total_sum / n
        else:
            parent_impurity = self._gini_ss(total_pos, n)
        lo, hi = min_leaf - 1, n - min_leaf
        if hi <= lo:
            return None
        for feature in self._candidate_features():
            order = self._order[:, feature]
            sorted_idx = order[member[order]]
            values = X[sorted_idx, feature]
            ys = y[sorted_idx]
            boundary = values[lo:hi] != values[lo + 1:hi + 1]
            if not boundary.any():
                continue
            pos = np.nonzero(boundary)[0] + lo
            n_l = pos + 1.0
            n_r = n - n_l
            if self.criterion == "mse":
                csum = np.cumsum(ys)
                csq = np.cumsum(ys ** 2)
                s_l = csum[pos]
                imp_l = csq[pos] - s_l * s_l / n_l
                s_r = total_sum - s_l
                imp_r = (total_sq - csq[pos]) - s_r * s_r / n_r
            else:
                cpos = np.cumsum(ys)
                pos_l = cpos[pos]
                imp_l = n_l - (pos_l ** 2 + (n_l - pos_l) ** 2) / n_l
                pos_r = total_pos - pos_l
                imp_r = n_r - (pos_r ** 2 + (n_r - pos_r) ** 2) / n_r
            gains = parent_impurity - imp_l - imp_r
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_gain = float(gains[k])
                i = int(pos[k])
                threshold = (values[i] + values[i + 1]) / 2.0
                if not threshold < values[i + 1]:
                    threshold = values[i]
                best = (int(feature), float(threshold))
        return best


def random_tree_case(seed):
    """Features mixing continuous, integer-grid (heavy ties), constant and
    adjacent-float (1.9999999999999998 / 2.0) columns, with a random
    criterion, depth and leaf size, a feature subset for some gini trees
    and a hessian for some mse trees; returns (X, y, params, hess)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 150))
    n_features = int(rng.integers(1, 8))
    columns = []
    for _ in range(n_features):
        kind = rng.integers(4)
        if kind == 0:
            columns.append(rng.normal(size=n))
        elif kind == 1:
            columns.append(rng.integers(0, int(rng.integers(1, 6)), size=n).astype(float))
        elif kind == 2:
            columns.append(rng.choice([np.nextafter(2.0, 0.0), 2.0], size=n))
        else:
            columns.append(np.full(n, float(rng.integers(-2, 3))))
    X = np.column_stack(columns)
    criterion = "mse" if seed % 2 == 0 else "gini"
    if criterion == "gini":
        y = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(float)
    elif rng.uniform() < 0.5:
        y = rng.normal(size=n)
    else:
        y = rng.integers(-3, 4, size=n).astype(float)
    params = dict(max_depth=int(rng.integers(1, 13)),
                  min_samples_leaf=int(rng.integers(1, 9)),
                  criterion=criterion)
    rng.integers(2, 6)  # once min_samples_split; drawn so later draws stay put
    if n_features > 1 and rng.uniform() < 0.5:
        max_features = int(rng.integers(1, n_features))
        if criterion == "gini":  # an mse tree takes every feature
            params["max_features"] = max_features
    hess = None
    if criterion == "mse" and rng.uniform() < 0.5:
        hess = rng.uniform(0.05, 0.25, size=n)
    return X, y, params, hess


class TestCartTreeKernel:
    @pytest.mark.golden
    @pytest.mark.parametrize("block", range(8))
    def test_matches_reference_split_search(self, block):
        for seed in range(block * 30, block * 30 + 30):
            X, y, params, hess = random_tree_case(seed)
            ref_rng = np.random.default_rng(seed)
            new_rng = np.random.default_rng(seed)
            ref = ReferenceCartTree(**params, rng=ref_rng).fit(X, y, hess)
            tree = CartTree(**params, rng=new_rng)
            values = tree.fit_values(presort(X), y, hess)
            assert tree.to_dict() == ref.to_dict(), seed
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state, seed
            assert values.tobytes() == tree.predict(X).tobytes(), seed

    def test_reference_cases_cover_the_grid(self):
        cases = [random_tree_case(seed) for seed in range(240)]
        params = [p for _, _, p, _ in cases]
        assert {p["criterion"] for p in params} == {"mse", "gini"}
        assert {p["min_samples_leaf"] for p in params} == set(range(1, 9))
        assert {p["max_depth"] for p in params} == set(range(1, 13))
        assert sum("max_features" in p for p in params) >= 50
        assert sum(hess is not None for *_, hess in cases) >= 50
        assert sum(bool(np.isin(X, [np.nextafter(2.0, 0.0)]).any())
                   for X, _, _, _ in cases) >= 50

    def test_fit_returns_self_and_keeps_no_sort_state(self):
        X, y, params, _ = random_tree_case(0)
        tree = CartTree(**params, rng=np.random.default_rng(0))
        tree.fit_values(presort(X), y)
        arrays = {name: v for name, v in vars(tree).items() if isinstance(v, np.ndarray)}
        assert sorted(arrays) == ["feature", "right", "threshold", "value"]
        assert {len(v) for v in arrays.values()} == {len(tree.to_dict()["nodes"])}
        assert not any(isinstance(v, (tree_mod.Presorted, tree_mod.RowSetStore))
                       for v in vars(tree).values())

    def test_unfitted_tree_says_so(self):
        tree = CartTree()
        with pytest.raises(RuntimeError, match="CartTree is not fitted"):
            tree.predict(np.zeros((2, 1)))
        with pytest.raises(RuntimeError, match="CartTree is not fitted"):
            tree.to_dict()


def draw_against_choice(n_features, k, seed):
    """One forest tree's candidate features drawn both ways from equal rngs:
    a random bootstrap draw first, then a random number of scanned nodes,
    per node with ``np.sort(rng.choice(...))`` and in blocks through
    ``tree._FeatureDraws`` (first block size as set); returns (per-node
    features, bulk features, per-node rng, bulk rng, blocks drawn)."""
    case = np.random.default_rng(seed)
    nodes = int(case.integers(1, 41))
    boot = int(case.integers(0, 9))  # an odd count leaves half a 64-bit word
    ref_rng = np.random.default_rng(seed + 10_000)
    new_rng = np.random.default_rng(seed + 10_000)
    ref_rng.integers(0, 150, size=boot)
    new_rng.integers(0, 150, size=boot)
    ref = [np.sort(ref_rng.choice(n_features, size=k, replace=False)) for _ in range(nodes)]
    draws = tree_mod._FeatureDraws(CartTree(criterion="gini", max_features=k, rng=new_rng),
                                   n_features)
    got, blocks, last = [], 0, None
    for _ in range(nodes):
        got.append(draws.take())
        blocks += draws.picks is not last
        last = draws.picks
    draws.rewind()
    return ref, got, ref_rng, new_rng, blocks


class TestFeatureDraws:
    @pytest.mark.golden
    @pytest.mark.parametrize("first_block", [1, 2, 3, 16])
    @pytest.mark.parametrize("n_features", range(2, 16))
    def test_bulk_draws_are_the_per_node_choices(self, monkeypatch, n_features, first_block):
        monkeypatch.setattr(tree_mod, "FIRST_DRAW_NODES", first_block)
        half_words = several_blocks = 0
        for k in range(1, n_features):
            for seed in range(8):
                ref, got, ref_rng, new_rng, blocks = draw_against_choice(n_features, k, seed)
                assert [f.tolist() for f in got] == [f.tolist() for f in ref], (k, seed)
                assert new_rng.bit_generator.state == ref_rng.bit_generator.state, (k, seed)
                half_words += new_rng.bit_generator.state["has_uint32"]
                several_blocks += blocks > 1
        # the grid ends blocks, and with them the rng, halfway through a word
        assert half_words >= (n_features - 1) * 2
        assert several_blocks >= (n_features - 1) * (2 if first_block < 16 else 1)

    @pytest.mark.parametrize("k", [200, 201])
    def test_bulk_draws_follow_choice_above_ten_thousand_features(self, k):
        # choice shuffles the tail of arange(F) where F > 10,000 and k > F // 50
        for seed in range(4):
            ref, got, ref_rng, new_rng, _ = draw_against_choice(10_001, k, seed)
            assert [f.tolist() for f in got] == [f.tolist() for f in ref], seed
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state, seed

    def test_feature_subset_needs_an_rng(self):
        X = np.arange(8.0).reshape(4, 2)
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="requires an rng"):
            CartTree(criterion="gini", max_features=1).fit_values(presort(X), y)
        # with every feature a candidate, the tree draws nothing
        CartTree(criterion="gini", max_features=2).fit_values(presort(X), y)


def reference_forest(forest, X, y):
    """The forest's trees grown one at a time by ``ReferenceCartTree``,
    each on its own bootstrap and with its own rng drawn as the forest
    draws them; returns (tree, rng) pairs."""
    n, n_features = X.shape
    root = np.random.default_rng(forest.seed)
    out = []
    for _ in range(forest.n_trees):
        rng = np.random.default_rng(root.integers(0, 2 ** 63 - 1))
        idx = rng.integers(0, n, size=n) if forest.bootstrap else np.arange(n)
        tree = ReferenceCartTree(max_depth=forest.max_depth,
                                 min_samples_leaf=forest.min_samples_leaf, criterion="gini",
                                 max_features=forest._resolve_max_features(n_features),
                                 rng=rng)
        out.append((tree.fit(X[idx], y[idx].astype(float)), rng))
    return out


def random_forest_case(seed):
    """Columns as in ``random_tree_case``, 0/1 labels with both classes
    (sometimes a single positive, so some bootstraps hold one class) and
    random forest hyperparameters."""
    X, _, _, _ = random_tree_case(2 * seed + 1)
    rng = np.random.default_rng(1000 + seed)
    n, n_features = X.shape
    if n < 2:
        X = np.vstack([X, X + 1.0])
        n = 2
    if rng.uniform() < 0.25:
        y = np.zeros(n, dtype=int)
    else:
        y = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(int)
    y[rng.choice(n, size=2, replace=False)] = [0, 1]
    params = dict(n_trees=int(rng.integers(1, 41)), max_depth=int(rng.integers(1, 13)),
                  min_samples_leaf=int(rng.integers(1, 9)),
                  max_features=[None, 1, "sqrt", n_features][seed % 4],
                  bootstrap=bool(rng.uniform() < 0.75), seed=seed)
    return X, y, params


class TestForestLockstep:
    @pytest.mark.golden
    @pytest.mark.parametrize("block", range(4))
    def test_matches_trees_grown_one_at_a_time(self, block):
        for seed in range(block * 12, block * 12 + 12):
            X, y, params = random_forest_case(seed)
            forest = RandomForest(**params).fit(X, y)
            reference = reference_forest(forest, X, y)
            assert len(forest.trees_) == len(reference) == params["n_trees"]
            for tree, (ref, ref_rng) in zip(forest.trees_, reference):
                assert tree.to_dict() == ref.to_dict(), seed
                assert tree.rng.bit_generator.state == ref_rng.bit_generator.state, seed

    def test_forest_cases_cover_the_grid(self):
        cases = [random_forest_case(seed) for seed in range(48)]
        params = [p for _, _, p in cases]
        assert {None, 1, "sqrt"} <= {p["max_features"] for p in params}
        assert sum(p["max_features"] == X.shape[1] for X, _, p in cases) >= 10
        assert {p["min_samples_leaf"] for p in params} == set(range(1, 9))
        assert {p["bootstrap"] for p in params} == {True, False}
        assert {1, 40} <= {p["n_trees"] for p in params}
        assert sum(int(y.sum()) == 1 for _, y, _ in cases) >= 5
        assert sum(bool(np.isin(X, [np.nextafter(2.0, 0.0)]).any()) for X, _, _ in cases) >= 10
        assert sum(bool((X == X[0]).all(axis=0).any()) for X, _, _ in cases) >= 10

    def test_one_class_bootstrap_is_a_root_leaf(self):
        X = np.arange(6.0)[:, None]
        y = np.array([0, 0, 0, 0, 0, 1])
        forest = RandomForest(n_trees=20, max_depth=4, max_features=None, seed=3).fit(X, y)
        roots = [(tree.feature[0], tree.value[0]) for tree in forest.trees_]
        assert any(feature < 0 and value == 0.0 for feature, value in roots)
        assert any(feature >= 0 for feature, _ in roots)
        for tree, (ref, _) in zip(forest.trees_, reference_forest(forest, X, y)):
            assert tree.to_dict() == ref.to_dict()

    @pytest.mark.golden
    def test_tree_groups_do_not_change_the_bytes(self, monkeypatch):
        X, y = synth_logit_data(n=150, seed=4)
        groups = []
        grow = classifiers_mod.grow

        def recording(trees, *args, group, **kwargs):
            groups.append(min(group, len(trees)))
            return grow(trees, *args, group=group, **kwargs)

        monkeypatch.setattr(classifiers_mod, "grow", recording)
        dumps = {}
        for block_bytes in (1, 8 * 150 * 5, 2 ** 40):
            monkeypatch.setattr(classifiers_mod, "BLOCK_BYTES", block_bytes)
            groups.clear()
            model = RandomForest(n_trees=13, max_depth=6, seed=2).fit(X, y)
            dumps[block_bytes] = (json.dumps(model.to_json(), sort_keys=True),
                                  model.predict_proba(X).tobytes(), tuple(groups))
        # one-node chunks in one-tree groups, then 5-tree groups of 150 rows
        assert dumps[1][2] == (1,)
        assert dumps[8 * 150 * 5][2] == (5,)
        assert dumps[2 ** 40][2] == (13,)
        assert len({d[:2] for d in dumps.values()}) == 1


class TestTreeEnsembleMemory:
    def test_forest_temporaries_stay_within_a_few_blocks(self, monkeypatch):
        # 10-tree groups; an unchunked first step would hold eight arrays
        # of 10 trees x 2 candidates x 3000 rows, 3.8 MB
        X, y = synth_logit_data(n=3000, seed=3)
        monkeypatch.setattr(classifiers_mod, "BLOCK_BYTES", 2 ** 18)
        tracemalloc.start()
        try:
            model = RandomForest(n_trees=40, max_depth=10, seed=1).fit(X, y)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.trees_) == 40
        assert peak < size + 8 * 2 ** 18

    @pytest.mark.parametrize("model", [
        RandomForest(n_trees=4, max_depth=5, seed=2),
        GradientBoostedTrees(n_trees=4, max_depth=3, seed=2),
    ])
    def test_trees_hold_no_per_row_array(self, model):
        X, y = synth_logit_data(n=173, seed=3)
        model.fit(X, y)
        for tree in model.trees_:
            for name, value in vars(tree).items():
                assert not (isinstance(value, np.ndarray) and value.ndim
                            and value.shape[0] == len(y)), name


def node_paths(tree):
    """Each node's path of splits from the root, (feature, threshold, went
    left) per split, flat: the keys of ``RowSetStore``."""
    feature, threshold, right = tree.feature.tolist(), tree.threshold.tolist(), tree.right.tolist()
    paths, stack = set(), [(0, ())]
    while stack:
        node_id, path = stack.pop()
        paths.add(path)
        if feature[node_id] >= 0:
            split = (feature[node_id], threshold[node_id])
            stack.append((node_id + 1, path + split + (True,)))
            stack.append((right[node_id], path + split + (False,)))
    return paths


def leaf_ids(tree, X):
    """Each row's leaf, walked one row and one node at a time, the left
    child at ``node_id + 1``."""
    ids = []
    for row in X.tolist():
        i = 0
        while tree.feature[i] >= 0:
            i = i + 1 if row[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
        ids.append(i)
    return np.array(ids, dtype=int)


def subtree_end(tree, node_id):
    """One past the last node of ``node_id``'s subtree, asserting that each
    internal node's left subtree starts at ``node_id + 1`` and ends where
    its right subtree starts."""
    if tree.feature[node_id] < 0:
        return node_id + 1
    assert subtree_end(tree, node_id + 1) == tree.right[node_id]
    return subtree_end(tree, tree.right[node_id])


@pytest.mark.golden
def test_ensemble_trees_are_preorder_arrays():
    depths, root_leaves, one_row_leaves = set(), 0, 0
    for seed in range(36):
        X, _, _, _ = random_tree_case(seed)  # constant and tied columns included
        if len(X) < 2 or seed % 9 == 0:  # constant rows: every tree is a root leaf
            X = np.ones((6, X.shape[1]))
        n, n_features = X.shape
        rng = np.random.default_rng(3000 + seed)
        y = (rng.uniform(size=n) < 0.4).astype(int)
        y[:2] = [0, 1]
        depth = seed % 12 + 1
        models = [RandomForest(n_trees=5, max_depth=depth, min_samples_leaf=1,
                               max_features=[None, "sqrt", 1][seed % 3],
                               bootstrap=seed % 2 == 0, seed=seed),
                  GradientBoostedTrees(n_trees=5, max_depth=depth, min_samples_leaf=1,
                                       seed=seed)]
        for model in models:
            model.fit(X, y)
            for tree in model.trees_:
                nodes = len(tree.feature)
                assert [len(a) for a in (tree.threshold, tree.right, tree.value)] == [nodes] * 3
                assert subtree_end(tree, 0) == nodes
                assert ((tree.feature < 0) == (tree.right < 0)).all()
                # queries on the training rows, on each threshold, random and none
                at_thresholds = np.repeat(X[:1], nodes, axis=0)
                split = np.flatnonzero(tree.feature >= 0)
                at_thresholds[split, tree.feature[split]] = tree.threshold[split]
                queries = (X, at_thresholds, rng.normal(size=(20, n_features)),
                           np.empty((0, n_features)))
                for Q in queries:
                    assert tree.predict(Q).tobytes() == tree.value[leaf_ids(tree, Q)].tobytes()
                depths.add(depth)
                root_leaves += nodes == 1
                one_row_leaves += 1 in Counter(leaf_ids(tree, X).tolist()).values()
    assert depths == set(range(1, 13))
    assert root_leaves >= 10 and one_row_leaves >= 10


def random_boosting_case(seed):
    """Tie-free and tie-heavy columns, 0/1 labels with both classes and
    random boosting hyperparameters."""
    rng = np.random.default_rng(7000 + seed)
    n = int(rng.integers(8, 160))
    columns = []
    for _ in range(int(rng.integers(1, 8))):
        if rng.uniform() < 0.5:
            columns.append(rng.normal(size=n))
        else:
            columns.append(rng.integers(0, int(rng.integers(2, 6)), size=n).astype(float))
    X = np.column_stack(columns)
    y = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(int)
    y[rng.choice(n, size=2, replace=False)] = [0, 1]
    params = dict(n_trees=int(rng.integers(1, 61)), lr=float(rng.uniform(0.05, 1.0)),
                  max_depth=int(rng.integers(1, 7)), min_samples_leaf=int(rng.integers(1, 9)))
    return X, y, params


class ForgetfulStore(tree_mod.RowSetStore):
    """A store that keeps no row set, so every node sorts its rows again."""

    class _Sets(dict):
        def __setitem__(self, path, row_set):
            pass

    def __init__(self):
        super().__init__()
        self.sets = self._Sets()

    def end_tree(self):
        self.trees += 1


class TestBoostingRowSets:
    @pytest.mark.golden
    @pytest.mark.parametrize("block", range(4))
    def test_stored_row_sets_move_no_bit(self, block, monkeypatch):
        reused = 0
        for seed in range(block * 25, block * 25 + 25):
            X, y, params = random_boosting_case(seed)
            model = GradientBoostedTrees(**params).fit(X, y)
            with monkeypatch.context() as m:
                m.setattr(tree_mod, "ROW_SET_TREES", 0)  # an empty store every round
                fresh = GradientBoostedTrees(**params).fit(X, y)
            assert (json.dumps(model.to_json(), sort_keys=True)
                    == json.dumps(fresh.to_json(), sort_keys=True)), seed
            assert (model.decision_function(X).tobytes()
                    == fresh.decision_function(X).tobytes()), seed
            # nodes whose row set one of the previous ROW_SET_TREES trees stored
            paths = [node_paths(tree) for tree in model.trees_]
            for r in range(1, len(paths)):
                earlier = paths[max(0, r - tree_mod.ROW_SET_TREES):r]
                reused += len(paths[r] & set().union(*earlier))
        assert reused > 100

    @pytest.mark.golden
    def test_each_round_is_the_reference_tree_on_its_residual(self):
        for seed in (3, 10, 41, 77):
            X, y, params = random_boosting_case(seed)
            model = GradientBoostedTrees(**params).fit(X, y)
            score = np.full(len(y), model.base_score_)
            for tree in model.trees_:
                p = sigmoid(score)
                residual = y - p
                hess = np.maximum(p * (1.0 - p), 1e-12)
                ref = ReferenceCartTree(max_depth=params["max_depth"],
                                        min_samples_leaf=params["min_samples_leaf"]).fit(
                    X, residual, hess)
                assert tree.to_dict() == ref.to_dict(), seed
                score += model.lr * tree.predict(X)

    def test_boosting_cases_cover_the_grid(self):
        cases = [random_boosting_case(seed) for seed in range(100)]
        params = [p for _, _, p in cases]
        assert {p["min_samples_leaf"] for p in params} == set(range(1, 9))
        assert {p["max_depth"] for p in params} == set(range(1, 7))
        assert max(p["n_trees"] for p in params) >= 55
        tie_free = [all(len(np.unique(column)) == len(X) for column in X.T)
                    for X, _, _ in cases]
        assert 10 <= sum(tie_free) <= 90

    def test_store_keeps_the_row_sets_of_the_last_trees(self, monkeypatch):
        X, y = synth_logit_data(n=300, seed=5)
        kept = []
        fit_values = CartTree.fit_values

        def recording_fit_values(self, presorted, y, hess, store):
            values = fit_values(self, presorted, y, hess, store)
            kept.append(set(store.sets))
            return values

        monkeypatch.setattr(CartTree, "fit_values", recording_fit_values)
        model = GradientBoostedTrees(n_trees=30, max_depth=4, min_samples_leaf=2).fit(X, y)
        paths = [node_paths(tree) for tree in model.trees_]
        assert len(kept) == 30 and len(set().union(*paths)) > len(kept[-1]) > len(paths[-1])
        for r, keys in enumerate(kept):
            assert keys == set().union(*paths[max(0, r + 1 - tree_mod.ROW_SET_TREES):r + 1]), r

    def test_fitted_model_keeps_no_store(self, monkeypatch):
        stores = []
        fit_values = CartTree.fit_values

        def recording_fit_values(self, presorted, y, hess, store):
            stores.append(weakref.ref(store))
            return fit_values(self, presorted, y, hess, store)

        monkeypatch.setattr(CartTree, "fit_values", recording_fit_values)
        X, y = synth_logit_data(n=200, seed=3)
        model = GradientBoostedTrees(n_trees=8, max_depth=3).fit(X, y)
        gc.collect()
        assert len(stores) == 8 and all(ref() is None for ref in stores)
        assert b"RowSetStore" not in pickle.dumps(model)

    def test_store_stays_within_its_bound(self, monkeypatch):
        # tie-free rows; the store's arrays stay within the RowSetStore
        # docstring's bound whatever the number of trees
        n, n_features, depth = 5000, 7, 6
        rng = np.random.default_rng(2)
        X = rng.normal(size=(n, n_features))
        y = (X @ rng.normal(size=n_features) + rng.normal(size=n) > 0).astype(int)
        bound = (tree_mod.ROW_SET_TREES + 1) * 8 * n * (depth * (2 * n_features + 1) + 1)

        def traced_fit(n_trees):
            tracemalloc.start()
            try:
                model = GradientBoostedTrees(n_trees=n_trees, max_depth=depth).fit(X, y)
                size, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return model, size, peak

        # the fit's own temporaries, measured with a store that keeps nothing
        monkeypatch.setattr(classifiers_mod, "RowSetStore", ForgetfulStore)
        _, size, peak = traced_fit(4)
        scratch = peak - size
        monkeypatch.undo()
        model, size, peak = traced_fit(200)
        assert len(model.trees_) == 200
        assert peak - size - scratch < bound


class TestClassifiers:
    def test_gaussian_nb_separates_blobs(self):
        X, y = gaussian_blobs()
        model = GaussianNaiveBayes().fit(X, y)
        assert auc(model.predict_proba(X)[:, 1], y) >= 0.99

    def test_gbt_single_stump_reproduces_best_split(self):
        X = np.array([[1.0], [2.0], [4.0], [5.0]])
        y = np.array([0, 0, 1, 1])
        model = GradientBoostedTrees(n_trees=1, lr=1.0, max_depth=1).fit(X, y)
        assert root_split(model.trees_[0]) == (0, 3.0)
        # stump ordering separates the classes perfectly
        assert auc(model.predict_proba(X)[:, 1], y) == 1.0

    def test_random_forest_degenerates_to_single_cart(self):
        X, y = gaussian_blobs(n_per_class=50)
        forest = RandomForest(n_trees=1, max_depth=3, max_features=None,
                              bootstrap=False, seed=0).fit(X, y)
        single = grown(CartTree(max_depth=3, criterion="gini"), X, y.astype(float))
        assert np.array_equal(forest.predict_proba(X)[:, 1], single.predict(X))

    @pytest.mark.golden
    @pytest.mark.parametrize("model, json_sha, proba_sha", [
        (RandomForest(n_trees=12, max_depth=6, min_samples_leaf=2,
                      max_features="sqrt", bootstrap=True, seed=5),
         "a13a7d96828070e746241ebe3f00a8ede2be18c2424e9406ffc824704005a929",
         "7be6cf23827a7de6eac3853732396156cecb67c93c0d554491dda74fc7481014"),
        (GradientBoostedTrees(n_trees=25, lr=0.2, max_depth=3,
                              min_samples_leaf=2, seed=0),
         "e9ba3263e359b68d957b5de983367625fcc194814b8fe589bf6a40983553bcd1",
         "88e9df60e54b782285d2c39f1e790976b90dc6aa4114f295b6ba461fc2d6f210"),
    ])
    def test_tree_ensembles_pinned(self, model, json_sha, proba_sha):
        # digests taken with the per-feature split search, before the
        # vectorized kernel
        X, y = synth_logit_data(n=400, seed=11)
        model.fit(X, y)
        dump = json.dumps(model.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(dump).hexdigest() == json_sha
        assert hashlib.sha256(model.predict_proba(X).tobytes()).hexdigest() == proba_sha

    def test_knn_distance_tie_breaks_to_lower_index(self):
        # rows 0 and 1 coincide (distance ties exactly) with opposite labels
        X = np.array([[1.0], [1.0], [5.0], [-5.0]])
        y = np.array([1, 0, 1, 0])
        model = KNearestNeighbors(k=1).fit(X, y)
        # index 0 (label 1) must win the tie
        assert model.predict_proba(np.array([[1.0]]))[0, 1] == 1.0

    @pytest.mark.parametrize("k", [1, 4, 60])
    def test_knn_vote_matches_per_row_search(self, k):
        rng = np.random.default_rng(14)
        X = np.round(rng.normal(size=(60, 3)), 1)
        X[10:14] = X[2]
        y = (rng.uniform(size=60) < 0.4).astype(int)
        Q = np.vstack([np.round(rng.normal(size=(25, 3)), 1), X[:5]])
        model = KNearestNeighbors(k=k).fit(X, y)
        ids = reference_knn_ids(model.X_, model._scaler.transform(Q), k)
        expected = np.column_stack([1.0 - y[ids].mean(axis=1), y[ids].mean(axis=1)])
        assert model.predict_proba(Q).tobytes() == expected.tobytes()

    def test_knn_rejects_bad_queries(self):
        X, y = gaussian_blobs(n_per_class=10, dim=2)
        model = KNearestNeighbors(k=3).fit(X, y)
        # a NaN row would match no candidate in its block and shift the
        # other rows' neighbour lists
        Q = X[:4].copy()
        Q[1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            model.predict_proba(Q)
        Q[1, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or infinite"):
            model.predict_proba(Q)
        with pytest.raises(ValueError, match="2-dimensional"):
            model.predict_proba(X[0])
        with pytest.raises(ValueError, match="features"):
            model.predict_proba(X[:, :1])

    def test_boosting_sorts_once_per_fit(self, monkeypatch):
        sorts, tables = [], []
        argsort = np.argsort
        fit_values = CartTree.fit_values

        def counting_argsort(*args, **kwargs):
            sorts.append(1)
            return argsort(*args, **kwargs)

        def recording_fit_values(self, presorted, *args):
            tables.append(presorted)
            return fit_values(self, presorted, *args)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        monkeypatch.setattr(CartTree, "fit_values", recording_fit_values)
        X, y = synth_logit_data(n=120, seed=3)
        GradientBoostedTrees(n_trees=6, max_depth=2).fit(X, y)
        assert len(sorts) == 1
        assert len(tables) == 6 and all(t is tables[0] for t in tables)
        assert not any(table.flags.writeable
                       for table in (tables[0].rows, tables[0].x, tables[0].code))

    def test_all_kinds_deterministic_under_seed(self):
        X, y = separable_dataset(n=300, seed=4)
        for kind in CLASSIFIER_KINDS:
            spec = ClassifierSpec.create(kind, seed=5)
            p1 = make_classifier(spec).fit(X, y).predict_proba(X)
            p2 = make_classifier(spec).fit(X, y).predict_proba(X)
            assert np.array_equal(p1, p2), kind

    def test_single_class_input_rejected(self):
        X = np.ones((10, 2))
        y = np.ones(10, int)
        for kind in CLASSIFIER_KINDS:
            with pytest.raises(ValueError):
                make_classifier(ClassifierSpec.create(kind)).fit(X, y)

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            SgdLogistic(lr=-1.0)
        with pytest.raises(ValueError):
            KNearestNeighbors(k=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(lr=0.0)
        with pytest.raises(ValueError):
            RandomForest(n_trees=0)
        with pytest.raises(ValueError):
            LinearSvm(l2=0.0)
        with pytest.raises(ValueError):
            ClassifierSpec.create("boosted-stumps")

    def test_separable_dataset_all_kinds_strong(self):
        X, y = separable_dataset(n=800, seed=1)
        for kind in CLASSIFIER_KINDS:
            model = make_classifier(ClassifierSpec.create(kind, seed=0)).fit(X, y)
            assert auc(model.predict_proba(X)[:, 1], y) >= 0.95, kind

    def test_model_dumps_are_self_describing_json(self):
        X, y = separable_dataset(n=120, seed=12)
        for kind in CLASSIFIER_KINDS:
            model = make_classifier(ClassifierSpec.create(kind, seed=0)).fit(X, y)
            payload = model.to_json()
            assert payload["kind"] == kind
            assert "params" in payload
            json.dumps(payload)  # serializable as-is

    @pytest.mark.parametrize("kind", ["logistic-sgd", "linear-svm"])
    def test_linear_dump_reproduces_the_scores(self, kind):
        X, y = separable_dataset(n=120, seed=12)
        model = make_classifier(ClassifierSpec.create(kind, seed=0)).fit(X, y)
        dump = json.loads(json.dumps(model.to_json()))
        Z = (X - np.array(dump["scale_mu"])) / np.array(dump["scale_sd"])
        scores = sigmoid(Z @ np.array(dump["coef"]) + dump["intercept"])
        assert scores.tobytes() == model.predict_proba(X)[:, 1].tobytes()


# The digests of all but random-forest were taken when every log row was
# scored afresh with per-sample SGD fits; random-forest's with serial tuning.
TUNE_LOG_CASES = [
    ("k-nearest-neighbors", 40, 512,
     "087f35325e14a5cb702d121fc5a6b34abd550ff09e874e4b5b6b3b34dced45ee"),
    ("gradient-boosted-trees", 3, 4,
     "8f7203df6e369605f6610703a00789144f0a6bff9cb2041993191025bfbcabfd"),
    ("logistic-sgd", 4, 6,
     "5b55c5c2f00321a41d2f7a7758b146402cd4d4649b25a846d5f0c8b7240bedaa"),
    ("linear-svm", 4, 6,
     "7c7385ee0fc36eafb41bcdd3960de5184cc88056c63adc52d530fdb8b40094d8"),
    ("gaussian-naive-bayes", 5, 3,
     "ba73a40733b99b547ab9c4660907d91f225a37f1e4636a09bbb9f79db95d211d"),
    ("random-forest", 2, 2,
     "775c1d27fcda73d98addc4f294aa3b08bc8c408f128b5fb802245afae5b957fb"),
]


def pinned_tune(kind, n_random, max_grid_fits):
    """Digest of the log rows and the result of one pinned tuning case."""
    X, y = overlapping_blobs()
    log = []
    _, result = tune_kinds([kind], X, y, [5],
                           plan=TunePlan(n_random=n_random, max_grid_fits=max_grid_fits,
                                         folds=3, smote=SmoteConfig(k=3)),
                           log=log)[0]
    return hashlib.sha256(json.dumps(log, sort_keys=True).encode()).hexdigest(), result


class TestCrossValAndTune:
    @pytest.mark.usefixtures("one_cpu")
    def test_smote_applied_to_training_folds_only(self, monkeypatch):
        """Validation rows must always be original rows, never synthetic."""
        X, y = separable_dataset(n=200, seed=2)
        original = {tuple(row) for row in X}
        seen = {"train_ok": True, "val_ok": True, "train_grew": False}

        class Spy:
            def fit(self, Xf, yf):
                if len(Xf) > int(0.8 * len(X)) + 1:
                    seen["train_grew"] = True
                self._fitted = True
                return self

            def predict_proba(self, Xv):
                for row in Xv:
                    if tuple(row) not in original:
                        seen["val_ok"] = False
                return np.column_stack([np.zeros(len(Xv)), np.arange(len(Xv))])

        import sys
        tune_mod = sys.modules["proxlink.ml.tune"]
        monkeypatch.setattr(tune_mod, "make_classifier", lambda spec: Spy())
        score_spec(ClassifierSpec.create("gaussian-naive-bayes"),
                   build_fold_sets(X, y, folds=5, smote=SmoteConfig(k=3), seed=0))
        assert seen["val_ok"], "a synthetic row leaked into a validation fold"
        assert seen["train_grew"], "SMOTE never augmented a training fold"

    def test_eval_results_bit_identical_across_runs(self):
        X, y = separable_dataset(n=240, seed=6)
        for kind in CLASSIFIER_KINDS:
            spec = ClassifierSpec.create(kind, seed=1)
            r1 = score_spec(spec, build_fold_sets(X, y, folds=4, smote=SmoteConfig(k=3), seed=2))
            r2 = score_spec(spec, build_fold_sets(X, y, folds=4, smote=SmoteConfig(k=3), seed=2))
            assert r1 == r2, kind

    def test_cross_val_auc_values_pinned(self, monkeypatch):
        # naive Bayes, kNN and boosting values recorded before fold sets were
        # shared between candidates; the SGD and SVM values with the
        # per-sample SGD fits, before the lockstep kernel
        X, y = overlapping_blobs()
        expected = {
            "logistic-sgd": (0.7916666666666666, 0.8625, 0.8, 0.9142857142857143),
            "linear-svm": (0.7666666666666667, 0.775, 0.780952380952381,
                           0.8809523809523809),
            "gaussian-naive-bayes": (0.8, 0.8333333333333334, 0.819047619047619,
                                     0.7857142857142857),
            "k-nearest-neighbors": (0.5479166666666667, 0.7791666666666667, 0.75,
                                    0.7952380952380952),
            "gradient-boosted-trees": (0.6916666666666667, 0.675, 0.819047619047619,
                                       0.6666666666666666),
        }
        # one-row neighbour blocks and one-step SGD blocks give the same values
        for block_bytes in (classifiers_mod.BLOCK_BYTES, 1):
            monkeypatch.setattr(classifiers_mod, "BLOCK_BYTES", block_bytes)
            for kind, aucs in expected.items():
                spec = ClassifierSpec.create(kind, seed=1)
                fold_sets = build_fold_sets(X, y, folds=4, smote=SmoteConfig(k=3), seed=2)
                assert score_spec(spec, fold_sets) == aucs, (kind, block_bytes)

    @pytest.mark.parametrize("kinds, seeds, n_random, message", [
        ([], [], 4, "kinds is empty"),
        (["gaussian-naive-bayes"], [0], 0, "at least one fit"),
        (["gaussian-naive-bayes"], [0, 1], 4, "one seed per kind"),
        (["random-forrest"], [0], 4,
         r"^classifiers must be kinds from \('logistic-sgd', .*\), not \['random-forrest'\]$"),
    ], ids=["no kinds", "no random fits", "seed count", "unknown kind"])
    def test_tune_rejects_an_empty_or_mismatched_search(self, kinds, seeds, n_random, message):
        X, y = separable_dataset(n=60, seed=4)
        with pytest.raises(ValueError, match=message):
            tune_kinds(kinds, X, y, seeds, plan=TunePlan(n_random=n_random))

    @pytest.mark.parametrize("values", [
        {"grid_span": 0}, {"grid_span": -2}, {"grid_span": 1}, {"grid_span": float("nan")},
        {"grid_span": float("inf")}, {"max_grid_fits": 0}, {"grid_points": 0},
        {"folds": 1}, {"n_random": 0},
    ], ids=lambda values: "{}={}".format(*next(iter(values.items()))))
    def test_plan_rejects_a_value_that_breaks_the_search(self, values):
        (key, _), = values.items()
        with pytest.raises(ValueError, match=f"^{key} must be"):
            TunePlan(**values)

    def test_smote_needs_a_neighbour(self):
        with pytest.raises(ValueError, match="smote_k .* must be >= 1, not 0"):
            SmoteConfig(k=0)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), 0.0, -1.0])
    def test_smote_ratio_must_be_finite_and_positive(self, ratio):
        with pytest.raises(ValueError, match=f"^smote_ratio .* must be a finite number "
                                             f"above 0, not {ratio}$"):
            SmoteConfig(target_ratio=ratio)

    def test_tune_rejects_a_kind_listed_twice(self):
        X, y = separable_dataset(n=60, seed=4)
        kinds = ["gaussian-naive-bayes", "k-nearest-neighbors", "gaussian-naive-bayes"]
        with pytest.raises(ValueError, match="more than once: .'gaussian-naive-bayes'.$"):
            tune_kinds(kinds, X, y, [0, 1, 2], plan=TunePlan(n_random=1))

    @pytest.mark.parametrize("n_random", [1, 6])
    def test_tune_resamples_each_fold_once(self, monkeypatch, usable_cpus, n_random):
        # the spy sees the SMOTE calls of an in-process run only; with two
        # CPUs the folds are oversampled in workers and must come out equal
        calls, used = [], []
        original = Smote.fit_resample
        tune_mod = sys.modules["proxlink.ml.tune"]
        original_stage = tune_mod._score_stage

        def counting(self, X, y):
            calls.append(self.seed)
            return original(self, X, y)

        def recording_stage(searches, stage_specs):
            used.append([fold for s in searches for fold in s.fold_sets])
            return original_stage(searches, stage_specs)

        monkeypatch.setattr(Smote, "fit_resample", counting)
        monkeypatch.setattr(tune_mod, "_score_stage", recording_stage)
        X, y = separable_dataset(n=150, seed=4)
        plan = TunePlan(n_random=n_random, folds=4, smote=SmoteConfig(k=3))
        usable_cpus(1)
        tune_kinds(["gaussian-naive-bayes"], X, y, [0], plan=plan)
        assert len(calls) == plan.folds
        assert len(set(calls)) == plan.folds
        usable_cpus(2)
        tune_kinds(["gaussian-naive-bayes"], X, y, [0], plan=plan)
        one_cpu, two_cpus = ([(a.dtype.str, a.shape, a.tobytes()) for fold in folds for a in fold]
                             for folds in (used[0], used[-1]))
        assert len(used) == 4 and len(one_cpu) == 4 * plan.folds
        assert one_cpu == two_cpus

    def test_tune_finds_dominant_hyperparameter(self):
        # paired points: the 1-nearest neighbour is always the pair mate,
        # so CV AUC decays monotonically in k and k=1 dominates
        rng = np.random.default_rng(0)
        X, y = [], []
        for p in range(60):
            center = rng.uniform(0, 100, size=2)
            for _ in range(2):
                X.append(center + rng.normal(0, 0.01, size=2))
                y.append(p % 2)
        X, y = np.array(X), np.array(y)
        log = []
        spec, result = tune_kinds(["k-nearest-neighbors"], X, y, [3],
                                  plan=TunePlan(n_random=40, smote=None), log=log)[0]
        evaluated_ks = {json.loads(r["hyperparameters"])["k"] for r in log}
        assert 1 in evaluated_ks
        assert spec.params["k"] == 1

    def test_single_random_fit_wins_by_default(self):
        X, y = separable_dataset(n=150, seed=3)
        log = []
        spec, _ = tune_kinds(["gaussian-naive-bayes"], X, y, [0],
                             plan=TunePlan(n_random=1, smote=None, folds=3), log=log)[0]
        random_rows = [r for r in log if r["stage"] == "random"]
        assert len(random_rows) == 1
        assert json.loads(random_rows[0]["hyperparameters"]) == spec.params or \
               any(json.loads(r["hyperparameters"]) == spec.params for r in log)

    def test_cv_tie_prefers_smaller_model(self, monkeypatch):
        import sys
        tune_mod = sys.modules["proxlink.ml.tune"]
        monkeypatch.setattr(tune_mod, "score_spec",
                            lambda spec, fold_sets: (0.7,) * len(fold_sets))
        X, y = separable_dataset(n=60, seed=0)
        log = []
        spec, result = tune_kinds(["k-nearest-neighbors"], X, y, [1],
                                  plan=TunePlan(n_random=10, smote=None), log=log)[0]
        sizes = [model_size(ClassifierSpec.create(
            "k-nearest-neighbors", **json.loads(r["hyperparameters"]))) for r in log]
        assert model_size(spec) == min(sizes)
        assert result.mean_auc == 0.7

    def test_model_size_defaults_are_the_kinds_own(self):
        sizes = {kind: model_size(ClassifierSpec.create(kind)) for kind in CLASSIFIER_KINDS}
        assert sizes == {"logistic-sgd": 30, "gaussian-naive-bayes": 0.0,
                         "k-nearest-neighbors": 5, "linear-svm": 30,
                         "random-forest": 100 * 8, "gradient-boosted-trees": 100 * 3}

    def test_grid_stage_covers_random_winner(self):
        X, y = separable_dataset(n=150, seed=9)
        log = []
        tune_kinds(["k-nearest-neighbors"], X, y, [5],
                   plan=TunePlan(n_random=5, smote=None, folds=3), log=log)
        random_rows = [r for r in log if r["stage"] == "random"]
        grid_rows = [r for r in log if r["stage"] == "grid"]
        best_random = max(random_rows, key=lambda r: r["mean_auc"])
        assert any(r["hyperparameters"] == best_random["hyperparameters"]
                   for r in grid_rows)

    @pytest.mark.usefixtures("one_cpu")
    def test_score_spec_keeps_one_model_alive(self, monkeypatch):
        import sys
        import weakref

        tune_mod = sys.modules["proxlink.ml.tune"]
        alive, seen = weakref.WeakSet(), []

        class Probe(GaussianNaiveBayes):
            def fit(self, X, y):
                seen.append(len(alive))
                alive.add(self)
                return super().fit(X, y)

        monkeypatch.setattr(tune_mod, "make_classifier", lambda spec: Probe())
        X, y = separable_dataset(n=120, seed=5)
        fold_sets = tune_mod.build_fold_sets(X, y, folds=4)
        tune_mod.score_spec(ClassifierSpec.create("gaussian-naive-bayes"), fold_sets)
        assert seen == [0, 0, 0, 0]

    @pytest.mark.usefixtures("one_cpu")
    def test_tune_fits_each_distinct_spec_once_per_fold(self, monkeypatch):
        # 40 draws of k in 1..25 repeat, and the random winner comes back
        # as a grid row
        fits = []
        original = KNearestNeighbors.fit

        def counting(self, X, y):
            fits.append(self.k)
            return original(self, X, y)

        monkeypatch.setattr(KNearestNeighbors, "fit", counting)
        X, y = separable_dataset(n=150, seed=9)
        log = []
        tune_kinds(["k-nearest-neighbors"], X, y, [5],
                   plan=TunePlan(n_random=40, folds=3, smote=None), log=log)
        distinct = {json.loads(r["hyperparameters"])["k"] for r in log}
        assert len(distinct) < 40 < len(log)
        assert sorted(fits) == sorted(list(distinct) * 3)

    @pytest.mark.usefixtures("one_cpu")
    def test_tune_scores_random_winner_once(self, monkeypatch):
        fits = []
        original = GradientBoostedTrees.fit

        def counting(self, X, y):
            fits.append(self.get_params())
            return original(self, X, y)

        monkeypatch.setattr(GradientBoostedTrees, "fit", counting)
        X, y = separable_dataset(n=120, seed=2)
        log = []
        tune_kinds(["gradient-boosted-trees"], X, y, [0],
                   plan=TunePlan(n_random=1, max_grid_fits=1, folds=3, smote=None), log=log)
        assert [r["stage"] for r in log] == ["random", "grid", "grid"]
        assert log[0]["hyperparameters"] == log[1]["hyperparameters"]
        assert log[0]["fold_aucs"] == log[1]["fold_aucs"]
        assert len(fits) == 2 * 3

    @pytest.mark.usefixtures("one_cpu")
    def test_tune_fits_sgd_candidates_in_one_call_per_stage(self, monkeypatch):
        # both linear kinds go through the one lane kernel
        original = classifiers_mod.linear_lanes
        for kind, hinge in (("logistic-sgd", False), ("linear-svm", True)):
            calls = []

            def counting(Z, y, lanes, hinge):
                calls.append((len(lanes), hinge))
                return original(Z, y, lanes, hinge)

            monkeypatch.setattr(classifiers_mod, "linear_lanes", counting)
            X, y = overlapping_blobs()
            log = []
            tune_kinds([kind], X, y, [5],
                       plan=TunePlan(n_random=6, max_grid_fits=4, folds=3,
                                     smote=SmoteConfig(k=3)),
                       log=log)
            random = {r["hyperparameters"] for r in log if r["stage"] == "random"}
            grid = {r["hyperparameters"] for r in log if r["stage"] == "grid"}
            assert calls == [(3 * len(random), hinge), (3 * len(grid - random), hinge)], kind

    @pytest.mark.usefixtures("one_cpu")
    def test_tune_fits_nb_candidates_in_one_call_per_stage(self, monkeypatch):
        calls = []
        original = GaussianNaiveBayes.fit_grid.__func__

        def counting(cls, models, folds):
            calls.append((len(models), len(folds)))
            return original(cls, models, folds)

        monkeypatch.setattr(GaussianNaiveBayes, "fit_grid", classmethod(counting))
        X, y = overlapping_blobs()
        log = []
        tune_kinds(["gaussian-naive-bayes"], X, y, [5],
                   plan=TunePlan(n_random=6, max_grid_fits=4, folds=3, smote=SmoteConfig(k=3)),
                   log=log)
        random = {r["hyperparameters"] for r in log if r["stage"] == "random"}
        grid = {r["hyperparameters"] for r in log if r["stage"] == "grid"}
        assert calls == [(len(random), 3), (len(grid - random), 3)]

    @pytest.mark.parametrize("kind, n_random, max_grid_fits, digest", TUNE_LOG_CASES)
    def test_tune_log_rows_pinned(self, kind, n_random, max_grid_fits, digest):
        assert pinned_tune(kind, n_random, max_grid_fits)[0] == digest


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedTuning:
    @pytest.mark.parametrize("kind, n_random, max_grid_fits, digest", TUNE_LOG_CASES)
    def test_results_do_not_depend_on_cpu_count(self, usable_cpus, kind, n_random,
                                                max_grid_fits, digest):
        runs = []
        for n_cpus in (1, 2, 3):
            usable_cpus(n_cpus)
            runs.append(pinned_tune(kind, n_random, max_grid_fits))
        assert [log_digest for log_digest, _ in runs] == [digest] * 3
        assert all(result.to_json() == runs[0][1].to_json() for _, result in runs)
        assert all(result.wall_time_s > 0 for _, result in runs)

    def test_all_kinds_in_one_search_match_one_kind_searches(self, usable_cpus):
        X, y = overlapping_blobs()
        plan = TunePlan(n_random=1, max_grid_fits=1, folds=3, smote=SmoteConfig(k=3))
        seeds = list(range(len(CLASSIFIER_KINDS)))
        runs = []
        for n_cpus in (1, 2, 3):
            usable_cpus(n_cpus)
            log = []
            results = tune_kinds(CLASSIFIER_KINDS, X, y, plan=plan, seeds=seeds, log=log)
            runs.append((log, [(spec, r.to_json()) for spec, r in results]))
        single_log, single = [], []
        for kind, seed in zip(CLASSIFIER_KINDS, seeds):
            spec, r = tune_kinds([kind], X, y, [seed], plan=plan, log=single_log)[0]
            single.append((spec, r.to_json()))
        assert runs[0] == runs[1] == runs[2] == (single_log, single)

    def test_each_distinct_spec_and_fold_is_one_unit(self, usable_cpus, monkeypatch):
        usable_cpus(2)
        calls = []
        tune_mod = sys.modules["proxlink.ml.tune"]
        real_fork_map = tune_mod.fork_map

        def recording_fork_map(fn, items, label):
            calls.append([label(item) for item in items])
            return real_fork_map(fn, items, label)

        monkeypatch.setattr(tune_mod, "fork_map", recording_fork_map)
        X, y = overlapping_blobs()
        log = []
        kinds = ["logistic-sgd", "k-nearest-neighbors", "linear-svm"]
        tune_kinds(kinds, X, y,
                   plan=TunePlan(n_random=40, max_grid_fits=4, folds=3, smote=SmoteConfig(k=3)),
                   seeds=[5, 5, 5], log=log)
        oversampling, *stages = calls
        # the training part of each (kind, fold) is oversampled once
        assert oversampling == [f"oversampling child for {kind} (fold {f})"
                                for kind in kinds for f in range(3)]
        units = [unit for stage in stages for unit in stage]
        knn = {r["hyperparameters"] for r in log if r["kind"] == "k-nearest-neighbors"}
        assert len(knn) < 40
        assert len(units) == len(set(units)) == 2 + 2 + 3 * len(knn)
        # the linear kinds: one lockstep unit per stage each
        for kind in ("logistic-sgd", "linear-svm"):
            assert sum(u.startswith(f"tune child for {kind} (") for u in units) == 2, kind

    @pytest.mark.parametrize("n_kinds", [1, 2, len(CLASSIFIER_KINDS)])
    def test_every_kind_is_oversampled_in_one_call(self, monkeypatch, n_kinds):
        # one fork per kind made protocol slower: keep it one call per search
        calls = []
        tune_mod = sys.modules["proxlink.ml.tune"]

        def recording_fork_map(fn, items, label):
            calls.append([label(item) for item in items])
            return [fn(item) for item in items]

        monkeypatch.setattr(tune_mod, "fork_map", recording_fork_map)
        X, y = overlapping_blobs()
        kinds = CLASSIFIER_KINDS[:n_kinds]
        tune_kinds(kinds, X, y, list(range(n_kinds)),
                   plan=TunePlan(n_random=1, max_grid_fits=1, folds=3, smote=SmoteConfig(k=3)))
        assert calls[0] == [f"oversampling child for {kind} (fold {f})"
                            for kind in kinds for f in range(3)]
        assert not any(label.startswith("oversampling") for call in calls[1:] for label in call)

    def test_fold_fit_error_in_a_worker_reaches_the_caller(self, usable_cpus, monkeypatch):
        usable_cpus(2)

        def failing_fit(self, X, y):
            raise ValueError(f"cannot fit k={self.k}")

        monkeypatch.setattr(KNearestNeighbors, "fit", failing_fit)
        X, y = overlapping_blobs()
        with pytest.raises(ValueError, match=r"^cannot fit k=\d+$") as info:
            tune_kinds(["k-nearest-neighbors"], X, y, [0],
                       plan=TunePlan(n_random=3, folds=3, smote=None))
        cause = str(info.value.__cause__)
        assert "in the tune child for k-nearest-neighbors ({'k': " in cause
        assert ", fold 0)" in cause and "in failing_fit" in cause


def reference_sgd_fit(model, X, y):
    """The per-sample fit the lockstep kernel replaced in ``SgdLogistic.fit``:
    one dot product and one scalar sigmoid per step."""
    Z = classifiers_mod._Standardizer().fit(X).transform(X)
    n, f = Z.shape
    rng = np.random.default_rng(model.seed)
    w = np.zeros(f)
    b = 0.0
    t = 0
    for _ in range(model.epochs):
        for i in rng.permutation(n):
            t += 1
            eta = model.lr / (1.0 + model.lr * model.l2 * t)
            p = float(sigmoid(Z[i] @ w + b))
            grad = p - y[i]
            w -= eta * (grad * Z[i] + model.l2 * w)
            b -= eta * grad
    return w, b


def reference_svm_fit(model, X, y):
    """The per-sample Pegasos loop the lockstep kernel replaced in
    ``LinearSvm.fit``: one dot product and one scalar margin per step."""
    Z = classifiers_mod._Standardizer().fit(X).transform(X)
    s = 2.0 * y - 1.0  # hinge targets in {-1, +1}
    n, f = Z.shape
    rng = np.random.default_rng(model.seed)
    w = np.zeros(f)
    b = 0.0
    t = 0
    for _ in range(model.epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (model.l2 * t)
            margin = s[i] * (Z[i] @ w + b)
            w *= 1.0 - eta * model.l2
            if margin < 1.0:
                w += eta * s[i] * Z[i]
                b += eta * s[i]
    return w, b


def random_lanes(n_lanes, seed=21, hinge=False, n_features=4):
    """Row sets of 40, 55 and 70 rows and lanes that differ in rows, lr,
    l2, epochs and seed (seeds repeat, so some lanes share a row stream).
    The hinge loss needs l2 > 0 and ignores lr."""
    rng = np.random.default_rng(seed)
    Z = [rng.normal(size=(n, n_features)) for n in (40, 55, 70)]
    y = [(z[:, 0] + rng.normal(size=len(z)) > 0).astype(float) for z in Z]
    l2_values = [1e-5, 1e-3, 1e-1] if hinge else [0.0, 1e-4, 1e-2]
    lanes = [(int(rng.integers(3)), float(np.exp(rng.uniform(np.log(0.01), 0.0))),
              float(rng.choice(l2_values)), int(rng.integers(1, 4)),
              int(rng.integers(3))) for _ in range(n_lanes)]
    return Z, y, lanes


class _LaneKernelTests:
    """``linear_lanes`` checks that hold for either loss. A subclass sets
    ``model``, the linear class whose loss it runs, and ``grid_params``,
    two hyperparameter sets for ``fit_grid``."""

    model: type
    grid_params: tuple

    def kernel(self, Z, y, lanes):
        return classifiers_mod.linear_lanes(Z, y, lanes, self.model.hinge)

    def test_lane_results_do_not_depend_on_other_lanes(self):
        Z, y, lanes = random_lanes(300, hinge=self.model.hinge)
        probes = (0, 1, 2, 49, 299)
        alone = {c: self.kernel(Z, y, [lanes[c]]) for c in probes}
        for n_lanes in (2, 3, 50, 300):
            W, b = self.kernel(Z, y, lanes[:n_lanes])
            for c in probes:
                if c < n_lanes:
                    assert W[c].tobytes() == alone[c][0][0].tobytes(), (n_lanes, c)
                    assert b[c] == alone[c][1][0], (n_lanes, c)

    def test_one_step_blocks_give_the_same_bits(self, monkeypatch):
        Z, y, lanes = random_lanes(50, seed=22, hinge=self.model.hinge)
        W, b = self.kernel(Z, y, lanes)
        monkeypatch.setattr(classifiers_mod, "BLOCK_BYTES", 1)
        W1, b1 = self.kernel(Z, y, lanes)
        assert W.tobytes() == W1.tobytes() and b.tobytes() == b1.tobytes()

    def test_fit_grid_matches_one_fit_per_fold(self):
        X, y = separable_dataset(n=200, seed=8)
        folds = [(X[:120], y[:120]), (X[60:], y[60:]), (X[::2], y[::2])]
        models = [self.model(**params) for params in self.grid_params]
        grid = self.model.fit_grid(models, folds)
        for model, row in zip(models, grid):
            for (X_f, y_f), fitted in zip(folds, row):
                single = self.model(**model.get_params()).fit(X_f, y_f)
                assert fitted.coef_.tobytes() == single.coef_.tobytes()
                assert fitted.intercept_ == single.intercept_
                assert fitted.predict_proba(X).tobytes() == single.predict_proba(X).tobytes()

    @pytest.mark.golden
    @pytest.mark.parametrize("n_features", range(1, 8))
    def test_float_loop_equals_the_lockstep_kernel(self, monkeypatch, n_features):
        hinge = self.model.hinge
        Z, y, lanes = random_lanes(classifiers_mod.FLOAT_LOOP_LANES + 4, seed=24,
                                   hinge=hinge, n_features=n_features)
        streams = Counter((seed, s) for s, _, _, _, seed in lanes)
        assert len({epochs for _, _, _, epochs, _ in lanes}) > 1
        assert 1 in streams.values() and max(streams.values()) > 1
        monkeypatch.setattr(classifiers_mod, "FLOAT_LOOP_LANES", 0)  # lockstep only
        for n_lanes in range(1, len(lanes) + 1):
            W, b = classifiers_mod._float_lanes(Z, y, lanes[:n_lanes], hinge)
            W_lock, b_lock = self.kernel(Z, y, lanes[:n_lanes])
            assert W.tobytes() == W_lock.tobytes(), n_lanes
            assert b.tobytes() == b_lock.tobytes(), n_lanes

    @pytest.mark.parametrize("n_features", [8, 9])
    def test_fit_equals_its_lane_in_a_wide_grid(self, n_features):
        # from 8 features every call runs in lockstep, whatever its lanes
        rng = np.random.default_rng(25)
        X = rng.normal(size=(150, n_features))
        y = (X[:, 0] + rng.normal(size=150) > 0).astype(int)
        models = [self.model(**{**self.grid_params[i % 2], "seed": i})
                  for i in range(classifiers_mod.FLOAT_LOOP_LANES + 2)]
        grid = self.model.fit_grid(models, [(X, y)])
        for model, (fitted,) in zip(models, grid):
            single = self.model(**model.get_params()).fit(X, y)
            assert single.coef_.tobytes() == fitted.coef_.tobytes()
            assert single.intercept_ == fitted.intercept_

    def test_gathered_rows_stay_within_blocks(self, monkeypatch):
        # gathering every step at once would take 24 MB here; five seeds,
        # as in a search, so five row streams
        rng = np.random.default_rng(23)
        Z = [rng.normal(size=(1500, 4))]
        y = [(Z[0][:, 0] > 0).astype(float)]
        lanes = [(0, lr, 1e-4, 2, i % 5) for i, lr in enumerate(np.geomspace(0.01, 1, 250))]
        monkeypatch.setattr(classifiers_mod, "BLOCK_BYTES", 2 ** 18)
        tracemalloc.start()
        try:
            self.kernel(Z, y, lanes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 18 + 2 * Z[0].nbytes


class TestSgdLockstep(_LaneKernelTests):
    model = SgdLogistic
    grid_params = (dict(lr=0.05, epochs=3, l2=1e-3, seed=4),
                   dict(lr=0.5, epochs=6, l2=1e-3, seed=4))

    @pytest.mark.parametrize("params", [
        dict(lr=0.1, epochs=30, l2=1e-4, seed=0),
        dict(lr=0.9, epochs=12, l2=1e-2, seed=3),
        dict(lr=0.01, epochs=5, l2=0.0, seed=7),
    ])
    def test_fit_matches_per_sample_reference(self, params):
        X, y = synth_logit_data(n=300, seed=2)
        model = SgdLogistic(**params).fit(X, y)
        w, b = reference_sgd_fit(SgdLogistic(**params), X, y)
        ref = np.append(w, b)
        gap = np.abs(np.append(model.coef_, model.intercept_) - ref).max()
        assert gap <= 1e-9 * np.abs(ref).max()


class TestHingeLockstep(_LaneKernelTests):
    model = LinearSvm
    grid_params = (dict(l2=1e-3, epochs=3, seed=4), dict(l2=1e-1, epochs=6, seed=4))

    @pytest.mark.golden
    @pytest.mark.parametrize("params", [
        dict(l2=1e-5, epochs=10, seed=0),
        dict(l2=1e-3, epochs=30, seed=3),
        dict(l2=2e-2, epochs=12, seed=5),
        dict(l2=1e-1, epochs=60, seed=7),
    ])
    def test_fit_equals_the_per_sample_loop(self, params):
        # the loop's margin is a BLAS dot (Z[i] @ w) and the kernel's a
        # numpy row sum, which differ in the last bit on about a third of
        # the steps here; the margin only meets `< 1`, so no step flips
        for X, y in (separable_dataset(n=300, seed=3), overlapping_blobs()):
            model = LinearSvm(**params).fit(X, y)
            w, b = reference_svm_fit(LinearSvm(**params), X, y)
            assert model.coef_.tobytes() == w.tobytes()
            assert model.intercept_ == b


def reference_nb_fit(var_smoothing, X, y) -> tuple:
    """``(theta_, var_, log_prior_)`` of one naive-Bayes model fitted on its
    own: the fit body from before ``fit_grid``, kept as the oracle."""
    floor = var_smoothing * X.var(axis=0).max()
    theta = np.stack([X[y == c].mean(axis=0) for c in (0, 1)])
    var = np.stack([X[y == c].var(axis=0) for c in (0, 1)]) + floor
    var = np.maximum(var, 1e-300)
    log_prior = np.log(np.array([(y == c).mean() for c in (0, 1)]))
    return theta, var, log_prior


class TestNaiveBayesGrid:
    SMOOTHING = (0.0, 1e-12, 3e-9, 1e-6, 0.5)

    @staticmethod
    def folds() -> list:
        X, y = overlapping_blobs()
        constant = X.copy()
        constant[:, 1] = 2.5  # zero variance in both classes
        return [(X[:130], y[:130]), (X[60:], y[60:]), (constant[::2], y[::2])]

    @pytest.mark.parametrize("n_folds", [1, 3])
    def test_fit_grid_equals_one_fit_per_model_and_fold(self, n_folds):
        folds = self.folds()[-n_folds:]
        models = [GaussianNaiveBayes(var_smoothing=v) for v in self.SMOOTHING]
        grid = GaussianNaiveBayes.fit_grid(models, folds)
        assert [len(row) for row in grid] == [n_folds] * len(models)
        for model, row in zip(models, grid):
            for (X, y), fitted in zip(folds, row):
                assert (fitted is model) == (n_folds == 1)
                assert fitted.get_params() == model.get_params()
                reference = GaussianNaiveBayes(var_smoothing=model.var_smoothing)
                reference.n_features_in_ = X.shape[1]
                reference.theta_, reference.var_, reference.log_prior_ = reference_nb_fit(
                    model.var_smoothing, X, y)
                for name in ("theta_", "var_", "log_prior_"):
                    assert getattr(fitted, name).tobytes() == getattr(reference, name).tobytes()
                assert (fitted.predict_proba(X).tobytes()
                        == reference.predict_proba(X).tobytes())

    def test_fit_is_the_grid_of_one(self):
        X, y = overlapping_blobs()
        model = GaussianNaiveBayes(var_smoothing=1e-6)
        assert model.fit(X, y) is model
        theta, var, log_prior = reference_nb_fit(1e-6, X, y)
        assert model.theta_.tobytes() == theta.tobytes()
        assert model.var_.tobytes() == var.tobytes()
        assert model.log_prior_.tobytes() == log_prior.tobytes()

    def test_fit_grid_checks_each_fold(self):
        X, y = overlapping_blobs()
        with pytest.raises(ValueError):
            GaussianNaiveBayes.fit_grid([GaussianNaiveBayes()], [(X, y), (X, np.zeros_like(y))])


@pytest.fixture(scope="module")
def four_feature_models():
    X, y = synth_logit_data(n=200, seed=4)
    specs = {"random-forest": dict(n_trees=3, max_depth=3),
             "gradient-boosted-trees": dict(n_trees=3),
             "logistic-sgd": dict(epochs=2), "linear-svm": dict(epochs=2)}
    return X, {kind: make_classifier(ClassifierSpec.create(kind, **specs.get(kind, {})))
               .fit(X, y) for kind in CLASSIFIER_KINDS}


class TestQueryValidation:
    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    @pytest.mark.parametrize("case, match", [
        ("one_column", "features"),
        ("six_columns", "features"),
        ("nan_row", "NaN or infinite"),
        ("inf_row", "NaN or infinite"),
        ("one_row_1d", "2-dimensional"),
    ])
    def test_bad_query_rejected(self, four_feature_models, kind, case, match):
        X, models = four_feature_models
        Q = X[:5].copy()
        if case == "one_column":
            Q = Q[:, :1]
        elif case == "six_columns":
            Q = np.hstack([Q, Q[:, :2]])
        elif case == "nan_row":
            Q[2, 1] = np.nan
        elif case == "inf_row":
            Q[2, 1] = -np.inf
        else:
            Q = Q[0]
        with pytest.raises(ValueError, match=match):
            models[kind].predict_proba(Q)

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_good_query_accepted(self, four_feature_models, kind):
        X, models = four_feature_models
        proba = models[kind].predict_proba(X[:5].tolist())
        assert proba.shape == (5, 2) and np.isfinite(proba).all()
