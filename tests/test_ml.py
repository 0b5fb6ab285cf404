import hashlib
import json
import os
import sys
import tracemalloc
import warnings

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
from proxlink.ml.tree import _MIN_GAIN, _Node, presort
from proxlink.ml.tune import SmoteConfig, build_fold_sets, score_spec
from synth_data import synth_logit_data


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

    def test_temporaries_stay_within_two_blocks(self, monkeypatch):
        # the dense difference tensor would take 168 MB here
        rng = np.random.default_rng(15)
        R = rng.normal(size=(2000, 7))
        Q = rng.normal(size=(1500, 7))
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
        train, test = stratified_split(y, train_fraction=0.9, seed=0)
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


class TestCartTree:
    def test_stump_matches_exhaustive_split_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = CartTree(max_depth=1, criterion="mse").fit(X, y, presort(X))

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
        assert tree.root_split[0] == best[0]
        assert tree.root_split[1] == pytest.approx(best[1], abs=1e-12)

    def test_tie_breaks_to_lower_feature(self):
        # two identical columns: the split must name column 0
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([x, x])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = CartTree(max_depth=1, criterion="mse").fit(X, y, presort(X))
        assert tree.root_split == (0, 1.5)

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
            tree = CartTree(max_depth=1, criterion=criterion).fit(X, y, presort(X))
        feature, threshold = tree.root_split
        assert lo <= threshold < hi
        assert np.array_equal(tree.predict(X), y)


class ReferenceCartTree(CartTree):
    """The per-feature split search the vectorized kernel replaced: one
    full-sample argsort filtered by a membership mask at every node, and
    a Python loop over the candidate features."""

    def fit(self, X, y, leaf_value_fn=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.n_features_ = X.shape[1]
        self._order = np.argsort(X, axis=0, kind="mergesort")
        self.nodes = []
        if leaf_value_fn is None:
            leaf_value_fn = lambda idx: float(y[idx].mean())
        self._build(X, y, np.arange(len(y)), 0, leaf_value_fn)
        del self._order
        return self

    def _build(self, X, y, idx, depth, leaf_value_fn):
        n = len(idx)
        if (depth >= self.max_depth or n < self.min_samples_split
                or n < 2 * self.min_samples_leaf):
            self.nodes.append(_Node(value=leaf_value_fn(idx)))
            return len(self.nodes) - 1
        best = self._best_split(X, y, idx)
        if best is None:
            self.nodes.append(_Node(value=leaf_value_fn(idx)))
            return len(self.nodes) - 1
        feature, threshold = best
        mask = X[idx, feature] <= threshold
        node_id = len(self.nodes)
        self.nodes.append(_Node(feature=feature, threshold=threshold))
        self.nodes[node_id].left = self._build(X, y, idx[mask], depth + 1, leaf_value_fn)
        self.nodes[node_id].right = self._build(X, y, idx[~mask], depth + 1, leaf_value_fn)
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
    criterion, depth, leaf size and feature subset."""
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
                  min_samples_split=int(rng.integers(2, 6)),
                  criterion=criterion)
    if n_features > 1 and rng.uniform() < 0.5:
        params["max_features"] = int(rng.integers(1, n_features))
    leaf_value_fn = None
    if criterion == "mse" and rng.uniform() < 0.5:
        hess = rng.uniform(0.05, 0.25, size=n)
        leaf_value_fn = lambda idx: float(y[idx].sum() / hess[idx].sum())
    return X, y, params, leaf_value_fn


class TestCartTreeKernel:
    @pytest.mark.parametrize("block", range(8))
    def test_matches_reference_split_search(self, block):
        for seed in range(block * 30, block * 30 + 30):
            X, y, params, leaf_value_fn = random_tree_case(seed)
            ref_rng = np.random.default_rng(seed)
            new_rng = np.random.default_rng(seed)
            ref = ReferenceCartTree(**params, rng=ref_rng).fit(X, y, leaf_value_fn)
            tree = CartTree(**params, rng=new_rng)
            values = tree.fit_values(X, y, presort(X), leaf_value_fn)
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
        assert sum(bool(np.isin(X, [np.nextafter(2.0, 0.0)]).any())
                   for X, _, _, _ in cases) >= 50

    def test_fit_returns_self_and_keeps_no_sort_state(self):
        X, y, params, _ = random_tree_case(0)
        tree = CartTree(**params, rng=np.random.default_rng(0))
        assert tree.fit(X, y, presort(X)) is tree
        assert not any(isinstance(v, np.ndarray) for v in vars(tree).values())


class TestTreeEnsembleMemory:
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


class TestClassifiers:
    def test_gaussian_nb_separates_blobs(self):
        X, y = gaussian_blobs()
        model = GaussianNaiveBayes().fit(X, y)
        assert auc(model.predict_proba(X)[:, 1], y) >= 0.99

    def test_gbt_single_stump_reproduces_best_split(self):
        X = np.array([[1.0], [2.0], [4.0], [5.0]])
        y = np.array([0, 0, 1, 1])
        model = GradientBoostedTrees(n_trees=1, lr=1.0, max_depth=1).fit(X, y)
        assert model.trees_[0].root_split == (0, 3.0)
        # stump ordering separates the classes perfectly
        assert auc(model.predict_proba(X)[:, 1], y) == 1.0

    def test_random_forest_degenerates_to_single_cart(self):
        X, y = gaussian_blobs(n_per_class=50)
        forest = RandomForest(n_trees=1, max_depth=3, max_features=None,
                              bootstrap=False, seed=0).fit(X, y)
        single = CartTree(max_depth=3, criterion="gini").fit(X, y.astype(float), presort(X))
        assert np.array_equal(forest.predict_proba(X)[:, 1], single.predict(X))

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
        sorts, orders = [], []
        argsort = np.argsort
        fit_values = CartTree.fit_values

        def counting_argsort(*args, **kwargs):
            sorts.append(1)
            return argsort(*args, **kwargs)

        def recording_fit_values(self, X, y, order, *args):
            orders.append(order)
            return fit_values(self, X, y, order, *args)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        monkeypatch.setattr(CartTree, "fit_values", recording_fit_values)
        X, y = synth_logit_data(n=120, seed=3)
        GradientBoostedTrees(n_trees=6, max_depth=2).fit(X, y)
        assert len(sorts) == 1
        assert len(orders) == 6 and all(o is orders[0] for o in orders)
        assert not orders[0].flags.writeable

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

    @pytest.mark.parametrize("n_random", [1, 6])
    def test_tune_resamples_each_fold_once(self, monkeypatch, n_random):
        calls = []
        original = Smote.fit_resample

        def counting(self, X, y):
            calls.append(self.seed)
            return original(self, X, y)

        monkeypatch.setattr(Smote, "fit_resample", counting)
        X, y = separable_dataset(n=150, seed=4)
        plan = TunePlan(n_random=n_random, folds=4, smote=SmoteConfig(k=3))
        tune_kinds(["gaussian-naive-bayes"], X, y, [0], plan=plan)
        assert len(calls) == plan.folds
        assert len(set(calls)) == plan.folds

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
        calls = []
        original = classifiers_mod.sgd_logistic_lanes

        def counting(Z, y, lanes):
            calls.append(len(lanes))
            return original(Z, y, lanes)

        monkeypatch.setattr(classifiers_mod, "sgd_logistic_lanes", counting)
        X, y = overlapping_blobs()
        log = []
        tune_kinds(["logistic-sgd"], X, y, [5],
                   plan=TunePlan(n_random=6, max_grid_fits=4, folds=3, smote=SmoteConfig(k=3)),
                   log=log)
        random = {r["hyperparameters"] for r in log if r["stage"] == "random"}
        grid = {r["hyperparameters"] for r in log if r["stage"] == "grid"}
        assert calls == [3 * len(random), 3 * len(grid - random)]

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
        for n_cpus in (1, 3):
            usable_cpus(n_cpus)
            log = []
            results = tune_kinds(CLASSIFIER_KINDS, X, y, plan=plan, seeds=seeds, log=log)
            runs.append((log, [(spec, r.to_json()) for spec, r in results]))
        single_log, single = [], []
        for kind, seed in zip(CLASSIFIER_KINDS, seeds):
            spec, r = tune_kinds([kind], X, y, [seed], plan=plan, log=single_log)[0]
            single.append((spec, r.to_json()))
        assert runs[0] == runs[1] == (single_log, single)

    def test_each_distinct_spec_and_fold_is_one_unit(self, usable_cpus, monkeypatch):
        usable_cpus(2)
        units = []
        tune_mod = sys.modules["proxlink.ml.tune"]
        real_fork_map = tune_mod.fork_map

        def recording_fork_map(fn, items, label):
            units.extend(label(item) for item in items)
            return real_fork_map(fn, items, label)

        monkeypatch.setattr(tune_mod, "fork_map", recording_fork_map)
        X, y = overlapping_blobs()
        log = []
        tune_kinds(["logistic-sgd", "k-nearest-neighbors"], X, y,
                   plan=TunePlan(n_random=40, max_grid_fits=4, folds=3, smote=None),
                   seeds=[5, 5], log=log)
        knn = {r["hyperparameters"] for r in log if r["kind"] == "k-nearest-neighbors"}
        assert len(knn) < 40
        assert len(units) == len(set(units)) == 2 + 3 * len(knn)
        # logistic-sgd: one lockstep unit per stage
        assert sum(u.startswith("tune child for logistic-sgd") for u in units) == 2

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


def random_lanes(n_lanes, seed=21):
    """Row sets of 40, 55 and 70 rows and lanes that differ in rows, lr,
    l2, epochs and seed (seeds repeat, so some lanes share a row stream)."""
    rng = np.random.default_rng(seed)
    Z = [rng.normal(size=(n, 4)) for n in (40, 55, 70)]
    y = [(z[:, 0] + rng.normal(size=len(z)) > 0).astype(float) for z in Z]
    lanes = [(int(rng.integers(3)), float(np.exp(rng.uniform(np.log(0.01), 0.0))),
              float(rng.choice([0.0, 1e-4, 1e-2])), int(rng.integers(1, 4)),
              int(rng.integers(3))) for _ in range(n_lanes)]
    return Z, y, lanes


class TestSgdLockstep:
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

    def test_lane_results_do_not_depend_on_other_lanes(self):
        Z, y, lanes = random_lanes(300)
        probes = (0, 1, 2, 49, 299)
        alone = {c: classifiers_mod.sgd_logistic_lanes(Z, y, [lanes[c]]) for c in probes}
        for n_lanes in (2, 3, 50, 300):
            W, b = classifiers_mod.sgd_logistic_lanes(Z, y, lanes[:n_lanes])
            for c in probes:
                if c < n_lanes:
                    assert W[c].tobytes() == alone[c][0][0].tobytes(), (n_lanes, c)
                    assert b[c] == alone[c][1][0], (n_lanes, c)

    def test_one_step_blocks_give_the_same_bits(self, monkeypatch):
        Z, y, lanes = random_lanes(50, seed=22)
        W, b = classifiers_mod.sgd_logistic_lanes(Z, y, lanes)
        monkeypatch.setattr(classifiers_mod, "BLOCK_BYTES", 1)
        W1, b1 = classifiers_mod.sgd_logistic_lanes(Z, y, lanes)
        assert W.tobytes() == W1.tobytes() and b.tobytes() == b1.tobytes()

    def test_fit_grid_matches_one_fit_per_fold(self):
        X, y = separable_dataset(n=200, seed=8)
        folds = [(X[:120], y[:120]), (X[60:], y[60:]), (X[::2], y[::2])]
        models = [SgdLogistic(lr=lr, epochs=epochs, l2=1e-3, seed=4)
                  for lr, epochs in ((0.05, 3), (0.5, 6))]
        grid = SgdLogistic.fit_grid(models, folds)
        for model, row in zip(models, grid):
            for (X_f, y_f), fitted in zip(folds, row):
                single = SgdLogistic(**model.get_params()).fit(X_f, y_f)
                assert fitted.coef_.tobytes() == single.coef_.tobytes()
                assert fitted.intercept_ == single.intercept_
                assert fitted.predict_proba(X).tobytes() == single.predict_proba(X).tobytes()

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
            classifiers_mod.sgd_logistic_lanes(Z, y, lanes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 18 + 2 * Z[0].nbytes


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
