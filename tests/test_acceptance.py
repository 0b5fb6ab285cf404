"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).
"""
import functools
import hashlib
import math
import os
import random
import time
from itertools import permutations

import numpy as np
import pytest

from proxlink.explain import beeswarm_export, exact_shapley, explain_rows, sample_background
from proxlink.geo import EARTH_RADIUS_KM, GeoPoint, haversine_km
from proxlink.logit import LogisticIRLS, effect_pct, hessian_matrix, log_likelihood, \
    score_vector, tenb_elasticity_curve
from proxlink.ml import (
    CLASSIFIER_KINDS,
    ClassifierSpec,
    GradientBoostedTrees,
    Smote,
    stratified_folds,
    stratified_split,
)
from proxlink.ml.tune import SmoteConfig, apply_smote_train_only, build_fold_sets, score_spec
from proxlink.network import build_graph, tenb
from proxlink.pipeline import BUNDLE_FILES, demo_config, make_demo_corpus, run_pipeline

from conftest import author_dict, corpus_from_dicts, make_record_dict, pair_distance
from synth_data import LOGIT_FEATURES, TRUE_LOGIT_BETA, separable_dataset, synth_logit_data


def criterion(number, description, budget_s=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:02d} FAIL: {description}")
                raise
            elapsed = time.perf_counter() - t0
            print(f"\nACCEPTANCE {number:02d} PASS ({elapsed:.1f}s): {description}")
            if budget_s is not None:
                assert elapsed < budget_s, \
                    f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
        return wrapper
    return decorate


def oracle_haversine(lat1, lon1, lat2, lon2, R=EARTH_RADIUS_KM):
    """Independently written implementation (asin form)."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    a = (math.sin((p2 - p1) / 2) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2) ** 2)
    return 2.0 * R * math.asin(min(1.0, math.sqrt(a)))


@criterion(1, "haversine matches an independent implementation (0.1% on 1,000 "
              "random pairs; p=q exact 0; antipodal pi*R within 1e-6 km)", budget_s=1.0)
def test_criterion_1_haversine_oracle():
    rng = random.Random(123)
    for _ in range(1000):
        lat1, lat2 = rng.uniform(-90, 90), rng.uniform(-90, 90)
        lon1, lon2 = rng.uniform(-180, 180), rng.uniform(-180, 180)
        ours = haversine_km(GeoPoint.from_degrees(lat1, lon1),
                            GeoPoint.from_degrees(lat2, lon2))
        ref = oracle_haversine(lat1, lon1, lat2, lon2)
        assert abs(ours - ref) <= 1e-3 * max(ref, 1e-9)
    p = GeoPoint.from_degrees(45.5019, -73.5674)
    assert haversine_km(p, p) == 0.0
    q1 = GeoPoint.from_degrees(30.0, 40.0)
    q2 = GeoPoint.from_degrees(-30.0, -140.0)
    assert abs(haversine_km(q1, q2) - math.pi * EARTH_RADIUS_KM) < 1e-6


@criterion(2, "network proximity equals the brute-force bridging-path oracle "
              "exactly on 100 random graphs (<=30 nodes, <=120 edges)", budget_s=5.0)
def test_criterion_2_tenb_brute_force():
    def oracle(rosters, i, j):
        authors = {a for pub in rosters for a in pub}
        total = 0.0
        for k in sorted(authors - {i, j}):
            g_ik = sum(1 for pub in rosters if i in pub and k in pub)
            g_jk = sum(1 for pub in rosters if j in pub and k in pub)
            n_k = sum(1 for pub in rosters if k in pub)
            if g_ik and g_jk:
                total += g_ik * g_jk / n_k
        return total

    rng = random.Random(777)
    for _ in range(100):
        n_authors = rng.randint(4, 30)
        authors = [f"a{x:02d}" for x in range(n_authors)]
        # rosters of <=3 authors keep the edge count <= 3 * n_pubs <= 120
        rosters = [rng.sample(authors, rng.randint(1, 3))
                   for _ in range(rng.randint(3, 40))]
        records = [make_record_dict(f"P{i:03d}", 2005,
                                    authors=[author_dict(a) for a in roster])
                   for i, roster in enumerate(rosters)]
        corpus = corpus_from_dicts(records)
        graph = build_graph(corpus, 2005, 2005)
        assert len(graph.g) <= 120
        present = sorted(graph.n)
        for ai in range(len(present)):
            for aj in range(ai + 1, len(present)):
                i, j = present[ai], present[aj]
                assert tenb(graph, i, j) == oracle(rosters, i, j)


@criterion(3, "cognitive distance boundary values: identical vectors -> 0, "
              "anticorrelated vectors -> 2, both exact")
def test_criterion_3_cognitive_boundaries():
    v = np.array([0.75, 0.25])
    assert pair_distance(v, v) == 0.0
    assert pair_distance(np.array([0.75, 0.25]), np.array([0.25, 0.75])) == 2.0
    # exactness also on a longer dyadic-rational vector
    a = np.array([0.5, 0.25, 0.125, 0.125])
    assert pair_distance(a, a) == 0.0


@criterion(4, "binary-regressor effect sizes: 1-exp(-1.49)=0.7746 and "
              "1-exp(-0.34)=0.2882 within 0.005")
def test_criterion_4_effect_size_arithmetic():
    assert abs(effect_pct(-1.49) - 0.7746) < 0.005
    assert abs(effect_pct(-0.34) - 0.2882) < 0.005


@criterion(5, "IRLS recovers known coefficients on 10,000 generated pairs "
              "(all within 3 SEs, all signs significant at 1%)", budget_s=30.0)
def test_criterion_5_logit_recovery():
    X, y = synth_logit_data(n=10_000, seed=0)
    fit = LogisticIRLS().fit(X, y, feature_names=LOGIT_FEATURES).result_
    assert fit.converged
    deviations = np.abs(fit.beta - TRUE_LOGIT_BETA) / fit.se
    assert deviations.max() < 3.0
    assert np.all(np.sign(fit.beta) == np.sign(TRUE_LOGIT_BETA))
    assert fit.p.max() < 0.01
    assert fit.coefficient("ln_geo") < 0
    assert fit.coefficient("ln_tenb") > 0


@criterion(6, "analytic score and Hessian match central finite differences "
              "within 1e-4 relative on 20 random instances")
def test_criterion_6_gradient_checks():
    rng = np.random.default_rng(99)
    h = 1e-5
    for _ in range(20):
        n, k = 40, 4
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        y = (rng.uniform(size=n) < 0.5).astype(float)
        beta = rng.normal(scale=0.5, size=k)

        analytic_score = score_vector(X, y, beta)
        fd_score = np.empty(k)
        for i in range(k):
            e = np.zeros(k)
            e[i] = h
            fd_score[i] = (log_likelihood(X, y, beta + e)
                           - log_likelihood(X, y, beta - e)) / (2 * h)
        denom = max(np.abs(analytic_score).max(), 1e-12)
        assert np.abs(analytic_score - fd_score).max() / denom < 1e-4

        analytic_hess = hessian_matrix(X, beta)
        fd_hess = np.empty((k, k))
        for i in range(k):
            e = np.zeros(k)
            e[i] = h
            fd_hess[:, i] = (score_vector(X, y, beta + e)
                             - score_vector(X, y, beta - e)) / (2 * h)
        denom = max(np.abs(analytic_hess).max(), 1e-12)
        assert np.abs(analytic_hess - fd_hess).max() / denom < 1e-4


@criterion(7, "elasticity curve with coefficients (4.24, 0.43): equals 4.24 at "
              "zero distance, strictly increasing in distance")
def test_criterion_7_elasticity_curve():
    grid = [0.0] + list(np.geomspace(1.0, 10_000.0, 50))
    curve = tenb_elasticity_curve(4.24, 0.43, grid)
    assert curve[0] == (0.0, 4.24)
    values = [e for _, e in curve]
    assert all(b > a for a, b in zip(values, values[1:]))


@criterion(8, "all six classifier kinds reach 5-fold CV AUC >= 0.95 on the "
              "separable 7-feature dataset; gradient boosting >= 0.99", budget_s=120.0)
def test_criterion_8_ml_pattern():
    X, y = separable_dataset(n=2000, seed=0)
    for kind in CLASSIFIER_KINDS:
        spec = ClassifierSpec.create(kind, seed=0)
        folds = score_spec(spec, build_fold_sets(X, y, folds=5, smote=SmoteConfig(), seed=0))
        mean_auc = float(np.mean(folds))
        floor = 0.99 if kind == "gradient-boosted-trees" else 0.95
        assert mean_auc >= floor, f"{kind}: {mean_auc:.4f} < {floor}"


@criterion(9, "oversampling is leak-free: validation and test rows are always "
              "original rows; synthetic rows lie on minority segments")
def test_criterion_9_leak_free_smote():
    X, y = separable_dataset(n=400, seed=1)
    original = {tuple(row) for row in X}

    train_idx, test_idx = stratified_split(y, train_fraction=0.9, seed=0)
    for row in X[test_idx]:
        assert tuple(row) in original
    for fold_no, (tr, va) in enumerate(stratified_folds(y[train_idx], folds=5, seed=0)):
        X_tr, y_tr = apply_smote_train_only(X[train_idx][tr], y[train_idx][tr],
                                            SmoteConfig(k=3), seed=fold_no)
        for row in X[train_idx][va]:
            assert tuple(row) in original
        assert len(X_tr) >= len(tr)

    # geometric check: synthetic rows are convex combinations of minority rows
    rng = np.random.default_rng(2)
    Xs = rng.normal(size=(80, 5))
    ys = np.array([1] * 16 + [0] * 64)
    smote = Smote(k=5, target_ratio=1.0, seed=4)
    X_aug, y_aug = smote.fit_resample(Xs, ys)
    minority = Xs[ys == 1]
    for s in X_aug[len(Xs):]:
        found = False
        for a_i in range(len(minority)):
            for b_i in range(len(minority)):
                if a_i == b_i:
                    continue
                a, b = minority[a_i], minority[b_i]
                d = b - a
                u = (s - a) @ d / (d @ d)
                if -1e-9 <= u <= 1 + 1e-9 and np.allclose(a + u * d, s, atol=1e-9):
                    found = True
                    break
            if found:
                break
        assert found, "synthetic row off every minority segment"


@criterion(10, "Shapley axioms hold (efficiency 1e-6, dummy exact, permutation-"
               "oracle equality for F<=5) and the dominant driver ranks first")
def test_criterion_10_shapley_axioms():
    rng = np.random.default_rng(11)

    # efficiency + dummy on a fitted model with an appended ignored feature
    X, y = separable_dataset(n=300, seed=3)
    model = GradientBoostedTrees(n_trees=20, max_depth=3).fit(X, y)
    predict = lambda rows: model.predict_proba(rows[:, :7])[:, 1]
    X_ext = np.column_stack([X, rng.normal(size=len(X))])
    background = sample_background(X_ext, size=32, seed=0)
    for i in range(8):
        exp = exact_shapley(predict, X_ext[i], background)
        assert exp.efficiency_gap < 1e-6
        assert exp.phi[7] == 0.0  # dummy feature

    # coalition form equals the permutation form for F = 5
    def permutation_oracle(predict_fn, x, bg):
        F = len(x)
        cache = {}

        def value(coalition):
            key = frozenset(coalition)
            if key not in cache:
                block = bg.copy()
                for f in key:
                    block[:, f] = x[f]
                cache[key] = float(np.mean(predict_fn(block)))
            return cache[key]

        phi = np.zeros(F)
        perms = list(permutations(range(F)))
        for perm in perms:
            coalition = []
            for f in perm:
                before = value(coalition)
                coalition.append(f)
                phi[f] += value(coalition) - before
        return phi / len(perms)

    coef = rng.normal(size=5)
    nonlinear = lambda rows: np.tanh(rows @ coef) + 0.2 * rows[:, 0] * rows[:, 3]
    bg5 = rng.normal(size=(16, 5))
    for _ in range(3):
        x = rng.normal(size=5)
        exp = exact_shapley(nonlinear, x, bg5)
        assert np.allclose(exp.phi, permutation_oracle(nonlinear, x, bg5), atol=1e-9)

    # a process dominated by cognitive distance ranks it first
    n = 400
    Xc = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 2.5, n),
                          rng.uniform(0, 25, n), rng.uniform(0, 2, n),
                          rng.integers(0, 2, n), rng.integers(0, 2, n)])
    yc = (Xc[:, 3] + 0.05 * rng.normal(size=n) > 1.0).astype(int)
    names = ["ln_geo", "ln_tenb", "interaction", "cog_distance",
             "different_country", "not_contiguous"]
    model_c = GradientBoostedTrees(n_trees=30, max_depth=3).fit(Xc, yc)
    rows = Xc[:25]
    exps = explain_rows(model_c, rows, sample_background(Xc, size=32, seed=0))
    export = beeswarm_export(exps, rows, names)
    assert export.feature_order[0] == "cog_distance"


@criterion(11, "running the full pipeline twice on the bundled synthetic corpus "
               "yields byte-identical report bundles", budget_s=60.0)
def test_criterion_11_end_to_end_determinism(tmp_path):
    corpus_path = str(tmp_path / "synth.jsonl")
    make_demo_corpus(corpus_path)
    out = str(tmp_path / "out")
    config = demo_config(corpus_path, out=out)

    def digest_bundle():
        digests = {}
        for name in BUNDLE_FILES:
            path = os.path.join(out, name)
            assert os.path.exists(path), f"missing bundle file {name}"
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        return digests

    run_pipeline(config)
    first = digest_bundle()
    run_pipeline(config)
    second = digest_bundle()
    assert first == second
