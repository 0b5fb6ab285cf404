"""Two-stage hyperparameter search: random exploration, then a grid
around the winner.

Every candidate is scored by mean AUC over stratified CV folds, with
minority oversampling applied to each fold's training part only; the
validation rows are always original rows. The folds are built and
resampled once per search and shared by every candidate. Ties go to the
smaller model, then the earlier candidate.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .._rng import stable_seed
from .classifiers import ClassifierSpec, make_classifier, model_size
from .metrics import auc
from .smote import Smote
from .split import stratified_folds

# (name, sampler, lo, hi) per kind; samplers: int / int_log / float_log
PARAM_SPACES = {
    "logistic-sgd": (("lr", "float_log", 0.01, 1.0),
                     ("epochs", "int", 10, 60),
                     ("l2", "float_log", 1e-6, 1e-2)),
    "gaussian-naive-bayes": (("var_smoothing", "float_log", 1e-12, 1e-6),),
    "k-nearest-neighbors": (("k", "int", 1, 25),),
    "linear-svm": (("l2", "float_log", 1e-5, 1e-1),
                   ("epochs", "int", 10, 60)),
    "random-forest": (("n_trees", "int_log", 20, 200),
                      ("max_depth", "int", 2, 12),
                      ("min_samples_leaf", "int", 1, 8)),
    "gradient-boosted-trees": (("n_trees", "int_log", 20, 200),
                               ("lr", "float_log", 0.02, 0.5),
                               ("max_depth", "int", 1, 6),
                               ("min_samples_leaf", "int", 1, 8)),
}


@dataclass
class SmoteConfig:
    k: int = 5
    target_ratio: float = 1.0


@dataclass
class TunePlan:
    """Search budget. The reference protocol used 200 random fits and a
    7,290-point grid; defaults are configurable and far smaller grids
    remain faithful to the two-stage structure."""

    n_random: int = 200
    grid_span: float = 1.5  # neighbour multiplier per axis around the winner
    grid_points: int = 3    # values per axis, winner included
    max_grid_fits: int = 512
    folds: int = 5
    smote: Optional[SmoteConfig] = field(default_factory=SmoteConfig)


@dataclass
class EvalResult:
    spec: ClassifierSpec
    fold_aucs: tuple
    mean_auc: float
    test_auc: Optional[float] = None
    wall_time_s: float = 0.0

    def to_json(self, include_wall_time: bool = False) -> dict:
        out = {
            "kind": self.spec.kind,
            "hyperparameters": self.spec.params,
            "seed": self.spec.seed,
            "fold_aucs": list(self.fold_aucs),
            "mean_auc": self.mean_auc,
            "test_auc": self.test_auc,
        }
        # wall time varies run to run; kept out of canonical report bundles
        if include_wall_time:
            out["wall_time_s"] = self.wall_time_s
        return out


def apply_smote_train_only(X_train, y_train, cfg: Optional[SmoteConfig], seed: int):
    """SMOTE on training rows with k clamped to the available minority size."""
    if cfg is None:
        return X_train, y_train
    n_min = int(min((y_train == 0).sum(), (y_train == 1).sum()))
    if n_min < 2:
        return X_train, y_train
    k = min(cfg.k, n_min - 1)
    return Smote(k=k, target_ratio=cfg.target_ratio, seed=seed).fit_resample(X_train, y_train)


def build_fold_sets(X, y, folds: int = 5, smote: Optional[SmoteConfig] = None,
                    seed: int = 0) -> list[tuple]:
    """``(X_train, y_train, X_val, y_val)`` per stratified CV fold, with the
    training part oversampled; validation rows are always original rows.

    A fold set depends only on the data, ``folds``, ``smote`` and ``seed``,
    so one list serves every candidate of a search. The arrays are made
    read-only because they are shared between fits.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    out = []
    for fold_no, (tr, va) in enumerate(stratified_folds(y, folds=folds, seed=seed)):
        X_tr, y_tr = apply_smote_train_only(
            X[tr], y[tr], smote, seed=stable_seed(seed, "smote", fold_no))
        fold = (X_tr, y_tr, X[va], y[va])
        for arr in fold:
            arr.flags.writeable = False
        out.append(fold)
    return out


def score_spec(spec: ClassifierSpec, fold_sets: list[tuple]) -> tuple:
    """Validation AUC per fold of a fresh ``spec`` model fit on each fold."""
    return tuple(
        auc(make_classifier(spec).fit(X_tr, y_tr).predict_proba(X_va)[:, 1], y_va)
        for X_tr, y_tr, X_va, y_va in fold_sets)


def cross_val_auc(spec: ClassifierSpec, X, y, folds: int = 5,
                  smote: Optional[SmoteConfig] = None, seed: int = 0) -> tuple:
    """Per-fold validation AUCs; oversampling never touches validation rows."""
    return score_spec(spec, build_fold_sets(X, y, folds, smote, seed))


def _sample_params(kind: str, rng: np.random.Generator) -> dict:
    params = {}
    for name, sampler, lo, hi in PARAM_SPACES[kind]:
        if sampler == "int":
            params[name] = int(rng.integers(lo, hi + 1))
        elif sampler == "int_log":
            params[name] = int(round(np.exp(rng.uniform(np.log(lo), np.log(hi)))))
        elif sampler == "float_log":
            params[name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        else:
            raise ValueError(f"unknown sampler {sampler!r}")
    return params


def _grid_axis(name: str, sampler: str, lo, hi, winner, span: float, points: int) -> list:
    """Neighbour values around the winner, winner always included."""
    values = {winner}
    steps = (points - 1) // 2 + 1
    for step in range(1, steps + 1):
        factor = span ** step
        for v in (winner / factor, winner * factor):
            if sampler in ("int", "int_log"):
                v = int(round(v))
            values.add(min(hi, max(lo, v)))
    out = sorted(values)[:max(points, 3)]
    if winner not in out:
        out.append(winner)
    return sorted(set(out))


def tune(kind: str, X, y, plan: Optional[TunePlan] = None, seed: int = 0,
         log: Optional[list] = None) -> tuple[ClassifierSpec, EvalResult]:
    """Run both stages over the training data; returns the winning spec and
    its CV result. ``log`` (if given) collects one dict per evaluation."""
    plan = plan or TunePlan()
    if plan.n_random < 1:
        raise ValueError("random stage needs at least one fit")
    rng = np.random.default_rng(stable_seed(seed, "random-stage", kind))

    candidates: list[ClassifierSpec] = []
    for i in range(plan.n_random):
        params = _sample_params(kind, rng)
        candidates.append(ClassifierSpec.create(
            kind, seed=stable_seed(seed, kind, "spec"), **params))

    fold_sets = build_fold_sets(X, y, plan.folds, plan.smote, stable_seed(seed, "cv"))

    def evaluate(stage: str, specs: list[ClassifierSpec]):
        results = []
        for i, spec in enumerate(specs):
            fold_aucs = score_spec(spec, fold_sets)
            mean = float(np.mean(fold_aucs))
            results.append((spec, fold_aucs, mean))
            if log is not None:
                log.append({
                    "stage": stage, "index": i, "kind": kind,
                    "hyperparameters": json.dumps(spec.params, sort_keys=True),
                    "fold_aucs": list(fold_aucs), "mean_auc": mean,
                })
        return results

    def best_of(results):
        return min(
            range(len(results)),
            key=lambda i: (-results[i][2], model_size(results[i][0]), i),
        )

    random_results = evaluate("random", candidates)
    winner_spec = random_results[best_of(random_results)][0]

    axes = []
    for name, sampler, lo, hi in PARAM_SPACES[kind]:
        axes.append([(name, v) for v in _grid_axis(
            name, sampler, lo, hi, winner_spec.params[name],
            plan.grid_span, plan.grid_points)])
    grid_specs = []
    for combo in itertools.product(*axes):
        grid_specs.append(ClassifierSpec.create(
            kind, seed=winner_spec.seed, **dict(combo)))
        if len(grid_specs) >= plan.max_grid_fits:
            break
    if winner_spec not in grid_specs:
        grid_specs.insert(0, winner_spec)

    grid_results = evaluate("grid", grid_specs)
    best_spec, best_folds, best_mean = grid_results[best_of(grid_results)]
    return best_spec, EvalResult(spec=best_spec, fold_aucs=best_folds, mean_auc=best_mean)

