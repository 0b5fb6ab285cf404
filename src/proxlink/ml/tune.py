"""Two-stage hyperparameter search: random exploration, then a grid of
the winner's neighbours.

``tune_kinds`` is the entry point; it searches one or more classifier
kinds together. Every candidate is scored by mean AUC over stratified CV
folds, with minority oversampling applied to each fold's training part
only; the validation rows are always original rows. The folds are built
and resampled once per search and shared by every candidate, and each
distinct candidate is scored once per search. Ties go to the smaller
model, then the earlier candidate.

Candidates are scored in one place, ``_score_stage``: the fits of a
stage run in forked workers, one per usable CPU, each serving units one
at a time, for every kind searched together. The two linear kinds and
naive Bayes fit a stage's candidates on every fold in one lockstep unit
each; ``score_spec`` scores one spec of any other kind on given fold
sets.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .._fork import fork_map
from .._rng import stable_seed
from .classifiers import (
    CLASSIFIER_KINDS,
    ClassifierSpec,
    GaussianNaiveBayes,
    LinearSvm,
    SgdLogistic,
    make_classifier,
    model_size,
)
from .metrics import auc
from .smote import Smote
from .split import stratified_folds

# kinds whose candidates x folds are fitted in one lockstep unit per stage,
# through the class's fit_grid: the linear kinds run every (candidate, fold)
# as a lane of one linear_lanes call, and naive Bayes computes each fold's
# class statistics once for all its candidates
_LOCKSTEP_KINDS = (SgdLogistic.kind, LinearSvm.kind, GaussianNaiveBayes.kind)

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

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"smote_k (SMOTE's k) must be >= 1, not {self.k}")
        if not 0 < self.target_ratio < math.inf:
            raise ValueError(f"smote_ratio (SMOTE's target_ratio) must be a finite "
                             f"number above 0, not {self.target_ratio}")


@dataclass
class TunePlan:
    """Search budget. The reference protocol used 200 random fits and a
    7,290-point grid; defaults are configurable and far smaller grids
    remain faithful to the two-stage structure."""

    n_random: int = 200
    grid_span: float = 1.5  # neighbour multiplier per axis (see _grid_axis)
    grid_points: int = 3    # values per axis, winner included
    max_grid_fits: int = 512
    folds: int = 5
    smote: Optional[SmoteConfig] = field(default_factory=SmoteConfig)

    def __post_init__(self):
        """Reject a value that would break the search or shrink it silently."""
        if self.n_random < 1:
            raise ValueError(f"n_random must be >= 1: the random stage needs at least "
                             f"one fit, not {self.n_random}")
        for name, least in (("grid_points", 1), ("max_grid_fits", 1), ("folds", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, not {getattr(self, name)}")
        if not 1 < self.grid_span < math.inf:
            raise ValueError(f"grid_span must be a finite number above 1, not {self.grid_span}")


@dataclass
class EvalResult:
    """A kind's winning spec and its CV fold AUCs, plus its test AUC once
    the pipeline has refitted it. ``wall_time_s`` is the seconds spent on
    the kind: its candidates and fold sets, its units wherever they ran
    (units of several kinds overlap in time) and, in a pipeline run, its
    refit and test AUC."""

    spec: ClassifierSpec
    fold_aucs: tuple
    mean_auc: float
    test_auc: Optional[float] = None
    wall_time_s: float = 0.0

    def to_json(self) -> dict:
        # no wall time: it varies run to run, and eval.json is canonical
        return {
            "kind": self.spec.kind,
            "hyperparameters": self.spec.params,
            "seed": self.spec.seed,
            "fold_aucs": list(self.fold_aucs),
            "mean_auc": self.mean_auc,
            "test_auc": self.test_auc,
        }


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


def check_kinds(kinds: Sequence[str]) -> None:
    """Reject a classifier kind that is unknown or listed more than once;
    the ValueError starts with the config key, ``classifiers``."""
    unknown = [kind for kind in kinds if kind not in CLASSIFIER_KINDS]
    if unknown:
        raise ValueError(f"classifiers must be kinds from {CLASSIFIER_KINDS}, "
                         f"not {unknown}")
    twice = sorted({kind for kind in kinds if kinds.count(kind) > 1})
    if twice:
        raise ValueError(f"classifiers must name each of {CLASSIFIER_KINDS} at most "
                         f"once; listed more than once: {twice}")


def _validation_auc(model, X_va, y_va) -> float:
    return auc(model.predict_proba(X_va)[:, 1], y_va)


def score_spec(spec: ClassifierSpec, fold_sets: list[tuple]) -> tuple:
    """Validation AUC per fold of a fresh ``spec`` model fit on each fold."""
    # one model alive at a time: each is dropped before the next is fitted
    return tuple(_validation_auc(make_classifier(spec).fit(X_tr, y_tr), X_va, y_va)
                 for X_tr, y_tr, X_va, y_va in fold_sets)


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
    """Grid values on one axis: the ``max(points, 3)`` smallest of the
    winner and its neighbours ``winner * span**±j``, j = 1 ..
    ``(points - 1) // 2 + 1`` (rounded on integer axes, clipped to
    ``[lo, hi]``), plus the winner if the cut dropped it.

    The values are cut from below, so the axis is not centred on the
    winner: with 3 points and ``winner / span**2 >= lo`` it is
    ``[winner / span**2, winner / span, winner]`` and never goes above it.
    """
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


@dataclass
class _Search:
    """One kind's search: its random candidates, its fold sets, the fold
    AUCs of every spec scored so far and the seconds spent on it."""

    kind: str
    candidates: list
    fold_sets: list
    scores: dict = field(default_factory=dict)
    seconds: float = 0.0

    def results(self, specs: list) -> list[tuple]:
        return [(spec, self.scores[spec], float(np.mean(self.scores[spec]))) for spec in specs]

    def log(self, stage: str, specs: list, log: list) -> None:
        for i, (spec, fold_aucs, mean) in enumerate(self.results(specs)):
            log.append({
                "stage": stage, "index": i, "kind": self.kind,
                "hyperparameters": json.dumps(spec.params, sort_keys=True),
                "fold_aucs": list(fold_aucs), "mean_auc": mean,
            })


def _best(results: list) -> tuple:
    return results[min(range(len(results)),
                       key=lambda i: (-results[i][2], model_size(results[i][0]), i))]


def _grid_specs(kind: str, winner: ClassifierSpec, plan: TunePlan) -> list[ClassifierSpec]:
    axes = []
    for name, sampler, lo, hi in PARAM_SPACES[kind]:
        axes.append([(name, v) for v in _grid_axis(
            name, sampler, lo, hi, winner.params[name], plan.grid_span, plan.grid_points)])
    specs = []
    for combo in itertools.product(*axes):
        specs.append(ClassifierSpec.create(kind, seed=winner.seed, **dict(combo)))
        if len(specs) >= plan.max_grid_fits:
            break
    if winner not in specs:
        specs.insert(0, winner)
    return specs


def _score_stage(searches: list[_Search], stage_specs: list[list]) -> None:
    """Score every unscored spec of one stage of every search, in forked
    workers (``fork_map``).

    A unit is one fit and validation AUC of one (spec, fold), except for
    the ``_LOCKSTEP_KINDS`` (logistic-sgd, linear-svm and
    gaussian-naive-bayes): their unscored specs are fitted on every fold
    in one lockstep unit, through the class's ``fit_grid``, which shares
    each fold's work between the specs. Units reach the workers through
    ``fork`` and only their AUCs and seconds come back, so no fold set or
    model is pickled; a stage with one unit runs in-process.
    """
    units = []
    for s, specs in zip(searches, stage_specs):
        unscored = list(dict.fromkeys(spec for spec in specs if spec not in s.scores))
        if s.kind not in _LOCKSTEP_KINDS:
            units.extend((s, spec, f) for spec in unscored for f in range(len(s.fold_sets)))
        elif unscored:
            units.append((s, tuple(unscored), None))

    def run(unit):
        s, spec, f = unit
        t0 = time.perf_counter()
        if f is None:
            models = [make_classifier(sp) for sp in spec]
            fits = type(models[0]).fit_grid(
                models, [(X_tr, y_tr) for X_tr, y_tr, _, _ in s.fold_sets])
            aucs = [tuple(_validation_auc(model, X_va, y_va)
                          for model, (_, _, X_va, y_va) in zip(row, s.fold_sets))
                    for row in fits]
        else:
            aucs = score_spec(spec, s.fold_sets[f:f + 1])[0]
        return aucs, time.perf_counter() - t0

    def label(unit):
        s, spec, f = unit
        what = f"{len(spec)} specs" if f is None else f"{spec.params}, fold {f}"
        return f"tune child for {s.kind} ({what})"

    # a spec's fold units are adjacent and in fold order
    for (s, spec, f), (aucs, seconds) in zip(units, fork_map(run, units, label)):
        s.seconds += seconds
        if f is None:
            s.scores.update(zip(spec, aucs))
        else:
            s.scores[spec] = s.scores.get(spec, ()) + (aucs,)


def tune_kinds(kinds: Sequence[str], X, y, seeds: Sequence[int],
               plan: Optional[TunePlan] = None, log: Optional[list] = None
               ) -> list[tuple[ClassifierSpec, EvalResult]]:
    """Run both stages for each kind, with one seed per kind, over the
    training data; returns the winning spec and its CV result per kind.
    ``log`` (if given) collects one dict per evaluation, kind by kind,
    random stage first.

    The candidates, fold sets and winners are drawn in this process, and
    each stage scores the units of every kind in one ``fork_map`` call
    (``_score_stage``), so the results do not depend on the number of
    usable CPUs.
    """
    plan = plan or TunePlan()
    if not kinds:
        raise ValueError("kinds is empty: name at least one classifier kind")
    check_kinds(kinds)
    if len(seeds) != len(kinds):
        raise ValueError("seeds must hold one seed per kind")
    searches = []
    for kind, seed in zip(kinds, seeds):
        t0 = time.perf_counter()
        rng = np.random.default_rng(stable_seed(seed, "random-stage", kind))
        candidates = [ClassifierSpec.create(kind, seed=stable_seed(seed, kind, "spec"),
                                            **_sample_params(kind, rng))
                      for _ in range(plan.n_random)]
        fold_sets = build_fold_sets(X, y, plan.folds, plan.smote, stable_seed(seed, "cv"))
        searches.append(_Search(kind, candidates, fold_sets,
                                seconds=time.perf_counter() - t0))

    _score_stage(searches, [s.candidates for s in searches])
    grids = [_grid_specs(s.kind, _best(s.results(s.candidates))[0], plan) for s in searches]
    _score_stage(searches, grids)

    out = []
    for s, grid in zip(searches, grids):
        if log is not None:
            s.log("random", s.candidates, log)
            s.log("grid", grid, log)
        best_spec, best_folds, best_mean = _best(s.results(grid))
        out.append((best_spec, EvalResult(spec=best_spec, fold_aucs=best_folds,
                                          mean_auc=best_mean, wall_time_s=s.seconds)))
    return out

