"""proxlink.pipeline
~~~~~~~~~~~~~~~~~~~~

End-to-end orchestration: ingest -> geocode -> windows -> topics ->
features -> describe/correlate -> logit fit -> ML tuning/testing ->
Shapley explanations -> report bundle.

Every stage is deterministic given the run config, so rerunning a
manifest reproduces the bundle byte for byte. Stage failures halt the run
with the stage name and leave an INCOMPLETE marker in the output
directory.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import MISSING, asdict, dataclass, field
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from ._fork import fork_map
from ._rng import stable_seed
from ._tables import cell, write_json, write_table
from .corpus import Corpus, CorpusConfig, dump_corpus, load_corpus, scenario_filter
from .explain import beeswarm_export, explain_rows, sample_background
from .features import Dataset, GeoContext, assemble, correlation_screen, describe
from .geo import (
    GazetteerGeocoder,
    GeocodeCache,
    UnresolvedAddressError,
    resolve_affiliation,
)
from .logit import LogisticIRLS, elasticity_from_fit, format_table
from .ml import (
    SmoteConfig,
    TunePlan,
    apply_smote_train_only,
    make_classifier,
    auc,
    stratified_split,
    tune_kinds,
)
from .network import SamplingPolicy, build_graph, make_windows
from .report import render_beeswarm_svg, render_line_svg
from .synthetic import FIRST_YEAR, LAST_YEAR, write_synthetic_corpus
from .topics import GibbsLda, select_k, tokenize_corpus

STAGES = ("ingest", "geocode", "windows", "topics", "features", "describe",
          "fit", "ml", "explain", "report")

BUNDLE_FILES = ("manifest.json", "dataset.csv", "describe.csv", "corr.csv",
                "logit_table.txt", "elasticity.csv", "ml_tuning.csv",
                "eval.json", "shap.csv", "beeswarm.svg", "elasticity.svg")


def _is_a(value, kind) -> bool:
    """Whether a JSON value is of type ``kind``; a bool is no int, and an
    int will do for a float."""
    if isinstance(value, bool) and kind is not bool:
        return False
    return isinstance(value, (int, float) if kind is float else kind)


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")


@dataclass
class RunConfig:
    """Full run recipe; serialized into the manifest for reproducibility."""

    corpus: str
    scenario: int = 1
    seed: int = 0
    out: str = "out"
    # corpus validation
    year_min: int = 2000
    year_max: int = 2019
    key_policy: str = "auto"
    ai_phrase_filter: bool = False
    # windows and sampling
    window_stride: int = 1
    sampling_kind: str = "auto"
    sampling_ratio: float = 5.0
    # topic model
    lda_k_grid: list[int] = field(default_factory=lambda: [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15])
    lda_iterations: int = 1000
    lda_alpha: Optional[float] = None
    lda_beta: float = 0.01
    coherence_top_m: int = 10
    coherence_window: int = 10
    # ML protocol
    classifiers: list[str] = field(default_factory=lambda: [
        "logistic-sgd", "gaussian-naive-bayes", "k-nearest-neighbors",
        "linear-svm", "random-forest", "gradient-boosted-trees"])
    n_random: int = 200
    grid_points: int = 3
    grid_span: float = 1.5
    max_grid_fits: int = 512
    folds: int = 5
    smote_k: int = 5
    smote_ratio: float = 1.0
    # explanations
    explain_rows: int = 40
    explain_background: int = 256
    # features
    keep_continent: bool = False
    gazetteer: Optional[str] = None
    geocode_cache: Optional[str] = None

    @classmethod
    def from_json(cls, path, overrides: Optional[dict] = None) -> "RunConfig":
        """Load a config, its keys replaced by ``overrides`` if given,
        rejecting unknown keys, any value not of its field's type (null
        only where the field is Optional) and a missing required key."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"config {path} must hold a JSON object, "
                             f"not {type(raw).__name__}")
        raw = {**raw, **(overrides or {})}
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        hints = get_type_hints(cls)
        for key, value in raw.items():
            kind = hints[key]
            if get_origin(kind) is Union:  # Optional[kind]
                if value is None:
                    continue
                kind = get_args(kind)[0]
            if get_origin(kind) is list:
                item = get_args(kind)[0]
                ok = _is_a(value, list) and all(_is_a(v, item) for v in value)
                expected = f"a list of {item.__name__}"
            else:
                ok, expected = _is_a(value, kind), kind.__name__
            if not ok:
                raise ValueError(f"config key {key!r} must be {expected}, "
                                 f"not {json.dumps(value)}")
        for f in cls.__dataclass_fields__.values():
            if f.default is MISSING and f.default_factory is MISSING and f.name not in raw:
                raise ValueError(f"config {path} lacks the required key {f.name!r}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)


def demo_config(corpus_path: str, out: str, scenario: int = 1, seed: int = 7) -> RunConfig:
    """Reduced-budget configuration sized for the bundled synthetic corpus."""
    return RunConfig(
        corpus=corpus_path, scenario=scenario, seed=seed, out=out,
        year_min=FIRST_YEAR, year_max=LAST_YEAR,
        sampling_kind="ratio", sampling_ratio=4.0,
        lda_k_grid=[2, 3, 4], lda_iterations=120, lda_alpha=0.1,
        classifiers=["gaussian-naive-bayes", "gradient-boosted-trees"],
        n_random=4, grid_points=3, max_grid_fits=6, folds=5,
        explain_rows=24, explain_background=64,
    )


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunState:
    """Artifacts accumulated while the stages execute."""

    config: RunConfig
    corpus: Optional[Corpus] = None
    geo: Optional[GeoContext] = None
    windows: Optional[list] = None
    graphs: Optional[dict] = None
    lda: Optional[GibbsLda] = None
    topic_vectors: Optional[dict] = None
    dataset: Optional[Dataset] = None
    elasticity: Optional[list] = None
    ml_results: Optional[dict] = None
    best_model: Optional[object] = None
    best_kind: Optional[str] = None
    stage_summary: dict = field(default_factory=dict)
    _split: Optional[tuple] = None


def _stage_ingest(state: RunState) -> None:
    cfg = state.config
    corpus_cfg = CorpusConfig(year_min=cfg.year_min, year_max=cfg.year_max,
                              key_policy=cfg.key_policy,
                              ai_phrase_filter=cfg.ai_phrase_filter)
    full = load_corpus(cfg.corpus, corpus_cfg)
    state.corpus = scenario_filter(full, cfg.scenario)
    state.stage_summary["ingest"] = {
        "records_loaded": len(full),
        "records_in_scenario": len(state.corpus),
        "exclusions": dict(sorted(full.exclusions.items())),
    }


def _stage_geocode(state: RunState) -> None:
    cfg = state.config
    client = GazetteerGeocoder(cfg.gazetteer) if cfg.gazetteer else GazetteerGeocoder()
    cache = GeocodeCache(cfg.geocode_cache) if cfg.geocode_cache else None
    state.geo = GeoContext(client=client, cache=cache)

    # warm the cache and report coverage over canonical affiliations
    resolved = unresolved = 0
    for rec in state.corpus.records:
        for mention in rec.authors:
            try:
                resolve_affiliation(mention.canonical_affiliation, client, cache)
                resolved += 1
            except (UnresolvedAddressError, ValueError):
                unresolved += 1
    state.stage_summary["geocode"] = {
        "client": type(client).__name__,
        "cache": cfg.geocode_cache,
        "resolved": resolved,
        "unresolved": unresolved,
    }


def _stage_windows(state: RunState) -> None:
    cfg = state.config
    state.windows = make_windows(cfg.year_min, cfg.year_max, stride=cfg.window_stride)
    state.graphs = {
        w.window_id: build_graph(state.corpus, *w.feature_span)
        for w in state.windows
    }
    state.stage_summary["windows"] = {
        "count": len(state.windows),
        "ids": [w.window_id for w in state.windows],
    }


def _stage_topics(state: RunState) -> None:
    cfg = state.config
    docs = tokenize_corpus(state.corpus.records)
    model, scores = select_k(docs, cfg.lda_k_grid, seed=stable_seed(cfg.seed, "lda-final"),
                             alpha=cfg.lda_alpha, beta=cfg.lda_beta,
                             iterations=cfg.lda_iterations, top_m=cfg.coherence_top_m,
                             window=cfg.coherence_window)
    best_k, mean_coh = model.n_topics, scores[model.n_topics]
    state.lda = model
    state.topic_vectors = dict(model.doc_topic_)

    out = cfg.out
    write_json(os.path.join(out, "lda_model.json"), model.to_json())
    write_table(os.path.join(out, "topic_vectors.csv"),
                ["pub_id"] + [f"w{i + 1}" for i in range(best_k)],
                ([pub_id] + state.topic_vectors[pub_id].tolist()
                 for pub_id in sorted(state.topic_vectors)))

    state.stage_summary["topics"] = {
        "k": best_k,
        "k_scores": {str(k): v for k, v in scores.items()},
        "coherence": mean_coh,
        "vocab_size": len(model.vocab_),
        "empty_docs": len(model.skipped_),
    }


def _stage_features(state: RunState) -> None:
    cfg = state.config
    sampling = SamplingPolicy(kind=cfg.sampling_kind, ratio=cfg.sampling_ratio)
    state.dataset = assemble(state.corpus, cfg.scenario, state.windows, state.geo,
                             state.graphs, state.topic_vectors,
                             sampling=sampling, seed=cfg.seed,
                             keep_continent=cfg.keep_continent)
    if not len(state.dataset):
        raise ValueError("feature assembly produced zero rows")
    out = state.config.out
    state.dataset.write_csv(os.path.join(out, "dataset.csv"),
                            manifest_path=os.path.join(out, "dataset.manifest.json"))
    state.stage_summary["features"] = {
        "rows": len(state.dataset),
        "exclusions": state.dataset.manifest["exclusions"],
    }


def _stage_describe(state: RunState) -> None:
    out = state.config.out
    summary = describe(state.dataset)
    summary.to_csv(os.path.join(out, "describe.csv"))
    screen = correlation_screen(state.dataset)
    screen.to_csv(os.path.join(out, "corr.csv"))
    state.stage_summary["describe"] = {
        "minority_share": summary.minority_share,
        "correlation_excluded": screen.excluded,
        "zero_variance": screen.zero_variance,
    }


def _stage_fit(state: RunState) -> None:
    cfg = state.config
    names = state.dataset.feature_names
    X, y = state.dataset.to_matrix(names)
    model = LogisticIRLS()
    model.fit(X, y, feature_names=names)
    fit = model.result_

    out = cfg.out
    with open(os.path.join(out, "logit_table.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_table([fit], labels=[f"Scenario {cfg.scenario}"]) + "\n")

    max_d = float(state.dataset.column("geo_distance_km").max())
    grid = [0.0] + list(np.geomspace(1.0, max(max_d, 10.0), 60))
    state.elasticity = curve = elasticity_from_fit(fit, grid)
    write_table(os.path.join(out, "elasticity.csv"), ["distance_km", "elasticity"], curve)
    state.stage_summary["fit"] = {
        "converged": fit.converged,
        "pseudo_r2": fit.pseudo_r2,
        "bic": fit.bic,
        "n": fit.n,
    }


def _tune_plan(cfg: RunConfig) -> TunePlan:
    """The run's search plan; a bad value raises ValueError naming its key."""
    return TunePlan(n_random=cfg.n_random, grid_span=cfg.grid_span,
                    grid_points=cfg.grid_points, max_grid_fits=cfg.max_grid_fits,
                    folds=cfg.folds,
                    smote=SmoteConfig(k=cfg.smote_k, target_ratio=cfg.smote_ratio))


def _stage_ml(state: RunState) -> None:
    cfg = state.config
    X, y = state.dataset.to_matrix()
    plan = _tune_plan(cfg)
    train_idx, test_idx = stratified_split(y, seed=stable_seed(cfg.seed, "split"))
    log_rows: list = []
    tuned = tune_kinds(cfg.classifiers, X[train_idx], y[train_idx], plan=plan,
                       seeds=[stable_seed(cfg.seed, "tune", kind) for kind in cfg.classifiers],
                       log=log_rows)
    # the best kind is the first with the highest CV mean AUC, so it is
    # known before any refit: the other kinds refit in forked workers,
    # which send back only their test AUC and seconds, and the best kind
    # refits here, where its model is kept
    best = max(range(len(tuned)), key=lambda j: (tuned[j][1].mean_auc, -j))
    best_cv = tuned[best][1].mean_auc

    def refit(j):
        kind, spec = cfg.classifiers[j], tuned[j][0]
        t0 = time.perf_counter()
        X_tr, y_tr = apply_smote_train_only(
            X[train_idx], y[train_idx], plan.smote,
            seed=stable_seed(cfg.seed, "smote-final", kind))
        model = make_classifier(spec).fit(X_tr, y_tr)
        test_auc = float(auc(model.predict_proba(X[test_idx])[:, 1], y[test_idx]))
        return model, test_auc, time.perf_counter() - t0

    others = [j for j in range(len(tuned)) if j != best]
    refits = dict(zip(others, fork_map(lambda j: refit(j)[1:], others,
                                       label=lambda j: f"refit child for {cfg.classifiers[j]}")))
    state.best_model, test_auc, seconds = refit(best)
    refits[best] = test_auc, seconds
    results = {}
    for j, (kind, (_, cv_result)) in enumerate(zip(cfg.classifiers, tuned)):
        cv_result.test_auc, seconds = refits[j]
        cv_result.wall_time_s += seconds
        results[kind] = cv_result
    state.best_kind = best_kind = cfg.classifiers[best]
    state.ml_results = results
    state._split = (train_idx, test_idx)

    out = cfg.out
    write_table(os.path.join(out, "ml_tuning.csv"),
                ["stage", "index", "kind", "hyperparameters", "fold_aucs", "mean_auc"],
                ([r["stage"], r["index"], r["kind"], r["hyperparameters"],
                  ";".join(map(cell, r["fold_aucs"])), r["mean_auc"]] for r in log_rows))
    write_json(os.path.join(out, "eval.json"), {
        "best_kind": best_kind,
        "results": {k: r.to_json() for k, r in results.items()},
    })
    state.stage_summary["ml"] = {
        "best_kind": best_kind,
        "cv_auc": best_cv,
        "test_auc": results[best_kind].test_auc,
    }


def _stage_explain(state: RunState) -> None:
    cfg = state.config
    X, _ = state.dataset.to_matrix()
    train_idx, test_idx = state._split
    background = sample_background(X[train_idx], size=cfg.explain_background,
                                   seed=stable_seed(cfg.seed, "background"))
    rng = np.random.default_rng(stable_seed(cfg.seed, "explain-rows"))
    n_explained = min(cfg.explain_rows, len(test_idx))
    chosen = np.sort(rng.choice(test_idx, size=n_explained, replace=False))

    explanations = explain_rows(
        state.best_model, X[chosen], background, row_ids=[str(int(i)) for i in chosen])
    export = beeswarm_export(explanations, X[chosen], state.dataset.feature_names)
    out = cfg.out
    export.to_csv(os.path.join(out, "shap.csv"))
    with open(os.path.join(out, "beeswarm.svg"), "w", encoding="utf-8") as fh:
        fh.write(render_beeswarm_svg(
            export, title=f"Shapley beeswarm ({state.best_kind})"))
    state.stage_summary["explain"] = {
        "rows": n_explained,
        "feature_order": export.feature_order,
        "max_efficiency_gap": max(e.efficiency_gap for e in explanations),
    }


def _stage_report(state: RunState) -> None:
    cfg = state.config
    out = cfg.out
    with open(os.path.join(out, "elasticity.svg"), "w", encoding="utf-8") as fh:
        fh.write(render_line_svg(state.elasticity))

    outputs = {name: _sha256(os.path.join(out, name))
               for name in BUNDLE_FILES if name != "manifest.json"}
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "input_checksums": {"corpus": _sha256(cfg.corpus)},
        "stages": state.stage_summary,
        "outputs": outputs,
    }
    write_json(os.path.join(out, "manifest.json"), manifest)


_STAGE_FNS = {
    "ingest": _stage_ingest,
    "geocode": _stage_geocode,
    "windows": _stage_windows,
    "topics": _stage_topics,
    "features": _stage_features,
    "describe": _stage_describe,
    "fit": _stage_fit,
    "ml": _stage_ml,
    "explain": _stage_explain,
    "report": _stage_report,
}


def run_pipeline(config: RunConfig, through_stage: str = "report") -> RunState:
    """Execute stages in order up to ``through_stage`` (inclusive).

    A bad tuning-plan value raises ValueError before the first stage. On a
    stage's failure the output directory gets an INCOMPLETE marker naming
    the stage, and a StageError propagates.
    """
    if through_stage not in STAGES:
        raise ValueError(f"unknown stage {through_stage!r}; choose from {STAGES}")
    _tune_plan(config)
    os.makedirs(config.out, exist_ok=True)
    marker = os.path.join(config.out, "INCOMPLETE")
    state = RunState(config=config)
    for stage in STAGES:
        try:
            _STAGE_FNS[stage](state)
        except Exception as exc:
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write(f"failed at stage: {stage}\nerror: {exc}\n")
            raise StageError(stage, exc) from exc
        if stage == through_stage:
            break
    if os.path.exists(marker):
        os.remove(marker)
    return state


def write_canonical_dump(config: RunConfig, path=None) -> str:
    """Re-emit the validated scenario corpus in canonical order."""
    state = RunState(config=config)
    _stage_ingest(state)
    path = path or os.path.join(config.out, "corpus.canonical.jsonl")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    dump_corpus(state.corpus, path)
    return path


def make_demo_corpus(path, seed: int = 7) -> int:
    return write_synthetic_corpus(path, seed=seed)
