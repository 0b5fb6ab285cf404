"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` wraps public callables in the module namespaces where
their callers look them up, plus a few class methods. The wrappers pass
every call through unchanged; they only time it and note its parent.

Two kinds of wrapper:

* span: one record per call (name, start, end, parent, attributes);
* counted: for leaves called once per token or pair, only a call count
  and a time total, so tracing does not allocate per call.

Both charge their duration to the enclosing span, so a span's self time
is its duration minus the time its children cover. ``layer_metrics``
turns one traced run into the per-layer metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import hashlib
import importlib
import os
import sys
import time
import warnings
from functools import wraps

import numpy as np

KINDS = {
    "SgdLogistic": "logistic-sgd",
    "GaussianNaiveBayes": "gaussian-naive-bayes",
    "KNearestNeighbors": "k-nearest-neighbors",
    "LinearSvm": "linear-svm",
    "RandomForest": "random-forest",
    "GradientBoostedTrees": "gradient-boosted-trees",
}
K_GRID_METRICS = (2, 3, 4, 5, 10, 15)
LAYERS = ("corpus", "geo", "network", "topics", "features", "logit", "ml",
          "explain", "report")
EMPTY_LEAF_FILES = ("tree.py", "classifiers.py")


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_s", "attrs", "error")

    def __init__(self, span_id, name, parent):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.attrs = None
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                "attrs": self.attrs, "error": self.error}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, dict] = {}
        self.distinct_stems: set = set()
        self.positives = 0
        self._stack: list[Span] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, fn, name, annotate=None):
        stack = self._stack
        spans = self.spans

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = Span(len(spans), name, stack[-1].id if stack else None)
            stack.append(rec)
            rec.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec.error = True
                raise
            finally:
                rec.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += rec.duration
                spans.append(rec)
            if annotate is not None:
                try:
                    rec.attrs = annotate(args, out)
                except Exception as exc:  # an annotation never breaks the run
                    rec.attrs = {"annotate_error": repr(exc)}
            return out
        return wrapper

    def counted(self, fn, name, on_call=None):
        stack = self._stack
        agg = self.counters.setdefault(name, {"calls": 0, "s": 0.0, "errors": 0})

        @wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                agg["errors"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                agg["calls"] += 1
                agg["s"] += dt
                if stack:
                    stack[-1].child_s += dt
            if on_call is not None:
                on_call(args, out)
            return out
        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, make):
        """Replace ``owner.attr`` if it exists; a missing name is skipped."""
        original = getattr(owner, attr, None)
        if original is None:
            return None
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        return original, wrapped

    def install(self) -> None:
        pipeline = importlib.import_module("proxlink.pipeline")
        features = importlib.import_module("proxlink.features")
        network = importlib.import_module("proxlink.network")
        topics = importlib.import_module("proxlink.topics")
        # proxlink.ml.tune as an attribute is the tune() function
        tune_mod = importlib.import_module("proxlink.ml.tune")

        def span(owner, attr, name, annotate=None):
            self._patch(owner, attr, lambda fn: self.span(fn, name, annotate))

        def counted(owner, attr, name, on_call=None):
            return self._patch(owner, attr, lambda fn: self.counted(fn, name, on_call))

        span(pipeline, "load_corpus", "corpus.load")
        counted(pipeline, "resolve_affiliation", "geo.resolve")
        span(pipeline, "build_graph", "network.build_graph")
        span(pipeline, "tokenize_corpus", "topics.tokenize",
             lambda a, out: {"docs": len(out)})
        span(pipeline, "select_k", "topics.select_k")
        span(pipeline, "coherence", "topics.coherence")
        span(pipeline, "assemble", "features.assemble", _assemble_attrs)
        span(pipeline, "describe", "features.describe")
        span(pipeline, "correlation_screen", "features.corr")
        span(pipeline, "elasticity_from_fit", "logit.elasticity")
        span(pipeline, "tune", "ml.tune", lambda a, out: {"kind": a[0]})
        span(pipeline, "explain_rows", "explain.rows", _explain_attrs)
        span(pipeline, "render_beeswarm_svg", "report.svg")
        span(pipeline, "render_line_svg", "report.svg")

        span(features, "candidate_pairs", "network.candidate_pairs",
             lambda a, out: {"pairs": len(out)})
        span(features, "eligible_authors", "network.eligible_authors")
        span(network, "eligible_authors", "network.eligible_authors")
        counted(features, "tenb", "network.tenb")
        counted(features, "outcome_label", "network.outcome_label", self._count_positive)
        counted(features, "resolve_affiliation", "geo.resolve")
        counted(features, "knowledge_vector", "topics.knowledge_vector")
        counted(features, "cognitive_distance", "topics.cognitive_distance")
        counted(features, "has_zero_variance", "topics.zero_variance")

        span(topics, "coherence", "topics.coherence")
        stem = counted(topics, "porter_stem", "topics.stem",
                       lambda a, out: self.distinct_stems.add(a[0]))
        if stem:
            _rebind_defaults(topics, *stem)
        span(tune_mod, "cross_val_auc", "ml.cross_val_auc")

        span(topics.GibbsLda, "fit", "topics.gibbs", _gibbs_attrs)
        span(importlib.import_module("proxlink.logit").LogisticIRLS, "fit", "logit.fit",
             lambda a, out: {"iterations": a[0].result_.iterations})
        span(features.Dataset, "write_csv", "features.write_csv")
        ml = importlib.import_module("proxlink.ml")
        span(ml.Smote, "fit_resample", "ml.smote", _smote_attrs)
        for cls_name, kind in KINDS.items():
            cls = getattr(ml, cls_name, None)
            if cls is None:
                continue
            span(cls, "fit", "ml.fit", _fit_attrs(kind))
            span(cls, "predict_proba", "ml.predict",
                 lambda a, out, kind=kind: {"kind": kind, "rows": len(out)})

    def _count_positive(self, args, out) -> None:
        self.positives += int(out)

    def dump(self) -> dict:
        return {"spans": [s.to_json() for s in self.spans],
                "counters": self.counters,
                "distinct_stems": len(self.distinct_stems),
                "positives": self.positives}


def _rebind_defaults(module, original, wrapped) -> None:
    """Point default arguments that captured ``original`` at ``wrapped``.

    ``tokenize(..., stemmer=porter_stem)`` binds the stemmer when the
    function is defined, so the default is where that caller looks it up.
    """
    for value in vars(module).values():
        defaults = getattr(value, "__defaults__", None)
        if defaults and any(d is original for d in defaults):
            value.__defaults__ = tuple(wrapped if d is original else d for d in defaults)


def _assemble_attrs(args, out) -> dict:
    excluded = sum(out.manifest.get("exclusions", {}).values())
    return {"rows": len(out), "excluded": int(excluded)}


def _explain_attrs(args, out) -> dict:
    n_rows, n_features = np.asarray(args[1]).shape
    n_background = len(args[2])
    return {"rows": n_rows, "model_evals": n_rows * (1 << n_features) * n_background}


def _gibbs_attrs(args, out) -> dict:
    model, docs = args[0], args[1]
    tokens = sum(len(d.tokens) for d in docs)
    return {"k": model.n_topics, "tokens": tokens, "sweeps": model.iterations}


def _smote_attrs(args, out) -> dict:
    smote, X, y = args[0], np.ascontiguousarray(args[1], dtype=float), np.asarray(args[2])
    n_pos = int((y == 1).sum())
    n_min = min(n_pos, len(y) - n_pos)
    h = hashlib.sha1(X.tobytes())
    h.update(np.ascontiguousarray(y).tobytes())
    h.update(repr((smote.k, smote.target_ratio, smote.seed)).encode())
    return {"n_min": n_min, "features": int(X.shape[1]), "digest": h.hexdigest()}


def _fit_attrs(kind):
    def attrs(args, out) -> dict:
        model = args[0]
        return {"kind": kind, "rows": len(args[1]), "epochs": getattr(model, "epochs", None)}
    return attrs


# ---------------------------------------------------------------------------
# RuntimeWarnings, counted per layer instead of printed
# ---------------------------------------------------------------------------

class WarningCounter:
    """Count every RuntimeWarning by the program layer that raised it.

    The layer is the module of the innermost program frame on the stack
    when the warning fires, so numpy warnings count against the caller.
    """

    def __init__(self, package_dir: str):
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self.by_layer: dict[str, int] = {}
        self.by_site: dict[str, int] = {}
        self._saved = warnings.catch_warnings()

    def __enter__(self):
        self._saved.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        previous = warnings.showwarning

        def showwarning(message, category, filename, lineno, file=None, line=None):
            if not issubclass(category, RuntimeWarning):
                return previous(message, category, filename, lineno, file, line)
            self._count(str(message))
        warnings.showwarning = showwarning
        return self

    def __exit__(self, *exc):
        return self._saved.__exit__(*exc)

    def _count(self, message: str) -> None:
        frame = sys._getframe(1)
        while frame is not None:
            path = os.path.realpath(frame.f_code.co_filename)
            if path.startswith(self.package_dir):
                rel = path[len(self.package_dir):]
                break
            frame = frame.f_back
        else:
            rel = "outside"
        layer = rel.split(os.sep)[0].removesuffix(".py")
        layer = layer if layer in LAYERS else "other"
        self.by_layer[layer] = self.by_layer.get(layer, 0) + 1
        site = f"{rel}:{frame.f_lineno if frame else 0}: {message}"
        self.by_site[site] = self.by_site.get(site, 0) + 1

    @property
    def empty_leaf(self) -> int:
        return sum(n for site, n in self.by_site.items()
                   if site.startswith("ml" + os.sep)
                   and site.split(":")[0].endswith(EMPTY_LEAF_FILES))


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced run
# ---------------------------------------------------------------------------

def _rate(work, seconds) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(trace: dict, warnings_by_layer: dict, empty_leaf: int,
                  facts: dict) -> dict:
    """Metric name -> value, for the names listed under ``per_layer``."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, **match):
        return sum(s["end"] - s["start"] for s in named(name)
                   if all((s["attrs"] or {}).get(k) == v for k, v in match.items()))

    def attr_sum(name, key):
        return sum((s["attrs"] or {}).get(key) or 0 for s in named(name))

    def under(span, ancestor):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == ancestor:
                return True
            parent = by_id[parent]["parent"]
        return False

    counters = trace["counters"]

    def counter(name, key):
        return counters.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    m["corpus.load_s"] = total("corpus.load")
    m["corpus.records"] = facts.get("records_in_scenario", 0)

    m["geo.resolve_calls"] = counter("geo.resolve", "calls")
    m["geo.resolve_s"] = counter("geo.resolve", "s")
    m["geo.unresolved"] = counter("geo.resolve", "errors")

    pairs = attr_sum("network.candidate_pairs", "pairs")
    m["network.build_graph_s"] = total("network.build_graph")
    m["network.candidate_pairs_s"] = total("network.candidate_pairs")
    m["network.candidate_pairs"] = pairs
    m["network.eligible_calls"] = len(named("network.eligible_authors"))
    m["network.positive_share"] = _rate(trace["positives"], pairs)
    m["network.tenb_calls"] = counter("network.tenb", "calls")
    m["network.tenb_s"] = counter("network.tenb", "s")
    m["network.tenb_pairs_per_s"] = _rate(m["network.tenb_calls"], m["network.tenb_s"])

    m["topics.tokenize_s"] = total("topics.tokenize")
    m["topics.docs_per_s"] = _rate(attr_sum("topics.tokenize", "docs"), m["topics.tokenize_s"])
    m["topics.stem_calls"] = counter("topics.stem", "calls")
    m["topics.distinct_terms"] = trace["distinct_stems"]
    gibbs = named("topics.gibbs")
    m["topics.lda_fits"] = len(gibbs)
    m["topics.token_sweeps"] = sum(s["attrs"]["tokens"] * s["attrs"]["sweeps"] for s in gibbs)
    m["topics.gibbs_s"] = total("topics.gibbs")
    for k in K_GRID_METRICS:
        fits = [s for s in gibbs if s["attrs"]["k"] == k]
        work = sum(s["attrs"]["tokens"] * s["attrs"]["sweeps"] for s in fits)
        m[f"topics.token_sweeps_per_s.k{k}"] = _rate(work, sum(s["end"] - s["start"] for s in fits))
    m["topics.coherence_s"] = total("topics.coherence")
    m["topics.vocab_size"] = facts.get("vocab_size", 0)

    assemble_s = total("features.assemble")
    rows = attr_sum("features.assemble", "rows")
    m["features.assemble_self_s"] = sum(s["self_s"] for s in named("features.assemble"))
    m["features.rows"] = rows
    m["features.rows_per_s"] = _rate(rows, assemble_s)
    m["features.excluded_rows"] = attr_sum("features.assemble", "excluded")
    m["features.write_csv_s"] = total("features.write_csv")
    m["features.describe_s"] = total("features.describe")
    m["features.corr_s"] = total("features.corr")

    m["logit.fit_s"] = total("logit.fit")
    m["logit.iterations"] = attr_sum("logit.fit", "iterations")
    m["logit.elasticity_s"] = total("logit.elasticity")
    m["logit.pseudo_r2"] = facts.get("pseudo_r2") or 0.0

    fits = named("ml.fit")
    predicts = named("ml.predict")
    for kind in KINDS.values():
        m[f"ml.tune_s.{kind}"] = total("ml.tune", kind=kind)
        m[f"ml.fit_s.{kind}"] = total("ml.fit", kind=kind)
        predict_s = total("ml.predict", kind=kind)
        m[f"ml.predict_s.{kind}"] = predict_s
        m[f"ml.predict_rows_per_s.{kind}"] = _rate(
            sum(s["attrs"]["rows"] for s in predicts if s["attrs"]["kind"] == kind), predict_s)
    m["ml.fits"] = len(fits)
    sgd = [s for s in fits if s["attrs"]["kind"] in ("logistic-sgd", "linear-svm")]
    m["ml.sgd_updates_per_s"] = _rate(sum(s["attrs"]["rows"] * s["attrs"]["epochs"] for s in sgd),
                                      sum(s["end"] - s["start"] for s in sgd))
    smote = named("ml.smote")
    m["ml.smote_calls"] = len(smote)
    m["ml.smote_distinct"] = len({s["attrs"]["digest"] for s in smote})
    m["ml.smote_s"] = total("ml.smote")
    largest = max(smote, key=lambda s: s["attrs"]["n_min"], default=None)
    n_min = largest["attrs"]["n_min"] if largest else 0
    m["ml.smote_max_minority"] = n_min
    m["ml.smote_dense_bytes"] = n_min * n_min * (largest["attrs"]["features"] if largest else 0) * 8
    m["ml.empty_leaf_warnings"] = empty_leaf
    m["ml.test_auc"] = facts.get("test_auc") or 0.0

    explain_rows = attr_sum("explain.rows", "rows")
    m["explain.rows"] = explain_rows
    m["explain.s"] = total("explain.rows")
    m["explain.rows_per_s"] = _rate(explain_rows, m["explain.s"])
    m["explain.model_evals"] = attr_sum("explain.rows", "model_evals")
    m["explain.predict_s"] = sum(s["end"] - s["start"] for s in predicts
                                 if under(s, "explain.rows"))

    m["report.svg_s"] = total("report.svg")
    m["report.bundle_bytes"] = facts.get("bundle_bytes", 0)
    for layer in LAYERS:
        m[f"{layer}.runtime_warnings"] = warnings_by_layer.get(layer, 0)
    return m
