"""proxlink.explain
~~~~~~~~~~~~~~~~~~~

Exact Shapley-value attributions for the fitted classifiers.

With at most a handful of features, full coalition enumeration is cheap,
so no approximation is used: the value of a coalition S is the model's
mean output over a background sample with the features outside S replaced
by the background rows' values (an interventional expectation). The
attributions therefore satisfy efficiency, symmetry, and the dummy axiom
up to float accumulation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

MAX_FEATURES = 15
_CHUNK_ROWS = 200_000


@dataclass
class ShapleyExplanation:
    row_id: str
    base_value: float
    phi: np.ndarray
    model_output: float

    @property
    def efficiency_gap(self) -> float:
        return abs(self.base_value + float(self.phi.sum()) - self.model_output)


def _as_predict_fn(model) -> Callable[[np.ndarray], np.ndarray]:
    """Positive-class probability function from a model or a callable."""
    if callable(model) and not hasattr(model, "predict_proba"):
        return model
    return lambda X: np.asarray(model.predict_proba(X))[:, 1]


def coalition_values(predict_fn, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """v[mask] for every coalition bitmask; masked features come from x."""
    n_features = x.shape[0]
    n_bg = background.shape[0]
    n_masks = 1 << n_features
    values = np.empty(n_masks)

    masks_per_chunk = max(1, _CHUNK_ROWS // n_bg)
    for start in range(0, n_masks, masks_per_chunk):
        masks = np.arange(start, min(start + masks_per_chunk, n_masks))
        bits = (masks[:, None] >> np.arange(n_features) & 1).astype(bool)
        block = np.where(bits[:, None, :], x, background).reshape(-1, n_features)
        preds = np.asarray(predict_fn(block), dtype=float)
        preds = preds.reshape(len(masks), n_bg)
        values[start:start + len(masks)] = preds.mean(axis=1)
    return values


def exact_shapley(model, x, background, row_id: str = "") -> ShapleyExplanation:
    """Exact per-feature attribution of one prediction.

    phi_f = sum over coalitions S not containing f of
    |S|! (F - |S| - 1)! / F! * (v(S + f) - v(S)).
    """
    x = np.asarray(x, dtype=float).ravel()
    background = np.asarray(background, dtype=float)
    if background.ndim != 2 or background.shape[0] == 0:
        raise ValueError("background must be a non-empty 2-d sample")
    n_features = x.shape[0]
    if background.shape[1] != n_features:
        raise ValueError("background feature count does not match the row")
    if n_features > MAX_FEATURES:
        raise ValueError(
            f"{n_features} features exceed the exact-enumeration limit of {MAX_FEATURES}"
        )

    predict_fn = _as_predict_fn(model)
    v = coalition_values(predict_fn, x, background)

    fact = [math.factorial(i) for i in range(n_features + 1)]
    f_fact = fact[n_features]
    weight = [fact[s] * fact[n_features - s - 1] / f_fact for s in range(n_features)]

    size_of = np.zeros(1 << n_features, dtype=int)
    for mask in range(1, 1 << n_features):
        size_of[mask] = size_of[mask >> 1] + (mask & 1)

    phi = np.zeros(n_features)
    for f in range(n_features):
        bit = 1 << f
        for mask in range(1 << n_features):
            if mask & bit:
                continue
            phi[f] += weight[size_of[mask]] * (v[mask | bit] - v[mask])

    full = (1 << n_features) - 1
    return ShapleyExplanation(row_id=row_id, base_value=float(v[0]), phi=phi,
                              model_output=float(v[full]))


def sample_background(X, size: int = 256, seed: int = 0) -> np.ndarray:
    """Deterministic background subsample (without replacement when possible)."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] <= size:
        return X.copy()
    rng = np.random.default_rng(seed)
    idx = rng.choice(X.shape[0], size=size, replace=False)
    return X[np.sort(idx)]


def explain_rows(model, X_rows, background,
                 row_ids: Optional[Sequence[str]] = None) -> list[ShapleyExplanation]:
    X_rows = np.asarray(X_rows, dtype=float)
    if row_ids is None:
        row_ids = [str(i) for i in range(X_rows.shape[0])]
    return [exact_shapley(model, X_rows[i], background, row_id=row_ids[i])
            for i in range(X_rows.shape[0])]


# ---------------------------------------------------------------------------
# Beeswarm export
# ---------------------------------------------------------------------------

@dataclass
class BeeswarmExport:
    """Plot-ready per-(feature, row) attributions, most important feature first.

    Importance is mean |phi|; ties keep declaration order. The normalized
    feature value (min-max over the explained rows) drives the color axis.
    """

    feature_order: list[str]
    mean_abs_phi: dict[str, float]
    points: list[dict]  # feature, rank, row_id, phi, feature_value, normalized_value

    def to_csv(self, path) -> None:
        cols = ("feature", "rank", "row_id", "phi", "feature_value", "normalized_value")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for p in self.points:
                fh.write(",".join(
                    format(p[c], ".17g") if isinstance(p[c], float) else str(p[c])
                    for c in cols) + "\n")


def beeswarm_export(explanations: Sequence[ShapleyExplanation], X_rows,
                    feature_names: Sequence[str]) -> BeeswarmExport:
    if not explanations:
        raise ValueError("no explanations to export")
    X_rows = np.asarray(X_rows, dtype=float)
    phi = np.stack([e.phi for e in explanations])
    if phi.shape[1] != len(feature_names) or X_rows.shape != phi.shape:
        raise ValueError("explanations, rows, and feature names disagree on shape")

    mean_abs = np.abs(phi).mean(axis=0)
    order = sorted(range(len(feature_names)), key=lambda f: -mean_abs[f])  # stable

    lo = X_rows.min(axis=0)
    span = X_rows.max(axis=0) - lo
    points = []
    for rank, f in enumerate(order):
        for r, exp in enumerate(explanations):
            raw = float(X_rows[r, f])
            norm = 0.5 if span[f] == 0 else (raw - lo[f]) / span[f]
            points.append({
                "feature": feature_names[f],
                "rank": rank,
                "row_id": exp.row_id,
                "phi": float(phi[r, f]),
                "feature_value": raw,
                "normalized_value": float(norm),
            })
    return BeeswarmExport(
        feature_order=[feature_names[f] for f in order],
        mean_abs_phi={feature_names[f]: float(mean_abs[f]) for f in order},
        points=points,
    )
