"""CART decision trees with exhaustive, deterministic split search.

The caller builds the sample's sorted tables once (``presort``) and
hands them to the fit, so trees grown on the same rows share one sort.
Every split search keeps the positions whose adjacent sorted values
differ and that leave ``min_samples_leaf`` rows on each side, scores
them from cumulative sums along each candidate feature's sorted rows,
and splits at the midpoint (or the lower value where the midpoint rounds
onto the upper one). Equal gains resolve to the lower feature index,
then the lower threshold, making every fit reproducible.

One grower, ``grow``, builds every tree: it steps the next depth-first
node of each tree of a group together, each node a range of one row
buffer that a split reorders, left child first. The two criteria differ
only in their split scan and their leaf value:

- Gini trees, used by the random forest, scan every node of a step in
  one flat search; a leaf holds the positive-class fraction.
- Variance-reduction (mse) trees, used by gradient boosting, scan one
  node at a time; a leaf holds the mean target or a pluggable leaf
  value. ``fit_values`` also returns each training row's leaf value,
  which boosting adds to its score without a predict.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

_MIN_GAIN = 1e-12


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class Presorted(NamedTuple):
    """Read-only tables of an n x F sample ``X``, flat and feature-major:
    entry f * n + rank holds the row of that rank on feature f (ties by
    row index) in ``rows`` and its value in ``x``; ``code`` maps
    f * n + row to its entry."""
    rows: np.ndarray
    x: np.ndarray
    code: np.ndarray
    shape: tuple[int, int]


def presort(X) -> Presorted:
    X = np.asarray(X, dtype=float)
    order = np.argsort(X, axis=0, kind="mergesort").T
    at = (np.arange(0, X.size, len(X))[:, None] + order).ravel()
    code = np.empty(X.size, dtype=np.intp)
    code[at] = np.arange(X.size)
    tables = Presorted(order.ravel(), X.T.ravel()[at], code, X.shape)
    for table in tables[:3]:
        table.flags.writeable = False
    return tables


class CartTree:
    """Binary decision tree; criterion "mse" or "gini".

    ``max_features`` subsamples split candidates per node (random forest
    style) using the supplied rng; None considers every feature. A leaf
    holds the mean target (for gini, the positive-class fraction);
    ``leaf_value_fn(indices) -> float`` overrides it for mse.
    """

    def __init__(self, max_depth: int = 3, min_samples_leaf: int = 1,
                 criterion: str = "mse", max_features: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        if criterion not in ("mse", "gini"):
            raise ValueError(f"unknown criterion {criterion!r}")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.max_features = max_features
        self.rng = rng
        self.nodes: list[_Node] = []

    def fit_values(self, tables: Presorted, y,
                   leaf_value_fn: Optional[Callable] = None) -> np.ndarray:
        """Fit the tree on ``X`` given as ``tables = presort(X)`` and return
        each training row's leaf value, equal to ``predict(X)`` bit for bit:
        ``grow`` with one tree."""
        y = np.asarray(y, dtype=float)
        out = np.empty(len(y))
        grow([self], tables, y, bootstrap=False, group=1, block=0,
             leaf_value_fn=leaf_value_fn, out=out)
        return out

    def _stops(self, depth: int, n: int) -> bool:
        """Whether a node of ``n`` rows at ``depth`` is a leaf without a scan."""
        return depth >= self.max_depth or n < 2 * self.min_samples_leaf

    def _candidate_features(self) -> np.ndarray:
        if self.max_features is None or self.max_features >= self.n_features_:
            return np.arange(self.n_features_)
        if self.rng is None:
            raise ValueError("max_features requires an rng")
        picked = self.rng.choice(self.n_features_, size=self.max_features, replace=False)
        return np.sort(picked)

    @staticmethod
    def _gini_ss(pos: float, n: int) -> float:
        # n * gini = n - (pos^2 + neg^2)/n, comparable across splits
        neg = n - pos
        return n - (pos * pos + neg * neg) / n

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0], dtype=float)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node_id, idx = stack.pop()
            if len(idx) == 0:
                continue
            node = self.nodes[node_id]
            if node.is_leaf:
                out[idx] = node.value
            else:
                mask = X[idx, node.feature] <= node.threshold
                stack.append((node.left, idx[mask]))
                stack.append((node.right, idx[~mask]))
        return out

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "nodes": [
                {"feature": n.feature, "threshold": n.threshold,
                 "left": n.left, "right": n.right, "value": n.value}
                for n in self.nodes
            ],
        }


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``starts[j] .. starts[j] + lengths[j] - 1``."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)


def grow(trees: list, tables: Presorted, y: np.ndarray,
         bootstrap: bool, group: int, block: int,
         leaf_value_fn: Optional[Callable] = None,
         out: Optional[np.ndarray] = None) -> None:
    """Grow ``trees``, all of one criterion, in lockstep on ``X`` given as
    ``tables = presort(X)``, ``group`` trees at a time. Each tree grows on a
    bootstrap sample drawn from its own rng when its group starts, or on
    every row without ``bootstrap``. Gini trees take 0/1 labels ``y``; an
    mse leaf holds ``leaf_value_fn(rows)``, by default the mean of ``y``
    over its rows. ``out``, if given, receives each row's leaf value (one
    tree, no bootstrap).

    Each step pops the next depth-first node of every tree, making leaves
    of those too small or too deep to split, until one per tree needs a
    scan. A node is a range of its tree's row buffer. The step scans its
    nodes in chunks of about ``block`` (rows x candidate features)
    entries; a node larger than ``block`` is a chunk of its own. Both
    scans list a node's rows on each candidate feature in presort order
    by sorting their ranks, keep the positions whose adjacent values
    differ and which leave ``min_samples_leaf`` rows on each side, and
    take a node's first best gain in (feature, position) order. The
    winning feature's sorted rows become the node's range, left child
    first.

    - The gini scan covers a whole chunk with one sort of (segment, rank)
      keys and one flat cumsum of positive counts. Its tie order within a
      segment is not presort order, but at a position between distinct
      values the left count is the number of positives up to that value
      whatever the tie order, and counts of 0/1 labels are exact.
    - The mse scan takes one node at a time: an F x n matrix of the
      node's sorted rows, cumulative sums along each row, and one flat
      argmax. A node's totals and leaf value sum over its rows in
      ascending order, as the bits of a pairwise sum depend on its order.

    Each tree draws its candidate features from its own rng in its own
    preorder and appends its nodes in preorder, so its draws and
    ``to_dict()`` are those of growing it alone.
    """
    n_rows, n_features = tables.shape
    size = n_rows * n_features
    gini = trees[0].criterion == "gini"
    if gini:
        if leaf_value_fn is not None:
            raise ValueError("leaf_value_fn applies to mse trees only")
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("gini trees need 0/1 labels")
    elif leaf_value_fn is None:
        leaf_value_fn = lambda idx: float(y[idx].mean())
    sorted_rows, sorted_x, code = tables.rows, tables.x, tables.code
    sorted_y = y[sorted_rows]

    def gini_splits(chunk) -> dict:
        """Split of each node of ``chunk`` that has one, by position in
        ``chunk``: (feature, threshold, left rows, left positives);
        rewrites the split nodes' ranges of ``buf``."""
        _, _, starts, stops, _, positives, feats = zip(*chunk)
        starts, positives = np.array(starts), np.array(positives)
        counts = np.array(stops) - starts
        min_leaf = np.array([grove[t].min_samples_leaf for t, *_ in chunk])

        # one segment per (node, candidate feature), node-major, features
        # ascending, holding the node's rows sorted on that feature
        seg_feat = np.concatenate(feats)
        seg_node = np.repeat(np.arange(len(chunk)), [len(f) for f in feats])
        seg_len = counts[seg_node]
        seg_off = np.cumsum(seg_len) - seg_len
        seg_of = np.repeat(np.arange(len(seg_feat)), seg_len)
        rows = buf[_ranges(starts[seg_node], seg_len)]
        entry = code[rows + (seg_feat * n_rows)[seg_of]]
        del rows
        entry += seg_of * size
        entry.sort()
        entry %= size
        x = sorted_x[entry]
        pos_cum = np.cumsum(sorted_y[entry])

        # split positions: between distinct values, min_leaf rows each side
        pos_in_seg = np.arange(len(entry) - 1) - seg_off[seg_of[:-1]]
        ok = x[:-1] != x[1:]
        ok &= pos_in_seg >= (min_leaf - 1)[seg_node][seg_of[:-1]]
        ok &= pos_in_seg < (counts - min_leaf)[seg_node][seg_of[:-1]]
        i = np.flatnonzero(ok)
        del ok
        seg = seg_of[i]
        node = seg_node[seg]
        n_l = pos_in_seg[i] + 1.0
        pos_l = pos_cum[i] - np.concatenate(([0.0], pos_cum))[seg_off[seg]]
        n = counts[node]
        total_pos = positives[node]
        gains = (CartTree._gini_ss(total_pos, n) - CartTree._gini_ss(pos_l, n_l)
                 - CartTree._gini_ss(total_pos - pos_l, n - n_l))

        # each node's first best gain in (feature, position) order
        firsts = np.flatnonzero(np.diff(node, prepend=-1))
        best = np.maximum.reduceat(gains, firsts)
        hits = np.flatnonzero(gains == np.repeat(best, np.diff(firsts, append=len(i))))
        win = hits[np.diff(node[hits], prepend=-1) != 0]
        win = win[gains[win] > _MIN_GAIN]
        split_of, w, w_off = node[win], i[win], seg_off[seg[win]]
        # midpoint thresholds, or the lower value where the midpoint of
        # adjacent floats rounds up onto the upper one, which would leave
        # the right child empty
        mid = (x[w] + x[w + 1]) / 2.0
        thresholds = np.where(mid < x[w + 1], mid, x[w])
        # the winning segment's sorted rows become the node's range, left
        # child first
        src = _ranges(w_off, counts[split_of])
        buf[src + np.repeat(starts[split_of] - w_off, counts[split_of])] = sorted_rows[entry[src]]
        return dict(zip(split_of.tolist(), zip(
            seg_feat[seg[win]].tolist(), thresholds.tolist(),
            n_l[win].astype(np.intp).tolist(), pos_l[win].astype(np.intp).tolist())))

    def mse_splits(chunk) -> dict:
        """As ``gini_splits``, with 0 left positives."""
        splits = {}
        for j, (t, _, start, stop, _, _, feats) in enumerate(chunk):
            idx = np.sort(buf[start:stop])
            n = len(idx)
            y_node = y[idx]
            total_sum = float(y_node.sum())
            total_sq = float((y_node ** 2).sum())
            parent_impurity = total_sq - total_sum * total_sum / n
            min_leaf = grove[t].min_samples_leaf
            lo, hi = min_leaf - 1, n - min_leaf  # candidate split positions
            # row f: the node's entries in ascending order of feature feats[f]
            entry = code[(feats * n_rows)[:, None] + idx]
            entry.sort(axis=1)
            values = sorted_x[entry]
            ys = sorted_y[entry]

            # column j splits each sorted row after position lo + j
            boundary = values[:, lo:hi] != values[:, lo + 1:hi + 1]
            n_l = np.arange(lo + 1.0, hi + 1.0)
            n_r = n - n_l
            s_l = ys.cumsum(axis=1)[:, lo:hi]
            sq_l = (ys ** 2).cumsum(axis=1)[:, lo:hi]
            imp_l = sq_l - s_l * s_l / n_l
            s_r = total_sum - s_l
            imp_r = (total_sq - sq_l) - s_r * s_r / n_r
            gains = np.where(boundary, parent_impurity - imp_l - imp_r, -np.inf)
            # the flat argmax is row-major: first the lower feature, then
            # the lower threshold
            f, i = divmod(int(np.argmax(gains)), hi - lo)
            if not gains[f, i] > _MIN_GAIN:
                continue
            i += lo
            buf[start:stop] = sorted_rows[entry[f]]
            lower, upper = values[f, i:i + 2].tolist()
            mid = (lower + upper) / 2.0  # as in gini_splits
            splits[j] = (int(feats[f]), mid if mid < upper else lower, i + 1, 0)
        return splits

    def make_leaf(node, start, stop, positives):
        if gini:
            node.value = positives / (stop - start)
        else:
            node.value = leaf_value_fn(np.sort(buf[start:stop]))
        if out is not None:
            out[buf[start:stop]] = node.value

    best_splits = gini_splits if gini else mse_splits
    for first in range(0, len(trees), group):
        grove = trees[first:first + group]
        samples = [tree.rng.integers(0, n_rows, size=n_rows) if bootstrap
                   else np.arange(n_rows) for tree in grove]
        buf = np.concatenate(samples)
        # per tree: (start, stop, depth, positives (0 for mse), parent, is_left)
        stacks = []
        start = 0
        for tree, rows in zip(grove, samples):
            tree.n_features_ = n_features
            tree.nodes = []
            stop = start + len(rows)
            positives = int(np.count_nonzero(y[rows])) if gini else 0
            stacks.append([(start, stop, 0, positives, -1, False)])
            start = stop
        del samples
        live = list(range(len(grove)))
        while live:
            chunks = [[]]  # (tree, node id, start, stop, depth, positives, features)
            entries = 0
            for t in live:
                tree, stack = grove[t], stacks[t]
                nodes = tree.nodes
                while stack:
                    start, stop, depth, positives, parent, is_left = stack.pop()
                    node_id = len(nodes)
                    nodes.append(_Node())
                    if parent >= 0:
                        if is_left:
                            nodes[parent].left = node_id
                        else:
                            nodes[parent].right = node_id
                    if tree._stops(depth, stop - start):
                        make_leaf(nodes[node_id], start, stop, positives)
                        continue
                    feats = tree._candidate_features()
                    entries += len(feats) * (stop - start)
                    if entries > block and chunks[-1]:
                        chunks.append([])
                        entries = len(feats) * (stop - start)
                    chunks[-1].append((t, node_id, start, stop, depth, positives, feats))
                    break
            for chunk in chunks:
                if not chunk:
                    continue
                splits = best_splits(chunk)
                for j, (t, node_id, start, stop, depth, pos, _) in enumerate(chunk):
                    scanned = grove[t].nodes[node_id]
                    if j not in splits:
                        make_leaf(scanned, start, stop, pos)
                        continue
                    scanned.feature, scanned.threshold, left_n, left_pos = splits[j]
                    mid = start + left_n
                    stacks[t].append((mid, stop, depth + 1, pos - left_pos, node_id, False))
                    stacks[t].append((start, mid, depth + 1, left_pos, node_id, True))
            live = [t for t in live if stacks[t]]
