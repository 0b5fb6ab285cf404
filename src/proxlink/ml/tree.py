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
  node at a time; a leaf holds the target's sum over the hessian's sum
  on its rows. ``fit_values`` also returns each training row's leaf
  value, which boosting adds to its score without a predict.

Boosting's rounds fit the same rows, and most of a tree's nodes hold the
row set of a node of an earlier tree. A ``RowSetStore`` keeps, for the
nodes of the last ``ROW_SET_TREES`` trees of one fit, what an mse scan
derives from a node's rows alone: the rows in ascending order, the rows
sorted on each feature, and the candidate split positions. A node whose
path of splits from the root is in the store skips the sort and runs only
the cumulative sums and gains on its current target.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

_MIN_GAIN = 1e-12

# Trees of a boosting fit whose row sets a RowSetStore keeps. Keeping the
# last 1 / 2 / 4 / 8 / every tree, the demo run's 51 boosting fits took
# 0.83 / 0.78 / 0.75 / 0.73 / 0.77 of the time of the grower before the
# store (2-core Xeon VM, medians of 9 interleaved rounds). The store's
# memory grows linearly with this.
ROW_SET_TREES = 4


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


class _RowSet:
    """One node's row set: ``rows`` ascending; once scanned, ``table`` (row
    f: the rows sorted on feature f) and ``cands`` (flat positions p of
    ``table`` whose split after column p % n is a candidate); ``tree``,
    the last tree that used it."""
    __slots__ = ("rows", "table", "cands", "tree")

    def __init__(self, rows: np.ndarray):
        self.rows, self.table, self.cands, self.tree = rows, None, None, 0


class RowSetStore:
    """Row sets of the mse trees of one boosting fit, keyed by their node's
    path of splits from the root, (feature, threshold, went left) per
    split. The trees must grow on the same rows with the same
    ``min_samples_leaf``.

    After each tree the store keeps only the row sets that one of the last
    ``ROW_SET_TREES`` trees used, so while a tree grows it holds those of at
    most ``ROW_SET_TREES + 1`` trees. For n rows and F features, a row set
    of m rows holds m indices and, if scanned, F x m table entries and at
    most F x m positions, 8 bytes each (numpy converts a narrower index
    array to intp on every gather, which cost more than half the speed
    gain). A tree's row sets at one depth hold each row at most once, and
    only its ``max_depth`` upper levels are scanned, so the arrays take
    at most ``(ROW_SET_TREES + 1) * 8 * n * (max_depth * (2 F + 1) + 1)``
    bytes, whatever the number of trees.
    """

    def __init__(self):
        self.sets: dict = {}
        self.trees = 0  # trees grown so far; the index of the growing one

    def end_tree(self) -> None:
        self.trees += 1
        oldest = self.trees - ROW_SET_TREES
        self.sets = {path: s for path, s in self.sets.items() if s.tree >= oldest}


class CartTree:
    """Binary decision tree; criterion "mse" or "gini".

    A leaf holds the positive-class fraction (gini) or the target's sum
    over the hessian's sum (mse, ``fit_values``). ``max_features``
    subsamples a gini tree's split candidates per node using the supplied
    rng; None considers every feature, as every mse tree does.
    """

    def __init__(self, max_depth: int = 3, min_samples_leaf: int = 1,
                 criterion: str = "mse", max_features: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        if criterion not in ("mse", "gini"):
            raise ValueError(f"unknown criterion {criterion!r}")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if criterion == "mse" and max_features is not None:
            raise ValueError("max_features applies to gini trees only")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.max_features = max_features
        self.rng = rng
        self.nodes: list[_Node] = []

    def fit_values(self, tables: Presorted, y, hess: Optional[np.ndarray] = None,
                   store: Optional[RowSetStore] = None) -> np.ndarray:
        """Fit the tree on ``X`` given as ``tables = presort(X)`` and return
        each training row's leaf value, equal to ``predict(X)`` bit for bit:
        ``grow`` with one tree, ``hess`` and ``store`` as there."""
        y = np.asarray(y, dtype=float)
        out = np.empty(len(y))
        grow([self], tables, y, bootstrap=False, group=1, block=0,
             hess=hess, out=out, store=store)
        return out

    def _stops(self, depth: int, n: int) -> bool:
        """Whether a node of ``n`` rows at ``depth`` is a leaf without a scan."""
        return depth >= self.max_depth or n < 2 * self.min_samples_leaf

    def _candidate_features(self, every: Optional[np.ndarray] = None) -> np.ndarray:
        """This node's candidate features, ascending; ``every``, if given, is
        ``np.arange(n_features_)``, returned (not copied) when all qualify."""
        if self.max_features is None or self.max_features >= self.n_features_:
            return np.arange(self.n_features_) if every is None else every
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
         hess: Optional[np.ndarray] = None,
         out: Optional[np.ndarray] = None,
         store: Optional[RowSetStore] = None) -> None:
    """Grow ``trees``, all of one criterion, in lockstep on ``X`` given as
    ``tables = presort(X)``, ``group`` trees at a time. Each tree grows on a
    bootstrap sample drawn from its own rng when its group starts, or on
    every row without ``bootstrap``. Gini trees take 0/1 labels ``y``. Mse
    trees grow one at a time on every row, through ``store`` (a fresh
    ``RowSetStore`` if None); a leaf holds ``y``'s sum over ``hess``'s sum
    on its rows, ``hess`` None meaning ones (the mean). ``out``, if given,
    receives each row's leaf value (one tree, no bootstrap).

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
    - The mse scan takes one node at a time. Its row set holds the
      node's rows in ascending order, an F x n table of its rows sorted
      on each feature and the table's candidate positions, row-major. A
      node whose path of splits is in ``store`` takes its row set from
      there and skips the sort; either way the scan gathers the target
      through the table, takes cumulative sums along each row, scores the
      candidates and takes the first argmax. Those are the elementwise
      operations, in the same order, of scoring the whole table and
      masking the other positions, so a stored row set moves no bit. A
      node's totals and leaf sums run over its rows in ascending order,
      as the bits of a pairwise sum depend on its order.

    Each gini tree draws its candidate features from its own rng in its
    own preorder, and every tree appends its nodes in preorder, so a
    tree's draws and ``to_dict()`` are those of growing it alone.
    """
    n_rows, n_features = tables.shape
    size = n_rows * n_features
    gini = trees[0].criterion == "gini"
    if gini:
        if hess is not None:
            raise ValueError("hess applies to mse trees only")
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("gini trees need 0/1 labels")
    else:
        hess = np.ones(n_rows) if hess is None else hess
        store = RowSetStore() if store is None else store
    sorted_rows, sorted_x, code = tables.rows, tables.x, tables.code
    sorted_y = y[sorted_rows] if gini else None
    every = np.arange(n_features)
    paths = []  # mse: each node's path of splits, by node id

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

    def row_set(node_id, start, stop) -> _RowSet:
        """The mse node's row set, from ``store`` if it holds its path."""
        found = store.sets.get(paths[node_id])
        if found is None:
            found = store.sets[paths[node_id]] = _RowSet(np.sort(buf[start:stop]))
        found.tree = store.trees
        return found

    def mse_splits(chunk) -> dict:
        """As ``gini_splits``, with 0 left positives."""
        splits = {}
        for j, (t, node_id, start, stop, _, _, feats) in enumerate(chunk):
            found = row_set(node_id, start, stop)
            idx = found.rows
            n = len(idx)
            if found.table is None:
                min_leaf = grove[t].min_samples_leaf
                lo, hi = min_leaf - 1, n - min_leaf
                # row f: the node's entries in ascending order of feature feats[f]
                entry = code[(feats * n_rows)[:, None] + idx]
                entry.sort(axis=1)
                values = sorted_x[entry]
                # a split after column i of a row: between distinct values,
                # min_leaf rows on each side
                cand = np.zeros(entry.shape, dtype=bool)
                cand[:, lo:hi] = values[:, lo:hi] != values[:, lo + 1:hi + 1]
                found.table, found.cands = sorted_rows[entry], np.flatnonzero(cand)
                del entry, values, cand
            at = found.cands
            if not len(at):
                continue
            y_node = y[idx]
            total_sum = float(y_node.sum())
            total_sq = float((y_node ** 2).sum())
            parent_impurity = total_sq - total_sum * total_sum / n
            ys = y[found.table]
            s_l = ys.cumsum(axis=1).ravel()[at]
            sq_l = (ys ** 2).cumsum(axis=1).ravel()[at]
            n_l = at % n + 1.0
            n_r = n - n_l
            imp_l = sq_l - s_l * s_l / n_l
            s_r = total_sum - s_l
            imp_r = (total_sq - sq_l) - s_r * s_r / n_r
            gains = parent_impurity - imp_l - imp_r
            # the candidates are row-major: first the lower feature, then
            # the lower threshold
            k = int(np.argmax(gains))
            if not gains[k] > _MIN_GAIN:
                continue
            f, i = divmod(int(at[k]), n)
            rows = found.table[f]
            buf[start:stop] = rows
            lower, upper = sorted_x[code[feats[f] * n_rows + rows[i:i + 2]]].tolist()
            mid = (lower + upper) / 2.0  # as in gini_splits
            splits[j] = (int(feats[f]), mid if mid < upper else lower, i + 1, 0)
        return splits

    def make_leaf(node_id, nodes, start, stop, positives):
        node = nodes[node_id]
        if gini:
            node.value = positives / (stop - start)
        else:
            rows = row_set(node_id, start, stop).rows
            node.value = float(y[rows].sum() / hess[rows].sum())
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
                    if not gini:
                        paths.append(paths[parent] + (nodes[parent].feature,
                                                      nodes[parent].threshold, is_left)
                                     if parent >= 0 else ())
                    if tree._stops(depth, stop - start):
                        make_leaf(node_id, nodes, start, stop, positives)
                        continue
                    feats = tree._candidate_features(every)
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
                        make_leaf(node_id, grove[t].nodes, start, stop, pos)
                        continue
                    scanned.feature, scanned.threshold, left_n, left_pos = splits[j]
                    mid = start + left_n
                    stacks[t].append((mid, stop, depth + 1, pos - left_pos, node_id, False))
                    stacks[t].append((start, mid, depth + 1, left_pos, node_id, True))
            live = [t for t in live if stacks[t]]
    if not gini:
        store.end_tree()
