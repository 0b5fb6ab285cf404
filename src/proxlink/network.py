"""proxlink.network
~~~~~~~~~~~~~~~~~~~

Sliding windows, per-window co-authorship graphs, and bridging-path
network proximity.

Each window pair couples a 3-year feature span with the 2-year outcome
span immediately after it, so predictors and the predicted outcome never
overlap in time. Network proximity between two authors sums, over every
third author k they both co-published with during the feature span, the
product of the pairwise co-publication counts divided by k's publication
count.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._rng import stable_seed
from .corpus import Corpus


FEATURE_YEARS = 3
OUTCOME_YEARS = 2


@dataclass(frozen=True)
class WindowPair:
    """A 3-year feature span followed immediately by a 2-year outcome span."""

    feature_start: int
    feature_end: int
    outcome_start: int
    outcome_end: int

    def __post_init__(self):
        if self.feature_end - self.feature_start != FEATURE_YEARS - 1:
            raise ValueError(f"feature window must span exactly {FEATURE_YEARS} calendar years")
        if self.outcome_end - self.outcome_start != OUTCOME_YEARS - 1:
            raise ValueError(f"outcome window must span exactly {OUTCOME_YEARS} calendar years")
        if self.outcome_start != self.feature_end + 1:
            raise ValueError("outcome window must start the year after the feature window ends")

    @property
    def window_id(self) -> str:
        return (f"{self.feature_start}-{self.feature_end}"
                f"_{self.outcome_start}-{self.outcome_end}")

    @property
    def feature_span(self) -> tuple[int, int]:
        return (self.feature_start, self.feature_end)

    @property
    def outcome_span(self) -> tuple[int, int]:
        return (self.outcome_start, self.outcome_end)


def make_windows(first_year: int, last_year: int, stride: int = 1) -> list[WindowPair]:
    """All window pairs fitting inside [first_year, last_year], offset by stride."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    span = FEATURE_YEARS + OUTCOME_YEARS
    if last_year - first_year + 1 < span:
        raise ValueError(
            f"year range {first_year}-{last_year} too short for a "
            f"{FEATURE_YEARS}+{OUTCOME_YEARS} year window pair"
        )
    windows = []
    start = first_year
    while start + span - 1 <= last_year:
        windows.append(WindowPair(
            feature_start=start,
            feature_end=start + FEATURE_YEARS - 1,
            outcome_start=start + FEATURE_YEARS,
            outcome_end=start + span - 1,
        ))
        start += stride
    return windows


@dataclass
class CoPubGraph:
    """Weighted co-authorship graph for one year span.

    n[k] counts publications listing author k inside the span; g[(i, j)]
    (keys ordered i < j) counts publications listing both. adj[i][j] is
    g indexed by either endpoint, derived from g at construction.
    """

    span: tuple[int, int]
    n: dict[str, int] = field(default_factory=dict)
    g: dict[tuple[str, str], int] = field(default_factory=dict)
    adj: dict[str, dict[str, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.adj = {}
        for (a, b), w in self.g.items():
            self.adj.setdefault(a, {})[b] = w
            self.adj.setdefault(b, {})[a] = w

    def copubs(self, i: str, j: str) -> int:
        if i == j:
            return 0
        return self.g.get((i, j) if i < j else (j, i), 0)


def build_graph(corpus: Corpus, start_year: int, end_year: int) -> CoPubGraph:
    """Count publications and co-publications over one span; no self-edges."""
    n: dict[str, int] = {}
    g: dict[tuple[str, str], int] = {}
    for pub_id in corpus.pub_ids_in_years(start_year, end_year):
        keys = corpus.record(pub_id).author_keys
        for k in keys:
            n[k] = n.get(k, 0) + 1
        for idx, i in enumerate(keys):
            for j in keys[idx + 1:]:
                edge = (i, j) if i < j else (j, i)
                g[edge] = g.get(edge, 0) + 1
    return CoPubGraph(span=(start_year, end_year), n=n, g=g)


def tenb(graph: CoPubGraph, i: str, j: str) -> float:
    """Expected number of bridging paths between i and j.

    Sum over every third author k of g[i,k] * g[j,k] / n[k]; zero when the
    two share no co-author.
    """
    if i == j:
        raise ValueError("network proximity is undefined for an author with itself")
    ni = graph.adj.get(i, {})
    nj = graph.adj.get(j, {})
    if len(nj) < len(ni):
        ni, nj = nj, ni
    # canonical (sorted) summation order keeps results independent of how
    # the graph was built and bit-identical to a direct enumeration
    total = 0.0
    for k in sorted(k for k in ni if k != i and k != j and k in nj):
        total += (ni[k] * nj[k]) / graph.n[k]
    return total


@dataclass
class SamplingPolicy:
    """Negative-pair sampling for the candidate universe.

    kind "all" keeps every eligible pair; "ratio" keeps all positives plus
    ``ratio`` sampled negatives per positive; "auto" uses "all" up to
    ``auto_threshold`` eligible authors per window and "ratio" beyond it.
    """

    kind: str = "auto"
    ratio: float = 5.0
    auto_threshold: int = 50_000

    def resolved_kind(self, n_eligible: int) -> str:
        if self.kind == "auto":
            return "all" if n_eligible <= self.auto_threshold else "ratio"
        if self.kind not in ("all", "ratio"):
            raise ValueError(f"unknown sampling kind {self.kind!r}")
        return self.kind


def _authors_in_span(corpus: Corpus, start: int, end: int) -> set[str]:
    authors: set[str] = set()
    for pub_id in corpus.pub_ids_in_years(start, end):
        authors.update(corpus.record(pub_id).author_keys)
    return authors


def eligible_authors(corpus: Corpus, window: WindowPair) -> set[str]:
    """Authors with >= 1 publication in each of the window's two spans."""
    return (_authors_in_span(corpus, *window.feature_span)
            & _authors_in_span(corpus, *window.outcome_span))


def outcome_positives(corpus: Corpus, window: WindowPair,
                      index: dict[str, int]) -> set[tuple[int, int]]:
    """Index pairs (a < b) of authors co-listed on an outcome-span publication.

    ``index`` maps each eligible author to its position among the sorted
    eligible authors; authors outside it are ignored.
    """
    positives: set[tuple[int, int]] = set()
    o_start, o_end = window.outcome_span
    for pub_id in corpus.pub_ids_in_years(o_start, o_end):
        keys = [index[k] for k in corpus.record(pub_id).author_keys if k in index]
        for n, a in enumerate(keys):
            for b in keys[n + 1:]:
                positives.add((a, b) if a < b else (b, a))
    return positives


def candidate_pairs(corpus: Corpus, window: WindowPair,
                    sampling: Optional[SamplingPolicy] = None,
                    seed: int = 0) -> np.ndarray:
    """Eligible pairs for one window, with deterministic negative sampling.

    An author is eligible with >= 1 publication in the feature span and
    >= 1 in the outcome span. Positive pairs (co-publication in the
    outcome span) are always kept; negatives follow the policy. Returns an
    (n, 2) array of indices a < b into the sorted eligible authors: every
    pair in row-major order for "all"; for "ratio" the sorted positives,
    then the sorted sampled negatives.
    """
    sampling = sampling or SamplingPolicy()
    eligible = eligible_authors(corpus, window)
    if not eligible:
        raise ValueError(f"no eligible authors in window {window.window_id}")
    m = len(eligible)
    if sampling.resolved_kind(m) == "all":
        return np.column_stack(np.triu_indices(m, 1))

    positives = outcome_positives(corpus, window,
                                  {a: n for n, a in enumerate(sorted(eligible))})
    negatives = [(a, b) for a in range(m) for b in range(a + 1, m)
                 if (a, b) not in positives]
    n_keep = min(len(negatives), int(round(sampling.ratio * max(1, len(positives)))))
    rng = random.Random(stable_seed(seed, window.window_id))
    sampled = rng.sample(negatives, n_keep) if n_keep else []
    return np.array(sorted(positives) + sorted(sampled), dtype=np.intp).reshape(-1, 2)
