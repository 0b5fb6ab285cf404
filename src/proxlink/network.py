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

from ._rng import stable_seed
from .corpus import Corpus


@dataclass(frozen=True)
class WindowPair:
    """A 3-year feature span followed immediately by a 2-year outcome span."""

    feature_start: int
    feature_end: int
    outcome_start: int
    outcome_end: int

    def __post_init__(self):
        if self.feature_end - self.feature_start != 2:
            raise ValueError("feature window must span exactly 3 calendar years")
        if self.outcome_end - self.outcome_start != 1:
            raise ValueError("outcome window must span exactly 2 calendar years")
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


def make_windows(first_year: int, last_year: int, stride: int = 1,
                 feature_years: int = 3, outcome_years: int = 2) -> list[WindowPair]:
    """All window pairs fitting inside [first_year, last_year], offset by stride."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    span = feature_years + outcome_years
    if last_year - first_year + 1 < span:
        raise ValueError(
            f"year range {first_year}-{last_year} too short for a "
            f"{feature_years}+{outcome_years} year window pair"
        )
    windows = []
    start = first_year
    while start + span - 1 <= last_year:
        windows.append(WindowPair(
            feature_start=start,
            feature_end=start + feature_years - 1,
            outcome_start=start + feature_years,
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


@dataclass(frozen=True)
class CandidatePair:
    """An unordered eligible author pair (i < j) within one window."""

    i: str
    j: str
    window: WindowPair

    def __post_init__(self):
        if self.i >= self.j:
            raise ValueError("pair must be ordered i < j and distinct")


def _authors_in_span(corpus: Corpus, start: int, end: int) -> set[str]:
    authors: set[str] = set()
    for pub_id in corpus.pub_ids_in_years(start, end):
        authors.update(corpus.record(pub_id).author_keys)
    return authors


def eligible_authors(corpus: Corpus, window: WindowPair) -> set[str]:
    """Authors with >= 1 publication in each of the window's two spans."""
    return (_authors_in_span(corpus, *window.feature_span)
            & _authors_in_span(corpus, *window.outcome_span))


def outcome_label(corpus: Corpus, pair: CandidatePair) -> int:
    """1 iff some outcome-window publication lists both authors."""
    start, end = pair.window.outcome_span
    pubs_i = corpus.authors.get(pair.i, frozenset())
    pubs_j = corpus.authors.get(pair.j, frozenset())
    for pub_id in pubs_i & pubs_j:
        if start <= corpus.record(pub_id).year <= end:
            return 1
    return 0


def candidate_pairs(corpus: Corpus, window: WindowPair,
                    sampling: Optional[SamplingPolicy] = None,
                    seed: int = 0) -> list[CandidatePair]:
    """Eligible pairs for one window, with deterministic negative sampling.

    An author is eligible with >= 1 publication in the feature span and
    >= 1 in the outcome span. Positive pairs (co-publication in the
    outcome span) are always kept; negatives follow the policy.
    """
    sampling = sampling or SamplingPolicy()
    eligible = eligible_authors(corpus, window)
    if not eligible:
        raise ValueError(f"no eligible authors in window {window.window_id}")
    ordered = sorted(eligible)

    # positives straight from the outcome-span publications
    positives: set[tuple[str, str]] = set()
    o_start, o_end = window.outcome_span
    for pub_id in corpus.pub_ids_in_years(o_start, o_end):
        keys = [k for k in corpus.record(pub_id).author_keys if k in eligible]
        for idx, i in enumerate(keys):
            for j in keys[idx + 1:]:
                positives.add((i, j) if i < j else (j, i))

    kind = sampling.resolved_kind(len(ordered))
    pairs: list[tuple[str, str]] = []
    if kind == "all":
        for idx, i in enumerate(ordered):
            for j in ordered[idx + 1:]:
                pairs.append((i, j))
    else:
        negatives = []
        for idx, i in enumerate(ordered):
            for j in ordered[idx + 1:]:
                if (i, j) not in positives:
                    negatives.append((i, j))
        n_keep = min(len(negatives), int(round(sampling.ratio * max(1, len(positives)))))
        rng = random.Random(stable_seed(seed, window.window_id))
        sampled = rng.sample(negatives, n_keep) if n_keep else []
        pairs = sorted(positives) + sorted(sampled)

    return [CandidatePair(i=i, j=j, window=window) for i, j in pairs]

