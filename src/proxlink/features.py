"""proxlink.features
~~~~~~~~~~~~~~~~~~~~

Joins the geographic, network, cognitive, and institutional feature
sources into one observation row per candidate author pair, stacked
across every window of a scenario. Rows that cannot be fully resolved
(failed geocode, missing knowledge vector, region outside the adjacency
namespace) are excluded and counted by reason; silent row loss is the
main reproducibility hazard here.

The dataset is held as columns, one array per CSV column. Assembly
computes each author's attributes once per window and turns them into
per-pair columns with index arrays. Two per-pair values loop in Python
here: great-circle distance, once per distinct pair of points, and
bridging paths. The cognitive-distance column comes whole from
:func:`proxlink.topics.cognitive_distances`. Each value uses the same
expressions a single pair would, so the bytes written do not depend on
how many pairs are built together.

Distance and network proximity enter as ln(1 + x): both are frequently
zero (co-located pairs, no bridging path), so a plain log is undefined.
This shifts coefficient scale relative to a bare-log specification and is
applied identically in the inferential and ML models.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .corpus import Affiliation, Corpus
from .geo import (
    AdjacencyTable,
    GeocodeCache,
    GeocoderClient,
    RegionTags,
    UnresolvedAddressError,
    haversine_km,
    resolve_affiliation,
)
from .network import (
    CoPubGraph,
    SamplingPolicy,
    WindowPair,
    candidate_pairs,
    eligible_authors,
    outcome_positives,
    tenb,
)
from .topics import cognitive_distances, knowledge_vector

CONTIGUITY_LEVEL = {1: "province", 2: "province", 3: "country", 4: "country"}


def scenario_feature_names(scenario: int, keep_continent: bool = False) -> list[str]:
    """Model features per scenario schema (ordered as declared)."""
    base = ["ln_geo", "ln_tenb", "interaction", "cog_distance"]
    if scenario == 1:
        extra = ["different_province"]
    elif scenario == 2:
        extra = ["different_province", "different_country"]
    else:
        extra = ["different_country"]
    names = base + extra + ["not_contiguous"]
    if scenario in (3, 4) and keep_continent:
        names.append("different_continent")
    return names


CSV_COLUMNS = ("i", "j", "window_id", "co_publication", "geo_distance_km",
               "ln_geo", "tenb", "ln_tenb", "interaction", "cog_distance",
               "different_province", "different_country", "not_contiguous",
               "different_continent")

_Row = namedtuple("_Row", CSV_COLUMNS)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _column_cells(values: Optional[np.ndarray], n: int) -> list[str]:
    """A column's CSV cells: floats as %.17g, integers and names as str."""
    if values is None:
        return [""] * n
    if values.dtype.kind == "f":
        return [format(v, ".17g") for v in values.tolist()]
    return [str(v) for v in values.tolist()]


@dataclass
class Dataset:
    """One scenario's stacked observations plus its build manifest.

    ``columns`` holds one array per CSV_COLUMNS entry, all of one length;
    a column the scenario does not populate is None.
    """

    scenario: int
    columns: dict[str, Optional[np.ndarray]]
    manifest: dict = field(default_factory=dict)
    keep_continent: bool = False

    @property
    def feature_names(self) -> list[str]:
        return scenario_feature_names(self.scenario, self.keep_continent)

    def __len__(self) -> int:
        return len(self.columns["co_publication"])

    @property
    def rows(self) -> list:
        """One named tuple per row, built on each access; nothing in the
        package reads it (the benchmark harness's input summary does)."""
        n = len(self)
        values = [[None] * n if v is None else v.tolist()
                  for v in map(self.columns.get, CSV_COLUMNS)]
        return [_Row(*row) for row in zip(*values)]

    def to_matrix(self, names: Optional[Sequence[str]] = None
                  ) -> tuple[np.ndarray, np.ndarray]:
        names = list(names) if names else self.feature_names
        X = np.column_stack([self.column(n) for n in names])
        return X, self.columns["co_publication"].astype(int)

    def column(self, name: str) -> np.ndarray:
        values = self.columns.get(name)
        if values is None:
            raise KeyError(f"feature {name!r} not populated in this dataset")
        return np.array(values, dtype=float)

    def has_column(self, name: str) -> bool:
        return self.columns.get(name) is not None

    def write_csv(self, path, manifest_path=None) -> None:
        n = len(self)
        cells = [_column_cells(self.columns[c], n) for c in CSV_COLUMNS]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
        if manifest_path is not None:
            with open(manifest_path, "w", encoding="utf-8") as fh:
                json.dump(self.manifest, fh, sort_keys=True, indent=1)
                fh.write("\n")


def canonical_affiliation_in_window(corpus: Corpus, author: str,
                                    span: tuple[int, int]) -> Optional[Affiliation]:
    """The author's first affiliation on their earliest in-window publication."""
    candidates = []
    for pub_id in corpus.authors.get(author, frozenset()):
        rec = corpus.record(pub_id)
        if span[0] <= rec.year <= span[1]:
            candidates.append((rec.year, rec.pub_id, rec))
    if not candidates:
        return None
    _, _, rec = min(candidates)
    for mention in rec.authors:
        if mention.author_key == author:
            return mention.canonical_affiliation
    return None


@dataclass
class GeoContext:
    """Everything needed to turn an affiliation into features."""

    client: Optional[GeocoderClient] = None
    cache: Optional[GeocodeCache] = None
    province_adjacency: Optional[AdjacencyTable] = None
    country_adjacency: Optional[AdjacencyTable] = None

    def adjacency_for(self, level: str) -> AdjacencyTable:
        table = self.province_adjacency if level == "province" else self.country_adjacency
        if table is None:
            table = AdjacencyTable.bundled(level)
            if level == "province":
                self.province_adjacency = table
            else:
                self.country_adjacency = table
        return table


def _author_geo(corpus: Corpus, author: str, span: tuple[int, int],
                geo: GeoContext):
    """(GeoPoint, RegionTags) for an author's canonical window affiliation."""
    aff = canonical_affiliation_in_window(corpus, author, span)
    if aff is None:
        raise UnresolvedAddressError(f"no in-window affiliation for {author}")
    point = resolve_affiliation(aff, geo.client, geo.cache)
    return point, RegionTags.from_affiliation(aff)


def _codes(values: list) -> tuple[np.ndarray, list]:
    """Small integer codes for hashable values (equal values, equal codes)
    and the distinct values in code order."""
    index: dict = {}
    codes = np.array([index.setdefault(v, len(index)) for v in values], dtype=np.intp)
    return codes, list(index)


def _window_columns(corpus: Corpus, window: WindowPair, graph: CoPubGraph,
                    authors: list[str], pairs: np.ndarray, scenario: int,
                    adjacency: AdjacencyTable, geo: GeoContext,
                    topic_vectors: dict[str, np.ndarray],
                    exclusions: dict[str, int]) -> tuple[dict, int]:
    """One window's columns, its exclusions added to ``exclusions``.

    ``authors`` are the window's sorted eligible authors and ``pairs`` the
    (n, 2) indices into them from :func:`candidate_pairs`. Returns the
    columns of the kept pairs, in pair order, and how many of them have a
    zero-variance knowledge vector on either side.
    """
    span = window.feature_span
    m = len(authors)
    I, J = pairs[:, 0], pairs[:, 1]
    keep = np.ones(len(pairs), dtype=bool)

    def exclude(reason: str, ok: np.ndarray) -> None:
        lost = int(np.count_nonzero(keep & ~ok))
        if lost:
            exclusions[reason] = exclusions.get(reason, 0) + lost
        keep[:] &= ok

    # geocode authors in the order the pair list first names them
    points: list = [None] * m
    tags: list = [None] * m
    seen, first = np.unique(pairs.ravel(), return_index=True)
    for a in seen[np.argsort(first)].tolist():
        try:
            points[a], tags[a] = _author_geo(corpus, authors[a], span, geo)
        except (UnresolvedAddressError, ValueError):
            pass
    located = np.array([p is not None for p in points], dtype=bool)
    exclude("unresolved-geocode", located[I] & located[J])

    # knowledge vectors of the authors still in play
    vectors: list = [None] * m
    for a in np.unique(pairs[keep]).tolist():
        pubs = [p for p in corpus.authors.get(authors[a], frozenset())
                if span[0] <= corpus.record(p).year <= span[1]]
        try:
            vectors[a] = knowledge_vector(authors[a], sorted(pubs), topic_vectors)
        except ValueError:
            pass
    has_vector = np.array([v is not None for v in vectors], dtype=bool)
    exclude("missing-knowledge-vector", has_vector[I] & has_vector[J])

    province, provinces = _codes([t and t.province for t in tags])
    country, countries = _codes([t and t.country for t in tags])
    if scenario in (1, 2):
        has_province = np.array([p is not None for p in provinces], dtype=bool)[province]
        exclude("missing-province", has_province[I] & has_province[J])

    # same-region pairs score 0 without an adjacency lookup; any other pair
    # needs both codes in the table's namespace
    region, regions = ((province, provinces) if CONTIGUITY_LEVEL[scenario] == "province"
                       else (country, countries))
    namespace = adjacency.codes
    listed = np.array([r in namespace for r in regions], dtype=bool)[region]
    exclude("region-not-in-adjacency", (region[I] == region[J]) | (listed[I] & listed[J]))

    kept = np.flatnonzero(keep)
    I, J = I[kept], J[kept]
    contiguous = np.array([[a != b and a in namespace and b in namespace
                            and adjacency.contiguous(a, b) for b in regions]
                           for a in regions], dtype=bool)
    not_contiguous = (region[I] != region[J]) & ~contiguous[region[I], region[J]]

    # great-circle distance once per distinct ordered pair of points
    point, distinct_points = _codes(points)
    n_points = len(distinct_points)
    keys, inverse = np.unique(point[I] * n_points + point[J], return_inverse=True)
    distances = [haversine_km(distinct_points[k // n_points], distinct_points[k % n_points])
                 for k in keys.tolist()]
    distance = np.array(distances, dtype=float)[inverse]
    ln_geo = np.array([math.log1p(d) for d in distances], dtype=float)[inverse]

    pair_list = list(zip(I.tolist(), J.tolist()))
    bridging = [tenb(graph, authors[a], authors[b]) for a, b in pair_list]
    ln_tenb = np.array([math.log1p(x) for x in bridging], dtype=float)

    cog, degenerate = cognitive_distances(vectors, I, J)

    positives = outcome_positives(corpus, window, {a: k for k, a in enumerate(authors)})
    label = np.array([p in positives for p in pair_list], dtype=np.int64)

    names = np.array(authors)
    columns = {
        "i": names[I],
        "j": names[J],
        "window_id": np.full(len(I), window.window_id),
        "co_publication": label,
        "geo_distance_km": distance,
        "ln_geo": ln_geo,
        "tenb": np.array(bridging, dtype=float),
        "ln_tenb": ln_tenb,
        "interaction": ln_geo * ln_tenb,
        "cog_distance": cog,
        "different_province": None,
        "different_country": None,
        "not_contiguous": not_contiguous.astype(np.int64),
        "different_continent": None,
    }
    if scenario in (1, 2):
        columns["different_province"] = (province[I] != province[J]).astype(np.int64)
    if scenario in (2, 3, 4):
        columns["different_country"] = (country[I] != country[J]).astype(np.int64)
    if scenario in (3, 4):
        continent, _ = _codes([t and t.resolved_continent for t in tags])
        columns["different_continent"] = (continent[I] != continent[J]).astype(np.int64)
    return columns, int(np.count_nonzero(degenerate))


def assemble(corpus: Corpus, scenario: int, windows: Sequence[WindowPair],
             geo: GeoContext, graphs: dict[str, CoPubGraph],
             topic_vectors: dict[str, np.ndarray],
             sampling: Optional[SamplingPolicy] = None, seed: int = 0,
             keep_continent: bool = False) -> Dataset:
    """Build the per-pair dataset for one scenario.

    ``graphs`` maps window_id to the feature-span co-publication graph;
    ``topic_vectors`` maps pub_id to its topic proportions.
    """
    sampling = sampling or SamplingPolicy()
    level = CONTIGUITY_LEVEL[scenario]
    adjacency = geo.adjacency_for(level)

    blocks: list[dict] = []
    exclusions: dict[str, int] = {}
    degenerate_cognitive = 0
    window_meta = []

    for window in windows:
        if window.window_id not in graphs:
            raise ValueError(f"missing co-publication graph for window {window.window_id}")
        pairs = candidate_pairs(corpus, window, sampling, seed)
        authors = sorted(eligible_authors(corpus, window))
        window_meta.append({
            "window_id": window.window_id,
            "candidate_pairs": len(pairs),
            "eligible_authors": len(authors),
            # perfbench/test_harness.py pins three eligible_authors calls
            # per window: this one, the line above, and candidate_pairs'
            "sampling_kind": sampling.resolved_kind(
                len(eligible_authors(corpus, window))),
        })
        columns, degenerate = _window_columns(
            corpus, window, graphs[window.window_id], authors, pairs, scenario,
            adjacency, geo, topic_vectors, exclusions)
        blocks.append(columns)
        degenerate_cognitive += degenerate

    columns = {name: None if blocks and blocks[0][name] is None
               else np.concatenate([b[name] for b in blocks] or [np.empty(0)])
               for name in CSV_COLUMNS}
    manifest = {
        "scenario": scenario,
        "seed": seed,
        "sampling": {"kind": sampling.kind, "ratio": sampling.ratio,
                     "auto_threshold": sampling.auto_threshold},
        "windows": window_meta,
        "exclusions": dict(sorted(exclusions.items())),
        "degenerate_cognitive_pairs": degenerate_cognitive,
        "rows": len(columns["co_publication"]),
        "contiguity_level": level,
        "feature_names": scenario_feature_names(scenario, keep_continent),
    }
    return Dataset(scenario=scenario, columns=columns, manifest=manifest,
                   keep_continent=keep_continent)


# ---------------------------------------------------------------------------
# Descriptive statistics and the correlation screen
# ---------------------------------------------------------------------------

_DESCRIBE_VARS = ("geo_distance_km", "tenb", "cog_distance", "ln_geo", "ln_tenb")


@dataclass
class DescribeResult:
    rows: list[dict]
    minority_share: float
    cross_country_collab_share: Optional[float]

    def to_csv(self, path) -> None:
        cols = ("variable", "subset", "n", "mean", "std", "min", "q25",
                "median", "q75", "max")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")
            fh.write(f"minority_share,all,,{_fmt(self.minority_share)},,,,,,\n")
            if self.cross_country_collab_share is not None:
                fh.write("cross_country_share,collaborations,,"
                         f"{_fmt(self.cross_country_collab_share)},,,,,,\n")


def describe(ds: Dataset) -> DescribeResult:
    """Per-variable summary overall and on the collaboration subset."""
    if not len(ds):
        raise ValueError("dataset is empty")
    y = ds.column("co_publication")
    out_rows = []
    variables = [v for v in _DESCRIBE_VARS] + [
        n for n in ds.feature_names
        if n not in _DESCRIBE_VARS and n != "interaction"
    ]
    for name in variables:
        values = ds.column(name)
        for subset, mask in (("all", np.ones(len(y), bool)), ("collaborations", y == 1)):
            sel = values[mask]
            if len(sel) == 0:
                continue
            out_rows.append({
                "variable": name, "subset": subset, "n": int(len(sel)),
                "mean": float(sel.mean()), "std": float(sel.std()),
                "min": float(sel.min()),
                "q25": float(np.quantile(sel, 0.25)),
                "median": float(np.quantile(sel, 0.5)),
                "q75": float(np.quantile(sel, 0.75)),
                "max": float(sel.max()),
            })
    positives = y == 1
    cross = None
    if ds.has_column("different_country") and positives.any():
        cross = float(ds.column("different_country")[positives].mean())
    return DescribeResult(rows=out_rows, minority_share=float(positives.mean()),
                          cross_country_collab_share=cross)


@dataclass
class CorrelationScreen:
    names: list[str]
    matrix: np.ndarray
    excluded: list[str]
    zero_variance: list[str]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("," + ",".join(self.names) + "\n")
            for i, name in enumerate(self.names):
                fh.write(name + "," + ",".join(_fmt(float(v)) for v in self.matrix[i]) + "\n")
            fh.write("excluded," + ";".join(self.excluded) + "\n")


def correlation_screen(ds: Dataset, threshold: float = 0.8) -> CorrelationScreen:
    """Pearson matrix over outcome + base features; flags collinear features.

    A feature pair with |r| above the threshold marks the later-declared
    feature for exclusion. Zero-variance columns get r = 0 by convention
    and are reported. The distance-by-network interaction is not screened:
    it is definitionally collinear with its components and enters at model
    time only.
    """
    if len(ds) < 2:
        raise ValueError("need at least 2 rows for correlations")
    names = ["co_publication"] + [n for n in ds.feature_names if n != "interaction"]
    if ds.scenario in (3, 4) and "different_continent" not in names \
            and ds.has_column("different_continent"):
        names.append("different_continent")
    cols = np.column_stack([ds.column(n) for n in names])

    sd = cols.std(axis=0)
    zero_var = [names[i] for i in range(len(names)) if sd[i] == 0]
    matrix = np.eye(len(names))
    centered = cols - cols.mean(axis=0)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if sd[i] == 0 or sd[j] == 0:
                r = 0.0
            else:
                # numpy's pairwise sum, not a BLAS dot: a threaded dot splits
                # long columns by thread count and moves the last bits
                r = float((centered[:, i] * centered[:, j]).sum()
                          / (len(cols) * sd[i] * sd[j]))
            matrix[i, j] = matrix[j, i] = r

    excluded: list[str] = []
    feature_idx = range(1, len(names))  # outcome never excluded
    for i in feature_idx:
        for j in feature_idx:
            if j <= i or names[j] in excluded or names[i] in excluded:
                continue
            if abs(matrix[i, j]) > threshold:
                excluded.append(names[j])
    return CorrelationScreen(names=names, matrix=matrix, excluded=excluded,
                             zero_variance=zero_var)
