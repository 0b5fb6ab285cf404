"""Row-by-row reference for proxlink.features.assemble.

The pair-at-a-time assembly the columnar one replaced: candidate pairs as
name tuples, one outcome lookup, one exclusion cascade, and one
institutional, contiguity, continent and cognitive-distance formula per
pair. Tests compare assemble's columns to these rows bit for bit.
"""
from __future__ import annotations

import math
import random

import numpy as np

from proxlink._rng import stable_seed
from proxlink.corpus import Affiliation, country_continent_table
from proxlink.features import (
    CONTIGUITY_LEVEL,
    _author_geo,
    scenario_feature_names,
)
from proxlink.geo import UnresolvedAddressError, haversine_km
from proxlink.network import AUTO_THRESHOLD, SamplingPolicy, eligible_authors, tenb
from proxlink.topics import has_zero_variance, knowledge_vector

_FLOAT_COLUMNS = ("geo_distance_km", "ln_geo", "tenb", "ln_tenb", "interaction",
                  "cog_distance")


def candidate_pairs(corpus, window, sampling, seed):
    """(i, j) name pairs, i < j, in the order the dataset lists them."""
    eligible = eligible_authors(corpus, window)
    ordered = sorted(eligible)
    positives = set()
    o_start, o_end = window.outcome_span
    for pub_id in corpus.pub_ids_in_years(o_start, o_end):
        keys = [k for k in corpus.record(pub_id).author_keys if k in eligible]
        for idx, i in enumerate(keys):
            for j in keys[idx + 1:]:
                positives.add((i, j) if i < j else (j, i))
    all_pairs = [(i, j) for idx, i in enumerate(ordered) for j in ordered[idx + 1:]]
    if sampling.resolved_kind(len(ordered)) == "all":
        return all_pairs
    negatives = [p for p in all_pairs if p not in positives]
    n_keep = min(len(negatives), int(round(sampling.ratio * max(1, len(positives)))))
    rng = random.Random(stable_seed(seed, window.window_id))
    sampled = rng.sample(negatives, n_keep) if n_keep else []
    return sorted(positives) + sorted(sampled)


def outcome_label(corpus, window, i, j):
    """1 iff some outcome-window publication lists both authors."""
    start, end = window.outcome_span
    for pub_id in corpus.authors.get(i, frozenset()) & corpus.authors.get(j, frozenset()):
        if start <= corpus.record(pub_id).year <= end:
            return 1
    return 0


def region_tags(country, province=None):
    """An ``Affiliation`` that carries only region codes, its continent
    looked up as the corpus loader does."""
    return Affiliation(institution="", city=None, province=province, country=country,
                       continent=country_continent_table()[country])


def institutional_binaries(a, b, scenario):
    """Same-region flags of two affiliations: 0 when the codes match, 1 otherwise.

    Scenario 1 compares provinces; scenario 2 provinces and countries;
    scenarios 3-4 countries only.
    """
    if scenario not in (1, 2, 3, 4):
        raise ValueError(f"scenario must be 1..4, got {scenario}")
    flags = {}
    if scenario in (1, 2):
        if a.province is None or b.province is None:
            raise ValueError(f"scenario {scenario} requires province tags on both sides")
        flags["different_province"] = 0 if a.province == b.province else 1
    if scenario in (2, 3, 4):
        flags["different_country"] = 0 if a.country == b.country else 1
    return flags


def different_continent(a, b):
    return 0 if a.continent == b.continent else 1


def contiguity_binary(a, b, adj, level):
    """1 when the two regions are neither identical nor contiguous, else 0.

    Same-region pairs score 0: the variable isolates the border effect on
    top of distance, and a co-located pair has no border to cross.
    """
    if level == "province":
        if a.province is None or b.province is None:
            raise ValueError("province-level contiguity requires province tags")
        code_a, code_b = a.province, b.province
    elif level == "country":
        code_a, code_b = a.country, b.country
    else:
        raise ValueError(f"unknown contiguity level {level!r}")
    if code_a == code_b:
        return 0
    return 0 if adj.contiguous(code_a, code_b) else 1


def cognitive_distance(s_i, s_j):
    if has_zero_variance(s_i) or has_zero_variance(s_j):
        return 1.0
    if np.array_equal(s_i, s_j):
        return 0.0
    di = s_i - s_i.mean()
    dj = s_j - s_j.mean()
    corr = float(di @ dj / math.sqrt((di @ di) * (dj @ dj)))
    return min(2.0, max(0.0, 1.0 - corr))


def assemble_rows(corpus, scenario, windows, geo, graphs, topic_vectors,
                  sampling=None, seed=0, keep_continent=False):
    """(rows as dicts keyed by CSV_COLUMNS, manifest)."""
    sampling = sampling or SamplingPolicy()
    level = CONTIGUITY_LEVEL[scenario]
    adjacency = geo.adjacency_for(level)
    rows = []
    exclusions = {}
    degenerate = 0
    window_meta = []

    def exclude(reason):
        exclusions[reason] = exclusions.get(reason, 0) + 1

    for window in windows:
        graph = graphs[window.window_id]
        pairs = candidate_pairs(corpus, window, sampling, seed)
        n_eligible = len(eligible_authors(corpus, window))
        window_meta.append({"window_id": window.window_id, "candidate_pairs": len(pairs),
                            "eligible_authors": n_eligible,
                            "sampling_kind": sampling.resolved_kind(n_eligible)})
        span = window.feature_span
        geo_cache, kv_cache = {}, {}

        def author_geo(author):
            if author not in geo_cache:
                try:
                    geo_cache[author] = _author_geo(corpus, author, span, geo)
                except (UnresolvedAddressError, ValueError):
                    geo_cache[author] = None
            return geo_cache[author]

        def author_kv(author):
            if author not in kv_cache:
                pubs = [p for p in corpus.authors.get(author, frozenset())
                        if span[0] <= corpus.record(p).year <= span[1]]
                try:
                    kv_cache[author] = knowledge_vector(author, sorted(pubs), topic_vectors)
                except ValueError:
                    kv_cache[author] = None
            return kv_cache[author]

        for i, j in pairs:
            gi, gj = author_geo(i), author_geo(j)
            if gi is None or gj is None:
                exclude("unresolved-geocode")
                continue
            (point_i, tags_i), (point_j, tags_j) = gi, gj
            si, sj = author_kv(i), author_kv(j)
            if si is None or sj is None:
                exclude("missing-knowledge-vector")
                continue
            try:
                inst = institutional_binaries(tags_i, tags_j, scenario)
            except ValueError:
                exclude("missing-province")
                continue
            try:
                not_contig = contiguity_binary(tags_i, tags_j, adjacency, level)
            except (KeyError, ValueError):
                exclude("region-not-in-adjacency")
                continue
            if has_zero_variance(si) or has_zero_variance(sj):
                degenerate += 1
            distance = haversine_km(point_i, point_j)
            ln_geo = math.log1p(distance)
            t = tenb(graph, i, j)
            ln_tenb = math.log1p(t)
            rows.append({
                "i": i, "j": j, "window_id": window.window_id,
                "co_publication": outcome_label(corpus, window, i, j),
                "geo_distance_km": distance, "ln_geo": ln_geo, "tenb": t,
                "ln_tenb": ln_tenb, "interaction": ln_geo * ln_tenb,
                "cog_distance": cognitive_distance(si, sj),
                "not_contiguous": not_contig,
                "different_province": inst.get("different_province"),
                "different_country": inst.get("different_country"),
                "different_continent": (different_continent(tags_i, tags_j)
                                        if scenario in (3, 4) else None),
            })

    manifest = {
        "scenario": scenario,
        "seed": seed,
        "sampling": {"kind": sampling.kind, "ratio": sampling.ratio,
                     "auto_threshold": AUTO_THRESHOLD},
        "windows": window_meta,
        "exclusions": dict(sorted(exclusions.items())),
        "degenerate_cognitive_pairs": degenerate,
        "rows": len(rows),
        "contiguity_level": level,
        "feature_names": scenario_feature_names(scenario, keep_continent),
    }
    return rows, manifest


def oracle_column(rows, name):
    """A column of the reference rows as the array assemble should hold, or None."""
    values = [r[name] for r in rows]
    if rows and values[0] is None:
        assert all(v is None for v in values)
        return None
    if name in ("i", "j", "window_id"):
        return values
    if name in _FLOAT_COLUMNS:
        assert all(type(v) is float for v in values)
        return np.array(values, dtype=np.float64)
    assert all(type(v) is int for v in values)
    return np.array(values, dtype=np.int64)
