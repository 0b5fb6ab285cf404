"""Deterministic synthetic corpus for demos and end-to-end tests.

Generates a small publication stream with the structure the models look
for: three research communities with distinct vocabularies, authors
anchored to real city coordinates, and collaboration odds that favour
co-located, same-community, and previously-connected author pairs.
"""
from __future__ import annotations

import json
import random

_CITIES = [
    # city, province, country, lat, lon
    ("montreal", "QC", "CA", 45.5019, -73.5674),
    ("toronto", "ON", "CA", 43.6532, -79.3832),
    ("vancouver", "BC", "CA", 49.2827, -123.1207),
    ("ottawa", "ON", "CA", 45.4215, -75.6972),
    ("edmonton", "AB", "CA", 53.5461, -113.4938),
    ("waterloo", "ON", "CA", 43.4643, -80.5204),
    ("boston", "MA", "US", 42.3601, -71.0589),
    ("new york", "NY", "US", 40.7128, -74.0060),
    ("berkeley", "CA", "US", 37.8715, -122.2730),
    ("seattle", "WA", "US", 47.6062, -122.3321),
    ("london", None, "GB", 51.5074, -0.1278),
    ("paris", None, "FR", 48.8566, 2.3522),
    ("zurich", None, "CH", 47.3769, 8.5417),
    ("amsterdam", None, "NL", 52.3676, 4.9041),
    ("tokyo", None, "JP", 35.6762, 139.6503),
    ("singapore", None, "SG", 1.3521, 103.8198),
]

_COMMUNITY_VOCAB = [
    ["neural", "network", "gradient", "vision", "image", "convolution",
     "training", "layer", "embedding", "recognition", "feature", "deep"],
    ["logic", "reasoning", "symbolic", "planning", "ontology", "inference",
     "knowledge", "rule", "semantic", "query", "constraint", "proof"],
    ["robot", "control", "sensor", "motion", "dynamics", "trajectory",
     "actuator", "navigation", "manipulation", "feedback", "kinematics", "drone"],
]

_SHARED_VOCAB = ["algorithm", "model", "system", "method", "evaluation",
                 "benchmark", "performance", "analysis", "framework", "data"]

_DOC_TYPES = ["article", "article", "article", "conference", "conference", "chapter"]

FIRST_YEAR, LAST_YEAR = 2000, 2009
CANADIAN_SHARE = 0.45  # share of authors placed in Canadian cities


def make_synthetic_corpus(seed: int = 7, n_authors: int = 48,
                          pubs_per_year: int = 30) -> list[dict]:
    """Generate records in the JSON-lines corpus schema (as dicts)."""
    rng = random.Random(seed)
    ca_cities = [c for c in _CITIES if c[2] == "CA"]
    other_cities = [c for c in _CITIES if c[2] != "CA"]

    authors = []
    for a in range(n_authors):
        if a < int(round(CANADIAN_SHARE * n_authors)):
            city = ca_cities[a % len(ca_cities)]
        else:
            city = other_cities[a % len(other_cities)]
        authors.append({
            "key": f"A{a:04d}",
            "name": f"Author {a:04d}",
            "city": city,
            "community": a % 3,
        })

    def affiliation(author):
        city, province, country, lat, lon = author["city"]
        aff = {
            "institution": f"university of {city}",
            "city": city,
            "country": country,
            "lat": lat,
            "lon": lon,
        }
        if province:
            aff["province"] = province
        return aff

    def partner_weight(a, b, past_pairs):
        w = 1.0
        if a["city"][0] == b["city"][0]:
            w *= 8.0
        if a["community"] == b["community"]:
            w *= 4.0
        if (a["key"], b["key"]) in past_pairs or (b["key"], a["key"]) in past_pairs:
            w *= 6.0
        return w

    def make_text(community: int):
        vocab = _COMMUNITY_VOCAB[community]
        title_words = [rng.choice(vocab) for _ in range(3)] + [rng.choice(_SHARED_VOCAB)]
        abstract_words = ([rng.choice(vocab) for _ in range(10)]
                          + [rng.choice(_SHARED_VOCAB) for _ in range(5)])
        rng.shuffle(abstract_words)
        title = ("machine learning for " + " ".join(title_words)).capitalize() + "."
        abstract = ("We study " + " ".join(abstract_words)
                    + " with artificial intelligence methods.")
        return title, abstract, [rng.choice(vocab), rng.choice(_SHARED_VOCAB)]

    records = []
    past_pairs: set[tuple[str, str]] = set()
    pub_no = 0
    for year in range(FIRST_YEAR, LAST_YEAR + 1):
        for _ in range(pubs_per_year):
            lead = rng.choice(authors)
            team = [lead]
            n_partners = rng.choices([0, 1, 2], weights=[0.25, 0.5, 0.25])[0]
            pool = [a for a in authors if a["key"] != lead["key"]]
            for _ in range(n_partners):
                weights = [partner_weight(lead, b, past_pairs) for b in pool]
                pick = rng.choices(range(len(pool)), weights=weights)[0]
                team.append(pool.pop(pick))
            for idx_a in range(len(team)):
                for idx_b in range(idx_a + 1, len(team)):
                    past_pairs.add((team[idx_a]["key"], team[idx_b]["key"]))

            title, abstract, keywords = make_text(lead["community"])
            records.append({
                "pub_id": f"P{pub_no:05d}",
                "year": year,
                "title": title,
                "abstract": abstract,
                "keywords": keywords,
                "doc_type": rng.choice(_DOC_TYPES),
                "authors": [
                    {"author_key": a["key"], "name": a["name"],
                     "affiliations": [affiliation(a)]}
                    for a in team
                ],
            })
            pub_no += 1
    return records


def write_synthetic_corpus(path, **kwargs) -> int:
    records = make_synthetic_corpus(**kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return len(records)
