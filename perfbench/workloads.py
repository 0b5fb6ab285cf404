"""Benchmark workloads: each turns a seed into a corpus file and a run config.

The program only ever sees the corpus written here and the ``RunConfig``
built from the returned dict. Everything is a pure function of the seed,
so the same seed gives byte-identical inputs on every commit.

The seed varies content, not size. ``text`` draws fixed-length documents.
``scaled`` and ``protocol`` take the bundled generator's corpus at its
default seed and let the workload seed rename authors and reorder
abstract words (``reshuffle``): records, co-authorships, eligible authors,
positives and tokens stay the same, so every seed asks for the same work.
``demo`` is the golden demo corpus whatever the seed.
"""
from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from typing import Callable

# Cities with explicit coordinates for the text workload's authors.
_TEXT_CITIES = [
    ("montreal", "QC", "CA", 45.5019, -73.5674),
    ("toronto", "ON", "CA", 43.6532, -79.3832),
    ("boston", "MA", "US", 42.3601, -71.0589),
    ("paris", None, "FR", 48.8566, 2.3522),
    ("zurich", None, "CH", 47.3769, 8.5417),
    ("tokyo", None, "JP", 35.6762, 139.6503),
]

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "t", "v", "z",
           "br", "dr", "gr", "kl", "pl", "tr", "st"]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ou"]
_CODAS = ["", "", "", "n", "r", "m", "x", "k"]


def pseudo_vocabulary(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct lowercase pseudo-words of three syllables."""
    words: set[str] = set()
    out: list[str] = []
    while len(out) < size:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI) for _ in range(3))
        word += rng.choice(_CODAS)
        if word not in words:
            words.add(word)
            out.append(word)
    return out


def topic_text_corpus(seed: int, n_docs: int, words_per_doc: int, n_topics: int,
                      vocab_size: int, zipf_s: float = 1.2,
                      doc_alpha: float = 0.1) -> list[dict]:
    """Records whose title+abstract are drawn from latent Zipfian topics.

    Each topic ranks the whole pseudo-vocabulary in its own random order
    and draws words with Zipf weights 1 / rank**s; each document mixes
    topics with Dirichlet(doc_alpha) proportions. Authors carry explicit
    coordinates, so geocoding never consults the gazetteer.
    """
    rng = random.Random(seed)
    vocab = pseudo_vocabulary(rng, vocab_size)
    cum = []
    total = 0.0
    for rank in range(1, vocab_size + 1):
        total += 1.0 / rank ** zipf_s
        cum.append(total)
    orders = []
    for _ in range(n_topics):
        order = list(vocab)
        rng.shuffle(order)
        orders.append(order)

    authors = [(f"T{a:04d}", _TEXT_CITIES[a % len(_TEXT_CITIES)]) for a in range(60)]
    records = []
    for d in range(n_docs):
        weights = [rng.gammavariate(doc_alpha, 1.0) + 1e-12 for _ in range(n_topics)]
        mix = []
        acc = 0.0
        for w in weights:
            acc += w
            mix.append(acc)
        words = []
        for _ in range(words_per_doc):
            topic = bisect.bisect_left(mix, rng.random() * acc)
            rank = bisect.bisect_left(cum, rng.random() * total)
            words.append(orders[min(topic, n_topics - 1)][min(rank, vocab_size - 1)])
        team = rng.sample(authors, rng.choice([1, 2, 3]))
        records.append({
            "pub_id": f"X{d:05d}",
            "year": 2000 + d % 10,
            "title": " ".join(words[:10]),
            "abstract": " ".join(words[10:]),
            "keywords": [],
            "doc_type": "article",
            "authors": [_author_entry(key, city) for key, city in team],
        })
    return records


def _author_entry(key: str, city: tuple) -> dict:
    name, province, country, lat, lon = city
    aff = {"institution": f"institute {key.lower()}", "city": name,
           "country": country, "lat": lat, "lon": lon}
    if province:
        aff["province"] = province
    return {"author_key": key, "name": f"Author {key}", "affiliations": [aff]}


def strip_coordinates(records: list[dict]) -> list[dict]:
    """Drop explicit lat/lon so every affiliation goes through the gazetteer."""
    for rec in records:
        for author in rec["authors"]:
            for aff in author["affiliations"]:
                aff.pop("lat", None)
                aff.pop("lon", None)
    return records


def reshuffle(records: list[dict], seed: int) -> list[dict]:
    """Rename authors by a seeded permutation and shuffle abstract words.

    Renaming reorders the sorted pair space, so ratio sampling draws other
    negatives and folds split other rows; the shuffled words give the
    topic sampler another path. Counts of every kind are unchanged.
    """
    rng = random.Random(seed)
    keys = sorted({a["author_key"] for rec in records for a in rec["authors"]})
    renamed = keys[:]
    rng.shuffle(renamed)
    rename = dict(zip(keys, renamed))
    for rec in records:
        words = rec["abstract"].split()
        rng.shuffle(words)
        rec["abstract"] = " ".join(words)
        for author in rec["authors"]:
            author["author_key"] = rename[author["author_key"]]
            author["name"] = f"Author {author['author_key']}"
    return records


def write_records(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    through: str
    # (corpus_path, seed, tiny) -> RunConfig keyword arguments
    build: Callable[[str, int, bool], dict]


def _demo_config(corpus: str, **overrides) -> dict:
    from proxlink.pipeline import demo_config

    cfg = demo_config(corpus, out="out").to_dict()
    cfg.update(overrides)
    return cfg


BASE_SEED = 7  # make_demo_corpus's default: the demo corpus users get


def synthetic(seed: int, **sizes) -> list[dict]:
    from proxlink.synthetic import make_synthetic_corpus

    return reshuffle(make_synthetic_corpus(seed=BASE_SEED, **sizes), seed)


def build_demo(corpus: str, seed: int, tiny: bool) -> dict:
    """The golden demo: the same corpus for every seed (see WORKLOADS.md)."""
    from proxlink.pipeline import make_demo_corpus

    make_demo_corpus(corpus, seed=BASE_SEED)
    if tiny:
        return _demo_config(corpus, lda_iterations=10, n_random=1, max_grid_fits=1,
                            explain_rows=4, explain_background=8)
    return _demo_config(corpus)


def build_text(corpus: str, seed: int, tiny: bool) -> dict:
    """Five latent topics, so the K grid picks K=5 on every seed.

    The final fit runs at the chosen K; with twelve latent topics the
    choice fell on 10 or 15 by seed and moved the run by 10 %.
    """
    n_docs, words, sweeps = (40, 40, 2) if tiny else (240, 150, 20)
    write_records(corpus, topic_text_corpus(seed, n_docs=n_docs, words_per_doc=words,
                                            n_topics=5, vocab_size=6000))
    return _demo_config(corpus, scenario=4, lda_k_grid=[5, 10, 15],
                        lda_iterations=sweeps, lda_alpha=None)


def build_scaled(corpus: str, seed: int, tiny: bool) -> dict:
    n_authors, per_year = (30, 30) if tiny else (72, 96)
    write_records(corpus, strip_coordinates(synthetic(
        seed, n_authors=n_authors, pubs_per_year=per_year)))
    return _demo_config(corpus, scenario=4, sampling_kind="all", lda_k_grid=[4],
                        lda_iterations=20, lda_alpha=0.1,
                        classifiers=["gaussian-naive-bayes"],
                        n_random=2, max_grid_fits=2)


PROTOCOL_KINDS = ["logistic-sgd", "gaussian-naive-bayes", "k-nearest-neighbors",
                  "linear-svm", "random-forest", "gradient-boosted-trees"]


def build_protocol(corpus: str, seed: int, tiny: bool) -> dict:
    n_authors, per_year = (40, 20) if tiny else (64, 36)
    write_records(corpus, synthetic(seed, n_authors=n_authors, pubs_per_year=per_year))
    return _demo_config(corpus, scenario=2, classifiers=list(PROTOCOL_KINDS),
                        n_random=1, max_grid_fits=1, folds=3,
                        explain_rows=3, explain_background=8,
                        lda_k_grid=[3], lda_iterations=10 if tiny else 40)


WORKLOADS = {w.name: w for w in (
    Workload("demo", "the golden demo bundle users run first; small, so fixed costs show",
             "report", build_demo),
    Workload("text", "realistic vocabulary; topic modelling does nearly all the work",
             "topics", build_text),
    Workload("scaled", "gazetteer path, all-mode pair space, SMOTE, tenb and logit load",
             "report", build_scaled),
    Workload("protocol", "the paper's six-classifier protocol; small SMOTE",
             "report", build_protocol),
)}
