import json

import pytest

from proxlink.corpus import build_corpus, CorpusConfig
from proxlink.corpus import _parse_record  # noqa: F401  (used via make_record)
from proxlink.topics import cognitive_distances


def make_record_dict(pub_id="P1", year=2005, title="Deep learning models",
                     abstract="We train deep neural network models on data.",
                     keywords=("machine learning",), doc_type="article",
                     authors=None):
    if authors is None:
        authors = [author_dict("A1")]
    return {
        "pub_id": pub_id, "year": year, "title": title, "abstract": abstract,
        "keywords": list(keywords), "doc_type": doc_type, "authors": authors,
    }


def author_dict(key, name=None, institution="univ test", city="montreal",
                province="QC", country="CA", lat=45.5019, lon=-73.5674):
    aff = {"institution": institution, "city": city, "country": country,
           "lat": lat, "lon": lon}
    if province:
        aff["province"] = province
    return {"author_key": key, "name": name or f"Author {key}",
            "affiliations": [aff]}


def pair_distance(s_i, s_j):
    """The cognitive distance of one pair, through the package's column kernel."""
    return float(cognitive_distances([s_i, s_j], [0], [1])[0][0])


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


def corpus_from_dicts(records, config=None):
    cfg = config or CorpusConfig()
    from proxlink.corpus import _parse_record
    return build_corpus([_parse_record(r, cfg) for r in records])


@pytest.fixture
def toy_corpus_file(tmp_path):
    """Three valid publications by four authors across two cities."""
    records = [
        make_record_dict("P1", 2005, authors=[author_dict("A1"), author_dict("A2")]),
        make_record_dict("P2", 2006, authors=[author_dict("A1"),
                                              author_dict("A3", city="toronto",
                                                          province="ON",
                                                          lat=43.6532, lon=-79.3832)]),
        make_record_dict("P3", 2007, authors=[author_dict("A4")]),
    ]
    return write_jsonl(tmp_path / "corpus.jsonl", records)


@pytest.fixture
def usable_cpus(monkeypatch):
    """Sets the number of CPUs that ``fork_map`` may use; no forked child
    may outlive the test."""
    import os

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    yield set_cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def one_cpu(usable_cpus):
    """Everything runs in-process, so a spy in the tested code sees every call."""
    usable_cpus(1)
