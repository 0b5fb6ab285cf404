"""The columnar assemble against the row-by-row reference, bit for bit."""
import numpy as np
import pytest

from proxlink.corpus import scenario_filter
from proxlink.features import CSV_COLUMNS, GeoContext, _fmt, assemble
from proxlink.geo import AdjacencyTable, GazetteerGeocoder
from proxlink.network import SamplingPolicy, build_graph, make_windows
from proxlink.synthetic import make_synthetic_corpus

from assemble_oracle import assemble_rows, oracle_column
from conftest import corpus_from_dicts

UNRESOLVED, NO_PROVINCE, OFF_TABLE_PROVINCE = "A0001", "A0002", "A0003"
NO_VECTORS, UNIFORM, TWIN_A, TWIN_B = "A0004", "A0005", "A0006", "A0007"
REASONS = {"unresolved-geocode", "missing-knowledge-vector", "missing-province",
           "region-not-in-adjacency"}
# (scenario, keep_continent); scenarios 3-4 without the continent use a
# country table that leaves NL, JP and SG out of its namespace
CASES = [(1, False), (2, False), (3, False), (3, True), (4, False), (4, True)]


class RecordingGazetteer(GazetteerGeocoder):
    """The bundled gazetteer, noting every lookup in call order."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def lookup(self, city, province, country):
        self.calls.append(("lookup", city, province, country))
        return super().lookup(city, province, country)

    def resolve(self, address):
        self.calls.append(("resolve", address))
        return super().resolve(address)


@pytest.fixture(scope="module")
def inputs():
    """A gazetteer-only corpus with one author per exclusion reason and
    topic vectors with zero-variance and identical knowledge vectors."""
    records = make_synthetic_corpus(seed=7, n_authors=24, pubs_per_year=14)
    for rec in records:
        for author in rec["authors"]:
            for aff in author["affiliations"]:
                aff.pop("lat", None)
                aff.pop("lon", None)
                if author["author_key"] == UNRESOLVED:
                    aff["city"] = "atlantis"
                elif author["author_key"] == NO_PROVINCE:
                    aff.pop("province", None)
                elif author["author_key"] == OFF_TABLE_PROVINCE:
                    aff["province"] = "ZZ"
    corpus = corpus_from_dicts(records)

    rng = np.random.default_rng(0)
    vectors = {}
    for rec in corpus.records:
        keys = set(rec.author_keys)
        if NO_VECTORS in keys:
            continue
        if TWIN_A in keys or TWIN_B in keys:
            vectors[rec.pub_id] = np.array([0.5, 0.25, 0.125, 0.125])
        elif UNIFORM in keys:
            vectors[rec.pub_id] = np.full(4, 0.25)
        else:
            vectors[rec.pub_id] = rng.dirichlet(np.ones(4))
    return corpus, vectors


def build(inputs, assemble_fn, scenario, keep_continent, kind):
    full, vectors = inputs
    corpus = scenario_filter(full, scenario)
    windows = make_windows(2000, 2009)
    graphs = {w.window_id: build_graph(corpus, *w.feature_span) for w in windows}
    country_table = None
    if scenario in (3, 4) and not keep_continent:
        country_table = AdjacencyTable("country", [("CA", "US"), ("FR", "CH")], codes=("GB",))
    geo = GeoContext(client=RecordingGazetteer(), country_adjacency=country_table)
    out = assemble_fn(corpus, scenario, windows, geo, graphs, vectors,
                      sampling=SamplingPolicy(kind=kind, ratio=2.0), seed=3,
                      keep_continent=keep_continent)
    return out, geo.client.calls


@pytest.mark.parametrize("kind", ["all", "ratio"])
@pytest.mark.parametrize("scenario,keep_continent", CASES)
def test_columns_match_row_oracle(inputs, scenario, keep_continent, kind, tmp_path):
    ds, calls = build(inputs, assemble, scenario, keep_continent, kind)
    (rows, manifest), oracle_calls = build(inputs, assemble_rows, scenario,
                                           keep_continent, kind)
    assert rows
    assert ds.manifest == manifest
    assert calls == oracle_calls  # same authors geocoded, in the same order
    for name in CSV_COLUMNS:
        expected, got = oracle_column(rows, name), ds.columns[name]
        if expected is None:
            assert got is None, name
        elif isinstance(expected, list):
            assert got.tolist() == expected, name
        else:
            assert got.dtype == expected.dtype, name
            assert got.tobytes() == expected.tobytes(), name

    assert [r._asdict() for r in ds.rows] == rows  # the on-demand row view

    ds.write_csv(tmp_path / "dataset.csv")
    lines = [",".join(CSV_COLUMNS)] + [",".join(_fmt(r[c]) for c in CSV_COLUMNS)
                                       for r in rows]
    assert (tmp_path / "dataset.csv").read_text() == "\n".join(lines) + "\n"


def test_cases_reach_every_branch(inputs):
    reasons, degenerate, twins = set(), 0, []
    for scenario, keep_continent in CASES:
        ds, _ = build(inputs, assemble, scenario, keep_continent, "all")
        reasons |= set(ds.manifest["exclusions"])
        degenerate += ds.manifest["degenerate_cognitive_pairs"]
        cols = ds.columns
        twins += [c for i, j, c in zip(cols["i"], cols["j"], cols["cog_distance"])
                  if (i, j) == (TWIN_A, TWIN_B)]
    assert reasons == REASONS
    assert degenerate > 0  # the 1.0 branch
    assert twins and all(c == 0.0 for c in twins)  # the identical-vector branch
