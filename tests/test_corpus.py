import json

import pytest

from proxlink.corpus import (
    CorpusConfig,
    CorpusError,
    author_key_of,
    dump_corpus,
    load_corpus,
    scenario_filter,
)

from conftest import author_dict, make_record_dict, write_jsonl


class TestLoadCorpus:
    def test_three_valid_records(self, toy_corpus_file):
        corpus = load_corpus(toy_corpus_file)
        assert len(corpus) == 3
        assert corpus.authors["A1"] == frozenset({"P1", "P2"})
        assert corpus.authors["A4"] == frozenset({"P3"})
        assert corpus.year_index[2005] == ("P1",)

    def test_missing_abstract_excluded_and_counted(self, tmp_path):
        records = [
            make_record_dict("P1"),
            make_record_dict("P2", abstract=""),
        ]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", records))
        assert len(corpus) == 1
        assert corpus.exclusions["missing-title-or-abstract"] == 1

    def test_duplicate_pub_id_errors_naming_id(self, tmp_path):
        records = [make_record_dict("P9"), make_record_dict("P9")]
        with pytest.raises(CorpusError, match="P9"):
            load_corpus(write_jsonl(tmp_path / "c.jsonl", records))

    def test_year_out_of_range_excluded(self, tmp_path):
        records = [make_record_dict("P1", year=1999), make_record_dict("P2")]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", records))
        assert len(corpus) == 1
        assert corpus.exclusions["year-out-of-range"] == 1

    def test_invalid_country_excluded(self, tmp_path):
        bad = make_record_dict("P1", authors=[author_dict("A1", country="XX")])
        records = [bad, make_record_dict("P2")]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", records))
        assert len(corpus) == 1
        assert corpus.exclusions["missing-or-invalid-country"] == 1

    @pytest.mark.parametrize("bad, reason", [
        pytest.param({**make_record_dict("P1"), "authors": "x"}, "malformed-field",
                     id="authors-text"),
        pytest.param(make_record_dict("P1", title=5), "malformed-field", id="title-number"),
        pytest.param({**make_record_dict("P1"), "keywords": "deep"}, "malformed-field",
                     id="keywords-text"),
        pytest.param(make_record_dict("P1", authors=["A1"]), "malformed-field",
                     id="author-text"),
        pytest.param(make_record_dict("P1", authors=[author_dict("A1", city=["montreal"])]),
                     "malformed-field", id="city-list"),
        pytest.param(make_record_dict("P1", authors=[author_dict("A1", lat=[1])]),
                     "malformed-field", id="lat-list"),
        pytest.param(make_record_dict("P1", authors=[author_dict("A1", lat=True)]),
                     "malformed-field", id="lat-bool"),
        pytest.param(make_record_dict("P1", authors=[author_dict("A1", lat="abc")]),
                     "invalid-coordinates", id="lat-text"),
        pytest.param(make_record_dict("P1", authors=[author_dict("A1", lat=95)]),
                     "invalid-coordinates", id="lat-95"),
        pytest.param(make_record_dict("P1", authors=[author_dict("A1", lon=-180.5)]),
                     "invalid-coordinates", id="lon-beyond-180"),
        pytest.param(make_record_dict("P1", authors=[author_dict("A1", lat=float("nan"))]),
                     "invalid-coordinates", id="lat-nan"),
        pytest.param(make_record_dict("P1", authors=[author_dict("A1", lon=10 ** 400)]),
                     "invalid-coordinates", id="lon-huge-int"),
    ])
    def test_wrong_types_and_bad_coordinates_excluded(self, tmp_path, bad, reason):
        # next to a valid record with coordinates on the bounds
        valid = make_record_dict("P2", authors=[author_dict("A2", lat=-90, lon=180)])
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", [bad, valid]))
        assert [r.pub_id for r in corpus.records] == ["P2"]
        assert dict(corpus.exclusions) == {reason: 1}

    def test_non_object_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(make_record_dict("P1")) + "\n")
            fh.write("[1, 2]\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(make_record_dict("P1")) + "\n")
            fh.write("{not json\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_zero_valid_records_errors(self, tmp_path):
        records = [make_record_dict("P1", abstract="")]
        with pytest.raises(CorpusError, match="no valid records"):
            load_corpus(write_jsonl(tmp_path / "c.jsonl", records))

    def test_unreadable_file_errors(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            load_corpus(tmp_path / "does-not-exist.jsonl")

    def test_ai_phrase_filter(self, tmp_path):
        records = [
            make_record_dict("P1", title="Deep learning for chemistry",
                             abstract="A machine learning study.", keywords=()),
            make_record_dict("P2", title="Plain chemistry",
                             abstract="Nothing to see here.", keywords=()),
        ]
        cfg = CorpusConfig(ai_phrase_filter=True)
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", records), cfg)
        assert len(corpus) == 1
        assert corpus.exclusions["no-ai-phrase"] == 1


class TestRoundTrip:
    def test_dump_then_load_reproduces_corpus(self, toy_corpus_file, tmp_path):
        corpus = load_corpus(toy_corpus_file)
        dumped = tmp_path / "canonical.jsonl"
        dump_corpus(corpus, dumped)
        reloaded = load_corpus(dumped)
        assert sorted(r.pub_id for r in reloaded.records) == \
               sorted(r.pub_id for r in corpus.records)
        assert reloaded.authors == corpus.authors
        assert reloaded.year_index == corpus.year_index
        for rec in corpus.records:
            assert reloaded.record(rec.pub_id) == rec

    def test_author_index_is_transpose_of_records(self, toy_corpus_file):
        corpus = load_corpus(toy_corpus_file)
        for key, pubs in corpus.authors.items():
            listed = sum(1 for r in corpus.records if key in r.author_keys)
            assert listed == len(pubs)


class TestScenarioFilter:
    def _mixed_corpus(self, tmp_path):
        records = [
            make_record_dict("CA1", authors=[author_dict("A1"), author_dict("A2")]),
            make_record_dict("MIX", authors=[
                author_dict("A1"),
                author_dict("F1", city="paris", province=None, country="FR",
                            lat=48.8566, lon=2.3522),
            ]),
            make_record_dict("US1", authors=[
                author_dict("U1", city="boston", province="MA", country="US",
                            lat=42.3601, lon=-71.0589)]),
            make_record_dict("AS1", authors=[
                author_dict("J1", city="tokyo", province=None, country="JP",
                            lat=35.6762, lon=139.6503)]),
        ]
        return load_corpus(write_jsonl(tmp_path / "c.jsonl", records))

    def test_scenario_4_is_identity(self, tmp_path):
        corpus = self._mixed_corpus(tmp_path)
        assert scenario_filter(corpus, 4) is corpus

    def test_scenario_1_keeps_all_canadian_pubs(self, tmp_path):
        # one all-Canadian pub, one with a French co-author
        corpus = self._mixed_corpus(tmp_path)
        s1 = scenario_filter(corpus, 1)
        assert [r.pub_id for r in s1.records] == ["CA1"]

    def test_scenarios_nest(self, tmp_path):
        corpus = self._mixed_corpus(tmp_path)
        ids = {s: {r.pub_id for r in scenario_filter(corpus, s).records}
               for s in (1, 2, 3, 4)}
        assert ids[1] <= ids[2] <= ids[3] <= ids[4]
        assert ids[2] == {"CA1", "US1"}
        assert ids[3] == {"CA1", "US1", "MIX"}

    def test_empty_result_errors(self, tmp_path):
        records = [make_record_dict("EU1", authors=[
            author_dict("F1", city="paris", province=None, country="FR",
                        lat=48.8566, lon=2.3522)])]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", records))
        with pytest.raises(CorpusError, match="zero records"):
            scenario_filter(corpus, 2)

    def test_bad_scenario(self, tmp_path):
        corpus = self._mixed_corpus(tmp_path)
        with pytest.raises(ValueError):
            scenario_filter(corpus, 5)


class TestAuthorKey:
    def test_source_id_verbatim(self):
        assert author_key_of("7004212771", "J. Smith", "MIT", "source-id") == "7004212771"

    def test_deterministic(self):
        k1 = author_key_of(None, "J. Smith", "MIT", "name-affiliation")
        k2 = author_key_of(None, "J. Smith", "MIT", "name-affiliation")
        assert k1 == k2

    def test_distinct_institutions_distinct_keys(self):
        k1 = author_key_of(None, "J. Smith", "MIT", "name-affiliation")
        k2 = author_key_of(None, "J. Smith", "ETH", "name-affiliation")
        assert k1 != k2

    def test_auto_prefers_source_id(self):
        assert author_key_of("id9", "J. Smith", "MIT", "auto") == "id9"
        assert author_key_of(None, "J. Smith", "MIT", "auto") == "j. smith|mit"

    def test_nothing_to_key_on(self):
        with pytest.raises(ValueError):
            author_key_of(None, None, None, "auto")
        with pytest.raises(ValueError):
            author_key_of(None, "J. Smith", "MIT", "source-id")
