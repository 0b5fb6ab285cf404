import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import proxlink

from proxlink.features import (
    CONTIGUITY_LEVEL,
    CSV_COLUMNS,
    Dataset,
    GeoContext,
    _quantile,
    assemble,
    canonical_affiliation_in_window,
    correlation_screen,
    describe,
    scenario_feature_names,
)
from proxlink.geo import GazetteerGeocoder
from proxlink.network import build_graph, make_windows

from conftest import author_dict, corpus_from_dicts, make_record_dict


def toy_setup(records):
    corpus = corpus_from_dicts(records)
    windows = make_windows(2000, 2004)
    graphs = {w.window_id: build_graph(corpus, *w.feature_span) for w in windows}
    return corpus, windows, graphs


def uniform_topic_vectors(corpus, dim=3, spread=False):
    out = {}
    for idx, rec in enumerate(corpus.records):
        vec = np.zeros(dim)
        if spread:
            vec[idx % dim] = 0.8
            vec += 0.2 / dim
            vec /= vec.sum()
        else:
            vec[0] = 0.7
            vec[1] = 0.2
            vec[2] = 0.1
        out[rec.pub_id] = vec
    return out


class TestAssemble:
    def test_colocated_collaborators_row(self):
        records = [
            make_record_dict("P1", 2001, authors=[author_dict("A1"), author_dict("A2")]),
            make_record_dict("P2", 2003, authors=[author_dict("A1"), author_dict("A2")]),
        ]
        corpus, windows, graphs = toy_setup(records)
        ds = assemble(corpus, 1, windows, GeoContext(client=GazetteerGeocoder()),
                      graphs, uniform_topic_vectors(corpus), seed=0)
        assert len(ds) == 1
        row = {name: values[0] for name, values in ds.columns.items() if values is not None}
        assert row["co_publication"] == 1
        assert row["geo_distance_km"] == 0.0
        assert row["ln_geo"] == 0.0
        assert row["tenb"] == 0.0
        assert row["cog_distance"] == pytest.approx(0.0, abs=1e-12)
        assert row["different_province"] == 0
        assert row["not_contiguous"] == 0
        assert ds.columns["different_country"] is None

    def test_author_without_feature_window_pubs_absent(self):
        records = [
            make_record_dict("P1", 2001, authors=[author_dict("A1"), author_dict("A2")]),
            make_record_dict("P2", 2003, authors=[author_dict("A1"), author_dict("A2"),
                                                  author_dict("A9")]),
        ]
        corpus, windows, graphs = toy_setup(records)
        ds = assemble(corpus, 1, windows, GeoContext(client=GazetteerGeocoder()),
                      graphs, uniform_topic_vectors(corpus), seed=0)
        involved = set(ds.columns["i"]) | set(ds.columns["j"])
        assert "A9" not in involved

    def test_unresolvable_geocode_excluded_and_counted(self):
        lost = author_dict("A3", city="atlantis", lat=None, lon=None)
        records = [
            make_record_dict("P1", 2001, authors=[author_dict("A1"), lost]),
            make_record_dict("P2", 2003, authors=[author_dict("A1"), lost]),
        ]
        corpus, windows, graphs = toy_setup(records)
        ds = assemble(corpus, 1, windows, GeoContext(client=GazetteerGeocoder()),
                      graphs, uniform_topic_vectors(corpus), seed=0)
        assert len(ds) == 0
        assert ds.manifest["exclusions"]["unresolved-geocode"] == 1

    def test_missing_topic_vector_excluded_and_counted(self):
        records = [
            make_record_dict("P1", 2001, authors=[author_dict("A1"), author_dict("A2")]),
            make_record_dict("P2", 2003, authors=[author_dict("A1"), author_dict("A2")]),
        ]
        corpus, windows, graphs = toy_setup(records)
        ds = assemble(corpus, 1, windows, GeoContext(client=GazetteerGeocoder()),
                      graphs, topic_vectors={}, seed=0)
        assert len(ds) == 0
        assert ds.manifest["exclusions"]["missing-knowledge-vector"] == 1

    def test_ln_transforms_round_trip(self):
        records = [
            make_record_dict("P1", 2001, authors=[
                author_dict("A1"),
                author_dict("A2", city="toronto", province="ON",
                            lat=43.6532, lon=-79.3832),
                author_dict("A3", city="vancouver", province="BC",
                            lat=49.2827, lon=-123.1207)]),
            make_record_dict("P2", 2003, authors=[author_dict("A1"), author_dict("A2"),
                                                  author_dict("A3")]),
        ]
        corpus, windows, graphs = toy_setup(records)
        ds = assemble(corpus, 1, windows, GeoContext(client=GazetteerGeocoder()),
                      graphs, uniform_topic_vectors(corpus), seed=0)
        assert len(ds) == 3
        cols = ds.columns
        for d, ln_geo, t, ln_tenb, interaction in zip(
                cols["geo_distance_km"], cols["ln_geo"], cols["tenb"], cols["ln_tenb"],
                cols["interaction"]):
            assert math.expm1(ln_geo) == pytest.approx(d, rel=1e-9)
            assert math.expm1(ln_tenb) == pytest.approx(t, rel=1e-9)
            assert interaction == ln_geo * ln_tenb

    def test_rebuild_is_byte_identical(self, tmp_path):
        records = [
            make_record_dict("P1", 2001, authors=[author_dict("A1"), author_dict("A2")]),
            make_record_dict("P2", 2002, authors=[author_dict("A2"),
                                                  author_dict("A3", city="toronto",
                                                              province="ON",
                                                              lat=43.6532, lon=-79.3832)]),
            make_record_dict("P3", 2003, authors=[author_dict("A1"), author_dict("A3")]),
            make_record_dict("P4", 2004, authors=[author_dict("A2")]),
        ]
        corpus, windows, graphs = toy_setup(records)
        paths = []
        for run in (1, 2):
            ds = assemble(corpus, 1, windows, GeoContext(client=GazetteerGeocoder()),
                          graphs, uniform_topic_vectors(corpus, spread=True), seed=3)
            p = tmp_path / f"ds{run}.csv"
            ds.write_csv(p, manifest_path=tmp_path / f"m{run}.json")
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
        # accounting: every candidate pair is either a row or a counted exclusion
        candidates = sum(w["candidate_pairs"] for w in ds.manifest["windows"])
        excluded = sum(ds.manifest["exclusions"].values())
        assert len(ds) == candidates - excluded

    def test_comma_in_a_name_affiliation_key_reads_back(self, tmp_path):
        # without an author_key, "auto" keys on name|institution, which
        # here holds a comma (and a quote)
        def mention(name, **kw):
            return author_dict(None, name=name,
                               institution='univ test, department of "computing"', **kw)

        records = [
            make_record_dict("P1", 2001, authors=[mention("Ann Lee"), mention("Bo Chen")]),
            make_record_dict("P2", 2002, authors=[mention("Bo Chen"),
                                                  mention("Cy Diaz", city="toronto",
                                                          province="ON", lat=43.6532,
                                                          lon=-79.3832)]),
            make_record_dict("P3", 2003, authors=[mention("Ann Lee"), mention("Cy Diaz")]),
        ]
        corpus, windows, graphs = toy_setup(records)
        ds = assemble(corpus, 1, windows, GeoContext(client=GazetteerGeocoder()),
                      graphs, uniform_topic_vectors(corpus, spread=True), seed=3)
        assert len(ds) and all("," in key for key in ds.columns["i"].tolist())
        ds.write_csv(tmp_path / "dataset.csv")
        with open(tmp_path / "dataset.csv", encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(CSV_COLUMNS)
        assert {len(r) for r in rows} == {len(CSV_COLUMNS)} == {14}
        assert [r[0] for r in rows] == ds.columns["i"].tolist()
        assert [r[1] for r in rows] == ds.columns["j"].tolist()

    def test_window_graph_required(self):
        records = [
            make_record_dict("P1", 2001, authors=[author_dict("A1"), author_dict("A2")]),
            make_record_dict("P2", 2003, authors=[author_dict("A1"), author_dict("A2")]),
        ]
        corpus, windows, _ = toy_setup(records)
        with pytest.raises(ValueError, match="missing co-publication graph"):
            assemble(corpus, 1, windows, GeoContext(client=GazetteerGeocoder()),
                     {}, uniform_topic_vectors(corpus), seed=0)

    def test_scenario_schemas(self):
        assert scenario_feature_names(1) == \
            ["ln_geo", "ln_tenb", "interaction", "cog_distance",
             "different_province", "not_contiguous"]
        assert "different_country" in scenario_feature_names(2)
        assert "different_province" not in scenario_feature_names(3)
        assert "different_continent" not in scenario_feature_names(3)
        assert "different_continent" in scenario_feature_names(3, keep_continent=True)
        assert CONTIGUITY_LEVEL == {1: "province", 2: "province",
                                    3: "country", 4: "country"}

    def test_every_schema_has_fewer_than_eight_features(self):
        # SMOTE and kNN search neighbours over these columns, and
        # k_nearest's column loop serves fewer than 8 features
        for scenario in (1, 2, 3, 4):
            for keep_continent in (False, True):
                assert len(scenario_feature_names(scenario, keep_continent)) < 8

    def test_canonical_affiliation_earliest_pub(self):
        records = [
            make_record_dict("P2", 2002, authors=[
                author_dict("A1", city="toronto", province="ON",
                            lat=43.6532, lon=-79.3832)]),
            make_record_dict("P1", 2001, authors=[author_dict("A1")]),
        ]
        corpus = corpus_from_dicts(records)
        aff = canonical_affiliation_in_window(corpus, "A1", (2000, 2002))
        assert aff.city == "montreal"
        assert canonical_affiliation_in_window(corpus, "A1", (2010, 2012)) is None


def dataset_from_rows(rows, scenario=2):
    """Stack make_row() dicts into columns; an all-None column stays None."""
    columns = {}
    for name in CSV_COLUMNS:
        values = [r[name] for r in rows]
        columns[name] = (None if rows and all(v is None for v in values)
                         else np.array(values))
    return Dataset(scenario=scenario, columns=columns)


def make_row(i="a", j="b", y=0, d=10.0, t=0.5, cog=1.0, dp=0, dc=0, nc=0,
             dcont=None, window="w"):
    ln_geo = math.log1p(d)
    ln_tenb = math.log1p(t)
    return dict(
        i=i, j=j, window_id=window, co_publication=y, geo_distance_km=d,
        ln_geo=ln_geo, tenb=t, ln_tenb=ln_tenb, interaction=ln_geo * ln_tenb,
        cog_distance=cog, not_contiguous=nc, different_province=dp,
        different_country=dc, different_continent=dcont)


class TestDescribe:
    def test_collaboration_subset_vs_overall(self):
        rows = ([make_row(y=1, d=0.0) for _ in range(5)]
                + [make_row(y=0, d=500.0) for _ in range(95)])
        result = describe(dataset_from_rows(rows))
        stats = {(r["variable"], r["subset"]): r for r in result.rows}
        assert stats[("geo_distance_km", "collaborations")]["mean"] == 0.0
        assert stats[("geo_distance_km", "all")]["mean"] > 0.0

    def test_minority_share(self):
        rows = ([make_row(y=1) for _ in range(3)]
                + [make_row(y=0) for _ in range(97)])
        result = describe(dataset_from_rows(rows))
        assert result.minority_share == pytest.approx(0.03)

    def test_quantile_hand_value(self):
        # q75 of [0, 10, 20, 100] with linear interpolation = 40 by hand
        rows = [make_row(y=1, d=v) for v in (0.0, 10.0, 20.0, 100.0)]
        result = describe(dataset_from_rows(rows))
        stats = {(r["variable"], r["subset"]): r for r in result.rows}
        assert stats[("geo_distance_km", "all")]["q75"] == pytest.approx(40.0)

    def test_quantiles_match_numpy_bit_for_bit(self):
        # runs of ties, integer columns, one and two rows, wide magnitudes
        rng = np.random.default_rng(5)
        samples = [rng.normal(size=n) * 10.0 ** rng.integers(-6, 7)
                   for n in list(range(1, 12)) + [97, 420]]
        samples += [rng.integers(-3, 4, size=n) for n in (1, 2, 5, 8, 33)]
        samples += [np.round(rng.exponential(size=60), 1), np.zeros(7)]
        for values in samples:
            ordered = np.sort(values)
            for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
                expected = np.float64(np.quantile(values, q))
                got = np.float64(_quantile(ordered, q))
                assert got.tobytes() == expected.tobytes(), (values, q)

    def test_cross_country_share(self):
        rows = ([make_row(y=1, dc=1), make_row(y=1, dc=0)]
                + [make_row(y=0, dc=1) for _ in range(8)])
        result = describe(dataset_from_rows(rows))
        assert result.cross_country_collab_share == pytest.approx(0.5)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            describe(dataset_from_rows([]))

    def test_csv_export(self, tmp_path):
        rows = [make_row(y=1), make_row(y=0)]
        describe(dataset_from_rows(rows)).to_csv(tmp_path / "d.csv")
        text = (tmp_path / "d.csv").read_text()
        assert text.startswith("variable,subset,")
        assert "minority_share" in text


class TestCorrelationScreen:
    def test_duplicated_feature_excluded(self):
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(200):
            flag = int(rng.integers(0, 2))
            # different_country duplicates different_province exactly
            rows.append(make_row(y=int(rng.integers(0, 2)),
                                 d=float(rng.uniform(0, 100)),
                                 t=float(rng.uniform(0, 3)),
                                 cog=float(rng.uniform(0, 2)),
                                 dp=flag, dc=flag, nc=int(rng.integers(0, 2))))
        screen = correlation_screen(dataset_from_rows(rows))
        i = screen.names.index("different_province")
        j = screen.names.index("different_country")
        assert screen.matrix[i, j] == pytest.approx(1.0)
        assert screen.excluded == ["different_country"]

    def test_independent_columns_small_r_vs_oracle(self):
        rng = np.random.default_rng(1)
        n = 10_000
        rows = [make_row(y=int(rng.integers(0, 2)),
                         cog=float(rng.uniform(0, 2)),
                         dp=int(rng.integers(0, 2)),
                         dc=int(rng.integers(0, 2)),
                         nc=int(rng.integers(0, 2)))
                for _ in range(n)]
        ds = dataset_from_rows(rows)
        screen = correlation_screen(ds)
        # independent columns: small sample correlation
        for a, b in (("cog_distance", "different_province"),
                     ("different_province", "different_country"),
                     ("different_country", "not_contiguous")):
            i, j = screen.names.index(a), screen.names.index(b)
            assert abs(screen.matrix[i, j]) < 0.05
            oracle = np.corrcoef(ds.column(a), ds.column(b))[0, 1]
            assert screen.matrix[i, j] == pytest.approx(oracle, abs=1e-10)

    def test_continent_screened_out_when_tracking_distance(self):
        rng = np.random.default_rng(2)
        rows = []
        for _ in range(500):
            far = int(rng.integers(0, 2))
            d = float(rng.uniform(5000, 9000)) if far else float(rng.uniform(0, 100))
            rows.append(make_row(y=int(rng.integers(0, 2)), d=d,
                                 t=float(rng.uniform(0, 2)),
                                 cog=float(rng.uniform(0, 2)),
                                 dp=None, dc=far, nc=int(rng.integers(0, 2)),
                                 dcont=far))
        ds = dataset_from_rows(rows, scenario=3)
        screen = correlation_screen(ds)
        assert "different_continent" in screen.names
        assert "different_continent" in screen.excluded

    def test_zero_variance_column_flagged_r_zero(self):
        rng = np.random.default_rng(3)
        rows = [make_row(y=int(rng.integers(0, 2)),
                         cog=float(rng.uniform(0, 2)), nc=1)
                for _ in range(50)]
        screen = correlation_screen(dataset_from_rows(rows))
        assert "not_contiguous" in screen.zero_variance
        i = screen.names.index("not_contiguous")
        off_diag = np.delete(screen.matrix[i], i)
        assert np.all(off_diag == 0.0)

    def test_matrix_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(4)
        rows = [make_row(y=int(rng.integers(0, 2)),
                         d=float(rng.uniform(0, 500)),
                         t=float(rng.exponential(1)),
                         cog=float(rng.uniform(0, 2)),
                         dp=int(rng.integers(0, 2)),
                         dc=int(rng.integers(0, 2)),
                         nc=int(rng.integers(0, 2)))
                for _ in range(300)]
        screen = correlation_screen(dataset_from_rows(rows))
        assert np.array_equal(screen.matrix, screen.matrix.T)
        assert np.all(np.diag(screen.matrix) == 1.0)

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # columns above 10,000 rows are where a threaded BLAS dot splits work
        script = (
            "import math, sys\n"
            "import numpy as np\n"
            "from proxlink.features import CSV_COLUMNS, Dataset, correlation_screen\n"
            "rng = np.random.default_rng(5)\n"
            "n = 12_000\n"
            "d = rng.uniform(0, 5000, n)\n"
            "t = rng.exponential(1.0, n)\n"
            "cols = dict.fromkeys(CSV_COLUMNS)\n"
            "cols.update(co_publication=rng.integers(0, 2, n), geo_distance_km=d,\n"
            "            ln_geo=np.log1p(d), tenb=t, ln_tenb=np.log1p(t),\n"
            "            cog_distance=rng.uniform(0, 2, n),\n"
            "            different_country=rng.integers(0, 2, n),\n"
            "            not_contiguous=rng.integers(0, 2, n))\n"
            "cols['interaction'] = cols['ln_geo'] * cols['ln_tenb']\n"
            "correlation_screen(Dataset(scenario=4, columns=cols)).to_csv(sys.argv[1])\n"
        )
        package_root = os.path.dirname(os.path.dirname(proxlink.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [
                           package_root, os.environ.get("PYTHONPATH")])))
            path = tmp_path / f"corr{threads}.csv"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True,
                           timeout=120)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            correlation_screen(dataset_from_rows([make_row()]))
