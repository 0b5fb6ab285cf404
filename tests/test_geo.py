import csv
import json
import math
from importlib import resources

import numpy as np
import pytest

from proxlink.geo import (
    EARTH_RADIUS_KM,
    AdjacencyTable,
    GeocodeCache,
    GazetteerGeocoder,
    GeoPoint,
    UnresolvedAddressError,
    geocode,
    haversine_km,
    normalize_address,
)

from assemble_oracle import (
    contiguity_binary,
    different_continent,
    institutional_binaries,
    region_tags,
)


class StubGeocoder:
    """Geocoder client that resolves every address to one point (or None)
    and counts its calls."""

    def __init__(self, point):
        self.point = point
        self.calls = 0

    def resolve(self, address):
        self.calls += 1
        return self.point


def oracle_haversine(lat1, lon1, lat2, lon2, R=EARTH_RADIUS_KM):
    """Independent implementation: asin form instead of atan2."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    a = (math.sin((p2 - p1) / 2) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2) ** 2)
    return 2.0 * R * math.asin(min(1.0, math.sqrt(a)))


# frozen from the oracle above, computed before the main implementation
MONTREAL_TORONTO_KM = 504.421424451434


class TestHaversine:
    def test_identical_points_zero(self):
        p = GeoPoint.from_degrees(45.5019, -73.5674)
        assert haversine_km(p, p) == 0.0

    def test_antipodal_is_pi_r(self):
        p = GeoPoint.from_degrees(30.0, 40.0)
        q = GeoPoint.from_degrees(-30.0, 40.0 - 180.0)
        assert haversine_km(p, q) == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-6)

    def test_montreal_toronto_frozen_oracle_value(self):
        p = GeoPoint.from_degrees(45.5019, -73.5674)
        q = GeoPoint.from_degrees(43.6532, -79.3832)
        assert haversine_km(p, q) == pytest.approx(MONTREAL_TORONTO_KM, rel=1e-3)

    def test_matches_oracle_on_random_pairs(self):
        import random
        rng = random.Random(42)
        for _ in range(500):
            lat1, lat2 = rng.uniform(-90, 90), rng.uniform(-90, 90)
            lon1, lon2 = rng.uniform(-180, 180), rng.uniform(-180, 180)
            ours = haversine_km(GeoPoint.from_degrees(lat1, lon1),
                                GeoPoint.from_degrees(lat2, lon2))
            ref = oracle_haversine(lat1, lon1, lat2, lon2)
            assert ours == pytest.approx(ref, rel=1e-3, abs=1e-9)

    def test_symmetry_and_bounds(self):
        import random
        rng = random.Random(1)
        bound = math.pi * EARTH_RADIUS_KM
        for _ in range(300):
            p = GeoPoint.from_degrees(rng.uniform(-90, 90), rng.uniform(-180, 180))
            q = GeoPoint.from_degrees(rng.uniform(-90, 90), rng.uniform(-180, 180))
            d_pq = haversine_km(p, q)
            assert d_pq == haversine_km(q, p)
            assert 0.0 <= d_pq <= bound + 1e-9

    def test_triangle_inequality(self):
        import random
        rng = random.Random(3)
        for _ in range(300):
            pts = [GeoPoint.from_degrees(rng.uniform(-90, 90), rng.uniform(-180, 180))
                   for _ in range(3)]
            ab = haversine_km(pts[0], pts[1])
            bc = haversine_km(pts[1], pts[2])
            ac = haversine_km(pts[0], pts[2])
            assert ac <= ab + bc + 1e-6 * max(1.0, ac)

    def test_invalid_latitude_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(lat_rad=2.0, lon_rad=0.0)
        with pytest.raises(ValueError):
            GeoPoint(lat_rad=0.0, lon_rad=4.0)


class TestInstitutionalBinaries:
    QC = region_tags("CA", "QC")
    ON = region_tags("CA", "ON")
    MA = region_tags("US", "MA")
    FR = region_tags("FR")

    def test_same_province_scenario_1(self):
        other = region_tags("CA", "QC")
        assert institutional_binaries(self.QC, other, 1) == {"different_province": 0}

    def test_scenario_2_both_flags(self):
        flags = institutional_binaries(self.QC, self.MA, 2)
        assert flags == {"different_province": 1, "different_country": 1}

    def test_scenario_3_country_only(self):
        ca = region_tags("CA")
        assert institutional_binaries(ca, self.FR, 3) == {"different_country": 1}

    def test_symmetry(self):
        for s in (1, 2):
            assert institutional_binaries(self.QC, self.ON, s) == \
                   institutional_binaries(self.ON, self.QC, s)

    def test_missing_province_when_needed(self):
        with pytest.raises(ValueError, match="province"):
            institutional_binaries(self.FR, self.QC, 1)

    def test_different_continent(self):
        us = region_tags("US")
        assert different_continent(self.QC, us) == 0
        assert different_continent(self.QC, self.FR) == 1
        assert different_continent(self.FR, self.QC) == 1


class TestContiguity:
    def table(self):
        return AdjacencyTable("province", [["QC", "ON"], ["ON", "MB"]], codes=["BC"])

    def test_adjacent_pair_scores_zero(self):
        adj = self.table()
        a = region_tags("CA", "QC")
        b = region_tags("CA", "ON")
        assert contiguity_binary(a, b, adj, "province") == 0

    def test_non_adjacent_pair_scores_one(self):
        adj = self.table()
        a = region_tags("CA", "QC")
        b = region_tags("CA", "BC")
        assert contiguity_binary(a, b, adj, "province") == 1

    def test_same_region_scores_zero(self):
        adj = self.table()
        a = region_tags("CA", "QC")
        assert contiguity_binary(a, a, adj, "province") == 0

    def test_symmetric(self):
        adj = self.table()
        a = region_tags("CA", "QC")
        b = region_tags("CA", "MB")
        assert contiguity_binary(a, b, adj, "province") == \
               contiguity_binary(b, a, adj, "province")

    def test_unknown_code_errors(self):
        adj = self.table()
        a = region_tags("CA", "QC")
        b = region_tags("CA", "YT")
        with pytest.raises(KeyError, match="YT"):
            contiguity_binary(a, b, adj, "province")

    def test_reflexive_pair_rejected_at_load(self):
        with pytest.raises(ValueError, match="irreflexive"):
            AdjacencyTable("province", [["QC", "QC"]])

    def test_bundled_tables_load(self):
        prov = AdjacencyTable.bundled("province")
        country = AdjacencyTable.bundled("country")
        assert prov.contiguous("QC", "ON")
        assert country.contiguous("CA", "US")
        assert not country.contiguous("CA", "FR")
        # island with no land border resolves via the codes namespace
        assert not country.contiguous("IS", "FR")


class TestGeocode:
    def test_cache_hit_skips_client(self, tmp_path):
        cache = GeocodeCache(tmp_path / "cache.jsonl")
        cache.put("Some University, Montreal", GeoPoint.from_degrees(45.5, -73.5), "test")
        client = StubGeocoder(point=(1.0, 1.0))
        point = geocode("some university, montreal", client, cache)
        assert point.lat_deg == pytest.approx(45.5)
        assert client.calls == 0

    def test_explicit_coordinates_bypass_everything(self):
        client = StubGeocoder(point=(1.0, 1.0))
        point = geocode("anything", client, None, explicit=(12.25, -7.5))
        assert (point.lat_deg, point.lon_deg) == (pytest.approx(12.25), pytest.approx(-7.5))
        assert client.calls == 0

    def test_miss_calls_client_and_caches(self, tmp_path):
        cache = GeocodeCache(tmp_path / "cache.jsonl")
        client = StubGeocoder(point=(10.0, 20.0))
        point = geocode("Unknown Institute, Nowhere", client, cache)
        assert point.lat_deg == pytest.approx(10.0)
        assert len(cache) == 1
        assert client.calls == 1
        # second call now served from cache
        geocode("unknown institute,   nowhere", client, cache)
        assert client.calls == 1

    def test_unresolved_error_carries_address(self):
        client = StubGeocoder(point=None)
        with pytest.raises(UnresolvedAddressError) as err:
            geocode("nowhere at all", client, None)
        assert "nowhere at all" in str(err.value)

    def test_cache_round_trips_bit_exactly(self, tmp_path):
        text = resources.files("proxlink.data").joinpath("gazetteer.csv").read_text()
        gazetteer = [(float(row["lat"]), float(row["lon"]))
                     for row in csv.DictReader(text.splitlines())]
        rng = np.random.default_rng(0)
        random_points = zip(np.round(rng.uniform(-90, 90, 10_000), 4).tolist(),
                            np.round(rng.uniform(-180, 180, 10_000), 4).tolist())
        points = [GeoPoint.from_degrees(lat, lon) for lat, lon in
                  [(45.50190000000001, -73.56740000000002), *gazetteer, *random_points]]
        assert len(points) > 10_100
        path = tmp_path / "cache.jsonl"
        cache = GeocodeCache(path)
        for n, point in enumerate(points):
            cache.put(f"addr {n}", point, "test")
        reloaded = GeocodeCache(path)
        assert [p for n, p in enumerate(points) if reloaded.get(f"addr {n}") != p] == []

    def test_warm_cache_gives_the_cold_point(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        client = StubGeocoder(point=(51.0447, -114.0719))  # Calgary
        cold = geocode("University of Calgary, Calgary, AB, CA", client, GeocodeCache(path))
        warm = geocode("University of Calgary, Calgary, AB, CA", client, GeocodeCache(path))
        assert client.calls == 1
        assert (warm.lat_rad, warm.lon_rad) == (cold.lat_rad, cold.lon_rad)

    def test_cache_file_in_degrees_still_loads(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps({"address": "addr one", "lat": 45.5019, "lon": -73.5674,
                                    "source": "test", "ts": 0.0}) + "\n")
        assert GeocodeCache(path).get("addr one") == GeoPoint.from_degrees(45.5019, -73.5674)

    def test_truncated_cache_line_is_named(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = json.dumps({"address": "addr one", "lat_rad": 0.5, "lon_rad": -1.0,
                           "source": "test", "ts": 0.0})
        path.write_text(good + "\n\n" + good[:17] + "\n")
        with pytest.raises(ValueError, match=r"cache\.jsonl, line 3: "):
            GeocodeCache(path)

    @pytest.mark.parametrize("entry", [
        {"address": "addr one", "lat_rad": 0.5, "lon_rad": -1.0, "ts": 0.0},
        {"address": "addr one", "lat_rad": 0.5, "lat": 45.0, "source": "test", "ts": 0.0},
        ["addr one", 0.5, -1.0],
        {"address": 5, "lat_rad": 0.5, "lon_rad": -1.0, "source": "test", "ts": 0.0},
    ], ids=["no-source", "no-longitude", "not-an-object", "address-not-a-string"])
    def test_cache_line_without_its_fields_is_named(self, tmp_path, entry):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(ValueError, match=r"cache\.jsonl, line 1: "):
            GeocodeCache(path)

    def test_cache_line_is_found_under_its_normalized_address(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps({"address": "Lab,  Montreal, QC, CA", "lat_rad": 0.5,
                                    "lon_rad": -1.0, "source": "test", "ts": 0.0}) + "\n")
        cache = GeocodeCache(path)
        assert len(cache) == 1
        assert cache.get("Lab,  Montreal, QC, CA") == GeoPoint(0.5, -1.0)
        assert cache.get("lab, montreal, qc, ca") == GeoPoint(0.5, -1.0)

    def test_gazetteer_lookup(self):
        gaz = GazetteerGeocoder()
        hit = gaz.lookup("Montreal", "QC", "CA")
        assert hit == (45.5019, -73.5674)
        assert gaz.lookup("montreal", None, "CA") == (45.5019, -73.5674)
        assert gaz.lookup("atlantis", None, "CA") is None

    def test_gazetteer_resolve_matches_whole_fields(self):
        gaz = GazetteerGeocoder()
        # "paris" inside the institution name must not win over the city field
        assert gaz.resolve("institut de paris, lyon, FR") == (45.7640, 4.8357)
        assert gaz.resolve("Lab, Montreal, QC, CA") == (45.5019, -73.5674)
        assert gaz.resolve("institut de paris, FR") is None

    @pytest.mark.parametrize("rows, message", [
        (["montreal,QC,CA,abc,-73.5"], "line 2: lat 'abc' is not a number"),
        (["montreal,QC,CA,95,-73.5"], "line 2: lat 95 is outside [-90, 90]"),
        (["montreal,QC,CA,45.5,-180.5"], "line 2: lon -180.5 is outside [-180, 180]"),
        (["montreal,QC,CA,nan,-73.5"], "line 2: lat nan is outside [-90, 90]"),
        (["montreal,QC,CA,45.5,inf"], "line 2: lon inf is outside [-180, 180]"),
        (["montreal,QC,CA,45.5,-73.5", "", " ,ON,CA,43.7,-79.4"], "line 4: empty city"),
        (["montreal,QC,,45.5,-73.5"], "line 2: empty country"),
        (["montreal,QC,CA,45.5"], "line 2: lon '' is not a number"),
    ], ids=["text-lat", "lat-95", "lon-beyond", "nan-lat", "inf-lon", "no-city",
            "no-country", "short-row"])
    def test_gazetteer_row_is_checked_when_loaded(self, tmp_path, rows, message):
        path = tmp_path / "gazetteer.csv"
        path.write_text("\n".join(["city,province,country,lat,lon", *rows]) + "\n")
        with pytest.raises(ValueError) as err:
            GazetteerGeocoder(path)
        assert str(err.value) == f"gazetteer {path}, {message}"

    def test_gazetteer_needs_its_columns(self, tmp_path):
        path = tmp_path / "gazetteer.csv"
        path.write_text("town,province,country,lat\nmontreal,QC,CA,45.5\n")
        with pytest.raises(ValueError, match=r"gazetteer\.csv, line 1: no column city, lon$"):
            GazetteerGeocoder(path)

    def test_gazetteer_file_round_trips_the_bundled_points(self, tmp_path):
        text = resources.files("proxlink.data").joinpath("gazetteer.csv").read_text()
        path = tmp_path / "gazetteer.csv"
        path.write_text(text)
        bundled, copy = GazetteerGeocoder(), GazetteerGeocoder(path)
        assert copy._by_city_country == bundled._by_city_country
        assert copy._by_city_prov_country == bundled._by_city_prov_country
        assert bundled.lookup("Toronto", "ON", "CA") == (43.6532, -79.3832)

    def test_normalize_address(self):
        assert normalize_address("  A  B ,  C ") == "a b , c"

    def test_concurrent_writes_serialized(self, tmp_path):
        import threading
        path = tmp_path / "cache.jsonl"
        cache = GeocodeCache(path)

        def put_many(offset):
            for i in range(40):
                cache.put(f"addr {offset} {i}",
                          GeoPoint.from_degrees(float(offset), float(i)), "t")

        threads = [threading.Thread(target=put_many, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 160
        reloaded = GeocodeCache(path)
        assert len(reloaded) == 160
        # writer sees its own writes
        assert cache.get("addr 0 0").lat_deg == pytest.approx(0.0)
