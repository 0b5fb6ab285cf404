"""proxlink.geo
~~~~~~~~~~~~~~~

Great-circle distance, affiliation geocoding, and the region binaries.

Geocoding is pluggable: resolution order is explicit coordinates on the
record, then the persistent cache, then whichever client is configured
(offline gazetteer for normal use, a stub for tests). Distances use the
haversine formula on a sphere of radius 6373 km.
"""
from __future__ import annotations

import csv
import json
import math
import threading
import time
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Protocol

from .corpus import Affiliation, country_continent_table

EARTH_RADIUS_KM = 6373.0

_HALF_PI = math.pi / 2.0


class UnresolvedAddressError(KeyError):
    """No coordinate source could resolve the address."""

    def __init__(self, address: str):
        super().__init__(address)
        self.address = address

    def __str__(self):
        return f"could not geocode address: {self.address!r}"


@dataclass(frozen=True)
class GeoPoint:
    """A point on the sphere, stored in radians."""

    lat_rad: float
    lon_rad: float

    def __post_init__(self):
        if not (-_HALF_PI <= self.lat_rad <= _HALF_PI):
            raise ValueError(f"latitude {self.lat_rad} rad outside [-pi/2, pi/2]")
        if not (-math.pi <= self.lon_rad <= math.pi):
            raise ValueError(f"longitude {self.lon_rad} rad outside [-pi, pi]")

    @classmethod
    def from_degrees(cls, lat: float, lon: float) -> "GeoPoint":
        return cls(math.radians(lat), math.radians(lon))

    @property
    def lat_deg(self) -> float:
        return math.degrees(self.lat_rad)

    @property
    def lon_deg(self) -> float:
        return math.degrees(self.lon_rad)


def haversine_km(p: GeoPoint, q: GeoPoint, radius_km: float = EARTH_RADIUS_KM) -> float:
    """Great-circle distance in km: R * 2 * atan2(sqrt(a), sqrt(1-a))
    with a = sin^2(dlat/2) + cos(lat_p) * cos(lat_q) * sin^2(dlon/2).
    """
    dlat = q.lat_rad - p.lat_rad
    dlon = q.lon_rad - p.lon_rad
    a = (math.sin(dlat / 2.0) ** 2
         + math.cos(p.lat_rad) * math.cos(q.lat_rad) * math.sin(dlon / 2.0) ** 2)
    # float error can nudge a just past 1 for antipodal points
    a = min(1.0, max(0.0, a))
    return radius_km * 2.0 * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


# ---------------------------------------------------------------------------
# Region binaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionTags:
    """Province / country / continent codes for one canonical affiliation."""

    country: str
    province: Optional[str] = None
    continent: Optional[str] = None

    def __post_init__(self):
        table = country_continent_table()
        if self.country not in table:
            raise ValueError(f"invalid country code {self.country!r}")
        if self.continent is not None and self.continent != table[self.country]:
            raise ValueError(
                f"continent {self.continent!r} inconsistent with country "
                f"{self.country!r} (expected {table[self.country]!r})"
            )

    @classmethod
    def from_affiliation(cls, aff: Affiliation) -> "RegionTags":
        return cls(country=aff.country, province=aff.province, continent=aff.continent)

    @property
    def resolved_continent(self) -> str:
        return self.continent or country_continent_table()[self.country]


def institutional_binaries(a: RegionTags, b: RegionTags, scenario: int) -> dict[str, int]:
    """Same-region indicator flags: 0 when the codes match, 1 otherwise.

    Scenario 1 compares provinces; scenario 2 provinces and countries;
    scenarios 3-4 countries only.
    """
    if scenario not in (1, 2, 3, 4):
        raise ValueError(f"scenario must be 1..4, got {scenario}")
    flags: dict[str, int] = {}
    if scenario in (1, 2):
        if a.province is None or b.province is None:
            raise ValueError(f"scenario {scenario} requires province tags on both sides")
        flags["different_province"] = 0 if a.province == b.province else 1
    if scenario in (2, 3, 4):
        flags["different_country"] = 0 if a.country == b.country else 1
    return flags


def different_continent(a: RegionTags, b: RegionTags) -> int:
    return 0 if a.resolved_continent == b.resolved_continent else 1


class AdjacencyTable:
    """Symmetric, irreflexive set of contiguous region-code pairs.

    File schema: JSON {"level": "province"|"country", "pairs": [[a, b], ...]}
    plus an optional "codes" list widening the lookup namespace to regions
    that have no contiguous neighbour (islands), so they resolve as
    not-contiguous instead of erroring.
    """

    def __init__(self, level: str, pairs, codes=()):
        self.level = level
        self._pairs: set[frozenset] = set()
        self._codes: set[str] = set(codes)
        for a, b in pairs:
            if a == b:
                raise ValueError(f"adjacency table must be irreflexive, got ({a!r}, {b!r})")
            self._pairs.add(frozenset((a, b)))
            self._codes.update((a, b))

    @classmethod
    def bundled(cls, level: str) -> "AdjacencyTable":
        name = {"province": "adjacency_province.json", "country": "adjacency_country.json"}[level]
        raw = json.loads(resources.files("proxlink.data").joinpath(name).read_text())
        return cls(raw["level"], raw["pairs"], raw.get("codes", ()))

    @property
    def codes(self) -> frozenset:
        return frozenset(self._codes)

    def contiguous(self, a: str, b: str) -> bool:
        for code in (a, b):
            if code not in self._codes:
                raise KeyError(f"region code {code!r} not in {self.level} adjacency namespace")
        return frozenset((a, b)) in self._pairs


def contiguity_binary(a: RegionTags, b: RegionTags, adj: AdjacencyTable,
                      level: str = "country") -> int:
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


# ---------------------------------------------------------------------------
# Geocoding
# ---------------------------------------------------------------------------

def normalize_address(address: str) -> str:
    """Lowercase and squeeze whitespace; no further standardization."""
    return " ".join(address.lower().split())


def affiliation_address(aff: Affiliation) -> str:
    parts = [aff.institution, aff.city, aff.province, aff.country]
    return normalize_address(", ".join(p for p in parts if p))


class GeocoderClient(Protocol):
    def resolve(self, address: str) -> Optional[tuple[float, float]]:
        """Return (lat_deg, lon_deg) or None if unknown."""


class StubGeocoder:
    """Test client: fixed point or explicit address mapping; counts calls."""

    def __init__(self, point: Optional[tuple[float, float]] = None,
                 table: Optional[dict] = None):
        self.point = point
        self.table = {normalize_address(k): v for k, v in (table or {}).items()}
        self.calls = 0

    def resolve(self, address: str) -> Optional[tuple[float, float]]:
        self.calls += 1
        key = normalize_address(address)
        if key in self.table:
            return self.table[key]
        return self.point


class GazetteerGeocoder:
    """Offline city-level lookup from a bundled CSV (city,province,country,lat,lon).

    An address resolves when one of its comma-separated fields is a known
    city name and, if the address names a country code, the city lies in it.
    """

    def __init__(self, path=None):
        if path is None:
            text = resources.files("proxlink.data").joinpath("gazetteer.csv").read_text()
            rows = list(csv.DictReader(text.splitlines()))
        else:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
        self._by_city_prov_country: dict[tuple, tuple[float, float]] = {}
        self._by_city_country: dict[tuple, tuple[float, float]] = {}
        for row in rows:
            city = normalize_address(row["city"])
            country = row["country"].strip().upper()
            point = (float(row["lat"]), float(row["lon"]))
            prov = (row.get("province") or "").strip().upper()
            if prov:
                self._by_city_prov_country[(city, prov, country)] = point
            self._by_city_country.setdefault((city, country), point)

    def lookup(self, city: str, province: Optional[str], country: str
               ) -> Optional[tuple[float, float]]:
        city = normalize_address(city)
        country = country.strip().upper()
        if province:
            hit = self._by_city_prov_country.get((city, province.strip().upper(), country))
            if hit:
                return hit
        return self._by_city_country.get((city, country))

    def resolve(self, address: str) -> Optional[tuple[float, float]]:
        fields = [t.strip() for t in normalize_address(address).split(",")]
        countries = [t.upper() for t in fields if len(t) == 2 and t.upper() in country_continent_table()]
        # a city must fill a whole field: "institut de paris, lyon" is Lyon
        for (city, country), point in self._by_city_country.items():
            if city in fields and (not countries or country in countries):
                return point
        return None


class GeocodeCache:
    """Persistent address -> point cache, JSON-lines on disk.

    Entries round-trip bit-exactly: each line stores the point's radians,
    which JSON writes with ``repr``, so a reload rebuilds the same floats.
    Lines that hold degrees (``lat``/``lon``, the older format) still load.
    Reads are lock-free on the in-memory dict; writes append under a lock,
    so a writer sees its own writes immediately.
    """

    def __init__(self, path=None):
        self.path = path
        self._entries: dict[str, tuple[GeoPoint, str, float]] = {}
        self._lock = threading.Lock()
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        raw = json.loads(line)
                        point = (GeoPoint(raw["lat_rad"], raw["lon_rad"]) if "lat_rad" in raw
                                 else GeoPoint.from_degrees(raw["lat"], raw["lon"]))
                        self._entries[raw["address"]] = (point, raw["source"], raw["ts"])
            except FileNotFoundError:
                pass

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, address: str) -> Optional[GeoPoint]:
        hit = self._entries.get(normalize_address(address))
        return hit[0] if hit else None

    def put(self, address: str, point: GeoPoint, source: str) -> None:
        key = normalize_address(address)
        with self._lock:
            entry = (point, source, time.time())
            self._entries[key] = entry
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({
                        "address": key,
                        "lat_rad": point.lat_rad,
                        "lon_rad": point.lon_rad,
                        "source": source,
                        "ts": entry[2],
                    }) + "\n")


def geocode(address: str, client: Optional[GeocoderClient],
            cache: Optional[GeocodeCache] = None,
            explicit: Optional[tuple[float, float]] = None) -> GeoPoint:
    """Resolve an address to a GeoPoint.

    Explicit (lat, lon) degrees bypass everything; then the cache; then the
    client (whose result is cached). Raises UnresolvedAddressError when all
    three fail.
    """
    if explicit is not None:
        return GeoPoint.from_degrees(*explicit)
    if not address or not address.strip():
        raise ValueError("empty address")
    if cache is not None:
        hit = cache.get(address)
        if hit is not None:
            return hit
    if client is not None:
        result = client.resolve(address)
        if result is not None:
            point = GeoPoint.from_degrees(*result)
            if cache is not None:
                cache.put(address, point, source=type(client).__name__)
            return point
    raise UnresolvedAddressError(address)


def resolve_affiliation(aff: Affiliation, client: Optional[GeocoderClient],
                        cache: Optional[GeocodeCache] = None) -> GeoPoint:
    """Geocode an affiliation's canonical address, honoring explicit coords."""
    explicit = (aff.lat, aff.lon) if aff.lat is not None and aff.lon is not None else None
    if explicit is None and isinstance(client, GazetteerGeocoder) and aff.city:
        hit = client.lookup(aff.city, aff.province, aff.country)
        if hit is not None:
            return GeoPoint.from_degrees(*hit)
    return geocode(affiliation_address(aff), client, cache, explicit=explicit)
