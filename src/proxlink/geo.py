"""proxlink.geo
~~~~~~~~~~~~~~~

Great-circle distance, affiliation geocoding, and the adjacency tables
that :mod:`proxlink.features` combines with each affiliation's region
codes into the region binaries.

Geocoding is pluggable: resolution order is explicit coordinates on the
record, then the persistent cache, then whichever client is configured
(the offline gazetteer, or any object with a ``resolve`` method).
Distances use the haversine formula on a sphere of radius 6373 km.
"""
from __future__ import annotations

import csv
import json
import math
import pathlib
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


def haversine_km(p: GeoPoint, q: GeoPoint) -> float:
    """Great-circle distance in km: R * 2 * atan2(sqrt(a), sqrt(1-a))
    with a = sin^2(dlat/2) + cos(lat_p) * cos(lat_q) * sin^2(dlon/2).
    """
    dlat = q.lat_rad - p.lat_rad
    dlon = q.lon_rad - p.lon_rad
    a = (math.sin(dlat / 2.0) ** 2
         + math.cos(p.lat_rad) * math.cos(q.lat_rad) * math.sin(dlon / 2.0) ** 2)
    # float error can nudge a just past 1 for antipodal points
    a = min(1.0, max(0.0, a))
    return EARTH_RADIUS_KM * 2.0 * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


# ---------------------------------------------------------------------------
# Adjacency
# ---------------------------------------------------------------------------

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


class GazetteerGeocoder:
    """Offline city-level lookup from a bundled CSV (city,province,country,lat,lon).

    An address resolves when one of its comma-separated fields is a known
    city name and, if the address names a country code, the city lies in it.
    A file without a city, country, lat or lon column, or a row without a
    city or country or with a latitude or longitude that is not a finite
    number within [-90, 90] or [-180, 180], stops the load with a
    ``ValueError`` naming the file and the line.
    """

    def __init__(self, path=None):
        source = (resources.files("proxlink.data").joinpath("gazetteer.csv")
                  if path is None else pathlib.Path(path))
        self._by_city_prov_country: dict[tuple, tuple[float, float]] = {}
        self._by_city_country: dict[tuple, tuple[float, float]] = {}
        with source.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            missing = sorted({"city", "country", "lat", "lon"} - set(reader.fieldnames or ()))
            if missing:
                raise ValueError(f"gazetteer {source}, line 1: no column {', '.join(missing)}")
            for row in reader:
                try:
                    city, prov, country, point = self._parse(row)
                except ValueError as exc:
                    raise ValueError(f"gazetteer {source}, line {reader.line_num}: "
                                     f"{exc}") from None
                if prov:
                    self._by_city_prov_country[(city, prov, country)] = point
                self._by_city_country.setdefault((city, country), point)

    @staticmethod
    def _parse(row: dict) -> tuple[str, str, str, tuple[float, float]]:
        """One row's city, province and country as looked up, and its point."""
        fields = {key: (value or "").strip() for key, value in row.items() if key is not None}
        for key in ("city", "country"):
            if not fields[key]:
                raise ValueError(f"empty {key}")
        point = []
        for key, bound in (("lat", 90.0), ("lon", 180.0)):
            try:
                value = float(fields[key])
            except ValueError:
                raise ValueError(f"{key} {fields[key]!r} is not a number") from None
            if not -bound <= value <= bound:  # also rejects nan
                raise ValueError(f"{key} {fields[key]} is outside [-{bound:g}, {bound:g}]")
            point.append(value)
        return (normalize_address(fields["city"]), fields.get("province", "").upper(),
                fields["country"].upper(), (point[0], point[1]))

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
    Lines that hold degrees (``lat``/``lon``, the older format) still load;
    any other line, or one whose address is not a string, stops the load
    with a ``ValueError`` naming the file and the line. Each line is keyed
    by its normalized address, the key ``get`` and ``put`` use. Reads are
    lock-free on the in-memory dict; writes append under a lock, so a
    writer sees its own writes immediately.
    """

    def __init__(self, path=None):
        self.path = path
        self._entries: dict[str, tuple[GeoPoint, str, float]] = {}
        self._lock = threading.Lock()
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    for number, line in enumerate(fh, 1):
                        if not line.strip():
                            continue
                        try:
                            address, entry = self._parse(line)
                        except (ValueError, TypeError) as exc:
                            raise ValueError(f"geocode cache {path}, line {number}: "
                                             f"{exc}") from None
                        self._entries[address] = entry
            except FileNotFoundError:
                pass

    @staticmethod
    def _parse(line: str) -> tuple[str, tuple[GeoPoint, str, float]]:
        """One cache line's address, normalized as ``get`` looks it up, and
        its entry."""
        raw = json.loads(line)
        if not (isinstance(raw, dict) and {"address", "source", "ts"} <= raw.keys()):
            raise ValueError("not a JSON object with address, source and ts")
        if {"lat_rad", "lon_rad"} <= raw.keys():
            point = GeoPoint(raw["lat_rad"], raw["lon_rad"])
        elif {"lat", "lon"} <= raw.keys():
            point = GeoPoint.from_degrees(raw["lat"], raw["lon"])
        else:
            raise ValueError("neither lat_rad/lon_rad nor lat/lon")
        if not isinstance(raw["address"], str):
            raise ValueError(f"address {json.dumps(raw['address'])} is not a string")
        return normalize_address(raw["address"]), (point, raw["source"], raw["ts"])

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
