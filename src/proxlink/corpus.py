"""proxlink.corpus
~~~~~~~~~~~~~~~~~~

Canonical in-memory representation of a bibliographic corpus.

Records arrive as UTF-8 JSON lines, one publication per line:

    {"pub_id": str, "year": int, "title": str, "abstract": str,
     "keywords": [str, ...], "doc_type": "article|conference|chapter|book",
     "authors": [{"author_key"?: str, "name": str,
                  "affiliations": [{"institution": str, "city"?: str,
                                    "province"?: str, "country": str,
                                    "lat"?: float, "lon"?: float}, ...]}, ...]}

Loading validates every record, drops invalid ones with per-reason
exclusion counts (never silently), and builds author and year indices.
An author's first affiliation is treated as the canonical one.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional

DOC_TYPES = ("article", "conference", "chapter", "book")

AI_PHRASES = ("artificial intelligence", "machine learning", "deep learning")

_country_continent_cache: Optional[dict] = None


class CorpusError(ValueError):
    """Malformed input file, duplicate ids, or an empty result."""


def country_continent_table() -> dict:
    """Bundled ISO-3166 alpha-2 country -> continent code table."""
    global _country_continent_cache
    if _country_continent_cache is None:
        text = resources.files("proxlink.data").joinpath("country_continent.json").read_text()
        _country_continent_cache = json.loads(text)
    return _country_continent_cache


@dataclass(frozen=True)
class Affiliation:
    """One institutional affiliation with region tags and optional coordinates.

    ``continent`` is derived from ``country`` via the bundled table; ``lat``
    and ``lon`` are decimal degrees when the source record carried explicit
    coordinates, else None (resolved later by the geocoder).
    """

    institution: str
    city: Optional[str]
    province: Optional[str]
    country: str
    continent: str
    lat: Optional[float] = None
    lon: Optional[float] = None


@dataclass(frozen=True)
class AuthorMention:
    """An author as listed on one publication; affiliations[0] is canonical."""

    author_key: str
    display_name: str
    affiliations: tuple[Affiliation, ...]

    @property
    def canonical_affiliation(self) -> Affiliation:
        return self.affiliations[0]


@dataclass(frozen=True)
class PublicationRecord:
    pub_id: str
    year: int
    title: str
    abstract: str
    keywords: tuple[str, ...]
    doc_type: str
    authors: tuple[AuthorMention, ...]

    @property
    def author_keys(self) -> tuple[str, ...]:
        """Distinct author keys, in listing order."""
        seen = []
        for a in self.authors:
            if a.author_key not in seen:
                seen.append(a.author_key)
        return tuple(seen)


@dataclass
class CorpusConfig:
    """Validation and keying policy for :func:`load_corpus`.

    key_policy: "auto" prefers the upstream author identifier and falls back
    to name+first-institution keying; "source-id" and "name-affiliation"
    force one or the other.
    """

    year_min: int = 2000
    year_max: int = 2019
    key_policy: str = "auto"
    ai_phrase_filter: bool = False


@dataclass
class Corpus:
    """Immutable-by-convention container: records plus author/year indices."""

    records: tuple[PublicationRecord, ...]
    authors: dict[str, frozenset[str]] = field(default_factory=dict)
    year_index: dict[int, tuple[str, ...]] = field(default_factory=dict)
    exclusions: Counter = field(default_factory=Counter)

    def __post_init__(self):
        self._by_id = {r.pub_id: r for r in self.records}

    def __len__(self) -> int:
        return len(self.records)

    def record(self, pub_id: str) -> PublicationRecord:
        return self._by_id[pub_id]

    def pub_ids_in_years(self, start: int, end: int) -> list[str]:
        """Pub ids with start <= year <= end, in record order."""
        out = []
        for year in range(start, end + 1):
            out.extend(self.year_index.get(year, ()))
        return out


def _normalize_key_part(text: str) -> str:
    return " ".join(text.lower().split())


def author_key_of(source_id: Optional[str], name: Optional[str],
                  institution: Optional[str], policy: str = "auto") -> str:
    """Deterministic author identity key.

    "source-id" uses the upstream identifier verbatim; "name-affiliation"
    keys on normalized(name)+"|"+normalized(institution); "auto" prefers
    the source id when present.
    """
    if policy not in ("auto", "source-id", "name-affiliation"):
        raise ValueError(f"unknown key policy {policy!r}")
    if policy == "source-id" or (policy == "auto" and source_id):
        if not source_id:
            raise ValueError("source-id policy requires an upstream author identifier")
        return str(source_id)
    if not name:
        raise ValueError("author mention has neither identifier nor name")
    return _normalize_key_part(name) + "|" + _normalize_key_part(institution or "")


def _field(raw: dict, name: str, kind, default=None):
    """``raw[name]``, or ``default`` where it is absent or null; a value of
    another JSON type (or true / false) raises ``ValueError("malformed-field")``."""
    value = raw.get(name)
    if value is None:
        return default
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError("malformed-field")
    return value


def _coordinate(raw: dict, name: str, bound: float) -> Optional[float]:
    """``raw[name]``, a number or numeric text, in decimal degrees within
    ``[-bound, bound]``; None where it is absent or null."""
    value = _field(raw, name, (int, float, str))
    if value is None:
        return None
    try:
        value = float(value)
    except (ValueError, OverflowError):
        raise ValueError("invalid-coordinates") from None
    if not -bound <= value <= bound:  # NaN fails too
        raise ValueError("invalid-coordinates")
    return value


def _parse_affiliation(raw) -> Affiliation:
    if not isinstance(raw, dict):
        raise ValueError("malformed-field")
    country = _field(raw, "country", str, "").upper()
    table = country_continent_table()
    if country not in table:
        raise ValueError("missing-or-invalid-country")
    city = _field(raw, "city", str)
    province = _field(raw, "province", str)
    return Affiliation(
        institution=_field(raw, "institution", str, "").strip(),
        city=(city.strip() if city else None),
        province=(province.strip().upper() if province else None),
        country=country,
        continent=table[country],
        lat=_coordinate(raw, "lat", 90.0),
        lon=_coordinate(raw, "lon", 180.0),
    )


def _parse_record(raw: dict, config: CorpusConfig) -> PublicationRecord:
    """Build a validated PublicationRecord; raises ValueError with a reason tag."""
    pub_id = raw.get("pub_id")
    if not pub_id:
        raise ValueError("missing-pub-id")
    year = raw.get("year")
    if not isinstance(year, int):
        raise ValueError("missing-year")
    if not (config.year_min <= year <= config.year_max):
        raise ValueError("year-out-of-range")
    title = _field(raw, "title", str, "").strip()
    abstract = _field(raw, "abstract", str, "").strip()
    if not title or not abstract:
        raise ValueError("missing-title-or-abstract")
    doc_type = raw.get("doc_type")
    if doc_type not in DOC_TYPES:
        raise ValueError("invalid-doc-type")
    keywords = _field(raw, "keywords", list, [])
    if not all(isinstance(k, str) for k in keywords):
        raise ValueError("malformed-field")
    raw_authors = _field(raw, "authors", list, [])
    if not raw_authors:
        raise ValueError("no-authors")

    authors = []
    for a in raw_authors:
        if not isinstance(a, dict):
            raise ValueError("malformed-field")
        name = _field(a, "name", str)
        raw_affs = _field(a, "affiliations", list, [])
        if not raw_affs:
            raise ValueError("author-without-affiliation")
        affs = tuple(_parse_affiliation(x) for x in raw_affs)
        key = author_key_of(
            a.get("author_key"), name, affs[0].institution,
            policy=config.key_policy,
        )
        authors.append(AuthorMention(
            author_key=key,
            display_name=(name or "").strip(),
            affiliations=affs,
        ))

    return PublicationRecord(
        pub_id=str(pub_id),
        year=year,
        title=title,
        abstract=abstract,
        keywords=tuple(keywords),
        doc_type=doc_type,
        authors=tuple(authors),
    )


def _mentions_ai_phrase(rec: PublicationRecord) -> bool:
    haystack = (rec.title + " " + rec.abstract + " " + " ".join(rec.keywords)).lower()
    return any(p in haystack for p in AI_PHRASES)


def build_corpus(records: Iterable[PublicationRecord],
                 exclusions: Optional[Counter] = None) -> Corpus:
    """Index validated records into a Corpus; errors on duplicate pub_id."""
    records = tuple(records)
    seen: set[str] = set()
    authors: dict[str, set[str]] = {}
    year_index: dict[int, list[str]] = {}
    for rec in records:
        if rec.pub_id in seen:
            raise CorpusError(f"duplicate pub_id {rec.pub_id!r}")
        seen.add(rec.pub_id)
        year_index.setdefault(rec.year, []).append(rec.pub_id)
        for key in rec.author_keys:
            authors.setdefault(key, set()).add(rec.pub_id)
    return Corpus(
        records=records,
        authors={k: frozenset(v) for k, v in authors.items()},
        year_index={y: tuple(v) for y, v in sorted(year_index.items())},
        exclusions=exclusions or Counter(),
    )


def load_corpus(path, config: Optional[CorpusConfig] = None) -> Corpus:
    """Load and validate a JSON-lines corpus file.

    Invalid records are excluded and counted per reason in
    ``corpus.exclusions``: among them ``malformed-field`` (a field of the
    wrong JSON type) and ``invalid-coordinates`` (a latitude or longitude
    that is not a finite number within +-90 / +-180). A line that is not
    a JSON object is an error (with its line number), as are duplicate
    pub_ids and an empty valid set.
    """
    config = config or CorpusConfig()
    records = []
    exclusions: Counter = Counter()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc

    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"malformed JSON on line {lineno}: {exc}") from exc
        if not isinstance(raw, dict):
            raise CorpusError(f"line {lineno} holds a JSON {type(raw).__name__}, "
                              "not a record object")
        try:
            rec = _parse_record(raw, config)
        except ValueError as exc:
            exclusions[str(exc)] += 1
            continue
        if config.ai_phrase_filter and not _mentions_ai_phrase(rec):
            exclusions["no-ai-phrase"] += 1
            continue
        records.append(rec)

    if not records:
        raise CorpusError(f"no valid records in {path} "
                          f"(excluded: {dict(exclusions) or 'none'})")
    return build_corpus(records, exclusions)


def scenario_filter(corpus: Corpus, scenario: int) -> Corpus:
    """Restrict to the nested region scenarios.

    1: every author's canonical affiliation in Canada; 2: Canada or the US;
    3: Canada, the US, or Europe; 4: no restriction.
    """
    if scenario not in (1, 2, 3, 4):
        raise ValueError(f"scenario must be 1..4, got {scenario}")
    if scenario == 4:
        return corpus

    def keep(rec: PublicationRecord) -> bool:
        for a in rec.authors:
            aff = a.canonical_affiliation
            if scenario == 1 and aff.country != "CA":
                return False
            if scenario == 2 and aff.country not in ("CA", "US"):
                return False
            if scenario == 3 and not (aff.country in ("CA", "US") or aff.continent == "EU"):
                return False
        return True

    kept = [r for r in corpus.records if keep(r)]
    if not kept:
        raise CorpusError(f"scenario {scenario} leaves zero records")
    return build_corpus(kept, Counter(corpus.exclusions))


def record_to_dict(rec: PublicationRecord) -> dict:
    """Canonical JSON form of a record (inverse of parsing)."""
    return {
        "pub_id": rec.pub_id,
        "year": rec.year,
        "title": rec.title,
        "abstract": rec.abstract,
        "keywords": list(rec.keywords),
        "doc_type": rec.doc_type,
        "authors": [
            {
                "author_key": a.author_key,
                "name": a.display_name,
                "affiliations": [
                    {k: v for k, v in {
                        "institution": aff.institution,
                        "city": aff.city,
                        "province": aff.province,
                        "country": aff.country,
                        "lat": aff.lat,
                        "lon": aff.lon,
                    }.items() if v is not None}
                    for aff in a.affiliations
                ],
            }
            for a in rec.authors
        ],
    }


def dump_corpus(corpus: Corpus, path) -> None:
    """Re-emit the canonical JSON-lines schema, sorted by pub_id."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in sorted(corpus.records, key=lambda r: r.pub_id):
            fh.write(json.dumps(record_to_dict(rec), sort_keys=True) + "\n")
