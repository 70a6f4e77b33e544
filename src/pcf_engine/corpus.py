"""Domain types, corpus ingestion, and state persistence.

The corpus is a ground-truth knowledge base (one true author list per ISBN)
plus a table of claims made by websites. Claims that agree on the same
object and the same canonical author list are merged into a single fact
with several providers.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import lt
from pathlib import Path

STATE_SCHEMA_VERSION = 3

CLAIMS_HEADER = ["website_url", "isbn", "authors", "publisher", "price", "quantity"]

# An object is identified by its ISBN string.
ObjectId = str


class CorpusError(Exception):
    """An input file violates the knowledge-base or claims format."""


class StateError(Exception):
    """A state file is unreadable, corrupt, or has the wrong schema version."""


def normalize_name(raw: str) -> str:
    """Lowercase, drop periods and commas, collapse whitespace runs."""
    # Two str.replace calls are about 3 times as fast as str.translate with a
    # deletion table (CPython 3.11).
    return " ".join(raw.lower().replace(".", "").replace(",", "").split())


@dataclass
class TrueFact:
    """Ground-truth attribute values for one object."""

    object: ObjectId
    authors: list[str]
    title: str = ""
    publisher: str = ""
    price: float = 0.0


@dataclass
class Claim:
    """One website's asserted author list for one object.

    :func:`load_claims` gives ``authors`` as the canonical key, the
    normalized names sorted, in a tuple that every claim with the same
    authors field shares; :func:`build_state` takes the names in any order.
    """

    website: str
    object: ObjectId
    authors: Sequence[str]


@dataclass
class FactRecord:
    """A deduplicated distinct fact: object plus canonical author list.

    ``authors`` is the canonical key form (normalized names, sorted), and
    ``providers`` holds the ids of every website asserting this fact.
    """

    fact_id: int
    object: ObjectId
    authors: list[str]
    providers: set[int] = field(default_factory=set)
    pcf: float = 0.0
    adjusted_confidence: float = 0.0


@dataclass
class Website:
    id: int
    url: str
    trust: float = 0.0


@dataclass(frozen=True)
class EngineConfig:
    """The settings of ``pcf run``; a value the engine cannot run with raises ValueError."""

    epsilon: float = 0.4
    convergence_tol: float = 1e-6
    max_epochs: int = 10

    def __post_init__(self) -> None:
        # NaN fails every range.
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"config epsilon {self.epsilon} outside [0, 1]")
        if self.max_epochs < 1:
            raise ValueError(f"config max_epochs {self.max_epochs} below 1")
        if not math.isfinite(self.convergence_tol):
            raise ValueError(f"config convergence_tol {self.convergence_tol} is not finite")


@dataclass
class TrustState:
    """Full engine state. ``engine.run`` updates it in place."""

    websites: dict[str, Website] = field(default_factory=dict)
    facts: dict[int, FactRecord] = field(default_factory=dict)
    kb: dict[ObjectId, TrueFact] = field(default_factory=dict)
    epoch: int = 0
    config: EngineConfig = field(default_factory=EngineConfig)
    # Per-method url->trust tables recorded by engine/baseline runs; queries
    # against a method that has no entry here fail as stale.
    method_trusts: dict[str, dict[str, float]] = field(default_factory=dict)


def canonical_authors(authors: Sequence[str]) -> tuple[str, ...]:
    """Canonical fact key: normalized author names sorted lexicographically."""
    return tuple(sorted(authors))


def check_authors(names: list[str]) -> None:
    """Refuse an author list that no input file may give: ValueError if it is
    empty or holds a blank name, a name containing ``;`` (the claims
    separator) or a name twice, TypeError if it holds a name that is not a string.
    """
    if names and "" not in names and ";" not in "".join(names) and len(set(names)) == len(names):
        return
    if not names:
        raise ValueError("empty author list")
    for i, name in enumerate(names):
        if not name:
            raise ValueError("blank author name")
        if ";" in name:
            raise ValueError(f"author name {name!r} contains ';'")
        if name in names[:i]:
            raise ValueError(f"duplicate author name {name!r}")


def load_knowledge_base(path: str | Path) -> dict[ObjectId, TrueFact]:
    """Read a JSON-Lines knowledge base, one object per line.

    Author names are normalized on load. Types are checked, not coerced:
    author names, ``title`` and ``publisher`` must be strings, and ``price``
    an int or float (not a bool) that converts to a finite float >= 0.
    Duplicate ISBNs, empty author lists, duplicate author names within a
    record, and author names containing ``;`` (which no claim could name,
    since claims separate names with it) are rejected.
    """
    kb: dict[ObjectId, TrueFact] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON ({exc.msg})")
            except ValueError as exc:  # an integer past the interpreter's digit limit
                raise CorpusError(f"{path}: line {lineno}: {exc}")
            if not isinstance(record, dict):
                raise CorpusError(f"{path}: line {lineno}: expected a JSON object")
            isbn = record.get("isbn")
            if not isinstance(isbn, str) or not isbn.strip():
                raise CorpusError(f"{path}: line {lineno}: missing or empty isbn")
            isbn = isbn.strip()
            if isbn in kb:
                raise CorpusError(f"{path}: line {lineno}: duplicate isbn {isbn}")
            raw_authors = record.get("authors")
            if not isinstance(raw_authors, list):
                raise CorpusError(f"{path}: line {lineno}: authors is missing or not a list")
            authors = []
            for raw in raw_authors:
                if not isinstance(raw, str):
                    raise CorpusError(f"{path}: line {lineno}: an author name is not a string")
                authors.append(normalize_name(raw))
            try:
                check_authors(authors)
            except ValueError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}")
            title = record.get("title", "")
            publisher = record.get("publisher", "")
            for key, value in (("title", title), ("publisher", publisher)):
                if not isinstance(value, str):
                    raise CorpusError(f"{path}: line {lineno}: {key} is not a string")
            try:
                price = _price(record.get("price", 0.0))
            except (OverflowError, TypeError, ValueError):
                raise CorpusError(
                    f"{path}: line {lineno}: price must be a finite number >= 0"
                )
            kb[isbn] = TrueFact(isbn, authors, title, publisher, price)
    return kb


def load_claims(path: str | Path) -> list[Claim]:
    """Read a claims CSV (header ``website_url,isbn,authors,...``).

    The authors column is semicolon-separated; names are normalized and
    rows whose author list comes out empty or names one author twice are
    rejected with their row number, as is a row with a non-numeric or
    non-finite price, a non-integer quantity, or one the csv module cannot
    read (a field over its size limit). Publisher, price and quantity are
    checked, not kept. Each distinct authors field is normalized, checked
    and sorted once per call, and every claim of that field shares the
    resulting canonical key.
    """
    claims: list[Claim] = []
    key_of: dict[str, tuple[str, ...]] = {}
    row_num = 0
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return []
        except csv.Error as exc:
            raise CorpusError(f"{path}: header: {exc}")
        if [h.strip() for h in header] != CLAIMS_HEADER:
            raise CorpusError(
                f"{path}: bad header; expected {','.join(CLAIMS_HEADER)}"
            )
        try:
            for row_num, row in enumerate(reader, start=1):
                if not "".join(row).strip():
                    continue
                if len(row) != len(CLAIMS_HEADER):
                    raise CorpusError(
                        f"{path}: row {row_num}: expected {len(CLAIMS_HEADER)} columns, got {len(row)}"
                    )
                website, isbn, authors_field, _publisher, price_field, quantity_field = row
                website = website.strip()
                isbn = isbn.strip()
                if not website:
                    raise CorpusError(f"{path}: row {row_num}: empty website_url")
                if not isbn:
                    raise CorpusError(f"{path}: row {row_num}: empty isbn")
                authors = key_of.get(authors_field)
                if authors is None:
                    # Blank names between separators are dropped.
                    names = [name for name in map(normalize_name, authors_field.split(";")) if name]
                    try:
                        check_authors(names)
                    except ValueError as exc:
                        raise CorpusError(f"{path}: row {row_num}: {exc}")
                    authors = key_of[authors_field] = tuple(sorted(names))
                # A blank price or quantity is allowed.
                try:
                    finite = math.isfinite(float(price_field))
                except ValueError:
                    finite = not price_field.strip()
                if not finite:
                    raise CorpusError(f"{path}: row {row_num}: bad price {price_field!r}")
                try:
                    int(quantity_field)
                except ValueError:
                    if quantity_field.strip():
                        raise CorpusError(
                            f"{path}: row {row_num}: bad quantity {quantity_field!r}"
                        )
                claims.append(Claim(website, isbn, authors))
        except csv.Error as exc:
            # The reader fails on the row after the last one it returned.
            raise CorpusError(f"{path}: row {row_num + 1}: {exc}")
    return claims


def build_state(
    kb: dict[ObjectId, TrueFact],
    claims: list[Claim],
    config: EngineConfig | None = None,
) -> TrustState:
    """Merge claims into distinct facts and provider websites, in a fresh
    state with all trust and confidence fields at zero.

    Claims with the same (object, canonical author list) collapse into one
    fact, whatever order each lists its names in; exact duplicate claims
    from the same website collapse silently.
    Website and fact ids follow first appearance order, so the table is
    deterministic for a given claims list.
    """
    websites: dict[str, Website] = {}
    facts: dict[int, FactRecord] = {}
    by_key: dict[tuple[ObjectId, tuple[str, ...]], FactRecord] = {}
    for claim in claims:
        site = websites.get(claim.website)
        if site is None:
            site = Website(id=len(websites) + 1, url=claim.website)
            websites[claim.website] = site
        key = (claim.object, canonical_authors(claim.authors))
        fact = by_key.get(key)
        if fact is None:
            fact = FactRecord(
                fact_id=len(facts) + 1, object=claim.object, authors=list(key[1])
            )
            facts[fact.fact_id] = fact
            by_key[key] = fact
        fact.providers.add(site.id)
    return TrustState(
        websites=websites, facts=facts, kb=kb, config=config or EngineConfig()
    )


def save_state(state: TrustState, path: str | Path) -> None:
    """Serialize the state to one line of compact JSON with sorted keys.

    Records go in ascending id (the KB in ascending ISBN), so saving the same
    state twice yields byte-identical files; floats keep full round-trip
    precision. Nothing derivable is stored: a website's facts are the facts
    that list it as a provider, and a fact's confidence is
    ``engine.fact_confidence`` over its providers' trusts. NaN or an
    infinity raises ValueError. The document goes to a temporary file next
    to ``path`` that then replaces it, so a failure, or a process killed
    mid-write, leaves the old file whole.
    """
    doc = {
        "pcf_state_version": STATE_SCHEMA_VERSION,
        "config": vars(state.config),
        "epoch": state.epoch,
        "kb": [
            {
                "isbn": tf.object,
                "title": tf.title,
                "authors": tf.authors,
                "publisher": tf.publisher,
                "price": tf.price,
            }
            for tf in (state.kb[k] for k in sorted(state.kb))
        ],
        "websites": [
            {"id": w.id, "url": w.url, "trust": w.trust}
            for w in sorted(state.websites.values(), key=lambda w: w.id)
        ],
        "facts": [
            {
                "fact_id": f.fact_id,
                "isbn": f.object,
                "authors": f.authors,
                "providers": sorted(f.providers),
                "pcf": f.pcf,
                "adjusted_confidence": f.adjusted_confidence,
            }
            for f in (state.facts[k] for k in sorted(state.facts))
        ],
        "method_trusts": state.method_trusts,
    }
    # The document is built fresh from records above, so it holds no cycle
    # and the encoder need not look for one.
    text = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False
    ) + "\n"
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_state(path: str | Path) -> TrustState:
    """Rebuild a TrustState from a file written by :func:`save_state`.

    Types are checked, not coerced: ids, ``epoch`` and ``max_epochs`` must
    be ints; other numbers ints or floats, not bools, and never NaN or
    Infinity; urls, ISBNs, titles, publishers and author names strings.
    Trusts, method-table trusts included, and probabilities lie in [0, 1];
    KB prices are finite and non-negative. Each method's trust table names
    exactly the state's websites. ISBNs are non-empty, KB ISBNs distinct,
    and author lists pass :func:`check_authors`. Each fact is in the form
    :func:`build_state` gives it: its authors sorted, its providers the
    ids of websites, ascending and distinct, and no other fact on the same
    ISBN and authors. A malformed document, a wrongly typed field, one out
    of range, an inconsistent one or a config :class:`EngineConfig` refuses
    raises :class:`StateError`.
    """
    try:
        doc = json.loads(
            Path(path).read_text(encoding="utf-8"), parse_constant=_no_constant
        )
    except json.JSONDecodeError as exc:
        raise StateError(f"{path}: not valid JSON ({exc.msg})")
    except ValueError as exc:
        raise StateError(f"{path}: {exc}")
    if not isinstance(doc, dict):
        raise StateError(f"{path}: not a state document")
    version = doc.get("pcf_state_version")
    if version != STATE_SCHEMA_VERSION:
        raise StateError(
            f"{path}: schema version {version!r}, expected {STATE_SCHEMA_VERSION};"
            " run `pcf ingest` again to rebuild the state"
        )
    # One pass builds the records and checks each field's type. Positional
    # arguments, because keyword calls make building a FactRecord about 1.6
    # times as slow (CPython 3.11).
    try:
        cfg = doc["config"]
        config = EngineConfig(
            epsilon=_number(cfg["epsilon"]),
            convergence_tol=_number(cfg["convergence_tol"]),
            max_epochs=_int(cfg["max_epochs"]),
        )
        kb_list = [
            TrueFact(
                _isbn(rec["isbn"]),
                _names(rec["authors"]),
                _text(rec["title"]),
                _text(rec["publisher"]),
                _price(rec["price"]),
            )
            for rec in doc["kb"]
        ]
        site_list = [
            Website(_int(rec["id"]), _text(rec["url"]), _number(rec["trust"]))
            for rec in doc["websites"]
        ]
        site_ids = {site.id for site in site_list}
        fact_list = [
            FactRecord(
                _int(rec["fact_id"]),
                _isbn(rec["isbn"]),
                _names(rec["authors"]),
                _providers(rec, site_ids),
                _number(rec["pcf"]),
                _number(rec["adjusted_confidence"]),
            )
            for rec in doc["facts"]
        ]
        method_trusts = {
            method: {url: _trust(t) for url, t in trusts.items()}
            for method, trusts in doc.get("method_trusts", {}).items()
        }
        epoch = _int(doc["epoch"])
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise StateError(f"{path}: malformed state document ({exc})")
    except ValueError as exc:
        raise StateError(f"{path}: {exc}")
    _check_unique(path, "KB isbn", [tf.object for tf in kb_list])
    _check_unique(path, "website url", [site.url for site in site_list])
    _check_unique(path, "website id", [site.id for site in site_list])
    _check_unique(path, "fact id", [fact.fact_id for fact in fact_list])
    websites = {site.url: site for site in site_list}
    for method, trusts in method_trusts.items():
        if trusts.keys() != websites.keys():
            url = min(trusts.keys() ^ websites.keys())
            raise StateError(f"{path}: {method} trust table and websites disagree on url {url!r}")
    _check_state(path, site_list, fact_list)
    return TrustState(
        websites=websites,
        facts={fact.fact_id: fact for fact in fact_list},
        kb={tf.object: tf for tf in kb_list},
        epoch=epoch,
        config=config,
        method_trusts=method_trusts,
    )


def _no_constant(name: str) -> float:
    """Refuse the NaN, Infinity and -Infinity that save_state never writes."""
    raise ValueError(f"non-finite number {name}")


def _int(value: object) -> int:
    if type(value) is int:
        return value
    raise TypeError(f"expected an integer, got {value!r}")


def _number(value: object) -> float:
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise TypeError(f"expected a number, got {value!r}")


def _price(value: object) -> float:
    number = _number(value)
    if 0.0 <= number < math.inf:
        return number
    raise ValueError(f"KB price {value!r} is negative or not finite")


def _trust(value: object) -> float:
    number = _number(value)
    if 0.0 <= number <= 1.0:
        return number
    raise ValueError(f"method trust {value!r} outside [0, 1]")


def _providers(rec: dict, site_ids: set[int]) -> set[int]:
    """A fact's providers: stored as websites' int ids, ascending and distinct."""
    ids = rec["providers"]
    if type(ids) is not list or not ({int}.issuperset(map(type, ids)) and site_ids.issuperset(ids)):
        raise ValueError(f"fact {rec['fact_id']!r}: a provider is not the integer id of a website")
    if not ids:
        raise ValueError(f"fact {rec['fact_id']!r}: no website provides it")
    if not all(map(lt, ids, ids[1:])):
        raise ValueError(f"fact {rec['fact_id']!r}: providers are not ascending and distinct")
    return set(ids)


def _text(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _isbn(value: object) -> str:
    if _text(value):
        return value
    raise ValueError("empty ISBN")


def _names(value: object) -> list[str]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of names, got {value!r}")
    check_authors(value)
    return value


def _check_unique(path: str | Path, what: str, keys: list) -> None:
    """Reject a repeated key, which the id- and url-keyed tables would merge."""
    if len(set(keys)) != len(keys):
        duplicate = next(key for key, n in Counter(keys).items() if n > 1)
        raise StateError(f"{path}: duplicate {what} {duplicate!r}")


def _check_state(path: str | Path, sites: list[Website], facts: list[FactRecord]) -> None:
    """Reject values out of range (NaN too) and facts that are not canonical.

    Out of range: a trust or probability outside [0, 1]. Not canonical: an
    author list that is not sorted and distinct, or a second fact on the same
    ISBN and authors, which :func:`build_state` would have merged.
    """
    for site in sites:
        if not 0.0 <= site.trust <= 1.0:
            raise StateError(f"{path}: website {site.url}: trust {site.trust} outside [0, 1]")
    first: dict[tuple[ObjectId, tuple[str, ...]], int] = {}
    for fact in facts:
        if not (0.0 <= fact.pcf <= 1.0 and 0.0 <= fact.adjusted_confidence <= 1.0):
            raise StateError(f"{path}: fact {fact.fact_id}: a probability outside [0, 1]")
        authors = fact.authors
        if not all(map(lt, authors, authors[1:])):
            raise StateError(f"{path}: fact {fact.fact_id}: authors are not sorted and distinct")
        other = first.setdefault((fact.object, tuple(authors)), fact.fact_id)
        if other != fact.fact_id:
            raise StateError(f"{path}: fact {fact.fact_id}: same ISBN and authors as fact {other}")
