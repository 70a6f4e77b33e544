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
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

STATE_SCHEMA_VERSION = 1

CLAIMS_HEADER = ["website_url", "isbn", "authors", "publisher", "price", "quantity"]

# An object is identified by its ISBN string.
ObjectId = str


class CorpusError(Exception):
    """An input file violates the knowledge-base or claims format."""


class StateError(Exception):
    """A state file is unreadable, corrupt, or has the wrong schema version."""


_DROPPED_PUNCT = str.maketrans("", "", ".,")


def normalize_name(raw: str) -> str:
    """Lowercase, drop periods and commas, collapse whitespace runs."""
    return " ".join(raw.lower().translate(_DROPPED_PUNCT).split())


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
    """One website's asserted author list for one object."""

    website: str
    object: ObjectId
    authors: list[str]
    publisher: str | None = None
    price: float | None = None
    quantity: int | None = None


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
    unknown_object: bool = False
    pcf: float = 0.0
    confidence: float = 0.0
    adjusted_confidence: float = 0.0
    confidence_score: float = 0.0
    adjusted_score: float = 0.0


@dataclass
class Website:
    id: int
    url: str
    trust: float = 0.0
    fact_ids: set[int] = field(default_factory=set)


@dataclass
class EngineConfig:
    epsilon: float = 0.4
    convergence_tol: float = 1e-6
    max_epochs: int = 10
    confidence_clamp: float = 1e-10
    seed: int = 0


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


def canonical_authors(authors: list[str]) -> tuple[str, ...]:
    """Canonical fact key: normalized author names sorted lexicographically."""
    return tuple(sorted(authors))


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
            if not isinstance(raw_authors, list) or not raw_authors:
                raise CorpusError(f"{path}: line {lineno}: empty author list")
            authors = []
            for raw in raw_authors:
                if not isinstance(raw, str):
                    raise CorpusError(f"{path}: line {lineno}: an author name is not a string")
                name = normalize_name(raw)
                if not name:
                    raise CorpusError(f"{path}: line {lineno}: blank author name")
                if ";" in name:
                    raise CorpusError(f"{path}: line {lineno}: author name {name!r} contains ';'")
                if name in authors:
                    raise CorpusError(
                        f"{path}: line {lineno}: duplicate author name {name!r}"
                    )
                authors.append(name)
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
    rejected with their row number, as is a row the csv module cannot read
    (a field over its size limit). Each distinct authors field is normalized
    and checked once per call; every claim gets its own copy of the name
    list.
    """
    claims: list[Claim] = []
    names_of: dict[str, list[str]] = {}
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
                website, isbn, authors_field, publisher, price_field, quantity_field = row
                website = website.strip()
                isbn = isbn.strip()
                if not website:
                    raise CorpusError(f"{path}: row {row_num}: empty website_url")
                if not isbn:
                    raise CorpusError(f"{path}: row {row_num}: empty isbn")
                authors = names_of.get(authors_field)
                if authors is None:
                    authors = []
                    for part in authors_field.split(";"):
                        name = normalize_name(part)
                        if name in authors:
                            raise CorpusError(
                                f"{path}: row {row_num}: duplicate author name {name!r}"
                            )
                        if name:
                            authors.append(name)
                    names_of[authors_field] = authors
                if not authors:
                    raise CorpusError(f"{path}: row {row_num}: empty author list")
                try:
                    price = float(price_field) if price_field.strip() else None
                except ValueError:
                    price = math.nan  # rejected below with the non-finite ones
                if price is not None and not math.isfinite(price):
                    raise CorpusError(f"{path}: row {row_num}: bad price {price_field!r}")
                try:
                    quantity = int(quantity_field) if quantity_field.strip() else None
                except ValueError:
                    raise CorpusError(
                        f"{path}: row {row_num}: bad quantity {quantity_field!r}"
                    )
                claims.append(
                    Claim(website, isbn, authors[:], publisher.strip() or None, price, quantity)
                )
        except csv.Error as exc:
            # The reader fails on the row after the last one it returned.
            raise CorpusError(f"{path}: row {row_num + 1}: {exc}")
    return claims


def build_fact_table(
    claims: list[Claim],
) -> tuple[dict[str, Website], dict[int, FactRecord]]:
    """Merge claims into distinct facts and provider websites.

    Claims with the same (object, canonical author list) collapse into one
    fact; exact duplicate claims from the same website collapse silently.
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
        site.fact_ids.add(fact.fact_id)
    return websites, facts


def build_state(
    kb: dict[ObjectId, TrueFact],
    claims: list[Claim],
    config: EngineConfig | None = None,
) -> TrustState:
    """Assemble a fresh state with all trust and confidence fields at zero."""
    websites, facts = build_fact_table(claims)
    for fact in facts.values():
        fact.unknown_object = fact.object not in kb
    return TrustState(
        websites=websites, facts=facts, kb=kb, config=config or EngineConfig()
    )


# The C function behind json.dumps' default ``ensure_ascii=True``; it raises
# TypeError on a value that is not a string.
_json_string = json.encoder.encode_basestring_ascii


def _json_int(value: object) -> str:
    if type(value) is int:
        return int.__repr__(value)
    raise TypeError(f"cannot save {value!r} as an integer")


def _json_number(value: object) -> str:
    if type(value) is float:
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"cannot save the non-finite number {value!r}")
    return _json_int(value)


def _json_flag(value: object) -> str:
    if type(value) is bool:
        return "true" if value else "false"
    raise TypeError(f"cannot save {value!r} as a flag")


def _json_block(items, depth: int, brackets: str = "[]") -> str:
    """Rendered ``items`` as an array (or, with ``"{}"``, object members) at nesting ``depth``."""
    pad = "\n" + "  " * depth
    body = ("," + pad).join(items)
    if not body:
        return brackets
    return brackets[0] + pad + body + pad[:-2] + brackets[1]


def _template(depth: int, *keys: str) -> str:
    """An object whose members sit at nesting ``depth``, one ``%s`` slot per key.

    The keys come sorted, as ``sort_keys=True`` writes them, and the slots
    are filled in that order.
    """
    return _json_block([f'"{key}": %s' for key in keys], depth, "{}")


_DOCUMENT = _template(
    1, "config", "epoch", "facts", "kb", "method_trusts", "pcf_state_version", "websites"
) + "\n"
_CONFIG = _template(2, "confidence_clamp", "convergence_tol", "epsilon", "max_epochs", "seed")
_KB_RECORD = _template(3, "authors", "isbn", "price", "publisher", "title")
_WEBSITE = _template(3, "fact_ids", "id", "trust", "url")
_FACT = _template(
    3, "adjusted_confidence", "adjusted_score", "authors", "confidence", "confidence_score",
    "fact_id", "isbn", "pcf", "providers", "unknown_object",
)


def _state_text(state: TrustState) -> str:
    """The state document, byte for byte as ``json.dumps(doc, sort_keys=True,
    indent=2) + "\\n"`` writes it, filled into one template per record.

    Ids, ``epoch``, ``max_epochs`` and ``seed`` must be ints, other numbers
    finite floats or ints, flags bools and text strings: anything else raises
    TypeError, and NaN or an infinity raises ValueError, so that no file is
    written that :func:`load_state` would refuse.
    """
    config = state.config
    kb = (
        _KB_RECORD % (
            _json_block(map(_json_string, tf.authors), 4),
            _json_string(tf.object),
            _json_number(tf.price),
            _json_string(tf.publisher),
            _json_string(tf.title),
        )
        for tf in (state.kb[k] for k in sorted(state.kb))
    )
    websites = (
        _WEBSITE % (
            _json_block(map(_json_int, sorted(w.fact_ids)), 4),
            _json_int(w.id),
            _json_number(w.trust),
            _json_string(w.url),
        )
        for w in sorted(state.websites.values(), key=lambda w: w.id)
    )
    facts = (
        _FACT % (
            _json_number(f.adjusted_confidence),
            _json_number(f.adjusted_score),
            _json_block(map(_json_string, f.authors), 4),
            _json_number(f.confidence),
            _json_number(f.confidence_score),
            _json_int(f.fact_id),
            _json_string(f.object),
            _json_number(f.pcf),
            _json_block(map(_json_int, sorted(f.providers)), 4),
            _json_flag(f.unknown_object),
        )
        for f in (state.facts[k] for k in sorted(state.facts))
    )
    method_trusts = (
        _json_string(method) + ": " + _json_block(
            (_json_string(url) + ": " + _json_number(t) for url, t in sorted(trusts.items())),
            3,
            "{}",
        )
        for method, trusts in sorted(state.method_trusts.items())
    )
    return _DOCUMENT % (
        _CONFIG % (
            _json_number(config.confidence_clamp),
            _json_number(config.convergence_tol),
            _json_number(config.epsilon),
            _json_int(config.max_epochs),
            _json_int(config.seed),
        ),
        _json_int(state.epoch),
        _json_block(facts, 2),
        _json_block(kb, 2),
        _json_block(method_trusts, 2, "{}"),
        STATE_SCHEMA_VERSION,
        _json_block(websites, 2),
    )


def save_state(state: TrustState, path: str | Path) -> None:
    """Serialize the state to a canonical JSON document.

    Keys and id-ordered lists are sorted so saving the same state twice
    yields byte-identical files; floats keep full round-trip precision.
    The document goes to a temporary file next to ``path`` that then
    replaces it, so a failure, or a process killed mid-write, leaves the
    old file whole.
    """
    text = _state_text(state)
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

    Types are checked, not coerced: ids, ``epoch``, ``max_epochs`` and
    ``seed`` must be ints; other numbers ints or floats, not bools, and
    never NaN or Infinity; ``unknown_object`` a bool; urls, ISBNs, titles,
    publishers and author names strings. Trusts, method-table trusts
    included, and probabilities lie in [0, 1]; KB prices and log scores are
    finite and non-negative. Each method's trust table names exactly the
    state's websites. A malformed document, a wrongly typed field, one out of
    range or an inconsistent one raises :class:`StateError`.
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
            f"{path}: schema version {version!r}, expected {STATE_SCHEMA_VERSION}"
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
            confidence_clamp=_number(cfg["confidence_clamp"]),
            seed=_int(cfg["seed"]),
        )
        kb = {
            _text(rec["isbn"]): TrueFact(
                rec["isbn"],
                _names(rec["authors"]),
                _text(rec["title"]),
                _text(rec["publisher"]),
                _price(rec["price"]),
            )
            for rec in doc["kb"]
        }
        site_list = [
            Website(
                _int(rec["id"]),
                _text(rec["url"]),
                _number(rec["trust"]),
                set(rec["fact_ids"]),
            )
            for rec in doc["websites"]
        ]
        fact_list = [
            FactRecord(
                _int(rec["fact_id"]),
                _text(rec["isbn"]),
                _names(rec["authors"]),
                set(rec["providers"]),
                _flag(rec["unknown_object"]),
                _number(rec["pcf"]),
                _number(rec["confidence"]),
                _number(rec["adjusted_confidence"]),
                _number(rec["confidence_score"]),
                _number(rec["adjusted_score"]),
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
    _check_config(path, config)
    _check_unique(path, "website url", [site.url for site in site_list])
    _check_unique(path, "website id", [site.id for site in site_list])
    _check_unique(path, "fact id", [fact.fact_id for fact in fact_list])
    websites = {site.url: site for site in site_list}
    for method, trusts in method_trusts.items():
        if trusts.keys() != websites.keys():
            url = min(trusts.keys() ^ websites.keys())
            raise StateError(f"{path}: {method} trust table and websites disagree on url {url!r}")
    facts = {fact.fact_id: fact for fact in fact_list}
    _check_state(path, websites, facts, kb)
    return TrustState(
        websites=websites,
        facts=facts,
        kb=kb,
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


def _flag(value: object) -> bool:
    if type(value) is bool:
        return value
    raise TypeError(f"expected true or false, got {value!r}")


def _text(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _names(value: object) -> list[str]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of names, got {value!r}")
    "".join(value)  # raises TypeError on a name that is not a string
    return value


def _check_config(path: str | Path, config: EngineConfig) -> None:
    """Reject config values the engine cannot run with (NaN fails every range)."""
    if not 0.0 <= config.epsilon <= 1.0:
        raise StateError(f"{path}: config epsilon {config.epsilon} outside [0, 1]")
    if not 0.0 < config.confidence_clamp < 1.0:
        raise StateError(
            f"{path}: config confidence_clamp {config.confidence_clamp} outside (0, 1)"
        )
    if config.max_epochs < 1:
        raise StateError(f"{path}: config max_epochs {config.max_epochs} below 1")
    if not math.isfinite(config.convergence_tol):
        raise StateError(
            f"{path}: config convergence_tol {config.convergence_tol} is not finite"
        )


def _check_unique(path: str | Path, what: str, keys: list) -> None:
    """Reject a repeated key, which the id- and url-keyed tables would merge."""
    if len(set(keys)) != len(keys):
        duplicate = next(key for key, n in Counter(keys).items() if n > 1)
        raise StateError(f"{path}: duplicate {what} {duplicate!r}")


def _check_state(
    path: str | Path,
    websites: dict[str, Website],
    facts: dict[int, FactRecord],
    kb: dict[ObjectId, TrueFact],
) -> None:
    """Reject values out of range (NaN too) and inconsistent records.

    Out of range: a trust or probability outside [0, 1], a log score that is
    negative or not finite. Inconsistent: a fact no website provides, an
    unmirrored website-fact link, a link whose id is not an int, or an
    ``unknown_object`` flag that disagrees with the knowledge base.
    """
    fact_ids_of: dict[int, set[int]] = {}
    links = 0
    for site in websites.values():
        if not 0.0 <= site.trust <= 1.0:
            raise StateError(f"{path}: website {site.url}: trust {site.trust} outside [0, 1]")
        fact_ids_of[site.id] = site.fact_ids
        links += len(site.fact_ids)
    if not {int}.issuperset(map(type, chain.from_iterable(fact_ids_of.values()))):
        raise StateError(f"{path}: a website's fact_ids holds an id that is not an integer")
    for fact in facts.values():
        if not (
            0.0 <= fact.pcf <= 1.0
            and 0.0 <= fact.confidence <= 1.0
            and 0.0 <= fact.adjusted_confidence <= 1.0
        ):
            raise StateError(f"{path}: fact {fact.fact_id}: a probability outside [0, 1]")
        if not (
            0.0 <= fact.confidence_score < math.inf and 0.0 <= fact.adjusted_score < math.inf
        ):
            raise StateError(f"{path}: fact {fact.fact_id}: a log score is negative or not finite")
        if not fact.providers:
            raise StateError(f"{path}: fact {fact.fact_id}: no website provides it")
        if fact.unknown_object == (fact.object in kb):
            raise StateError(
                f"{path}: fact {fact.fact_id}: unknown_object {fact.unknown_object}"
                f" disagrees with the KB for ISBN {fact.object!r}"
            )
        for site_id in fact.providers:
            if type(site_id) is not int or fact.fact_id not in fact_ids_of.get(site_id, ()):
                raise StateError(
                    f"{path}: fact {fact.fact_id}: provider {site_id!r} is not the integer id"
                    " of a website listing it"
                )
        links -= len(fact.providers)
    # Every provider link has its mirror, so a surplus of fact_ids entries
    # means one names a missing fact or a fact that does not list the site.
    if links:
        raise StateError(f"{path}: fact_ids and providers do not mirror each other")
