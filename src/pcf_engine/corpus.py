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
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import attrgetter, itemgetter, lt
from pathlib import Path

STATE_SCHEMA_VERSION = 4

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
    """Ground-truth attribute values for one object: what SIM and ``query`` read."""

    object: ObjectId
    authors: list[str]
    title: str = ""


@dataclass
class Claims:
    """A claims table as parallel columns, one entry per claim: each claim's
    website url, object and canonical fact key (normalized names, sorted).

    :func:`load_claims` gives every claim of one authors field the same key
    tuple; :func:`canonical_claims` builds the columns from rows that name
    their authors in any order.
    """

    websites: tuple[str, ...]
    objects: tuple[ObjectId, ...]
    authors: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return len(self.websites)


@dataclass
class FactRecord:
    """A deduplicated distinct fact: object plus canonical author list.

    ``authors`` is the canonical key (normalized names, sorted and distinct),
    ``providers`` the asserting websites' ids, strictly ascending: the forms
    that :func:`build_state` builds and :func:`load_state` requires of a
    file. ``engine.build_index`` and :func:`save_state` rely on it, sorting nothing.
    """

    fact_id: int
    object: ObjectId
    authors: tuple[str, ...]
    providers: tuple[int, ...] = ()
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
    Its callers sweep their lists first and call it only to word a refusal.
    """
    if not names:
        raise ValueError("empty author list")
    if "" not in names:
        "".join(names)  # TypeError at the first name that is not a string
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
    since claims separate names with it) are rejected, and so is an ISBN
    holding a tab, CR or LF, in one sweep after the last line. Blank lines
    are skipped but counted. Publisher and price are checked, not kept.

    Each line goes through one ``raw_decode``, and :func:`_kb_records` checks
    each rule as one sweep over a column of all the records. Only when a
    decode or a sweep fails are the lines taken again one at a time, each
    through ``json.loads`` and :func:`_kb_records`, to name the first bad line.
    """
    with open(path, encoding="utf-8") as fh:
        lines, unread = [], None
        try:
            lines.extend(fh)
        except UnicodeDecodeError as exc:
            unread = exc  # raised after the refusal of any line read before it
    texts = tuple(map(str.strip, lines, repeat(" \t\n\r")))  # JSON's whitespace
    try:
        records, ends = _columns(list(map(_decode, texts)), 0, 1)
    except (RecursionError, ValueError):  # a JSONDecodeError is a ValueError
        kb = None
    else:
        kb = _kb_records(records, set()) if ends == tuple(map(len, texts)) else None
    numbers: Sequence[int] = range(1, len(lines) + 1)
    if not isinstance(kb, dict):
        kb, isbns = {}, set()
        numbers = list(compress(numbers, map(str.strip, lines)))
        for number, line in zip(numbers, filter(str.strip, lines)):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                found = f"invalid JSON ({exc.msg})"
            except RecursionError:
                found = "JSON nested too deeply"
            except ValueError as exc:  # an integer past the interpreter's digit limit
                found = str(exc)
            else:
                found = _kb_records([record], isbns)
            if isinstance(found, str):
                raise CorpusError(f"{path}: line {number}: {found}")
            kb.update(found)
    if unread is not None:
        raise unread
    i = _first_row_break(tuple(kb))
    if i is not None:
        raise CorpusError(f"{path}: line {numbers[i]}: isbn holds a tab, CR or LF")
    return kb


_decode = json.JSONDecoder().raw_decode


def _kb_records(records: Sequence, isbns: set[str]) -> dict[ObjectId, TrueFact] | str:
    """The knowledge base of decoded ``records``, whose ISBNs must not be in
    ``isbns`` and are added to it; or, at the first rule of
    :func:`load_knowledge_base` that a sweep finds broken, the text of its
    refusal, which names the right value only for a single record."""
    if not {dict}.issuperset(map(type, records)):
        return "expected a JSON object"
    raw_isbns, raw_authors, titles, publishers, prices = (
        tuple(map(dict.get, records, repeat(key), repeat(default))) for key, default in
        (("isbn", None), ("authors", None), ("title", ""), ("publisher", ""), ("price", 0.0))
    )
    if not ({str}.issuperset(map(type, raw_isbns)) and all(map(str.strip, raw_isbns))):
        return "missing or empty isbn"
    keys = tuple(map(str.strip, raw_isbns))
    if len(isbns.union(keys)) != len(isbns) + len(keys):
        return f"duplicate isbn {keys[0]}"
    isbns.update(keys)
    if not {list}.issuperset(map(type, raw_authors)):
        return "authors is missing or not a list"
    if not {str}.issuperset(map(type, chain.from_iterable(raw_authors))):
        return "an author name is not a string"
    authors = list(map(list, map(map, repeat(normalize_name), raw_authors)))
    if not (_valid_names(authors) and sum(map(len, map(set, authors))) == sum(map(len, authors))):
        try:
            for names in authors:
                check_authors(names)
        except ValueError as exc:
            return str(exc)
    for key, values in (("title", titles), ("publisher", publishers)):
        if not {str}.issuperset(map(type, values)):
            return f"{key} is not a string"
    try:
        _typed({float, int}, prices)
        floats = tuple(map(float, prices))
    except (OverflowError, TypeError):
        floats = (math.nan,)
    if not (all(map(math.isfinite, floats)) and 0.0 <= min(floats, default=0.0)):
        return "price must be a finite number >= 0"
    return dict(zip(keys, map(TrueFact, keys, authors, titles)))


def load_claims(path: str | Path) -> Claims:
    """Read a claims CSV (header ``website_url,isbn,authors,...``) into columns.

    The authors column is semicolon-separated; names are normalized and
    rows whose author list comes out empty or names one author twice are
    rejected with their row number, as is a row with a non-numeric or
    non-finite price, a non-integer quantity (each in ASCII digits, with
    no ``_``), or one the csv module cannot read (a field over its size
    limit). A url or ISBN holding a tab, CR or LF is rejected too, after
    the rows that the csv module could read. Blank rows are skipped but
    counted. Publisher, price and quantity are checked, not kept. Each
    distinct authors field is normalized, checked and sorted once per call,
    and every claim of that field shares the resulting canonical key.

    :func:`_claim_columns` checks each rule as one sweep over a column of
    all the rows. Only when a sweep fails are the non-blank rows taken again
    one at a time, each through :func:`_claim_columns`, to name the first
    bad row.
    """
    rows: list[list[str]] = []
    unread = None
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return Claims((), (), ())
        except csv.Error as exc:
            raise CorpusError(f"{path}: header: {exc}")
        if [h.strip() for h in header] != CLAIMS_HEADER:
            raise CorpusError(
                f"{path}: bad header; expected {','.join(CLAIMS_HEADER)}"
            )
        try:
            rows.extend(reader)
        except csv.Error as exc:
            # The reader fails on the row after the last one it returned.
            unread = f"row {len(rows) + 1}: {exc}"
    numbers: Sequence[int] = range(1, len(rows) + 1)
    columns = _claim_columns(rows)
    if isinstance(columns, str):
        # A blank row fails the width or the url sweep, so only then are
        # blank rows looked for.
        contents = tuple(map(str.strip, map("".join, rows)))
        numbers, rows = list(compress(numbers, contents)), list(compress(rows, contents))
        columns = _claim_columns(rows)
    if isinstance(columns, str):
        for number, row in zip(numbers, rows):
            problem = _claim_columns([row])
            if isinstance(problem, str):
                raise CorpusError(f"{path}: row {number}: {problem}")
    if unread is not None:
        raise CorpusError(f"{path}: {unread}")
    for column, texts in zip(("website_url", "isbn"), columns):
        i = _first_row_break(texts)
        if i is not None:
            raise CorpusError(f"{path}: row {numbers[i]}: {column} holds a tab, CR or LF")
    return Claims(*columns)


def _claim_columns(rows: list[list[str]]) -> tuple[tuple, tuple, tuple] | str:
    """The url, ISBN and key columns of non-blank claims rows; or the refusal
    text of the first rule of :func:`load_claims` that a sweep finds broken
    (width, url, ISBN, authors, price, quantity, in that order), which names
    the right value only for a single row."""
    if not {len(CLAIMS_HEADER)}.issuperset(map(len, rows)):
        return f"expected {len(CLAIMS_HEADER)} columns, got {len(rows[0])}"
    websites, isbns, fields, prices, quantities = _columns(rows, 0, 1, 2, 4, 5)
    websites, isbns = tuple(map(str.strip, websites)), tuple(map(str.strip, isbns))
    if not all(websites):
        return "empty website_url"
    if not all(isbns):
        return "empty isbn"
    distinct = dict.fromkeys(fields)
    try:
        key_of = dict(zip(distinct, map(_authors_key, distinct)))
    except ValueError as exc:
        return str(exc)
    if not _in_format(prices, float):
        return f"bad price {prices[0]!r}"
    if not _in_format(quantities, int):
        return f"bad quantity {quantities[0]!r}"
    return websites, isbns, tuple(map(key_of.__getitem__, fields))


def _authors_key(field: str) -> tuple[str, ...]:
    """The canonical key of a claims authors field, blank names dropped; ValueError from
    :func:`check_authors`, which only an empty or repeating list can fail after the split."""
    names = [name for name in map(normalize_name, field.split(";")) if name]
    if not names or len(set(names)) != len(names):
        check_authors(names)
    return tuple(sorted(names))


def _in_format(fields: Sequence[str], number: type) -> bool:
    """Whether each field that is not blank is a finite ``number`` (float or
    int) written in ASCII with no ``_``: float and int also take non-ASCII
    digits and ``_``, which the claims format does not."""
    filled = tuple(filter(str.strip, fields))
    text = "".join(filled)
    if "_" in text or not text.isascii():
        return False
    try:
        values = tuple(map(number, filled))
    except ValueError:
        return False
    return number is int or all(map(math.isfinite, values))


def canonical_claims(rows: Sequence) -> Claims:
    """The claims of rows with ``website``, ``object`` and ``authors``
    attributes that name the authors in any order, such as
    ``generator.ClaimRow``: each key sorted by :func:`canonical_authors`."""
    websites, objects, authors = _columns(rows, "website", "object", "authors", get=attrgetter)
    return Claims(websites, objects, tuple(map(canonical_authors, authors)))


def build_state(
    kb: dict[ObjectId, TrueFact],
    claims: Claims,
    config: EngineConfig | None = None,
) -> TrustState:
    """Merge claims into distinct facts and provider websites, in a fresh
    state with all trust and confidence fields at zero.

    Claims with the same object and canonical key collapse into one fact;
    exact duplicate claims from the same website collapse silently.
    Website and fact ids follow first appearance order, so the table is
    deterministic for a given claims table.
    """
    site_ids = dict(zip(dict.fromkeys(claims.websites), count(1)))
    keys = tuple(zip(claims.objects, claims.authors))
    providers = {key: set() for key in dict.fromkeys(keys)}
    for key, site in zip(keys, map(site_ids.__getitem__, claims.websites)):
        providers[key].add(site)
    fact_ids = range(1, len(providers) + 1)
    objects, authors = _columns(providers, 0, 1)
    return TrustState(
        websites=dict(zip(site_ids, map(Website, site_ids.values(), site_ids))),
        facts=dict(zip(fact_ids, map(
            FactRecord, fact_ids, objects, authors, map(tuple, map(sorted, providers.values()))
        ))),
        kb=kb,
        config=config or EngineConfig(),
    )


def save_state(state: TrustState, path: str | Path) -> None:
    """Serialize the state to one line of compact JSON with sorted keys.

    The file holds exactly the bytes of ``json.dumps(document,
    sort_keys=True, separators=(",", ":"), allow_nan=False)`` plus a
    newline, built by :func:`_state_text`. Records go in ascending id (the
    KB in ascending ISBN), so saving the same state twice yields
    byte-identical files; floats keep full round-trip precision. Nothing
    derivable is stored: a website's facts are the facts that list it as a
    provider, and a fact's confidence is stage 2, ``engine.confidences``,
    over its providers' trusts. A NaN or an infinity raises ValueError, and
    a value of a type the format does not hold (a number that is not an int
    or a float, a text that is not a string) TypeError, before any file is
    opened. The text goes to a temporary file next to ``path`` that then
    replaces it, so a failure, or a process killed mid-write, leaves the old
    file whole.
    """
    parts = _state_text(state)
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _NumberTexts(dict):
    """An int's or a float's JSON text on lookup; a non-integral float's
    text is kept, so each distinct one is formatted once.

    Zeros, integral floats and ints are formatted afresh on every lookup:
    0.0 and -0.0, or 1 and 1.0, are equal keys with different texts.
    """

    def __missing__(self, number: float) -> str:
        text = repr(number)
        if number % 1:  # a non-integral float, NaN or an infinity
            if not math.isfinite(number):
                raise ValueError(f"Out of range float values are not JSON compliant: {text}")
            self[number] = text
        return text


_encode = json.encoder.encode_basestring_ascii


def _state_text(state: TrustState) -> list[str]:
    """The text of :func:`save_state`, in parts to write in order.

    Each record kind has one template with its keys in sorted order, and a
    table's records start with the comma that its first record drops.
    Strings go through ``json.dumps``' own ASCII escaper, ids through
    ``int.__repr__``, and every other number through one
    :class:`_NumberTexts`. A string field that holds no string, an id that
    is not an int, or a number that is neither an int nor a float raises
    TypeError.
    """
    texts = _NumberTexts()

    def numbers(values: tuple) -> Iterable[str]:
        # The type sweep keeps an equal number of another type out of the memo.
        _typed({float, int}, values)
        return map(texts.__getitem__, values)

    def lists(column: Iterable[Iterable], text: Callable) -> Iterable[str]:
        return map(",".join, map(map, repeat(text), column))

    config = state.config
    tol, epsilon, max_epochs, epoch = numbers(
        (config.convergence_tol, config.epsilon, config.max_epochs, state.epoch)
    )
    parts = [
        f'{{"config":{{"convergence_tol":{tol},"epsilon":{epsilon},"max_epochs":{max_epochs}}},'
        f'"epoch":{epoch},"facts":['
    ]
    facts = tuple(map(state.facts.__getitem__, sorted(state.facts)))
    fact_ids, providers = _columns(facts, "fact_id", "providers", get=attrgetter)
    _typed({int}, fact_ids, tuple(chain.from_iterable(providers)))
    objects, authors, pcfs, adjusted = _columns(
        facts, "object", "authors", "pcf", "adjusted_confidence", get=attrgetter
    )
    parts += _table([
        f',{{"adjusted_confidence":{adj},"authors":[{names}],"fact_id":{i},"isbn":{isbn},"pcf":{pcf},'
        f'"providers":[{ids}]}}'
        for adj, names, i, isbn, pcf, ids in zip(
            numbers(adjusted), lists(authors, _encode), map(int.__repr__, fact_ids),
            map(_encode, objects), numbers(pcfs), lists(providers, int.__repr__),
        )
    ])
    parts.append('],"kb":[')
    books = tuple(map(state.kb.__getitem__, sorted(state.kb)))
    authors, isbns, titles = _columns(books, "authors", "object", "title", get=attrgetter)
    parts += _table([
        f',{{"authors":[{names}],"isbn":{isbn},"title":{title}}}'
        for names, isbn, title in zip(
            lists(authors, _encode), map(_encode, isbns), map(_encode, titles)
        )
    ])
    tables = []
    for method, table in sorted(state.method_trusts.items()):
        urls = sorted(table)
        trusts = numbers(tuple(map(table.__getitem__, urls)))
        entries = ",".join(map(":".join, zip(map(_encode, urls), trusts)))
        tables.append(f"{_encode(method)}:{{{entries}}}")
    parts.append(
        f'],"method_trusts":{{{",".join(tables)}}},'
        f'"pcf_state_version":{STATE_SCHEMA_VERSION},"websites":['
    )
    sites = sorted(state.websites.values(), key=attrgetter("id"))
    ids, trusts, urls = _columns(sites, "id", "trust", "url", get=attrgetter)
    _typed({int}, ids)
    parts += _table([
        f',{{"id":{i},"trust":{trust},"url":{url}}}'
        for i, trust, url in zip(map(int.__repr__, ids), numbers(trusts), map(_encode, urls))
    ])
    parts.append("]}\n")
    return parts


def _table(rows: list[str]) -> list[str]:
    """A table's records, each written with a leading comma, the first without it."""
    if rows:
        rows[0] = rows[0][1:]
    return rows


# The columns of a state file that :func:`read_state` checks, each in file
# order: the KB's ISBNs, author lists and titles; each url's site id, and the
# sites' trusts; each fact's id, ISBN, authors (a tuple), providers (a list),
# pcf and adjusted confidence; then the method tables, the epoch and the config.
StateColumns = namedtuple("StateColumns", [
    "isbns", "kb_authors", "titles", "site_of", "trusts", "fact_ids", "objects", "authors",
    "providers", "pcfs", "adjusted", "method_trusts", "epoch", "config",
])


def load_state(path: str | Path) -> TrustState:
    """Rebuild a TrustState from a file written by :func:`save_state`: the
    records of :func:`read_state`'s columns."""
    c = read_state(path)
    return TrustState(
        websites=dict(zip(c.site_of, map(Website, c.site_of.values(), c.site_of, c.trusts))),
        facts=dict(zip(c.fact_ids, map(
            FactRecord, c.fact_ids, c.objects, c.authors, map(tuple, c.providers), c.pcfs, c.adjusted
        ))),
        kb=dict(zip(c.isbns, map(TrueFact, c.isbns, c.kb_authors, c.titles))),
        epoch=c.epoch,
        config=c.config,
        method_trusts=c.method_trusts,
    )


def read_state(path: str | Path) -> StateColumns:
    """The checked columns of a file written by :func:`save_state`.

    Types are checked, not coerced: ids, ``epoch`` and ``max_epochs`` are
    ints; other numbers ints or floats, not bools, NaN or Infinity; texts
    strings; ``kb``, ``websites`` and ``facts`` lists of objects;
    ``config``, ``method_trusts`` and each of its tables objects. Trusts
    (method tables too) and probabilities lie in [0, 1], and the epoch is
    not negative. Each method table names exactly the websites. ISBNs are
    non-empty, ISBNs, urls and fact author names hold no tab, CR or LF, KB
    ISBNs, urls and ids are distinct, author lists pass :func:`check_authors`,
    and facts are in :func:`build_state`'s form: authors sorted, providers
    ids of websites, ascending, and no two facts on one ISBN and authors.
    Anything else, or a config :class:`EngineConfig` refuses, raises
    :class:`StateError`. Each rule is one sweep over a column; a refusal
    names the first record that breaks it.
    """
    try:
        doc = json.loads(
            Path(path).read_text(encoding="utf-8"), parse_constant=_no_constant
        )
    except json.JSONDecodeError as exc:
        raise StateError(f"{path}: not valid JSON ({exc.msg})")
    except RecursionError:
        raise StateError(f"{path}: JSON nested too deeply")
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
    try:
        cfg = doc["config"]
        if type(cfg) is not dict:
            raise TypeError("config is not an object")
        epsilon, tol = _numbers((cfg["epsilon"], cfg["convergence_tol"]))
        max_epochs, epoch = cfg["max_epochs"], doc["epoch"]
        for key in ("kb", "websites", "facts"):
            records = doc[key]
            # An empty string or object would iterate as an empty table.
            if not isinstance(records, list):
                raise TypeError(f"{key} is not a list")
            if not {dict}.issuperset(map(type, records)):
                i = next(i for i, record in enumerate(records) if type(record) is not dict)
                raise TypeError(f"{key}[{i}] is not an object")
        tables = doc.get("method_trusts", {})
        if not isinstance(tables, dict):
            raise TypeError("method_trusts is not an object")
        isbns, kb_authors, titles = _columns(doc["kb"], "isbn", "authors", "title")
        ids, urls, trusts = _columns(doc["websites"], "id", "url", "trust")
        fact_ids, objects, authors, providers, pcfs, adjusted = _columns(
            doc["facts"], "fact_id", "isbn", "authors", "providers", "pcf", "adjusted_confidence"
        )
        # Types first: the sweeps below compare and hash the values.
        _typed({int}, (max_epochs, epoch), ids, fact_ids)
        config = EngineConfig(epsilon, tol, max_epochs)
        if epoch < 0:
            raise ValueError(f"epoch {epoch} is negative")
        _typed({str}, isbns, objects, urls, titles)
        _typed({list}, kb_authors, authors, providers)
        trusts, pcfs, adjusted = map(_numbers, (trusts, pcfs, adjusted))
        for what, keys in (
            ("KB isbn", isbns), ("website url", urls), ("website id", ids), ("fact id", fact_ids)
        ):
            if len(set(keys)) != len(keys):
                duplicate = next(key for key, n in Counter(keys).items() if n > 1)
                raise ValueError(f"duplicate {what} {duplicate!r}")
        if not (all(isbns) and all(objects)):
            raise ValueError("empty ISBN")
        for what, texts in (("KB isbn", isbns), ("website url", urls)):
            i = _first_row_break(texts)
            if i is not None:
                raise ValueError(f"{what} {texts[i]!r} holds a tab, CR or LF")
        i = _first_row_break(objects)
        if i is not None:
            raise ValueError(f"fact {fact_ids[i]}: isbn {objects[i]!r} holds a tab, CR or LF")
        _in_range("website", urls, trusts, "trust {} outside [0, 1]")
        _in_range("fact", fact_ids, pcfs, "pcf {} outside [0, 1]")
        _in_range("fact", fact_ids, adjusted, "adjusted confidence {} outside [0, 1]")
        _check_names("KB isbn", isbns, kb_authors,
                     sum(map(len, map(set, kb_authors))) == sum(map(len, kb_authors)))
        # `query` prints a fact's authors in its TSV row, as it does the isbn.
        _check_names("fact", fact_ids, authors, _ascending(authors), ";\t\r\n")
        site_ids = set(ids)

        def linked(values: Iterable) -> bool:
            return {int}.issuperset(map(type, values)) and site_ids.issuperset(values)

        _check(linked(tuple(chain.from_iterable(providers))), "fact", fact_ids, providers, linked,
               "a provider is not the integer id of a website")
        _check(all(providers), "fact", fact_ids, providers, bool, "no website provides it")
        _check(_ascending(providers), "fact", fact_ids, providers, lambda p: _ascending((p,)),
               "providers are not ascending and distinct")
        authors = tuple(map(tuple, authors))
        keys = tuple(zip(objects, authors))
        first = dict(zip(reversed(keys), reversed(fact_ids)))  # each key's first fact
        _check(len(first) == len(keys), "fact", fact_ids, zip(map(first.get, keys), fact_ids),
               lambda pair: pair[0] == pair[1], "same ISBN and authors as fact {0[0]}")
        site_of = dict(zip(urls, ids))
        method_trusts = {}
        for method, table in tables.items():
            if not isinstance(table, dict):
                raise TypeError(f"method_trusts {method!r} is not an object")
            values = tuple(table.values())
            floats = _numbers(values)
            _in_range(f"{method} trust of", tuple(table), floats, "{} outside [0, 1]")
            if table.keys() != site_of.keys():
                url = min(table.keys() ^ site_of.keys())
                raise ValueError(f"{method} trust table and websites disagree on url {url!r}")
            method_trusts[method] = table if floats is values else dict(zip(table, floats))
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise StateError(f"{path}: malformed state document ({exc})")
    except ValueError as exc:
        raise StateError(f"{path}: {exc}")
    return StateColumns(isbns, kb_authors, titles, site_of, trusts, fact_ids, objects, authors,
                        providers, pcfs, adjusted, method_trusts, epoch, config)


def _no_constant(name: str) -> float:
    """Refuse the NaN, Infinity and -Infinity that save_state never writes."""
    raise ValueError(f"non-finite number {name}")


def _columns(records: Iterable, *keys: str | int, get: Callable = itemgetter) -> list[tuple]:
    """Each key's values over ``records`` (items, or attributes with
    ``get=attrgetter``), one tuple per key."""
    # Not zip(*rows): its row tuples would stay on CPython's tuple free lists.
    return [tuple(map(get(key), records)) for key in keys]


def _typed(types: set[type], *columns: Sequence) -> None:
    """TypeError at the first value whose type is not in ``types``; a bool is no int."""
    for values in columns:
        if not types.issuperset(map(type, values)):
            bad = next(value for value in values if type(value) not in types)
            names = " or ".join(sorted(t.__name__ for t in types))
            raise TypeError(f"expected {names}, got {bad!r}")


def _numbers(values: tuple) -> Sequence[float]:
    """Ints and floats as floats; OverflowError on an int too large for a float."""
    if {float}.issuperset(map(type, values)):
        return values
    _typed({float, int}, values)
    return list(map(float, values))


def _check(swept: bool, what: str, keys: Sequence, values: Iterable, ok: Callable,
           problem: str) -> None:
    """If the sweep failed, raise ValueError naming the first record whose value fails ``ok``."""
    if not swept:
        i, value = next((i, value) for i, value in enumerate(values) if not ok(value))
        raise ValueError(f"{what} {keys[i]}: " + problem.format(value))


def _breaks_row(text: str) -> bool:
    """Whether ``text`` holds a tab, CR or LF: as a url, an ISBN or a fact's
    author name, it would split a row of ``query``'s TSV or ``compare``'s CSV."""
    return "\t" in text or "\r" in text or "\n" in text


def _first_row_break(texts: Sequence[str]) -> int | None:
    """The index of the first text that :func:`_breaks_row`, or None; one
    scan of the joined column decides that none does."""
    if not _breaks_row("".join(texts)):
        return None
    return next(i for i, text in enumerate(texts) if _breaks_row(text))


def _in_range(what: str, keys: Sequence, values: Sequence[float], problem: str) -> None:
    """Refuse a value outside [0, 1]; no NaN parses, so min and max decide."""
    swept = not values or (0.0 <= min(values) and max(values) <= 1.0)
    _check(swept, what, keys, values, lambda value: 0.0 <= value <= 1.0, problem)


def _check_names(what: str, keys: Sequence, lists: tuple, distinct: bool, refused: str = ";") -> None:
    """:func:`check_authors` over a column; ``distinct`` sweeps for repeats (facts: order).
    If ``refused`` holds a tab, CR and LF beside ``;``, a name holding one is refused last."""
    if distinct and _valid_names(lists, refused):
        return
    for key, value in zip(keys, lists):
        try:
            check_authors(value)
        except ValueError as exc:
            raise ValueError(f"{what} {key}: {exc}") from None
    # All pass check_authors, so a fact's names are out of order or one breaks a row.
    _check(distinct, what, keys, lists, lambda names: _ascending((names,)),
           "authors are not sorted and distinct")
    key, name = next((key, name) for key, names in zip(keys, lists)
                     for name in names if _breaks_row(name))
    raise ValueError(f"{what} {key}: author name {name!r} holds a tab, CR or LF")


def _valid_names(lists: Sequence[list], refused: str = ";") -> bool:
    """Whether no list is empty and no name is blank or holds a character of ``refused``."""
    names = tuple(chain.from_iterable(lists))
    # The join raises TypeError at a name that is not a string.
    return all(lists) and all(names) and not any(map("".join(names).__contains__, refused))


def _ascending(lists: tuple) -> bool:
    """Whether each list is strictly ascending; no pair spans two lists."""
    return all(map(
        lt,
        chain.from_iterable(map(itemgetter(slice(None, -1)), lists)),
        chain.from_iterable(map(itemgetter(slice(1, None)), lists)),
    ))
