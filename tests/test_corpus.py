import contextlib
import copy
import csv
import io
import json
import math
import re
import tempfile
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from operator import lt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcf_engine import cli, corpus, engine, generator

from conftest import (
    CORE_ISBN,
    REPLACEMENTS,
    W1,
    W2,
    core_java_claims,
    json_paths,
    list_mutations,
    make_claim,
    one_epoch,
    write_core_fixture,
)


def state_document(state: corpus.TrustState) -> dict:
    """Reference state document: what ``save_state`` writes, through ``json.dumps``."""
    return {
        "pcf_state_version": corpus.STATE_SCHEMA_VERSION,
        "epoch": state.epoch,
        "config": {
            "epsilon": state.config.epsilon,
            "convergence_tol": state.config.convergence_tol,
            "max_epochs": state.config.max_epochs,
        },
        "kb": [
            {
                "isbn": tf.object,
                "title": tf.title,
                "authors": tf.authors,
            }
            for tf in (state.kb[k] for k in sorted(state.kb))
        ],
        "websites": [
            {
                "id": w.id,
                "url": w.url,
                "trust": w.trust,
            }
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
        "method_trusts": {
            method: dict(sorted(trusts.items()))
            for method, trusts in sorted(state.method_trusts.items())
        },
    }


# The per-record loader that ``corpus.load_state`` replaced, kept as the
# oracle of the column sweeps: what it refuses, they refuse, and what it
# loads, they load bit for bit.
def reference_load_state(path):
    """Rebuild a TrustState field by field, each through its own check."""
    try:
        doc = json.loads(
            Path(path).read_text(encoding="utf-8"), parse_constant=_no_constant
        )
    except json.JSONDecodeError as exc:
        raise corpus.StateError(f"{path}: not valid JSON ({exc.msg})")
    except RecursionError:
        raise corpus.StateError(f"{path}: JSON nested too deeply")
    except ValueError as exc:
        raise corpus.StateError(f"{path}: {exc}")
    if not isinstance(doc, dict):
        raise corpus.StateError(f"{path}: not a state document")
    version = doc.get("pcf_state_version")
    if version != corpus.STATE_SCHEMA_VERSION:
        raise corpus.StateError(
            f"{path}: schema version {version!r}, expected {corpus.STATE_SCHEMA_VERSION};"
            " run `pcf ingest` again to rebuild the state"
        )
    try:
        cfg = doc["config"]
        config = corpus.EngineConfig(
            epsilon=_number(cfg["epsilon"]),
            convergence_tol=_number(cfg["convergence_tol"]),
            max_epochs=_int(cfg["max_epochs"]),
        )
        for key in ("kb", "websites", "facts"):
            if not isinstance(doc[key], list):
                raise TypeError(f"{key} is not a list")
        method_tables = doc.get("method_trusts", {})
        if not isinstance(method_tables, dict):
            raise TypeError("method_trusts is not an object")
        kb_list = [
            corpus.TrueFact(
                _isbn(rec["isbn"], "KB isbn"),
                _names(rec["authors"]),
                _text(rec["title"]),
            )
            for rec in doc["kb"]
        ]
        site_list = [
            corpus.Website(
                _int(rec["id"]), _unbroken(rec["url"], "website url"), _number(rec["trust"])
            )
            for rec in doc["websites"]
        ]
        site_ids = {site.id for site in site_list}
        fact_list = [
            corpus.FactRecord(
                _int(rec["fact_id"]),
                _isbn(rec["isbn"], f"fact {rec['fact_id']}: isbn"),
                _fact_names(rec),
                _providers(rec, site_ids),
                _number(rec["pcf"]),
                _number(rec["adjusted_confidence"]),
            )
            for rec in doc["facts"]
        ]
        method_trusts = {}
        for method, trusts in method_tables.items():
            if not isinstance(trusts, dict):
                raise TypeError(f"method_trusts {method!r} is not an object")
            method_trusts[method] = {url: _trust(method, url, t) for url, t in trusts.items()}
        epoch = _int(doc["epoch"])
        if epoch < 0:
            raise ValueError(f"epoch {epoch} is negative")
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise corpus.StateError(f"{path}: malformed state document ({exc})")
    except ValueError as exc:
        raise corpus.StateError(f"{path}: {exc}")
    _check_unique(path, "KB isbn", [tf.object for tf in kb_list])
    _check_unique(path, "website url", [site.url for site in site_list])
    _check_unique(path, "website id", [site.id for site in site_list])
    _check_unique(path, "fact id", [fact.fact_id for fact in fact_list])
    websites = {site.url: site for site in site_list}
    for method, trusts in method_trusts.items():
        if trusts.keys() != websites.keys():
            url = min(trusts.keys() ^ websites.keys())
            raise corpus.StateError(
                f"{path}: {method} trust table and websites disagree on url {url!r}"
            )
    _check_state(path, site_list, fact_list)
    return corpus.TrustState(
        websites=websites,
        facts={fact.fact_id: fact for fact in fact_list},
        kb={tf.object: tf for tf in kb_list},
        epoch=epoch,
        config=config,
        method_trusts=method_trusts,
    )


def _no_constant(name):
    raise ValueError(f"non-finite number {name}")


def _int(value):
    if type(value) is int:
        return value
    raise TypeError(f"expected int, got {value!r}")


def _number(value):
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise TypeError(f"expected float or int, got {value!r}")


def _trust(method, url, value):
    number = _number(value)
    if 0.0 <= number <= 1.0:
        return number
    raise ValueError(f"{method} trust of {url}: {number} outside [0, 1]")


def _providers(rec, site_ids):
    ids = rec["providers"]
    if type(ids) is not list:
        raise TypeError(f"expected list, got {ids!r}")
    if not ({int}.issuperset(map(type, ids)) and site_ids.issuperset(ids)):
        raise ValueError(f"fact {rec['fact_id']!r}: a provider is not the integer id of a website")
    if not ids:
        raise ValueError(f"fact {rec['fact_id']!r}: no website provides it")
    if not all(map(lt, ids, ids[1:])):
        raise ValueError(f"fact {rec['fact_id']!r}: providers are not ascending and distinct")
    return tuple(ids)


def _text(value):
    if not isinstance(value, str):
        raise TypeError(f"expected str, got {value!r}")
    return value


def _unbroken(value, what):
    if "\t" in _text(value) or "\r" in value or "\n" in value:
        raise ValueError(f"{what} {value!r} holds a tab, CR or LF")
    return value


def _isbn(value, what):
    if _unbroken(value, what):
        return value
    raise ValueError("empty ISBN")


def _names(value):
    if not isinstance(value, list):
        raise TypeError(f"expected list, got {value!r}")
    corpus.check_authors(value)
    return value


def _fact_names(rec):
    names = _names(rec["authors"])
    for name in names:
        _unbroken(name, f"fact {rec['fact_id']}: author name")
    return tuple(names)


def _check_unique(path, what, keys):
    if len(set(keys)) != len(keys):
        duplicate = next(key for key, n in Counter(keys).items() if n > 1)
        raise corpus.StateError(f"{path}: duplicate {what} {duplicate!r}")


def _check_state(path, sites, facts):
    for site in sites:
        if not 0.0 <= site.trust <= 1.0:
            raise corpus.StateError(f"{path}: website {site.url}: trust {site.trust} outside [0, 1]")
    first = {}
    for fact in facts:
        for what, value in (("pcf", fact.pcf), ("adjusted confidence", fact.adjusted_confidence)):
            if not 0.0 <= value <= 1.0:
                raise corpus.StateError(f"{path}: fact {fact.fact_id}: {what} {value} outside [0, 1]")
        authors = fact.authors
        if not all(map(lt, authors, authors[1:])):
            raise corpus.StateError(
                f"{path}: fact {fact.fact_id}: authors are not sorted and distinct"
            )
        other = first.setdefault((fact.object, authors), fact.fact_id)
        if other != fact.fact_id:
            raise corpus.StateError(
                f"{path}: fact {fact.fact_id}: same ISBN and authors as fact {other}"
            )


# The row-by-row loader that ``corpus.load_claims`` replaced, kept as the
# oracle of the column sweeps: the same claims, or the same refusal text with
# the same row number.
def reference_load_claims(path):
    """Read a claims CSV one row at a time, each row through every rule in turn."""
    websites, isbns, keys, row_nums = [], [], [], []
    key_of = {}
    row_num = 0
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return corpus.Claims((), (), ())
        except csv.Error as exc:
            raise corpus.CorpusError(f"{path}: header: {exc}")
        if [h.strip() for h in header] != corpus.CLAIMS_HEADER:
            raise corpus.CorpusError(
                f"{path}: bad header; expected {','.join(corpus.CLAIMS_HEADER)}"
            )
        width = len(corpus.CLAIMS_HEADER)
        try:
            for row_num, row in enumerate(reader, start=1):
                if not "".join(row).strip():
                    continue
                if len(row) != width:
                    raise corpus.CorpusError(
                        f"{path}: row {row_num}: expected {width} columns, got {len(row)}"
                    )
                website, isbn, authors_field, _publisher, price_field, quantity_field = row
                website = website.strip()
                isbn = isbn.strip()
                if not website:
                    raise corpus.CorpusError(f"{path}: row {row_num}: empty website_url")
                if not isbn:
                    raise corpus.CorpusError(f"{path}: row {row_num}: empty isbn")
                authors = key_of.get(authors_field)
                if authors is None:
                    names = [n for n in map(corpus.normalize_name, authors_field.split(";")) if n]
                    try:
                        corpus.check_authors(names)
                    except ValueError as exc:
                        raise corpus.CorpusError(f"{path}: row {row_num}: {exc}")
                    authors = key_of[authors_field] = tuple(sorted(names))
                try:
                    finite = math.isfinite(float(price_field)) and price_field.isascii()
                except ValueError:
                    finite = not price_field.strip()
                if not finite or "_" in price_field:
                    raise corpus.CorpusError(f"{path}: row {row_num}: bad price {price_field!r}")
                try:
                    int(quantity_field)
                    whole = quantity_field.isascii()
                except ValueError:
                    whole = not quantity_field.strip()
                if not whole or "_" in quantity_field:
                    raise corpus.CorpusError(
                        f"{path}: row {row_num}: bad quantity {quantity_field!r}"
                    )
                websites.append(website)
                isbns.append(isbn)
                keys.append(authors)
                row_nums.append(row_num)
        except csv.Error as exc:
            # The reader fails on the row after the last one it returned.
            raise corpus.CorpusError(f"{path}: row {row_num + 1}: {exc}")
    for column, texts in (("website_url", websites), ("isbn", isbns)):
        for text, num in zip(texts, row_nums):
            if "\t" in text or "\r" in text or "\n" in text:
                raise corpus.CorpusError(f"{path}: row {num}: {column} holds a tab, CR or LF")
    return corpus.Claims(tuple(websites), tuple(isbns), tuple(keys))


# The line-by-line loader that ``corpus.load_knowledge_base`` replaced, kept
# as the oracle of its decoder and column sweeps: the same records, or the
# same refusal text with the same line number.
def reference_load_knowledge_base(path):
    """Read a JSON-Lines knowledge base one line at a time, each line through every rule in turn."""
    kb = {}
    linenos = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise corpus.CorpusError(f"{path}: line {lineno}: invalid JSON ({exc.msg})")
            except RecursionError:
                raise corpus.CorpusError(f"{path}: line {lineno}: JSON nested too deeply")
            except ValueError as exc:  # an integer past the interpreter's digit limit
                raise corpus.CorpusError(f"{path}: line {lineno}: {exc}")
            if not isinstance(record, dict):
                raise corpus.CorpusError(f"{path}: line {lineno}: expected a JSON object")
            isbn = record.get("isbn")
            if not isinstance(isbn, str) or not isbn.strip():
                raise corpus.CorpusError(f"{path}: line {lineno}: missing or empty isbn")
            isbn = isbn.strip()
            if isbn in kb:
                raise corpus.CorpusError(f"{path}: line {lineno}: duplicate isbn {isbn}")
            raw_authors = record.get("authors")
            if not isinstance(raw_authors, list):
                raise corpus.CorpusError(
                    f"{path}: line {lineno}: authors is missing or not a list"
                )
            authors = []
            for raw in raw_authors:
                if not isinstance(raw, str):
                    raise corpus.CorpusError(
                        f"{path}: line {lineno}: an author name is not a string"
                    )
                authors.append(corpus.normalize_name(raw))
            try:
                corpus.check_authors(authors)
            except ValueError as exc:
                raise corpus.CorpusError(f"{path}: line {lineno}: {exc}")
            title = record.get("title", "")
            publisher = record.get("publisher", "")
            for key, value in (("title", title), ("publisher", publisher)):
                if not isinstance(value, str):
                    raise corpus.CorpusError(f"{path}: line {lineno}: {key} is not a string")
            price = record.get("price", 0.0)
            try:
                price = float(price) if type(price) in (int, float) else math.nan
            except OverflowError:
                price = math.nan
            if not 0.0 <= price < math.inf:
                raise corpus.CorpusError(
                    f"{path}: line {lineno}: price must be a finite number >= 0"
                )
            kb[isbn] = corpus.TrueFact(isbn, authors, title)
            linenos.append(lineno)
    for isbn, lineno in zip(kb, linenos):
        if "\t" in isbn or "\r" in isbn or "\n" in isbn:
            raise corpus.CorpusError(f"{path}: line {lineno}: isbn holds a tab, CR or LF")
    return kb


_DROPPED_PUNCT = str.maketrans("", "", ".,")
_WHITESPACE = re.compile(r"\s+")


def reference_normalize_name(raw: str) -> str:
    """Reference name normalization through a regex: the oracle of ``normalize_name``."""
    return _WHITESPACE.sub(" ", raw.lower().translate(_DROPPED_PUNCT)).strip()


# Every code point for which str.isspace() holds.
SPACES = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)
# İ and ẞ change length when lowercased; the fullwidth ． and ， are not
# the ASCII period and comma, so they stay.
name_texts = st.text(alphabet=st.sampled_from(list("aBz.,éİẞ．，" + SPACES)), max_size=30)


# Text with what JSON must escape or may spell two ways: quotes, backslashes,
# control characters, non-ASCII letters, an emoji, the JS line separator.
texts = st.text(
    alphabet=st.sampled_from(list('ab "\\/\x00\x1f\x7f\n\té€😀\u2028')) | st.characters(),
    max_size=8,
)
# Floats whose shortest repr is an edge case, any finite float, and ints,
# which json.dumps writes without a decimal point.
numbers = (
    st.sampled_from([5e-324, 1e-10, 0.1 + 0.2, -0.0, 1e16])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-(10**20), 10**20)
)
ids = st.integers(-3, 10**9)
# EngineConfig refuses values the engine cannot run with.
epsilons = st.sampled_from([5e-324, 1e-10, 0.1 + 0.2, -0.0, 0, 1]) | st.floats(0, 1)


@st.composite
def library_states(draw):
    """A TrustState built through the library; its links need not be consistent."""
    kb = {
        isbn: corpus.TrueFact(isbn, draw(st.lists(texts, max_size=3)), draw(texts))
        for isbn in draw(st.lists(texts, max_size=3, unique=True))
    }
    websites = {
        url: corpus.Website(draw(ids), url, draw(numbers))
        for url in draw(st.lists(texts, max_size=3, unique=True))
    }
    facts = {
        fact_id: corpus.FactRecord(
            fact_id,
            draw(texts),
            tuple(draw(st.lists(texts, max_size=3))),
            tuple(sorted(set(draw(st.lists(ids, max_size=3))))),
            *(draw(numbers) for _ in range(2)),
        )
        for fact_id in draw(st.lists(ids, max_size=3, unique=True))
    }
    config = corpus.EngineConfig(draw(epsilons), draw(numbers), draw(st.integers(1, 10**9)))
    method_trusts = draw(
        st.dictionaries(texts, st.dictionaries(texts, numbers, max_size=3), max_size=3)
    )
    return corpus.TrustState(websites, facts, kb, draw(ids), config, method_trusts)


# Texts that ``load_state`` takes as a url or an ISBN: no tab, CR or LF.
unbroken_texts = st.text(
    alphabet=st.sampled_from(list('ab "\\/\x00\x1f\x7fé€😀 '))
    | st.characters(exclude_characters="\t\r\n"),
    max_size=8,
)


def _author_names(excluded):
    """Author names: not blank, and without the characters ``excluded``."""
    return st.text(
        alphabet=st.sampled_from(list('ab "\\\x00é😀 '))
        | st.characters(exclude_characters=excluded),
        min_size=1,
        max_size=6,
    )


# A KB's names hold no claims separator; a fact's, which `query` prints, no
# tab, CR or LF either.
author_names = _author_names(";")
fact_author_names = _author_names(";\t\r\n")
# Probabilities, with the edges and signed zero that a loader must keep
# apart, and ints, which load as floats.
probabilities = (
    st.sampled_from([0.0, -0.0, 1.0, 0, 1, 5e-324, 0.1 + 0.2, 0.5]) | st.floats(0, 1)
)


@st.composite
def valid_states(draw):
    """A TrustState that ``load_state`` takes, valid by construction: ids
    from ranges, providers from the site ids, fact author lists sorted and
    distinct, method tables that name exactly the websites, and
    probabilities that repeat within the state."""
    pool = draw(st.lists(probabilities, min_size=1, max_size=3))
    probability = st.sampled_from(pool) | probabilities
    author_lists = st.lists(author_names, min_size=1, max_size=3, unique=True)
    kb = {
        isbn: corpus.TrueFact(isbn, draw(author_lists), draw(texts))
        for isbn in draw(st.lists(unbroken_texts.filter(bool), max_size=3, unique=True))
    }
    urls = draw(st.lists(unbroken_texts, max_size=4, unique=True))
    first_site = draw(ids)
    site_ids = draw(st.permutations(range(first_site, first_site + len(urls))))
    websites = {
        url: corpus.Website(site_id, url, draw(probability))
        for url, site_id in zip(urls, site_ids)
    }
    fact_author_lists = st.lists(fact_author_names, min_size=1, max_size=3, unique=True)
    keys = st.tuples(unbroken_texts.filter(bool), fact_author_lists.map(sorted).map(tuple))
    fact_keys = draw(
        st.lists(keys, max_size=4 if urls else 0, unique=True)
    )
    first_fact = draw(ids)
    facts = {
        fact_id: corpus.FactRecord(
            fact_id,
            isbn,
            authors,
            tuple(sorted(draw(st.lists(st.sampled_from(site_ids), min_size=1, unique=True)))),
            draw(probability),
            draw(probability),
        )
        for fact_id, (isbn, authors) in enumerate(fact_keys, first_fact)
    }
    config = corpus.EngineConfig(draw(epsilons), draw(numbers), draw(st.integers(1, 10**9)))
    method_trusts = {
        method: {url: draw(probability) for url in urls}
        for method in draw(st.lists(texts, max_size=3, unique=True))
    }
    epoch = draw(st.integers(0, 10**9))
    return corpus.TrustState(websites, facts, kb, epoch, config, method_trusts)


# Numbers outside [0, 1], the nearest floats first; an int loads as a float.
OUT_OF_RANGE = [-5e-324, 1.0000000000000002, -0.5, 1.5, 2]


def _pairs(records):
    return [(i, j) for i in range(len(records)) for j in range(len(records)) if i != j]


def _unlink(fact, doc, pick):
    """A provider id no website has: one past the largest, appended so the
    list stays ascending, or a site's id as a float, a string or a bool."""
    ids = fact["providers"]
    if pick([True, False]):
        ids.append(max(site["id"] for site in doc["websites"]) + 1)
    else:
        p = pick(range(len(ids)))
        ids[p] = pick([float(ids[p]), str(ids[p]), True])


def _repeat_provider(doc, pick):
    ids = pick(doc["facts"])["providers"]
    ids.insert(0, ids[0])


def _same_key(doc, pick):
    i, j = pick(_pairs(doc["facts"]))
    first, second = doc["facts"][i], doc["facts"][j]
    second["isbn"], second["authors"] = first["isbn"], list(first["authors"])


def _duplicate(table, key):
    def corrupt(doc, pick):
        i, j = pick(_pairs(doc[table]))
        doc[table][j][key] = doc[table][i][key]

    return corrupt


def _several(key):
    return lambda doc: any(len(fact[key]) > 1 for fact in doc["facts"])


# A value of another type for each kind of leaf that the state format types.
WRONG_TYPES = {
    "int": [1.0, "1", True, None],
    "number": ["0.5", True, None, [0.5]],
    "str": [1, None, ["a"], True],
    "list": ["a", 1, None, {"a": 1}],
}


def _wrong_type(doc, pick):
    """One typed leaf, an id, a number, a text or a list, set to a value of
    another type. Author names are left out: both loaders refuse one that is
    not a string through ``str.join``, whose text counts the names of a
    list (the reference) or of the whole column (``load_state``)."""
    leaves = [(doc["config"], "epsilon", "number"), (doc["config"], "convergence_tol", "number"),
              (doc["config"], "max_epochs", "int"), (doc, "epoch", "int")]
    for table, kinds in (
        ("websites", {"id": "int", "url": "str", "trust": "number"}),
        ("kb", {"isbn": "str", "title": "str", "authors": "list"}),
        ("facts", {"fact_id": "int", "isbn": "str", "authors": "list", "providers": "list",
                   "pcf": "number", "adjusted_confidence": "number"}),
    ):
        leaves += [(record, key, kind) for record in doc[table] for key, kind in kinds.items()]
    leaves += [(table, url, "number") for table in doc["method_trusts"].values() for url in table]
    record, key, kind = pick(leaves)
    record[key] = pick(WRONG_TYPES[kind])


def _broken(text, pick):
    at = pick(range(len(text) + 1))
    return text[:at] + pick(["\t", "\r", "\n"]) + text[at:]


def _row_break(doc, pick):
    """A tab, CR or LF within a website url, a KB ISBN or a fact's ISBN."""
    record, key = pick([(record, key) for table, key in
                        (("websites", "url"), ("kb", "isbn"), ("facts", "isbn"))
                        for record in doc[table]])
    record[key] = _broken(record[key], pick)


def _author_break(doc, pick):
    """A tab, CR or LF within a fact's author name, the list sorted again."""
    names = pick(doc["facts"])["authors"]
    i = pick(range(len(names)))
    names[i] = _broken(names[i], pick)
    names.sort()


# name -> (whether a document allows it, the edit). Each edit breaks exactly
# one rule of the state format, and ``load_state`` and
# ``reference_load_state`` word each refusal alike.
CORRUPTIONS = {
    "version": (lambda doc: True, lambda doc, pick: doc.update(
        pcf_state_version=pick([corpus.STATE_SCHEMA_VERSION - 1, corpus.STATE_SCHEMA_VERSION + 1,
                                str(corpus.STATE_SCHEMA_VERSION), None]))),
    "negative epoch": (lambda doc: True, lambda doc, pick: doc.update(epoch=pick([-1, -(10**9)]))),
    "epsilon": (lambda doc: True,
                lambda doc, pick: doc["config"].update(epsilon=pick(OUT_OF_RANGE))),
    "max_epochs": (lambda doc: True,
                   lambda doc, pick: doc["config"].update(max_epochs=pick([0, -1]))),
    "trust": (lambda doc: doc["websites"],
              lambda doc, pick: pick(doc["websites"]).update(trust=pick(OUT_OF_RANGE))),
    "table without a url": (
        lambda doc: doc["websites"] and doc["method_trusts"],
        lambda doc, pick: doc["method_trusts"][pick(sorted(doc["method_trusts"]))].pop(
            pick(doc["websites"])["url"])),
    # No website's url holds a tab.
    "table with another url": (
        lambda doc: doc["method_trusts"],
        lambda doc, pick: doc["method_trusts"][pick(sorted(doc["method_trusts"]))].update(
            {"\t": 0.5})),
    "duplicate url": (lambda doc: len(doc["websites"]) > 1, _duplicate("websites", "url")),
    "duplicate KB isbn": (lambda doc: len(doc["kb"]) > 1, _duplicate("kb", "isbn")),
    "duplicate fact id": (lambda doc: len(doc["facts"]) > 1, _duplicate("facts", "fact_id")),
    "same ISBN and authors": (lambda doc: len(doc["facts"]) > 1, _same_key),
    "unlinked provider": (lambda doc: doc["facts"],
                          lambda doc, pick: _unlink(pick(doc["facts"]), doc, pick)),
    "no provider": (lambda doc: doc["facts"],
                    lambda doc, pick: pick(doc["facts"])["providers"].clear()),
    "repeated provider": (lambda doc: doc["facts"], _repeat_provider),
    "providers out of order": (_several("providers"), lambda doc, pick: pick(
        [f for f in doc["facts"] if len(f["providers"]) > 1])["providers"].reverse()),
    "authors out of order": (_several("authors"), lambda doc, pick: pick(
        [f for f in doc["facts"] if len(f["authors"]) > 1])["authors"].reverse()),
    "probability": (lambda doc: doc["facts"], lambda doc, pick: pick(doc["facts"]).update(
        {pick(["pcf", "adjusted_confidence"]): pick(OUT_OF_RANGE)})),
    "method trust": (
        lambda doc: doc["websites"] and doc["method_trusts"],
        lambda doc, pick: doc["method_trusts"][pick(sorted(doc["method_trusts"]))].update(
            {pick(doc["websites"])["url"]: pick(OUT_OF_RANGE)})),
    "url or ISBN holding a tab, CR or LF": (
        lambda doc: doc["websites"] or doc["kb"] or doc["facts"], _row_break),
    "fact author name holding a tab, CR or LF": (lambda doc: doc["facts"], _author_break),
    "wrong type": (lambda doc: True, _wrong_type),
}


@st.composite
def corrupted_documents(draw, name):
    """A ``valid_states()`` state that allows corruption ``name``, as
    ``save_state`` writes it, with exactly that corruption."""
    allows, corrupt = CORRUPTIONS[name]
    doc = draw(valid_states().map(lambda state: json.loads(_saved_text(state))).filter(allows))
    corrupt(doc, lambda options: draw(st.sampled_from(list(options))))
    return doc


def assert_refused_as_the_reference(text):
    """Both loaders refuse the file holding ``text``, with the same message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(corpus.StateError) as expected:
            reference_load_state(path)
        with pytest.raises(corpus.StateError) as refused:
            corpus.load_state(path)
        assert str(refused.value) == str(expected.value)


def _edge_state(method_trusts):
    """An empty KB, a site with no facts, a fact, and the given trust tables."""
    return corpus.TrustState(
        websites={
            "http://é.example/\"q\"": corpus.Website(1, "http://é.example/\"q\"", 1),
            "\\😀\x01": corpus.Website(2, "\\😀\x01", 0.1 + 0.2),
        },
        facts={7: corpus.FactRecord(7, "x", ("\u2028é",), (2,), 5e-324, 1e16)},
        method_trusts=method_trusts,
    )


def _pair_state(first, second):
    """``first``, then ``second`` in the order ``save_state`` writes them: in
    a fact's adjusted confidence and pcf, in each of two method tables, and
    in two sites' trusts."""
    urls = ["http://a.example", "http://b.example"]
    pairs = list(zip(urls, (first, second)))
    return corpus.TrustState(
        websites={url: corpus.Website(i, url, x) for i, (url, x) in enumerate(pairs, 1)},
        facts={1: corpus.FactRecord(1, "x", ("a",), (1, 2), second, first)},
        method_trusts={"pcf": dict(pairs), "voting": dict(pairs)},
    )


# Author names that stay distinct and non-blank once normalized; each
# name's upper case, with a period or a comma added, normalizes as it does.
KB_NAMES = ["Ann Ax", "Bob  By", "C. Cy", "dé,Dee", "Ed\u3000Ex", "İz", "ẞ q"]
# Prices a KB line may hold: ints and non-negative finite floats, -0.0 too.
# Written as text in place of a price: an infinity, and an int past the digit limit.
PRICE_TEXTS = {1.25e300: "1e400", 1.5e300: "1" + "0" * 5000}
kb_prices = st.sampled_from([0, 0.0, -0.0, 3, 27.78, 5e-324, 1e308, 10**20]) | st.floats(
    0, allow_infinity=False
).filter(lambda price: price not in PRICE_TEXTS)
# Lines that hold no record: skipped, but counted.
BLANK_LINES = ["", "   ", "\t", "\u3000", "\x1c"]


@st.composite
def kb_records(draw, isbn):
    """A KB record that ``load_knowledge_base`` takes, its keys in any order."""
    record = {"isbn": isbn, "authors": draw(
        st.lists(st.sampled_from(KB_NAMES), min_size=1, max_size=3, unique=True)
    )}
    for key, values in (("title", texts), ("publisher", texts), ("price", kb_prices)):
        if draw(st.booleans()):
            record[key] = draw(values)
    return dict(draw(st.permutations(list(record.items()))))


def _kb_line(record, pick):
    """The JSON text of a record, ASCII or not, perhaps with JSON whitespace
    around it; the markers of ``PRICE_TEXTS`` become their texts."""
    text = json.dumps(record, ensure_ascii=pick([True, False]))
    if re.search("[\ud800-\udfff]", text):  # a lone surrogate: only an escape writes it
        text = json.dumps(record)
    for marker, price in PRICE_TEXTS.items():
        text = text.replace(repr(marker), price)
    return pick(["", " ", "\t "]) + text + pick(["", " ", " \t"])


def _kb_edit(key, values):
    """Set ``key`` of a record to one of ``values``, or drop it if ``values`` is None."""
    def corrupt(record, others, pick):
        if values is None:
            del record[key]
        else:
            record[key] = pick(values)
    return corrupt


def _add_name(names):
    def corrupt(record, others, pick):
        record["authors"].insert(pick(range(len(record["authors"]) + 1)), pick(names(record)))
    return corrupt


def _same_isbn(record, others, pick):
    """The ISBN of an earlier record, or of one added before it, as given or
    with whitespace around it."""
    if not others:
        others.append(copy.deepcopy(record))
    record["isbn"] = pick(["", " ", "\t"]) + pick(others)["isbn"].strip() + pick(["", " "])


# A nesting depth past the recursion limit: the JSON decoder raises RecursionError.
DEEP = 100_000


# name -> an edit of one record, given the records before it, that breaks
# exactly one rule of the KB format, or a line in place of the record.
KB_CORRUPTIONS = {
    "not JSON": lambda record, others, pick: pick([
        "{broken", json.dumps(record)[:-1], json.dumps(record) + "x", json.dumps(record) + " {}",
        json.dumps(record).replace('"', "'", 2),
        # Whitespace to str.strip, but not to JSON.
        "\u3000" + json.dumps(record), "\x1c" + json.dumps(record), json.dumps(record) + "\x0b",
    ]),
    "a BOM": lambda record, others, pick: "\ufeff" + json.dumps(record),
    "nested too deeply": lambda record, others, pick: pick([
        "[" * DEEP + "]" * DEEP,
        json.dumps({**record, "authors": None}).replace(
            '"authors": null', '"authors": ' + "[" * DEEP + "]" * DEEP
        ),
    ]),
    "not an object": lambda record, others, pick: pick(
        ["[1, 2]", "3", "null", '"s"', "true", json.dumps([record])]
    ),
    "missing isbn": _kb_edit("isbn", None),
    "blank isbn": _kb_edit("isbn", ["", " ", "\t \u3000"]),
    "isbn not a string": _kb_edit("isbn", [5, None, ["x"], True]),
    "duplicate isbn": _same_isbn,
    "isbn holding a tab, CR or LF": _kb_edit("isbn", ["1\t2", "x\ry", " 9\n0"]),
    "missing authors": _kb_edit("authors", None),
    "authors not a list": _kb_edit("authors", ["Ann Ax", None, {"Ann Ax": 1}, 3]),
    "no authors": _kb_edit("authors", [[]]),
    "name not a string": _add_name(lambda record: [None, 3, ["Ann Ax"], True, {}]),
    "blank name": _add_name(lambda record: ["", " ", " . , ", "\u3000."]),
    "repeated name": _add_name(
        lambda record: [name.upper() + end for name in record["authors"] for end in ("", ".", ",")]
    ),
    "name holding ;": _add_name(lambda record: ["a;b", ";", "Ann; Ax"]),
    "title not a string": _kb_edit("title", [None, 3, [], {}, True]),
    "publisher not a string": _kb_edit("publisher", [None, 3, ["p"], True]),
    "bad price": _kb_edit("price", [
        True, False, "12", None, [1], -1, -0.5, -5e-324, math.nan, math.inf, -math.inf,
        10**400, *PRICE_TEXTS,
    ]),
}


@st.composite
def kb_files(draw, corruption):
    """The text of a KB file: valid records, blank lines among them, and
    with ``corruption`` one record broken by that edit of ``KB_CORRUPTIONS``."""
    pick = lambda options: draw(st.sampled_from(list(options)))  # noqa: E731
    isbns = draw(st.lists(
        st.builds(lambda space, text: space + text + space, st.sampled_from(["", " ", "\t"]),
                  unbroken_texts.filter(str.strip)),
        max_size=5, unique_by=str.strip,
    ))
    records = [draw(kb_records(isbn)) for isbn in isbns]
    lines = [_kb_line(record, pick) for record in records]
    if corruption is not None:
        at = pick(range(len(records) + 1))
        # Longer than any drawn ISBN, so no other record has it.
        bad = draw(kb_records("isbn-of-the-bad-record"))
        others = records[:at]
        edited = KB_CORRUPTIONS[corruption](bad, others, pick)
        added = [_kb_line(record, pick) for record in others[at:]]  # records the edit added
        lines[at:at] = [*added, edited if isinstance(edited, str) else _kb_line(bad, pick)]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(pick(range(len(lines) + 1)), pick(BLANK_LINES))
    end = pick(["\n", "\r\n"])
    return end.join(lines) + pick(["", end])


def kb_outcome(load, path):
    """The records a loader reads, as plain data, or its refusal text."""
    try:
        kb = load(path)
    except corpus.CorpusError as exc:
        return str(exc)
    return [(isbn, fact.object, fact.authors, fact.title) for isbn, fact in kb.items()]


def assert_kb_loads_as_the_reference(text, path):
    """Both loaders give the same records, or the same refusal; which one, returned."""
    path.write_text(text, encoding="utf-8", newline="")
    outcome = kb_outcome(corpus.load_knowledge_base, path)
    assert outcome == kb_outcome(reference_load_knowledge_base, path)
    return outcome


class TestNormalizeName:
    def test_already_canonical_apart_from_case(self):
        assert corpus.normalize_name("Cay S Horstmenn") == "cay s horstmenn"

    def test_periods_commas_and_whitespace(self):
        assert corpus.normalize_name("  Graeme C.  Simsion ") == "graeme c simsion"

    def test_empty(self):
        assert corpus.normalize_name("") == ""

    @given(st.text(max_size=60))
    def test_idempotent(self, raw):
        once = corpus.normalize_name(raw)
        assert corpus.normalize_name(once) == once

    def test_spaces_are_every_isspace_code_point(self):
        assert SPACES == "".join(c for c in map(chr, range(0x110000)) if c.isspace())

    @given(name_texts)
    @example("\u3000A.\x85b,\u2029 é\x1c")
    def test_equals_the_regex_reference(self, raw):
        assert corpus.normalize_name(raw) == reference_normalize_name(raw)


class TestLoadKnowledgeBase:
    def test_single_record(self, tmp_path):
        kb_path, _ = write_core_fixture(tmp_path)
        kb = corpus.load_knowledge_base(kb_path)
        assert len(kb) == 1
        # Publisher and price are checked, not kept.
        assert kb[CORE_ISBN] == corpus.TrueFact(
            CORE_ISBN, ["cay s horstmenn", "gary cornell"], "Core Java Volume 1"
        )

    def test_empty_file(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text("", encoding="utf-8")
        assert corpus.load_knowledge_base(path) == {}

    def test_duplicate_isbn_rejected(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        record = json.dumps({"isbn": "1", "authors": ["a b"]})
        path.write_text(record + "\n" + record + "\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match="duplicate isbn"):
            corpus.load_knowledge_base(path)

    def test_empty_author_list_rejected(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(json.dumps({"isbn": "1", "authors": []}) + "\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match="line 1: empty author list"):
            corpus.load_knowledge_base(path)

    @pytest.mark.parametrize("record", [{"isbn": "1", "authors": "Ann Ax"}, {"isbn": "1"}])
    def test_authors_not_a_list_rejected(self, tmp_path, record):
        path = tmp_path / "kb.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match="line 1: authors is missing or not a list"):
            corpus.load_knowledge_base(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(
            json.dumps({"isbn": "1", "authors": ["a b"]}) + "\n{broken\n",
            encoding="utf-8",
        )
        with pytest.raises(corpus.CorpusError, match="line 2"):
            corpus.load_knowledge_base(path)

    def test_duplicate_author_within_record_rejected(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(
            json.dumps({"isbn": "1", "authors": ["Gary Cornell", "gary cornell"]}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(corpus.CorpusError, match="duplicate author"):
            corpus.load_knowledge_base(path)

    @pytest.mark.parametrize(
        "price",
        [-1.0, float("nan"), float("inf"), "12", True, False, pytest.param(10**400, id="10**400")],
    )
    def test_bad_price_names_line(self, tmp_path, price):
        path = tmp_path / "kb.jsonl"
        good = json.dumps({"isbn": "1", "authors": ["a b"], "price": 3.5})
        bad = json.dumps({"isbn": "2", "authors": ["a b"], "price": price})
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match="line 2: price"):
            corpus.load_knowledge_base(path)

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"authors": [None, 42]}, "an author name is not a string"),
            ({"authors": ["a b", 42]}, "an author name is not a string"),
            ({"authors": ["a b", ["c d"]]}, "an author name is not a string"),
            ({"title": None}, "title is not a string"),
            ({"title": 7}, "title is not a string"),
            ({"publisher": {"name": "p"}}, "publisher is not a string"),
        ],
    )
    def test_wrongly_typed_text_names_line(self, tmp_path, field, message):
        path = tmp_path / "kb.jsonl"
        good = json.dumps({"isbn": "1", "authors": ["a b"], "title": "t", "publisher": "p"})
        bad = json.dumps({"isbn": "2", "authors": ["a b"], **field})
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match=f"line 2: {message}"):
            corpus.load_knowledge_base(path)

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    def test_isbn_with_a_tab_cr_or_lf_names_line(self, tmp_path, char):
        # It would split a row of `query`'s TSV; line 2 is blank.
        path = tmp_path / "kb.jsonl"
        good = json.dumps({"isbn": "1", "authors": ["a b"]})
        bad = json.dumps({"isbn": f"2{char}3", "authors": ["a b"]})
        path.write_text(f"{good}\n\n{bad}\n{bad.replace('2', '4')}\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match="line 3: isbn holds a tab, CR or LF"):
            corpus.load_knowledge_base(path)

    def test_author_name_with_the_claims_separator_names_line(self, tmp_path):
        # Claims split their authors field on ";", so no claim could name it.
        path = tmp_path / "kb.jsonl"
        good = json.dumps({"isbn": "1", "authors": ["a b"]})
        bad = json.dumps({"isbn": "2", "authors": ["Ann Ax", "a;b"]})
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match="line 2: author name 'a;b' contains ';'"):
            corpus.load_knowledge_base(path)

    def test_integer_past_the_digit_limit_names_line(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(
            '{"isbn": "1", "authors": ["a b"], "price": 1' + "0" * 5000 + "}\n", encoding="utf-8"
        )
        with pytest.raises(corpus.CorpusError, match="line 1: "):
            corpus.load_knowledge_base(path)

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        good = [json.dumps({"isbn": str(i), "authors": ["a b"]}) for i in range(3)]
        text = "\n".join([good[0], "", "  ", "\u3000", good[1], "\x1c", good[2], ""])
        outcome = assert_kb_loads_as_the_reference(text, path)
        assert [isbn for isbn, *_ in outcome] == ["0", "1", "2"]
        bad = json.dumps({"isbn": "3", "authors": []})
        outcome = assert_kb_loads_as_the_reference(text + bad + "\n", path)
        assert outcome == f"{path}: line 8: empty author list"

    def test_a_line_with_leading_whitespace_loads(self, tmp_path):
        record = {"isbn": " 1 ", "authors": ["Ann  Ax."], "price": 2}
        text = json.dumps({"isbn": "0", "authors": ["b"]}) + "\n \t" + json.dumps(record) + " \n"
        outcome = assert_kb_loads_as_the_reference(text, tmp_path / "kb.jsonl")
        assert outcome == [("0", "0", ["b"], ""), ("1", "1", ["ann ax"], "")]

    def test_a_line_led_by_whitespace_that_json_does_not_skip_is_refused(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        text = json.dumps({"isbn": "0", "authors": ["b"]}) + "\n\u3000" + json.dumps({"isbn": "1"})
        outcome = assert_kb_loads_as_the_reference(text, path)
        assert outcome == f"{path}: line 2: invalid JSON (Expecting value)"

    @pytest.mark.parametrize("line", [1, 2])
    def test_a_line_that_starts_with_a_bom_is_refused(self, tmp_path, line):
        path = tmp_path / "kb.jsonl"
        lines = [json.dumps({"isbn": str(i), "authors": ["a b"]}) for i in range(2)]
        lines[line - 1] = "\ufeff" + lines[line - 1]
        outcome = assert_kb_loads_as_the_reference("\n".join(lines) + "\n", path)
        assert outcome == (
            f"{path}: line {line}: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"
        )

    def test_a_broken_rule_is_named_before_a_later_decode_error(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        good = json.dumps({"isbn": "1", "authors": ["a b"]})
        bad = json.dumps({"isbn": "2", "authors": ["a b"], "price": -1})
        outcome = assert_kb_loads_as_the_reference("\n".join([good, bad, "{broken", ""]), path)
        assert outcome == f"{path}: line 2: price must be a finite number >= 0"

    @pytest.mark.parametrize(
        "later, message",
        [
            (json.dumps({"isbn": "3", "authors": ["a b", "A. B"]}), "duplicate author name 'a b'"),
            ("{broken", "invalid JSON (Expecting property name enclosed in double quotes)"),
        ],
    )
    def test_an_isbn_with_a_tab_is_named_after_a_later_bad_line(self, tmp_path, later, message):
        # The tab, CR or LF sweep runs after the last line.
        path = tmp_path / "kb.jsonl"
        tab = json.dumps({"isbn": "1\t2", "authors": ["a b"]})
        good = json.dumps({"isbn": "2", "authors": ["a b"]})
        outcome = assert_kb_loads_as_the_reference("\n".join([tab, good, later, ""]), path)
        assert outcome == f"{path}: line 3: {message}"

    def test_bytes_that_are_not_utf8_come_after_the_refusal_of_a_line_read_before_them(
        self, tmp_path
    ):
        # The file is decoded in chunks, so the lines of the chunks before the
        # undecodable bytes are checked first.
        path = tmp_path / "kb.jsonl"
        good = [json.dumps({"isbn": str(i), "authors": ["a b"]}).encode() for i in range(2000)]
        tail = b"\n".join(good) + b"\n\xff\n"
        path.write_bytes(b'{"isbn": "x", "authors": []}\n' + tail)
        assert kb_outcome(corpus.load_knowledge_base, path) == f"{path}: line 1: empty author list"
        assert kb_outcome(reference_load_knowledge_base, path) == f"{path}: line 1: empty author list"
        path.write_bytes(tail)
        texts = []
        for load in (corpus.load_knowledge_base, reference_load_knowledge_base):
            with pytest.raises(UnicodeDecodeError) as refused:
                load(path)
            texts.append(str(refused.value))
        assert texts[0] == texts[1]

    def test_a_line_nested_too_deeply_names_line(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        good = json.dumps({"isbn": "1", "authors": ["a b"]})
        text = "\n".join([good, "", "[" * DEEP + "]" * DEEP, "{broken", ""])
        outcome = assert_kb_loads_as_the_reference(text, path)
        assert outcome == f"{path}: line 3: JSON nested too deeply"

    @pytest.mark.parametrize("corruption", [None, *KB_CORRUPTIONS])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equals_the_line_by_line_reference(self, corruption, data):
        """Valid files load as :func:`reference_load_knowledge_base` loads them,
        and each single corruption is refused with its text and line number."""
        text = data.draw(kb_files(corruption), label="file")
        with tempfile.TemporaryDirectory() as tmp:
            outcome = assert_kb_loads_as_the_reference(text, Path(tmp) / "kb.jsonl")
        assert isinstance(outcome, str) == (corruption is not None)


class TestLoadClaims:
    def test_names_normalized(self, tmp_path):
        # Each claim carries its canonical key: normalized names, sorted.
        _, claims_path = write_core_fixture(tmp_path)
        claims = corpus.load_claims(claims_path)
        assert claims == corpus.Claims(
            (W1, W2), (CORE_ISBN, CORE_ISBN), (("cay s horstmenn", "gary"), ("corne", "horstmenn"))
        )

    def test_empty_file(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("", encoding="utf-8")
        assert corpus.load_claims(path) == corpus.Claims((), (), ())

    def test_header_only(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("website_url,isbn,authors,publisher,price,quantity\n", encoding="utf-8")
        assert corpus.load_claims(path) == corpus.Claims((), (), ())

    def test_blank_author_field_names_row(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text(
            "website_url,isbn,authors,publisher,price,quantity\n"
            "http://a.com,1,x y,,,\n"
            "http://b.com,1,,,,\n",
            encoding="utf-8",
        )
        with pytest.raises(corpus.CorpusError, match="row 2"):
            corpus.load_claims(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("url,isbn\nhttp://a.com,1\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match="bad header"):
            corpus.load_claims(path)

    def test_bad_price_names_row(self, tmp_path):
        path = tmp_path / "claims.csv"
        # float() also takes `_` and non-ASCII digits, which the format does not.
        for price in ("cheap", "nan", "inf", "-Infinity", "1_0.5", "١٢", "１.5"):
            path.write_text(
                "website_url,isbn,authors,publisher,price,quantity\n"
                "http://a.com,1,x y,,2.5,\n"
                f"http://a.com,2,x y,,{price},\n",
                encoding="utf-8",
            )
            with pytest.raises(corpus.CorpusError, match="row 2: bad price"):
                corpus.load_claims(path)

    @pytest.mark.parametrize("blank", ["", " ", "\u3000"])
    def test_blank_price_and_quantity_are_allowed(self, tmp_path, blank):
        path = tmp_path / "claims.csv"
        path.write_text(
            "website_url,isbn,authors,publisher,price,quantity\n"
            f"http://a.com,1,x y,,{blank},{blank}\n"
            "http://a.com,2,x y,, 2.5 , 3 \n",
            encoding="utf-8",
        )
        assert len(corpus.load_claims(path)) == 2

    @pytest.mark.parametrize("quantity", ["3.5", "x", "1e3", "1_000", "٣", "１"])
    def test_bad_quantity_names_row(self, tmp_path, quantity):
        path = tmp_path / "claims.csv"
        path.write_text(
            "website_url,isbn,authors,publisher,price,quantity\n"
            "http://a.com,1,x y,,2.5,3\n"
            f"http://a.com,2,x y,,2.5,{quantity}\n",
            encoding="utf-8",
        )
        with pytest.raises(corpus.CorpusError, match=re.escape(f"row 2: bad quantity '{quantity}'")):
            corpus.load_claims(path)

    def test_field_over_the_csv_limit_names_row(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text(
            "website_url,isbn,authors,publisher,price,quantity\n"
            "http://a.com,1,x y,,,\n"
            f"http://b.com,1,{'x' * 140_000},,,\n",
            encoding="utf-8",
        )
        with pytest.raises(corpus.CorpusError, match="row 2: field larger than field limit"):
            corpus.load_claims(path)

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    @pytest.mark.parametrize("column", [0, 1], ids=["website_url", "isbn"])
    def test_url_or_isbn_with_a_tab_cr_or_lf_names_row(self, tmp_path, column, char):
        # It would split a row of `query`'s TSV or `compare`'s CSV; row 2 is blank.
        rows = [corpus.CLAIMS_HEADER, ["http://a.com", "1", "x y", "", "", ""], []]
        for i in range(2):
            row = ["http://b.com", "2", "x y", "", "", ""]
            row[column] = f"{row[column][:4]}{char}{i}{row[column][4:]}"
            rows.append(row)
        path = tmp_path / "claims.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(
            corpus.CorpusError,
            match=f"row 3: {corpus.CLAIMS_HEADER[column]} holds a tab, CR or LF",
        ):
            corpus.load_claims(path)

    def test_header_over_the_csv_limit_is_named(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("x" * 140_000 + "\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match="header: field larger than field limit"):
            corpus.load_claims(path)

    @pytest.mark.parametrize(
        "field, name",
        [("Ann Ax;ann ax;A. b", "ann ax"), ("x y;;X. Y", "x y"), ("a b;c d;A.  B", "a b")],
    )
    def test_repeated_name_names_row(self, tmp_path, field, name):
        # A repeated name would split the fact and raise its pcf.
        path = tmp_path / "claims.csv"
        path.write_text(
            "website_url,isbn,authors,publisher,price,quantity\n"
            "http://a.com,1,x y,,,\n"
            f"http://b.com,1,{field},,,\n"
            f"http://c.com,1,{field},,,\n",
            encoding="utf-8",
        )
        with pytest.raises(corpus.CorpusError, match=f"row 2: duplicate author name {name!r}"):
            corpus.load_claims(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            (["", "1", "x y", "", "cheap", ""], "empty website_url"),
            (["", "", "x y", "", "", ""], "empty website_url"),
            ([" ", "1", "a b;A. B", "", "", "2.5"], "empty website_url"),
            (["http://a.com", " ", "a b;A. B", "", "", ""], "empty isbn"),
            (["http://a.com", "", "x y", "", "cheap", "x"], "empty isbn"),
            (["http://a.com", "1", "a b;A. B", "", "", "2.5"], "duplicate author name 'a b'"),
            (["http://a.com", "1", " ; ", "", "nan", ""], "empty author list"),
            (["http://a.com", "1", "x y", "", "cheap", "2.5"], "bad price 'cheap'"),
            (["", "1", "x y", "", "", "", "extra"], "expected 6 columns, got 7"),
        ],
    )
    def test_a_row_breaking_two_rules_is_refused_by_the_first(self, tmp_path, row, message):
        # Rules go: width, url, ISBN, authors, price, quantity.
        path = tmp_path / "claims.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([corpus.CLAIMS_HEADER, ["http://b.com", "1", "x y"] + [""] * 3, row])
        expected = f"{path}: row 2: {message}"
        for load in (corpus.load_claims, reference_load_claims):
            with pytest.raises(corpus.CorpusError) as refused:
                load(path)
            assert str(refused.value) == expected

    def test_a_later_rule_in_an_earlier_row_is_named_first(self, tmp_path):
        # The column sweeps find row 3's empty url first; the row pass names row 1.
        path = tmp_path / "claims.csv"
        path.write_text(
            "website_url,isbn,authors,publisher,price,quantity\n"
            "http://a.com,1,x y,,,2.5\n"
            "http://a.com,1,x y,,,\n"
            ",1,x y,,,\n",
            encoding="utf-8",
        )
        expected = f"{path}: row 1: bad quantity '2.5'"
        for load in (corpus.load_claims, reference_load_claims):
            with pytest.raises(corpus.CorpusError) as refused:
                load(path)
            assert str(refused.value) == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_a_per_row_reference(self, data):
        """Files whose authors fields repeat, or differ only in case, spacing or
        punctuation, with empty and whitespace-only names and blank rows, load
        as the row-by-row reference does: each claim carries its field's
        names normalized and sorted, in one tuple that every claim of the
        same field shares. A field that names one author twice is refused at
        its first row."""
        names = st.sampled_from(
            ["Ann Ax", "ann ax", "ANN  AX", " Ann\tAx ", "Ann. Ax,", "A. Ax", "Bob By", "bob\u3000by"]
        )
        # Distinct names, blanks, and in one field of four one more name,
        # which may repeat one of them.
        fields = st.tuples(
            st.lists(names, min_size=1, max_size=3, unique_by=reference_normalize_name),
            st.lists(st.sampled_from(["", " ", "\t "]), max_size=2),
            st.sampled_from([0, 0, 0, 1]),
            names,
        ).flatmap(
            lambda t: st.permutations([*t[0], *t[1], *[t[3]][: t[2]]])
        ).map(";".join)
        pool = data.draw(st.lists(fields, min_size=1, max_size=4), label="fields")
        rows, expected, fields_of, refused = [], ([], [], []), [], None
        for site, isbn, field, blank in data.draw(st.lists(st.tuples(
            st.sampled_from(["http://w1.com", "http://w2.com", "http://w3.com"]),
            st.sampled_from(["i1", "i2"]),
            st.sampled_from(pool),
            st.sampled_from([None, None, None, "", "   ", ", ,\t, , ,"]),
        ), max_size=30), label="rows"):
            if blank is not None:
                rows.append(blank)
                continue
            line = io.StringIO()
            csv.writer(line, lineterminator="").writerow([site, isbn, field, "", "", ""])
            rows.append(line.getvalue())
            authors = [n for n in map(reference_normalize_name, field.split(";")) if n]
            repeated = [n for i, n in enumerate(authors) if n in authors[:i]]
            if repeated and refused is None:
                refused = f"row {len(rows)}: duplicate author name {repeated[0]!r}"
            for column, value in zip(expected, (site, isbn, tuple(sorted(authors)))):
                column.append(value)
            fields_of.append(field)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "claims.csv"
            path.write_text(
                "\n".join([",".join(corpus.CLAIMS_HEADER), *rows]) + "\n", encoding="utf-8"
            )
            if refused is not None:
                with pytest.raises(corpus.CorpusError, match=re.escape(f"{path}: {refused}")):
                    corpus.load_claims(path)
                return
            claims = corpus.load_claims(path)
        assert claims == corpus.Claims(*map(tuple, expected))
        shared = {}
        for authors, field in zip(claims.authors, fields_of):
            assert type(authors) is tuple
            assert shared.setdefault(field, authors) is authors


    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_the_row_by_row_reference(self, data):
        """Files of valid rows, blank rows among them, with a few cells or
        widths made bad and perhaps a field over the csv limit, load as
        :func:`reference_load_claims` loads them: the same columns, or the same
        refusal text with the same row number."""
        valid = [
            ["http://w1.com", "http://w2.com", " http://w3.com "],
            ["i1", "i2", " i3 "],
            ["Ann Ax", "ann ax;Bob By", "Bob By; A. Ax", "cy cz;BOB  BY;", "ANN\tAX"],
            ["", "pub"],
            ["2.5", "", " ", "\u3000", " 3 ", "1e3", "-0"],
            ["3", "", " ", "\u3000", " 4 ", "+0", "-7"],
        ]
        bad = [
            [" ", "", "http://w\t4.com", "http://w5\r.com", "http://w6\n.com"],
            ["", " ", "i\t4", "i5\r\n", "\ni6"],
            ["", " ; ", "Ann Ax;ann ax", "Cy;Bob By;cy"],
            [],
            ["1_0", "١٢", "１.5", "nan", "inf", "-Infinity", "1e400", "x", "\u30002.5"],
            ["1_000", "٣", "2.5", "nan", "inf", "1e3", "x", "\u30003"],
        ]
        blank = st.sampled_from([[], [""], ["  ", "\t"], [" "] * 6, ["", "", "", "", "", ""]])
        claim = st.tuples(*map(st.sampled_from, valid)).map(list)
        rows = data.draw(st.lists(claim | blank, max_size=12), label="rows")
        # Column -2 drops a row's last field, -1 adds one, and 0-5 put a bad
        # cell in that column of a full row.
        for i, column in data.draw(st.lists(st.tuples(
            st.integers(0, max(len(rows) - 1, 0)), st.integers(-2, len(bad) - 1)
        ), max_size=3), label="edits"):
            if i >= len(rows):
                continue
            if column == -2:
                rows[i] = rows[i][:-1] or ["http://w1.com"]
            elif column == -1:
                rows[i] = [*rows[i], "extra"]
            elif bad[column] and len(rows[i]) == len(valid):
                rows[i][column] = data.draw(st.sampled_from(bad[column]), label="bad cell")
        big = data.draw(st.none() | st.integers(0, len(rows)), label="over the csv limit")
        if big is not None:
            rows.insert(big, ["http://big.com", "i1", "x" * 140_000, "", "", ""])

        def outcome(load, path):
            try:
                return load(path)
            except corpus.CorpusError as exc:
                return str(exc)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "claims.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([corpus.CLAIMS_HEADER, *rows])
            assert outcome(corpus.load_claims, path) == outcome(reference_load_claims, path)


class TestBuildFactTable:
    def test_identical_claims_merge(self):
        claims = [
            make_claim("http://a.com", "1", ["x y"]),
            make_claim("http://b.com", "1", ["x y"]),
        ]
        facts = corpus.build_state({}, corpus.canonical_claims(claims)).facts
        assert len(facts) == 1
        assert facts[1].providers == (1, 2)

    def test_author_order_does_not_split_facts(self):
        claims = [
            make_claim("http://a.com", "1", ["x y", "z w"]),
            make_claim("http://b.com", "1", ["z w", "x y"]),
        ]
        facts = corpus.build_state({}, corpus.canonical_claims(claims)).facts
        assert len(facts) == 1

    def test_conflicting_claims_stay_apart(self):
        claims = [
            make_claim("http://a.com", "1", ["x y"]),
            make_claim("http://b.com", "1", ["z w"]),
        ]
        state = corpus.build_state({}, corpus.canonical_claims(claims))
        websites, facts = state.websites, state.facts
        assert len(facts) == 2
        assert facts[1].providers == (websites["http://a.com"].id,)
        assert facts[2].providers == (websites["http://b.com"].id,)

    def test_exact_duplicate_rows_collapse_silently(self):
        claims = [
            make_claim("http://a.com", "1", ["x y"]),
            make_claim("http://a.com", "1", ["x y"]),
        ]
        state = corpus.build_state({}, corpus.canonical_claims(claims))
        websites, facts = state.websites, state.facts
        assert len(facts) == 1
        assert facts[1].providers == (1,)
        assert list(websites) == ["http://a.com"]

    def test_fifty_sites_two_distinct_claims_each(self):
        claims = []
        for i in range(50):
            url = f"http://site{i:02d}.example.com"
            claims.append(make_claim(url, f"isbn{2 * i}", [f"author {i} one"]))
            claims.append(make_claim(url, f"isbn{2 * i + 1}", [f"author {i} two"]))
        state = corpus.build_state({}, corpus.canonical_claims(claims))
        assert len(state.facts) == 100
        assert len(state.websites) == 50
        ix = engine.build_index(state)
        assert all(len(own) == 2 for own in ix.site_facts)

    def test_fields_initialized_to_zero(self):
        facts = corpus.build_state(
            {}, corpus.canonical_claims([make_claim("http://a.com", "1", ["x y"])])
        ).facts
        fact = facts[1]
        assert fact.pcf == 0.0
        assert fact.adjusted_confidence == 0.0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([f"http://w{i}.com" for i in range(4)]),
                st.sampled_from(["i1", "i2", "i3"]),
                st.lists(
                    st.sampled_from(["ann ax", "bob by", "cal cz"]),
                    min_size=1,
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_provider_pairs_count_deduped_rows(self, rows):
        claims = [make_claim(url, isbn, authors) for url, isbn, authors in rows]
        state = corpus.build_state({}, corpus.canonical_claims(claims))
        distinct_pairs = {
            (c.website, c.object, corpus.canonical_authors(c.authors)) for c in claims
        }
        assert sum(len(f.providers) for f in state.facts.values()) == len(distinct_pairs)
        ix = engine.build_index(state)
        assert sum(map(len, ix.site_facts)) == len(distinct_pairs)


class TestBuildState:
    def test_unknown_objects_flagged(self, core_java_kb):
        claims = core_java_claims() + [make_claim(W1, "no-such-isbn", ["q r"])]
        ix = engine.build_index(corpus.build_state(core_java_kb, corpus.canonical_claims(claims)))
        known = {f.object: flag for f, flag in zip(ix.facts, ix.known)}
        assert known["no-such-isbn"] is False
        assert known[CORE_ISBN] is True

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_a_reference_fact_table(self, data):
        """``build_state`` over loaded claims gives the fact table that sorting
        every row's normalized names gives: rows that repeat one author set in
        different orders, with blank names between separators and periods or
        commas inside names, share a fact per ISBN."""
        names = st.sampled_from(
            ["Ann Ax", "A.nn, Ax", "ann.ax", "Bob  By", "b,ob by.", "Cy. Cz,", "cy,cz", ".", "Dee"]
        )
        author_sets = st.lists(
            names, min_size=1, max_size=3, unique_by=reference_normalize_name
        ).filter(lambda names: any(map(reference_normalize_name, names)))
        pool = data.draw(st.lists(author_sets, min_size=1, max_size=3), label="author sets")
        rows, sites, facts = [], {}, {}
        for site, isbn, authors in data.draw(st.lists(st.tuples(
            st.sampled_from(["http://w1.com", "http://w2.com", "http://w3.com"]),
            st.sampled_from([CORE_ISBN, "i2"]),
            st.sampled_from(pool),
        ), min_size=1, max_size=20), label="rows"):
            blanks = data.draw(st.lists(st.sampled_from(["", " "]), max_size=2))
            field = ";".join(data.draw(st.permutations([*authors, *blanks])))
            rows.append([site, isbn, field, "", "", ""])
            site_id = sites.setdefault(site, len(sites) + 1)
            key = (isbn, tuple(sorted(filter(None, map(reference_normalize_name, field.split(";"))))))
            facts.setdefault(key, (len(facts) + 1, isbn, key[1], set()))[3].add(site_id)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "claims.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([corpus.CLAIMS_HEADER, *rows])
            kb = {CORE_ISBN: corpus.TrueFact(CORE_ISBN, ["ann ax"])}
            state = corpus.build_state(kb, corpus.load_claims(path))
        assert state.kb is kb
        assert {url: site.id for url, site in state.websites.items()} == sites
        assert [
            (f.fact_id, f.object, f.authors, f.providers) for f in state.facts.values()
        ] == [(i, isbn, authors, tuple(sorted(ids))) for i, isbn, authors, ids in facts.values()]


def assert_fact_form(state):
    """Each fact's authors and providers are strictly ascending tuples, and
    ``build_index`` maps the providers to the positions it computed when it
    sorted them."""
    sites = sorted(state.websites.values(), key=lambda site: site.id)
    site_at = {site.id: i for i, site in enumerate(sites)}
    ix = engine.build_index(state)
    assert len(ix.facts) == len(state.facts)
    for fact, positions in zip(ix.facts, ix.fact_providers):
        for values in (fact.authors, fact.providers):
            assert type(values) is tuple
            assert all(map(lt, values, values[1:]))
        assert positions == tuple(sorted(map(site_at.__getitem__, fact.providers)))


class TestFactForm:
    """``build_state`` and ``load_state`` give the form that ``FactRecord`` states."""

    @settings(max_examples=40, deadline=None)
    @given(
        websites=st.integers(1, 30),
        objects=st.integers(1, 6),
        claims_per_site=st.integers(1, 4),
        corruption=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_generated_corpora_build_and_reload_in_the_fact_form(
        self, websites, objects, claims_per_site, corruption, seed
    ):
        spec = generator.GenSpec(websites, objects, claims_per_site, corruption, seed)
        books = generator.generate_kb(spec)
        claims = corpus.canonical_claims(generator.generate_claims(spec, books))
        state = corpus.build_state({book.object: book for book in books}, claims)
        assert_fact_form(state)
        assert_fact_form(assert_loads_as_the_reference(_saved_text(state)))


class TestPersistence:
    def test_empty_state_round_trip(self, tmp_path):
        state = corpus.TrustState()
        path = tmp_path / "state.json"
        corpus.save_state(state, path)
        assert corpus.load_state(path) == state

    def test_round_trip_is_identity(self, tmp_path, core_java_state):
        state = engine.assign_pcf(core_java_state)
        state, _ = one_epoch(state)
        path = tmp_path / "state.json"
        corpus.save_state(state, path)
        assert corpus.load_state(path) == state

    def test_second_save_is_byte_identical(self, tmp_path, core_java_state):
        state = engine.assign_pcf(core_java_state)
        state, _ = one_epoch(state)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        corpus.save_state(state, first)
        corpus.save_state(corpus.load_state(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_failed_save_leaves_the_old_file_whole(
        self, tmp_path, core_java_state, monkeypatch
    ):
        path = tmp_path / "state.json"
        corpus.save_state(core_java_state, path)
        before = path.read_bytes()
        engine.assign_pcf(core_java_state)
        core_java_state.kb[CORE_ISBN].title = object()  # not JSON-serializable
        with pytest.raises(TypeError):
            corpus.save_state(core_java_state, path)
        assert path.read_bytes() == before
        # A failure while the text is being written out: a lone surrogate
        # cannot be encoded as UTF-8.
        monkeypatch.setattr(corpus, "_state_text", lambda state: ['{"x": "\ud800"}'])
        with pytest.raises(UnicodeEncodeError):
            corpus.save_state(corpus.TrustState(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    @pytest.mark.parametrize(
        "value, held",
        [
            pytest.param(math.nan, False, id="nan"),
            pytest.param(math.inf, False, id="inf"),
            pytest.param(-math.inf, False, id="-inf"),
            pytest.param(math.nan, True, id="nan-after-a-held-value"),
            pytest.param(math.inf, True, id="inf-after-a-held-value"),
        ],
    )
    def test_non_finite_number_is_not_saved(self, tmp_path, core_java_state, value, held):
        path = tmp_path / "state.json"
        state = engine.assign_pcf(core_java_state)
        corpus.save_state(state, path)
        before = path.read_bytes()
        if held:
            # The facts are written before the sites, so the memo holds 0.5
            # when it meets the bad trust.
            for fact in state.facts.values():
                fact.pcf = 0.5
        state.websites[W1].trust = value
        with pytest.raises(ValueError, match="not JSON compliant"):
            corpus.save_state(state, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    @settings(deadline=None)  # each example writes and reads a file
    @given(state=library_states())
    @example(state=_edge_state({}))
    @example(state=_edge_state({"pcf": {}, "voting": {"\\😀\x01": 1, "é": 0.5}}))
    # Equal numbers with different texts, each pair in both orders where
    # the texts differ: a memo keyed on the value alone fails these.
    @example(state=_pair_state(0.0, -0.0))
    @example(state=_pair_state(1.0, 1))
    @example(state=_pair_state(1, 1.0))
    # One non-integral float in a trust, a fact and two method tables.
    @example(state=_pair_state(0.1 + 0.2, 0.1 + 0.2))
    def test_file_is_byte_identical_to_json_dumps(self, state):
        compact = {"sort_keys": True, "separators": (",", ":"), "allow_nan": False}
        expected = json.dumps(state_document(state), **compact) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.json"
            corpus.save_state(state, path)
            assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize(
        "value",
        [Fraction(1, 2), Decimal("0.5"), True, 1.5j, "0.5"],
        ids=["fraction", "decimal", "bool", "complex", "string"],
    )
    def test_number_of_another_type_is_not_saved(self, tmp_path, value):
        """A value equal to a number the memo holds is still refused by its type."""
        path = tmp_path / "state.json"
        state = _pair_state(0.5, 1)
        corpus.save_state(state, path)
        before = path.read_bytes()
        state.websites["http://b.example"].trust = value
        with pytest.raises(TypeError):
            corpus.save_state(state, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_corrupted_file_raises_schema_error(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(corpus.StateError):
            corpus.load_state(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        # 1: the format that stored fact_ids, unknown_object and log scores;
        # 2: the one that stored fact confidences, a clamp and a seed;
        # 3: the one that stored each KB book's publisher and price.
        for version in (1, 2, 3, 99):
            path.write_text(json.dumps({"pcf_state_version": version}), encoding="utf-8")
            with pytest.raises(corpus.StateError, match="schema version.*pcf ingest"):
                corpus.load_state(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"epoch": 0}), encoding="utf-8")
        with pytest.raises(corpus.StateError, match="schema version"):
            corpus.load_state(path)


def _exact(state):
    """The state as plain data in table order, each float as ``float.hex``,
    so that 1 and 1.0, or 0.0 and -0.0, differ."""

    def x(value):
        return value.hex() if type(value) is float else value

    config = state.config
    return (
        [(url, w.id, w.url, x(w.trust)) for url, w in state.websites.items()],
        [
            (k, f.fact_id, f.object, f.authors, f.providers, x(f.pcf), x(f.adjusted_confidence))
            for k, f in state.facts.items()
        ],
        [(k, t.object, t.authors, t.title) for k, t in state.kb.items()],
        (state.epoch, x(config.epsilon), x(config.convergence_tol), config.max_epochs),
        [(m, [(u, x(t)) for u, t in table.items()]) for m, table in state.method_trusts.items()],
    )


def assert_loads_as_the_reference(text):
    """``load_state`` refuses the file holding ``text`` exactly when the
    reference does, with a StateError that starts with the path, and
    otherwise loads the same state, float for float."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_text(text, encoding="utf-8")
        try:
            expected = _exact(reference_load_state(path))
        except corpus.StateError:
            with pytest.raises(corpus.StateError, match=f"^{re.escape(str(path))}: "):
                corpus.load_state(path)
            return None
        state = corpus.load_state(path)
        assert _exact(state) == expected
        return state


# json.dumps writes an infinity as `Infinity`, which both loaders refuse as
# a token; this marker is written as the literal 1e400, which overflows to
# an infinity as it is read.
OVERFLOW = 1.25e300
# Numbers of the right type that the checks must still tell apart.
NUMBERS = [0, 1, 2, 1.0, -0.0, 1.5, 5e-324, 10**400, OVERFLOW]


def _saved_text(state):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        corpus.save_state(state, path)
        return path.read_text(encoding="utf-8")


def _dumps(doc):
    return json.dumps(doc).replace(repr(OVERFLOW), "1e400")


@pytest.fixture(scope="module")
def ranked_doc(tmp_path_factory):
    """A `gen` state after ingest, run and compare, as a JSON document."""
    tmp = tmp_path_factory.mktemp("ranked")
    kb, claims, state = tmp / "kb.jsonl", tmp / "claims.csv", tmp / "state.json"
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["gen", "--websites", "8", "--objects", "3", "--claims-per-site", "2",
             "--corruption", "0.4", "--seed", "4", "--out-kb", str(kb), "--out-claims", str(claims)],
            ["ingest", "--kb", str(kb), "--claims", str(claims), "--state", str(state)],
            ["run", "--state", str(state)],
            ["compare", "--state", str(state)],
        ):
            assert cli.main(argv) == 0
    doc = json.loads(state.read_text(encoding="utf-8"))
    assert any(len(fact["providers"]) > 1 for fact in doc["facts"])
    return doc


def _small_doc():
    """Three websites and three facts in ingest's form. From fact 1 to fact 2
    the authors and the providers descend, as they may across records."""
    urls = ["http://a.example", "http://b.example", "http://c.example"]
    fact = {"pcf": 0.5, "adjusted_confidence": 0.5}
    return {
        "pcf_state_version": corpus.STATE_SCHEMA_VERSION,
        "config": {"epsilon": 0.4, "convergence_tol": 1e-6, "max_epochs": 10},
        "epoch": 1,
        "kb": [{"isbn": "1", "title": "t", "authors": ["b"]}],
        "websites": [{"id": i, "url": url, "trust": 0.5} for i, url in enumerate(urls, 1)],
        "facts": [
            {"fact_id": 1, "isbn": "1", "authors": ["b"], "providers": [3], **fact},
            {"fact_id": 2, "isbn": "1", "authors": ["a"], "providers": [1, 2], **fact},
            {"fact_id": 3, "isbn": "2", "authors": ["a", "c"], "providers": [2], **fact},
        ],
        "method_trusts": {"pcf": dict.fromkeys(urls, 0.5), "voting": dict.fromkeys(urls, 1.0)},
    }


def test_kb_records_hold_only_what_a_command_reads(ranked_doc):
    # The KB file's publisher and price are checked on ingest, not stored.
    assert ranked_doc["kb"]
    assert {tuple(sorted(record)) for record in ranked_doc["kb"]} == {("authors", "isbn", "title")}


class TestLoadState:
    """The column sweeps of ``load_state`` against ``reference_load_state``."""

    @settings(deadline=None)
    @given(state=library_states())
    @example(state=_edge_state({"pcf": {}, "voting": {"\\😀\x01": 1, "é": 0.5}}))
    def test_library_states_load_as_the_reference(self, state):
        assert_loads_as_the_reference(_saved_text(state))

    @settings(deadline=None)
    @given(state=valid_states())
    def test_valid_states_load_as_the_reference(self, state):
        loaded = assert_loads_as_the_reference(_saved_text(state))
        assert loaded is not None
        assert_fact_form(loaded)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_documents_load_as_the_reference(self, ranked_doc, data):
        """Edits as ``TestStateFuzz`` makes them: a list out of ingest's form,
        then up to two values of any JSON type, or numbers, at any leaf, or
        keys dropped. A table's records may also come in reverse order."""
        doc = copy.deepcopy(ranked_doc)
        if data.draw(st.booleans(), label="list edit"):
            table, index, key, op = data.draw(st.sampled_from(list_mutations(doc)), label="edit")
            values = doc[table][index][key]
            if op == "reverse":
                values.reverse()
            elif op == "empty":
                values.clear()
            else:
                values.insert(data.draw(st.integers(0, len(values)), label="at"), values[-1])
        for table in data.draw(st.sets(st.sampled_from(["kb", "websites", "facts"])), label="reverse"):
            doc[table].reverse()
        for _ in range(data.draw(st.integers(0, 2), label="edits")):
            path, is_key = data.draw(st.sampled_from(json_paths(doc)), label="path")
            if not path:
                continue
            parent = reduce(lambda node, key: node[key], path[:-1], doc)
            if is_key and data.draw(st.booleans(), label="drop"):
                del parent[path[-1]]
            else:
                # A copy: a second edit inside a shared [1] or {"a": 1} would
                # change REPLACEMENTS for every later example.
                value = data.draw(st.sampled_from(REPLACEMENTS + NUMBERS), label="value")
                parent[path[-1]] = copy.deepcopy(value)
        assert_loads_as_the_reference(_dumps(doc))

    # Each corruption on states of its own, so that every one is drawn.
    @pytest.mark.parametrize("name", list(CORRUPTIONS))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_one_corruption_is_refused_with_the_reference_message(self, name, data):
        doc = data.draw(corrupted_documents(name), label="document")
        assert_refused_as_the_reference(json.dumps(doc))

    @pytest.mark.parametrize("name", list(CORRUPTIONS))
    def test_each_corruption_of_a_ranked_state_is_refused_as_the_reference(self, ranked_doc, name):
        doc = copy.deepcopy(ranked_doc)
        allows, corrupt = CORRUPTIONS[name]
        assert allows(doc)
        corrupt(doc, lambda options: list(options)[-1])
        assert_refused_as_the_reference(json.dumps(doc))

    def test_unchanged_documents_load(self, ranked_doc):
        assert assert_loads_as_the_reference(json.dumps(ranked_doc)) is not None
        assert assert_loads_as_the_reference(json.dumps(_small_doc())) is not None

    def test_lists_may_descend_from_one_fact_to_the_next(self):
        state = assert_loads_as_the_reference(json.dumps(_small_doc()))
        assert [(f.authors, f.providers) for f in state.facts.values()] == [
            (("b",), (3,)), (("a",), (1, 2)), (("a", "c"), (2,))
        ]

    def test_integer_numbers_load_as_floats(self):
        doc = _small_doc()
        doc["config"].update(epsilon=0, convergence_tol=1)
        doc["websites"][0]["trust"] = 1
        doc["websites"][1]["trust"] = 0
        doc["facts"][0].update(pcf=1, adjusted_confidence=0)
        doc["method_trusts"]["pcf"]["http://a.example"] = 1
        doc["method_trusts"]["voting"] = dict.fromkeys(doc["method_trusts"]["voting"], 0)
        state = assert_loads_as_the_reference(json.dumps(doc))
        numbers = [
            state.config.epsilon, state.config.convergence_tol,
            *(w.trust for w in state.websites.values()),
            *(x for f in state.facts.values() for x in (f.pcf, f.adjusted_confidence)),
            *(t for table in state.method_trusts.values() for t in table.values()),
        ]
        assert {type(x) for x in numbers} == {float}
        assert state.websites["http://a.example"].trust == 1.0
        assert state.method_trusts["voting"]["http://c.example"] == 0.0

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("facts", "", "facts is not a list"),
            ("facts", {}, "facts is not a list"),
            ("kb", "", "kb is not a list"),
            ("kb", {}, "kb is not a list"),
            ("websites", {}, "websites is not a list"),
            ("method_trusts", [], "method_trusts is not an object"),
            ("method_trusts", {"pcf": []}, "method_trusts 'pcf' is not an object"),
            ("facts", ["x"], "facts[0] is not an object"),
            ("facts", [_small_doc()["facts"][0], "x"], "facts[1] is not an object"),
            ("websites", [[1]], "websites[0] is not an object"),
            ("config", [], "config is not an object"),
            ("kb", [None], "kb[0] is not an object"),
        ],
    )
    def test_a_table_of_another_type_is_refused_by_its_key(self, tmp_path, key, value, message):
        # An empty string or object iterates as an empty table.
        doc = _small_doc()
        doc[key] = value
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(corpus.StateError, match=re.escape(message)):
            corpus.load_state(path)
        assert assert_loads_as_the_reference(path.read_text(encoding="utf-8")) is None

    @pytest.mark.parametrize("trust", ["true", "1e400", "-1e400", "1.0000000000000002", "-5e-324"])
    @pytest.mark.parametrize("table", ["websites", "method_trusts"])
    def test_trust_that_is_no_probability_is_refused(self, tmp_path, trust, table):
        doc = _small_doc()
        if table == "websites":
            doc["websites"][1]["trust"] = OVERFLOW
        else:
            doc["method_trusts"]["voting"]["http://b.example"] = OVERFLOW
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc).replace(repr(OVERFLOW), trust), encoding="utf-8")
        # A range names the site; a type check names the value.
        named = "got True" if trust == "true" else "http://b.example"
        with pytest.raises(corpus.StateError, match=named):
            corpus.load_state(path)
        assert assert_loads_as_the_reference(path.read_text(encoding="utf-8")) is None

    @pytest.mark.parametrize(
        "edits, message",
        [
            ([("facts", 1, {"providers": []}), ("facts", 2, {"providers": []})],
             "fact 2: no website provides it"),
            ([("facts", 1, {"providers": [2, 1]}), ("facts", 2, {"providers": [2, 2]})],
             "fact 2: providers are not ascending and distinct"),
            ([("facts", 1, {"providers": [1, 1]})],
             "fact 2: providers are not ascending and distinct"),
            ([("facts", 1, {"providers": [1, 4]}), ("facts", 2, {"providers": [0]})],
             "fact 2: a provider is not the integer id of a website"),
            ([("facts", 1, {"authors": ["b", "a"]}), ("facts", 2, {"authors": ["c", "a"]})],
             "fact 2: authors are not sorted and distinct"),
            ([("facts", 2, {"authors": ["a", "a"]})], "fact 3: duplicate author name 'a'"),
            ([("facts", 2, {"isbn": "1", "authors": ["b"]})],
             "fact 3: same ISBN and authors as fact 1"),
            ([("facts", 1, {"pcf": -0.5}), ("facts", 2, {"pcf": 1.5})], "fact 2: pcf -0.5 outside"),
            ([("facts", 2, {"adjusted_confidence": 1.5})], "fact 3: adjusted confidence 1.5 outside"),
            ([("kb", 0, {"authors": ["b", "b"]})], "KB isbn 1: duplicate author name 'b'"),
            ([("facts", 1, {"isbn": "1\t"}), ("facts", 2, {"isbn": "2\n"})],
             "fact 2: isbn '1\\t' holds a tab, CR or LF"),
            ([("websites", 1, {"trust": 2}), ("websites", 2, {"trust": 3})],
             "website http://b.example: trust 2.0 outside"),
            ([("method_trusts", "pcf", {"http://b.example": 7, "http://c.example": 8})],
             "pcf trust of http://b.example: 7.0 outside"),
            ([("method_trusts", "voting", {"http://d.example": 0.5})],
             "voting trust table and websites disagree on url 'http://d.example'"),
            ([("kb", 0, {"isbn": "1\r"})], "KB isbn '1\\r' holds a tab, CR or LF"),
            ([("facts", 1, {"authors": ["a", "b\tx"]}), ("facts", 2, {"authors": ["a\n", "c"]})],
             "fact 2: author name 'b\\tx' holds a tab, CR or LF"),
            # The ';' rule comes first, in the sweep that looks for both.
            ([("facts", 1, {"authors": ["a", "b\t;x"]})], "fact 2: author name 'b\\t;x' contains ';'"),
            ([("websites", 1, {"url": "http://b.example/\t"}),
              ("websites", 2, {"url": "http://c.example/\n"})],
             "website url 'http://b.example/\\t' holds a tab, CR or LF"),
        ],
    )
    def test_refusal_names_the_first_record_that_breaks_a_rule(self, tmp_path, edits, message):
        """Where two records break a rule, the first is named."""
        doc = _small_doc()
        for table, key, fields in edits:
            doc[table][key].update(fields)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(corpus.StateError, match=re.escape(f"{path}: {message}")):
            corpus.load_state(path)
        assert assert_loads_as_the_reference(json.dumps(doc)) is None
