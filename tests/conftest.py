import csv
import io
import json
import math
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import pytest

from pcf_engine import corpus, engine

CORE_ISBN = "8131701621"
CORE_TRUTH = ["cay s horstmenn", "gary cornell"]
W1 = "http://w1.example.com/shop"
W2 = "http://w2.example.com/shop"

CORE_KB_RECORD = {
    "isbn": CORE_ISBN,
    "title": "Core Java Volume 1",
    "authors": ["Cay S Horstmenn", "Gary Cornell"],
    "publisher": "Prentice Hall",
    "price": 45.0,
}


# A claim as the generator's rows give it, names in claimed order;
# corpus.canonical_claims makes a list of them the columns build_state takes.
Claim = namedtuple("Claim", "website object authors")


def make_claim(website, isbn, authors):
    return Claim(website, isbn, [corpus.normalize_name(a) for a in authors])


def core_java_claims():
    """w1 copies one author exactly and truncates the other; w2 truncates both."""
    return [
        make_claim(W1, CORE_ISBN, ["Cay S Horstmenn", "Gary"]),
        make_claim(W2, CORE_ISBN, ["Horstmenn", "Corne"]),
    ]


@pytest.fixture
def core_java_kb():
    return {
        CORE_ISBN: corpus.TrueFact(
            object=CORE_ISBN,
            authors=list(CORE_TRUTH),
            title="core java volume 1",
        )
    }


@pytest.fixture
def core_java_state(core_java_kb):
    return corpus.build_state(core_java_kb, corpus.canonical_claims(core_java_claims()))


def write_core_fixture(tmp_path):
    """Write the worked-example corpus as input files; returns (kb, claims)."""
    kb_path = tmp_path / "kb.jsonl"
    kb_path.write_text(json.dumps(CORE_KB_RECORD) + "\n", encoding="utf-8")
    claims_path = tmp_path / "claims.csv"
    claims_path.write_text(
        "website_url,isbn,authors,publisher,price,quantity\n"
        f"{W1},{CORE_ISBN},Cay S Horstmenn;Gary,Prentice Hall,45.0,3\n"
        f"{W2},{CORE_ISBN},Horstmenn;Corne,,,\n",
        encoding="utf-8",
    )
    return kb_path, claims_path


def reference_write_kb_file(path, books):
    """The reference for ``generator.write_kb_file``: one ``json.dumps`` per line."""
    lines = [
        json.dumps(
            {
                "isbn": book.object,
                "title": book.title,
                "authors": book.authors,
                "publisher": book.publisher,
                "price": book.price,
            },
            sort_keys=True,
        )
        for book in books
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_write_claims_file(path, claims):
    """The reference for ``generator.write_claims_file``: every row through ``csv.writer``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(corpus.CLAIMS_HEADER)
    for claim in claims:
        writer.writerow(
            [
                claim.website,
                claim.object,
                ";".join(claim.authors),
                claim.publisher,
                repr(claim.price),
                str(claim.quantity),
            ]
        )
    Path(path).write_text(buffer.getvalue(), encoding="utf-8")


def one_epoch(state):
    """Exactly one epoch of ``engine.run`` on ``state``; returns the state and its report."""
    config = state.config
    state.config = replace(config, max_epochs=1)
    try:
        state, (report,) = engine.run(state)
    finally:
        state.config = config
    return state, report


def fact_confidence(trusts):
    """The readable stage 2: confidence that a fact is correct given its providers' trusts.

    s(f) = 1 - prod(1 - t(w)) over ``trusts``, multiplied in the order
    given, capped at 1 - ``engine.CONFIDENCE_CLAMP`` so that no fact is
    certain. ``engine.confidences`` must give exactly this over each fact's
    providers' trusts in ascending site id.
    """
    product = 1.0
    for trust in trusts:
        product *= 1.0 - trust
    return min(1.0 - product, 1.0 - engine.CONFIDENCE_CLAMP)


# Values of every JSON type, NaN and infinity included; a mutation puts one
# of another type in place of a value of the state document.
REPLACEMENTS = [
    None, True, 0, -1, 7, 0.5, -1.5, math.nan, math.inf, "", "x", "1", [], [1], {}, {"a": 1},
]


def json_paths(node, path=()):
    """(path, is_key) for every leaf, and for every key of every object."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [(path, False)]
    found = [] if node else [(path, False)]
    for key, child in items:
        if isinstance(node, dict):
            found.append((path + (key,), True))
        found += json_paths(child, path + (key,))
    return found


def list_mutations(doc):
    """(table, index, key, op) for every list edit that leaves no state ingest could write.

    A fact's authors or providers reversed (two or more), one entry repeated,
    or emptied; a KB record's authors repeated or emptied.
    """
    found = []
    for index, fact in enumerate(doc["facts"]):
        for key in ("authors", "providers"):
            ops = ["repeat", "empty"] + (["reverse"] if len(fact[key]) > 1 else [])
            found += [("facts", index, key, op) for op in ops]
    for index in range(len(doc["kb"])):
        found += [("kb", index, "authors", op) for op in ("repeat", "empty")]
    return found
