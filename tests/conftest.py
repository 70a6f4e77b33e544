import json
from dataclasses import replace

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


def make_claim(website, isbn, authors):
    return corpus.Claim(
        website=website,
        object=isbn,
        authors=[corpus.normalize_name(a) for a in authors],
    )


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
            publisher="prentice hall",
            price=45.0,
        )
    }


@pytest.fixture
def core_java_state(core_java_kb):
    return corpus.build_state(core_java_kb, core_java_claims())


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


def one_epoch(state):
    """Exactly one epoch of ``engine.run`` on ``state``; returns the state and its report."""
    config = state.config
    state.config = replace(config, max_epochs=1)
    try:
        state, (report,) = engine.run(state)
    finally:
        state.config = config
    return state, report
