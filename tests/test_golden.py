"""Pinned outputs after ingest -> run --epochs 3 --tol 0 -> compare.

Two hashes per shape. ``NUMBERS`` covers the numbers alone: the repr of
every website trust, of every fact's pcf, confidence and adjusted
confidence keyed by (ISBN, authors), and of every method table entry, read
back through ``corpus.load_state``, plus the compare CSV. A fact's
confidence is not stored: it is ``engine.fact_confidence`` over its
providers' loaded trusts in ascending site id, as the last epoch computed
it. Any change to the arithmetic or its order changes the hash; a change to
the state format does not.
``STATE_BYTES`` covers the state file byte for byte, so it changes with the
format too. Float sums add left to right, so the hashes hold on every
supported Python version.
"""

import hashlib

import pytest

from pcf_engine import cli, corpus, engine

# (websites, objects, claims per site, corruption)
SHAPES = {
    # 40 sites x 4 claims over 12 objects: many facts per site and per object.
    "gen-40x4": (40, 12, 4, 0.5),
    # One object, every claim corrupted: one large sibling group.
    "one-object": (60, 1, 1, 1.0),
}

NUMBERS = {
    "gen-40x4": "9886569152b40f1b56ca852496fec92325f41067ebdd8e8ca578cacf1326a012",
    "one-object": "e0cb93a778f862c39ff2bd55cfc248088d8f8746a1c39efca408af91f6dd20c7",
}

STATE_BYTES = {
    "gen-40x4": "dc40222eab9f29f9633822aa1cac9dc56d62aec02ce807a8129c474b167725ac",
    "one-object": "1480855f5d8db3a78aa5ed67d67a44b81981987f092234814db6bbf1f2ffb453",
}


def ingest_run_compare(tmp_path, capsys, shape):
    """Run the pipeline on a generated corpus; returns the state path and the compare CSV."""
    websites, objects, claims_per_site, corruption = SHAPES[shape]
    kb, claims, state = tmp_path / "kb.jsonl", tmp_path / "claims.csv", tmp_path / "state.json"
    commands = [
        [
            "gen",
            "--websites", str(websites),
            "--objects", str(objects),
            "--claims-per-site", str(claims_per_site),
            "--corruption", str(corruption),
            "--seed", "0",
            "--out-kb", str(kb),
            "--out-claims", str(claims),
        ],
        ["ingest", "--kb", str(kb), "--claims", str(claims), "--state", str(state)],
        ["run", "--state", str(state), "--epochs", "3", "--tol", "0"],
    ]
    for argv in commands:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(["compare", "--state", str(state)]) == 0
    return state, capsys.readouterr().out


def numbers_text(state: corpus.TrustState, compare_csv: str) -> str:
    """Every stored number as its repr, keyed by url or (ISBN, authors), then the CSV."""
    r = float.__repr__
    trust = {site.id: site.trust for site in state.websites.values()}
    lines = [f"site {site.url} {r(site.trust)}" for site in state.websites.values()]
    lines += [
        f"fact {fact.object} {';'.join(fact.authors)} {r(fact.pcf)}"
        f" {r(engine.fact_confidence(trust[i] for i in sorted(fact.providers)))}"
        f" {r(fact.adjusted_confidence)}"
        for fact in state.facts.values()
    ]
    lines += [
        f"{method} {url} {r(trust)}"
        for method, table in state.method_trusts.items()
        for url, trust in table.items()
    ]
    return "\n".join(sorted(lines)) + "\n" + compare_csv


@pytest.mark.parametrize("shape", list(SHAPES))
def test_numbers_after_ingest_run_compare(tmp_path, capsys, shape):
    state, compare_csv = ingest_run_compare(tmp_path, capsys, shape)
    text = numbers_text(corpus.load_state(state), compare_csv)
    assert hashlib.sha256(text.encode()).hexdigest() == NUMBERS[shape]


@pytest.mark.parametrize("shape", list(SHAPES))
def test_state_bytes_after_ingest_run_compare(tmp_path, capsys, shape):
    state, _ = ingest_run_compare(tmp_path, capsys, shape)
    assert hashlib.sha256(state.read_bytes()).hexdigest() == STATE_BYTES[shape]
