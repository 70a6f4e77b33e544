"""Pinned outputs of gen, and after ingest -> run --epochs 3 --tol 0 -> compare.

Three pins per shape. ``GEN_BYTES`` covers the KB and claims files that
``pcf gen`` writes at seed 0, byte for byte. ``NUMBERS`` covers the numbers
alone: the repr of every website trust, of every fact's pcf, confidence and
adjusted confidence keyed by (ISBN, authors), and of every method table
entry, read back through ``corpus.load_state``, plus the compare CSV. A fact's
confidence is not stored: it is stage 2, ``engine.confidences``, over the
loaded trusts, as the last epoch computed it. Any change to the arithmetic
or its order changes the hash; a change to the state format does not.
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

# sha256 of (KB file, claims file).
GEN_BYTES = {
    "gen-40x4": (
        "307bc0d2559d8f4fe7a4ce7483d5fe618f3c724f1fb5af9015a3f40f3b967be9",
        "cc4374ad3e99f733df59d36156cda9d3b97d1f63f108647069606104eee4b9c5",
    ),
    "one-object": (
        "ef8253f1913d823996e9a84562239e48aca83f724eb68b4daf391a38d8d33f37",
        "97ad6d63ce9fdad8a8c756801909f74e96fa6357e2fd0b6710c394c88a22bc5c",
    ),
}

NUMBERS = {
    "gen-40x4": "9886569152b40f1b56ca852496fec92325f41067ebdd8e8ca578cacf1326a012",
    "one-object": "e0cb93a778f862c39ff2bd55cfc248088d8f8746a1c39efca408af91f6dd20c7",
}

STATE_BYTES = {
    "gen-40x4": "9fcc7e7dff5a8f7870dadaf37ab212e6939bba3bc960e448e38f4a2965efb1ab",
    "one-object": "014a38447688bdda4329dfbb9bedce8ffcbebd825e2153ff8784438d3bd4dbef",
}


def gen(tmp_path, shape):
    """Write the shape's corpus at seed 0; returns the KB and claims paths."""
    websites, objects, claims_per_site, corruption = SHAPES[shape]
    kb, claims = tmp_path / "kb.jsonl", tmp_path / "claims.csv"
    assert cli.main([
        "gen",
        "--websites", str(websites),
        "--objects", str(objects),
        "--claims-per-site", str(claims_per_site),
        "--corruption", str(corruption),
        "--seed", "0",
        "--out-kb", str(kb),
        "--out-claims", str(claims),
    ]) == 0
    return kb, claims


def ingest_run_compare(tmp_path, capsys, shape):
    """Run the pipeline on a generated corpus; returns the state path and the compare CSV."""
    kb, claims = gen(tmp_path, shape)
    state = tmp_path / "state.json"
    commands = [
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
    ix = engine.build_index(state)
    stage2 = engine.confidences(ix, [site.trust for site in ix.sites])
    confidence = {fact.fact_id: c for fact, c in zip(ix.facts, stage2)}
    lines = [f"site {site.url} {r(site.trust)}" for site in state.websites.values()]
    lines += [
        f"fact {fact.object} {';'.join(fact.authors)} {r(fact.pcf)}"
        f" {r(confidence[fact.fact_id])}"
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
def test_gen_bytes(tmp_path, shape):
    files = gen(tmp_path, shape)
    assert tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files) == GEN_BYTES[shape]


@pytest.mark.parametrize("shape", list(SHAPES))
def test_numbers_after_ingest_run_compare(tmp_path, capsys, shape):
    state, compare_csv = ingest_run_compare(tmp_path, capsys, shape)
    text = numbers_text(corpus.load_state(state), compare_csv)
    assert hashlib.sha256(text.encode()).hexdigest() == NUMBERS[shape]


@pytest.mark.parametrize("shape", list(SHAPES))
def test_state_bytes_after_ingest_run_compare(tmp_path, capsys, shape):
    state, _ = ingest_run_compare(tmp_path, capsys, shape)
    assert hashlib.sha256(state.read_bytes()).hexdigest() == STATE_BYTES[shape]
