"""Pinned state-file bytes after ingest -> run --epochs 3 --tol 0 -> compare.

Any change to the arithmetic, its order or the state format changes these
hashes. Float sums add left to right, so the hashes hold on every supported
Python version.
"""

import hashlib

import pytest

from pcf_engine import cli

GOLDEN = {
    # 40 sites x 4 claims over 12 objects: many facts per site and per object.
    (40, 12, 4, 0.5): "23da09badc5c0f0a611dbf7afd96b156b6ed36182d0a94dc2b3c4cc798b3084e",
    # One object, every claim corrupted: one large sibling group.
    (60, 1, 1, 1.0): "923c5375684ba5883396503d94adc1db556fc2f328609f6e09697538bf5612f8",
}


@pytest.mark.parametrize("shape", list(GOLDEN), ids=["gen-40x4", "one-object"])
def test_state_bytes_after_ingest_run_compare(tmp_path, capsys, shape):
    websites, objects, claims_per_site, corruption = shape
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
        ["compare", "--state", str(state)],
    ]
    for argv in commands:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(state.read_bytes()).hexdigest() == GOLDEN[shape]
