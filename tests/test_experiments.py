import csv
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"


def test_run_experiments_writes_three_csvs(tmp_path):
    subprocess.run(
        [sys.executable, str(SCRIPT), "--out-dir", str(tmp_path)],
        check=True,
        capture_output=True,
    )
    expected = {
        "epsilon_sweep.csv": (["epsilon", "mean_implication_factor"], 11),
        "scaling.csv": (["n_websites", "n_facts", "data_seconds", "engine_seconds"], 5),
        "method_comparison.csv": (
            ["corruption_rate", "voting_mean", "truthfinder_mean", "pcf_mean"],
            3,
        ),
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, (header, n_rows) in expected.items():
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        assert len(rows) - 1 == n_rows
