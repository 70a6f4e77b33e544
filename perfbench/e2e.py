"""The untraced end-to-end client: drives `pcf` in-process through cli.main.

One closed loop with a single caller: each pass runs ingest (INGESTS times), run, compare and
every query of the needle list, one call at a time, each between two timed
runs of the reference job (common.reference), and passes repeat until
the next one, at the speed of the fastest so far, would overrun ``--seconds``
(at least one pass). Writes the
timings, exit codes and the outputs the oracle checks to ``--out`` in the
work directory. Started by run.py in fresh processes, whose peak RSS is the
`peak_rss_mb` metric.

    python3 perfbench/e2e.py --work DIR --seconds S --out e2e.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from common import EPOCHS, import_package, reference_seconds

# `ingest` is the shortest call but one, so a pass makes it this many times,
# each over the same files, for more samples per run.
INGESTS = 3


def keep(work: Path, kind: str, data: bytes) -> str:
    """Store an output once per distinct content; return its file name."""
    name = f"{kind}-{hashlib.sha256(data).hexdigest()[:20]}"
    path = work / name
    if not path.exists():
        path.write_bytes(data)
    return name


def invoke(cli, argv: list[str]) -> dict:
    """One timed CLI call with stdout/stderr sent to buffers, between two reference jobs."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    before = reference_seconds()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            rc = None
            err.write(repr(exc))
        seconds = time.perf_counter() - started
    after = reference_seconds()
    return {"op": argv[0], "rc": rc, "seconds": seconds, "ref_seconds": (before + after) / 2,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-500:]}


def one_pass(cli, plan: dict, work: Path, pass_no: int) -> list[dict]:
    state = plan["state"]
    records = []

    def record(rec: dict, **fields) -> dict:
        rec.update(pass_no=pass_no, **fields)
        records.append(rec)
        return rec

    for _ in range(INGESTS):
        rec = record(invoke(cli, ["ingest", "--kb", plan["kb"], "--claims", plan["claims"], "--state", state]))
        if rec["rc"] == 0:
            rec["artifact"] = keep(work, "ingest-state", Path(state).read_bytes())
    rec = record(invoke(cli, ["run", "--state", state, "--epochs", str(EPOCHS), "--tol", "0"]))
    if rec["rc"] == 0:
        rec["artifact"] = keep(work, "run-state", Path(state).read_bytes())
    rec = record(invoke(cli, ["compare", "--state", state]))
    compared = None
    if rec["rc"] == 0:
        compared = rec["artifact"] = keep(work, "compare-state", Path(state).read_bytes())
        rec["csv"] = keep(work, "compare-csv", rec["stdout"].encode())
    for needle, method, top in plan["needles"]:
        record(invoke(cli, ["query", "--state", state, "--needle", needle,
                            "--method", method, "--top", str(top)]),
               needle=needle, method=method, top=top, state=compared)
    for rec in records:
        if rec["op"] != "query":
            rec.pop("stdout")
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="file name for the records")
    args = parser.parse_args()
    from pcf_engine import cli

    plan = json.loads((args.work / "plan.json").read_text())
    records: list[dict] = []
    started = time.perf_counter()
    pass_no = 0
    fastest = float("inf")
    while True:
        pass_started = time.perf_counter()
        records += one_pass(cli, plan, args.work, pass_no)
        pass_no += 1
        now = time.perf_counter()
        fastest = min(fastest, now - pass_started)
        if now - started + fastest > args.seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (args.work / args.out).write_text(json.dumps(
        {"passes": pass_no, "peak_rss_mb": peak_kib / 1024, "records": records}))
    return 0


if __name__ == "__main__":
    import_package()
    sys.exit(main())
