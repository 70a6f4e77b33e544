"""pcf-engine benchmark: one workload at one seed, run from the repository root.

    python3 perfbench/run.py --workload {wide,hot_object,mixed} --seed N --seconds S --trace {0,1}

Set-up generates the workload's KB and claims files from the seed with
pcf_engine.generator, several times before and after each client process
(``setup_s`` is their median). The program then sees only those files, driven from fresh
child processes:

* ``--trace 0``: e2e.py, one closed-loop client calling cli.main in-process,
  repeats `ingest -> run --epochs 3 --tol 0 -> compare -> query` passes, in
  three processes one after another, for about S seconds in all; prints the
  end-to-end metrics. Each time, set-up's too, is the median over the run of
  the time at the reference speed (common.REFERENCE_S), with the raw wall
  times' minimum, median and maximum beside it.
* ``--trace 1``: one untraced e2e.py pass, then one traced.py pass with a
  span around every layer call; prints the per-layer metrics, the tracing
  overhead (traced minus untraced e2e time) and writes the spans to
  ``perfbench/_work/<run>/spans.json``.

oracle.py, in a process of its own, then checks every output; a non-zero
exit, an exception or an oracle mismatch fails the operation. The last line
of stdout is the JSON result: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from time import perf_counter

from common import (POOL, REFERENCE_S, ROOT, SHAPES, SRC, WORK, import_package, needles,
                    reference_seconds)

# The client runs in this many fresh processes, one after another, with
# set-up repeated before the first and after each, so that set-up's samples
# spread over the run: the host's speed drifts over tens of seconds.
CLIENTS = 3
# Set-up repeats at least this often and for at least this long each time.
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5
# Every run, children included, must end well within 180 s.
DEADLINE_S = 170
# Inputs and state snapshots are large; the records, spans and verdicts stay.
KEEP = {"plan.json", "e2e.json", "traced.json", "spans.json", "oracle.json"}
E2E_UNITS = {"setup_s": "s", "ingest_s": "s", "run_s": "s", "compare_s": "s",
             "query_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def commit() -> str:
    """HEAD's commit id, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pcf_engine").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def make_inputs(shape, seed: int) -> tuple[list, list]:
    """The KB records and claims of ``shape`` at ``seed``, from the generator.

    A shape with ``true_authors`` keeps one book of a larger generated KB
    (see common.Shape). A shape with ``distinct_facts`` draws one claim per site, in site order,
    from a stream four times as long as it needs, and keeps the claims in
    order, skipping each that would add a fact past the cap, until it has
    ``websites`` of them.
    """
    from pcf_engine import corpus, generator

    n_websites = shape.websites * 4 if shape.distinct_facts else shape.websites
    spec = generator.GenSpec(n_websites=n_websites, n_objects=shape.objects,
                             claims_per_site=shape.claims_per_site,
                             corruption_rate=shape.corruption, seed=seed)
    books = generator.generate_kb(spec)
    if shape.true_authors:
        assert shape.objects == 1
        pool = generator.generate_kb(replace(spec, n_objects=POOL))
        books = [next(book for book in pool if len(book.authors) == shape.true_authors
                      and "vol 1" in book.title)]
    claims = generator.generate_claims(spec, books)
    if not shape.distinct_facts:
        return books, claims
    assert shape.claims_per_site == 1
    kept, facts = [], set()
    for claim in claims:
        fact = (claim.object, corpus.canonical_authors(claim.authors))
        if fact in facts or len(facts) < shape.distinct_facts:
            facts.add(fact)
            kept.append(claim)
            if len(kept) == shape.websites:
                break
    if len(kept) < shape.websites or len(facts) < shape.distinct_facts:
        raise RuntimeError(f"{n_websites} drawn sites make {len(kept)} sites over {len(facts)} facts")
    return books, kept


def set_up(shape, seed: int, plan: dict, repeats: int, seconds: float) -> tuple[list[float], list]:
    """Generate and write the input files ``repeats`` times and for ``seconds``.

    Returns each repeat's time over the mean of the reference jobs run just
    before and after it, and the KB records.
    """
    from pcf_engine import generator

    ratios, spent, digests = [], 0.0, set()
    while len(ratios) < repeats or spent < seconds:
        gc.collect()
        before = reference_seconds()
        started = perf_counter()
        books, claims = make_inputs(shape, seed)
        generator.write_kb_file(plan["kb"], books)
        generator.write_claims_file(plan["claims"], claims)
        took = perf_counter() - started
        ratios.append(took / ((before + reference_seconds()) / 2))
        spent += took
        digests.add(Path(plan["kb"]).read_bytes() + Path(plan["claims"]).read_bytes())
    if len(digests) != 1:
        raise RuntimeError("the generator wrote different files for the same seed")
    return ratios, books


def child(script: str, work: Path, deadline: float, *extra: str) -> None:
    """Run a benchmark script in a fresh interpreter and wait for it to end."""
    timeout = deadline - perf_counter()
    cmd = [sys.executable, str(Path(__file__).with_name(script)), "--work", str(work), *extra]
    done = subprocess.run(cmd, cwd=ROOT, timeout=max(timeout, 1))
    if done.returncode != 0:
        raise RuntimeError(f"{script} exited with {done.returncode}")


def merge_clients(work: Path) -> None:
    """Join the client processes' records into e2e.json, numbering passes on."""
    merged = {"passes": 0, "peak_rss_mb": 0.0, "records": []}
    for client in range(CLIENTS):
        path = work / f"e2e-{client}.json"
        part = json.loads(path.read_text())
        path.unlink()
        for record in part["records"]:
            record["pass_no"] += merged["passes"]
        merged["records"] += part["records"]
        merged["passes"] += part["passes"]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], part["peak_rss_mb"])
    (work / "e2e.json").write_text(json.dumps(merged))


def failures(records: list[dict], verdicts: list[list[str]]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, with the first errors."""
    checked = [(r, v) for r, v in zip(records, verdicts) if r["op"] != "counts"]
    errors = [err for _, v in checked for err in v]
    return len(checked), sum(1 for _, v in checked if v), errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "pcf_engine" / "cli.py").is_file():
        print(f"error: no pcf_engine sources under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    import_package()

    shape = SHAPES[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = {"kb": str(work / "kb.jsonl"), "claims": str(work / "claims.csv"),
            "state": str(work / "state.json")}
    repeats, min_seconds = (1, 0.0) if args.trace else (SETUP_REPEATS, SETUP_SECONDS)
    setup_ratios, books = set_up(shape, args.seed, plan, repeats, min_seconds)
    plan["needles"] = needles(books, args.seed)
    (work / "plan.json").write_text(json.dumps(plan, indent=1))

    if args.trace:
        child("e2e.py", work, deadline, "--seconds", "0", "--out", "e2e.json")
        child("traced.py", work, deadline)
    else:
        for client in range(CLIENTS):
            child("e2e.py", work, deadline, "--seconds", str(args.seconds / CLIENTS),
                  "--out", f"e2e-{client}.json")
            setup_ratios += set_up(shape, args.seed, plan, repeats, min_seconds)[0]
        merge_clients(work)
    child("oracle.py", work, deadline)

    e2e = json.loads((work / "e2e.json").read_text())
    oracle = json.loads((work / "oracle.json").read_text())
    attempted, failed, errors = failures(e2e["records"], oracle["verdicts"]["e2e"])
    # Per op, one sample per pass: wall seconds and the call's time over its
    # reference time, each the mean over the pass's calls of the op. For
    # queries that is the fixed needle mix, so each sample holds the same
    # cheap misses and full scans.
    by_pass: dict[str, dict[int, list[dict]]] = {}
    for r in e2e["records"]:
        by_pass.setdefault(r["op"], {}).setdefault(r["pass_no"], []).append(r)
    seconds, ratios = {}, {}
    for op in ("ingest", "run", "compare", "query"):
        calls = by_pass[op].values()
        seconds[op] = [statistics.mean(r["seconds"] for r in rs) for rs in calls]
        ratios[op] = [statistics.mean(r["seconds"] / r["ref_seconds"] for r in rs) for rs in calls]
    if args.trace:
        traced = json.loads((work / "traced.json").read_text())
        more = failures(traced["records"], oracle["verdicts"]["traced"])
        attempted, failed, errors = attempted + more[0], failed + more[1], errors + more[2]
        values = dict(traced["metrics"])
        untraced = sum(r["seconds"] for r in e2e["records"])
        values["trace.overhead_s"] = traced["traced_e2e_s"] - untraced
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        # Times at the reference speed (see common.REFERENCE_S): the median
        # over the run's samples of time over reference time, in seconds.
        values = {"setup_s": REFERENCE_S * statistics.median(setup_ratios),
                  **{f"{op}_s": REFERENCE_S * statistics.median(r) for op, r in ratios.items()},
                  "peak_rss_mb": e2e["peak_rss_mb"]}
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}

    for path in work.iterdir():
        if path.name not in KEEP:
            path.unlink()
    for err in errors[:10]:
        print(f"oracle: {err}", file=sys.stderr)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": commit(), "src_sha256": src_digest(), "shape": asdict(shape),
            "counts": oracle["counts"], "client": "closed loop, 1 caller, cli.main in-process",
            "passes": e2e["passes"], "samples": {op: len(s) for op, s in seconds.items()},
            "calls": {op: sum(map(len, by_pass[op].values())) for op in seconds},
            "setup_samples": len(setup_ratios), "reference_s": REFERENCE_S,
            "needles": plan["needles"]}
    print("# " + json.dumps(info))
    for name, metric in metrics.items():
        print(f"{name:32} {metric['value']:14.6f} {metric['unit']}")
    if not args.trace:
        for op, s in seconds.items():
            ranked = [REFERENCE_S * r for r in sorted(ratios[op])]
            # The highest percentile with ten samples above it.
            k = len(ranked) - 11
            high = f"p{100 * (k + 1) // len(ranked)} {ranked[k]:.6f}, " if k >= 0 else ""
            print(f"# {op}_s over {len(s)} passes: wall min {min(s):.6f}, median "
                  f"{statistics.median(s):.6f}, max {max(s):.6f}; at the reference speed "
                  f"min {ranked[0]:.6f}, median {statistics.median(ranked):.6f}, "
                  f"{high}max {ranked[-1]:.6f}")
    print(f"{'error_rate':32} {failed / attempted:14.6f} ratio ({failed}/{attempted})")
    if args.trace:
        print(f"spans: {work / 'spans.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
