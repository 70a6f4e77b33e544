"""The traced run: one end-to-end pass with a span around every layer call.

Wraps the public functions of `corpus`, `engine`, `baselines` and `serp`,
and the `cli.cmd_*` commands, in spans (name, start, end, parent), then drives
the same pass as the untraced client, e2e.one_pass through cli.main, so the
per-layer metrics time the program's own path. The wrappers are module
attributes: cli calls the layers through their modules, `engine.run` looks up
`run_epoch` as a module global and `serp.query` looks up `rank_websites`, so
each call is seen with its caller as parent. `engine.run_epoch` spans under
`engine.run` are the `pcf run` epochs; those under `baselines.*_run` are the
`compare` re-runs. `engine` and the baselines bind `similarity.fact_pcf` and
`tf_name_score` directly, so probe spans time those over every fact, on the
inputs `assign_pcf` and `truthfinder_run` use. Spans stay in memory and are
written to ``spans.json`` at the end, with the derived metrics in
``traced.json``.

    python3 perfbench/traced.py --work DIR
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter
from unittest import mock

from common import import_package
from e2e import one_pass

# The functions wrapped in spans, by pcf_engine module.
LAYERS = {
    "corpus": ("load_knowledge_base", "load_claims", "build_state", "save_state", "load_state"),
    "engine": ("assign_pcf", "run", "run_epoch"),
    "baselines": ("voting_run", "truthfinder_run", "pcf_run"),
    "serp": ("query", "serp_tsv", "rank_websites"),
    "cli": ("cmd_ingest", "cmd_run", "cmd_compare", "cmd_query"),
}


def epoch_stages(result) -> dict:
    """The stage timers of the EpochReport that run_epoch returns."""
    _, report = result
    return {"stages_s": {"trust": report.trust_seconds,
                         "confidence": report.confidence_seconds,
                         "implication": report.implication_seconds}}


class Tracer:
    """Collects nested spans in memory; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self._open.pop()

    def wrapped(self, module, attr: str, note=None):
        """``module.attr`` called inside a span; ``note(result)`` adds fields to it."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.update(note(result))
            return result

        return traced

    def summary(self) -> dict:
        """Calls, total and self time per span name.

        Self time is a span's duration minus that of its direct children,
        which run one after another inside it.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span["end"] - span["start"]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[span["id"]]
        return out

    def named(self, name: str, parent: str | None = None) -> list[dict]:
        """Spans called ``name``, only those directly under a ``parent`` span if given."""
        return [s for s in self.spans if s["name"] == name and (
            parent is None or s["parent"] is not None and self.spans[s["parent"]]["name"] == parent)]

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.named(name)]


def traced_pass(tr: Tracer, plan: dict, work: Path) -> list[dict]:
    from pcf_engine import cli, corpus, similarity

    with contextlib.ExitStack() as patches:
        for module_name, attrs in LAYERS.items():
            module = importlib.import_module(f"pcf_engine.{module_name}")
            for attr in attrs:
                note = epoch_stages if attr == "run_epoch" else None
                patches.enter_context(mock.patch.object(module, attr, tr.wrapped(module, attr, note)))
        records = one_pass(cli, plan, work, 0)

    # The scorers' inputs as assign_pcf and truthfinder_run see them, read
    # back from the state that ingest wrote.
    ingested = corpus.load_state(work / records[0]["artifact"])
    pairs = [(fact.authors, ingested.kb[fact.object].authors)
             for fact in ingested.facts.values() if fact.object in ingested.kb]
    gc.collect()
    with tr.span("probe"):
        with tr.span("similarity.fact_pcf"):
            for claimed, true in pairs:
                similarity.fact_pcf(claimed, true)
        with tr.span("similarity.tf_name_score"):
            for claimed, true in pairs:
                similarity.tf_name_score(claimed, true)

    sizes: dict[str, int] = {}
    for fact in ingested.facts.values():
        sizes[fact.object] = sizes.get(fact.object, 0) + 1
    records.append({"op": "counts",
                    "corpus.websites": len(ingested.websites),
                    "corpus.facts": len(ingested.facts),
                    "corpus.objects": len(sizes),
                    "corpus.provider_edges": sum(len(f.providers) for f in ingested.facts.values()),
                    "engine.sibling_pairs": sum(k * (k - 1) for k in sizes.values()),
                    "corpus.state_bytes": Path(plan["state"]).stat().st_size})
    return records


def layer_metrics(tr: Tracer, records: list[dict]) -> dict[str, float]:
    med = statistics.median
    metrics = {f"{name}_s": med(tr.durations(name)) for name in (
        "corpus.load_knowledge_base", "corpus.load_claims", "corpus.build_state",
        "corpus.save_state", "corpus.load_state", "similarity.fact_pcf",
        "engine.assign_pcf", "similarity.tf_name_score", "baselines.truthfinder_run",
        "baselines.pcf_run", "baselines.voting_run", "serp.rank_websites", "serp.serp_tsv")}
    # The `pcf run` epochs, not the baselines' re-runs in `compare`.
    epochs = tr.named("engine.run_epoch", parent="engine.run")
    metrics["engine.epoch_s"] = med(s["end"] - s["start"] for s in epochs)
    metrics["engine.unstaged_s"] = med(
        s["end"] - s["start"] - sum(s["stages_s"].values()) for s in epochs)
    for stage in ("trust", "confidence", "implication"):
        metrics[f"engine.{stage}_s"] = med(s["stages_s"][stage] for s in epochs)
    metrics["serp.query_ms"] = 1000 * med(tr.durations("serp.query"))
    metrics["serp.rows"] = sum(len(r["stdout"].splitlines()) for r in records if r["op"] == "query")
    metrics.update({k: v for r in records if r["op"] == "counts" for k, v in r.items() if k != "op"})
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    plan = json.loads((args.work / "plan.json").read_text())
    tr = Tracer()
    records = traced_pass(tr, plan, args.work)
    (args.work / "spans.json").write_text(json.dumps(
        {"spans": tr.spans, "summary": tr.summary()}, indent=1))
    (args.work / "traced.json").write_text(json.dumps({
        "records": records,
        "metrics": layer_metrics(tr, records),
        "traced_e2e_s": sum(r["seconds"] for r in records if r["op"] != "counts"),
    }))
    return 0


if __name__ == "__main__":
    import_package()
    sys.exit(main())
