"""Workload shapes, the reference job, the seeded needle list and the package import shared by the benchmark processes."""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# `pcf run --epochs 3 --tol 0`: a zero tolerance makes every commit run the
# same number of epochs whatever the convergence.
EPOCHS = 3
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"


@dataclass(frozen=True)
class Shape:
    websites: int
    objects: int
    claims_per_site: int
    corruption: float
    # If set, the workload has exactly ``websites`` sites with one claim each,
    # making exactly this many distinct facts: claims are drawn in order from
    # a longer stream, and a claim that would add a fact past this cap is
    # skipped.
    distinct_facts: int = 0
    # If set, for a one-ISBN shape: the ISBN is the first book of a
    # POOL-book KB drawn from the seed that has exactly this many true
    # authors and whose title holds "vol 1", the query mix's substring
    # needle. The generator gives a book one to three authors, and the
    # matchers' work grows with them.
    true_authors: int = 0


POOL = 200


# Sized so that a run holds tens of passes, `compare` included, for the
# median over passes.
SHAPES = {
    # Many sites with few claims each over many ISBNs (about 2 facts per
    # ISBN): corpus I/O, assign_pcf and the per-epoch state copy dominate,
    # and each query scans the most titles.
    "wide": Shape(websites=400, objects=400, claims_per_site=4, corruption=0.3),
    # Eight claims per site over few ISBNs (64 providers and about 18 facts
    # per ISBN): sites with many facts load the trust stage, and `compare`
    # re-scores every fact with the weighted name matcher. Runs by name; not
    # declared in BENCHMARK.json, whose run budget holds two workloads.
    "mixed": Shape(websites=600, objects=75, claims_per_site=8, corruption=0.6),
    # 600 sites claim the one ISBN, which has two true authors, with
    # corrupted author lists, making exactly 120 distinct facts: the quadratic
    # sibling implication step dominates, and the corpus, 600 sites and
    # 120 x 119 sibling pairs per epoch, is the same size at every seed.
    "hot_object": Shape(websites=600, objects=1, claims_per_site=1, corruption=1.0,
                        distinct_facts=120, true_authors=2),
}

# The host runs the same code at speeds up to ~1.7x apart, switching every
# few milliseconds and drifting for minutes at a time, so raw wall times of
# one run say more about the host than about the program. Every timed call
# is bracketed by two calls of `reference`, a fixed pure-Python job, and the
# benchmark reports each call's time over the mean of its two reference
# times, scaled by REFERENCE_S: the call's wall time on a host where
# `reference` takes REFERENCE_S, close to its time on an unloaded core of a
# 2-vCPU Xeon KVM guest (3.2-3.5 ms).
REFERENCE_S = 0.003


def reference() -> tuple:
    """A fixed job of the kinds the program does: JSON, dicts, strings, floats, sorts."""
    items = {f"http://site-{i}.example/{i % 7}": i * 0.37 for i in range(2000)}
    back = json.loads(json.dumps(items))
    hosts = sorted(url.split("/")[2] for url in back)
    total = 0.0
    for url, value in back.items():
        total += value * value if "1" in url else value
    ranked = sorted(back, key=back.get, reverse=True)
    return total, ranked[0], len(hosts)


def reference_seconds() -> float:
    started = perf_counter()
    reference()
    return perf_counter() - started


def import_package():
    """Import pcf_engine from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import pcf_engine

    if Path(pcf_engine.__file__).resolve().parent != SRC / "pcf_engine":
        raise ImportError(f"pcf_engine imported from {pcf_engine.__file__}, not {SRC}")
    return pcf_engine


def needles(books: list, seed: int) -> list[list]:
    """The fixed query mix as [needle, method, top] triples, drawn from ``seed``.

    Two ISBN hits, two title-substring needles (``vol 1`` matches every
    volume number starting with 1; two title words, upper-cased to exercise
    normalisation) and two misses, over all three methods.
    """
    rng = random.Random(f"needles:{seed}")
    words = rng.choice(books).title.split()
    return [
        [rng.choice(books).object, "pcf", 10],
        [rng.choice(books).object, "truthfinder", 10],
        ["vol 1", "voting", 50],
        [" ".join(words[:2]).upper(), "pcf", 10],
        [str(9790000000000 + rng.randrange(10**6)), "truthfinder", 10],
        [f"no such title {rng.randrange(10**6)}", "voting", 10],
    ]
