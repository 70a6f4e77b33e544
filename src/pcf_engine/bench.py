"""Desk-scale experiments behind `pcf bench`: engine scaling and epsilon sweeps."""

from __future__ import annotations

import gc
import json
from itertools import islice
from time import perf_counter

from . import corpus, engine, generator

# Fixed shape for the scaling benchmark: objects scale with websites so the
# per-object sibling count stays constant and total work stays linear.
BENCH_CLAIMS_PER_SITE = 4
BENCH_EPOCHS = 2
BENCH_CORRUPTION = 0.3
BENCH_REPEATS = 7


def epsilon_sweep(
    state: corpus.TrustState, epsilons: list[float]
) -> list[tuple[float, float]]:
    """Mean implication factor over all same-object fact pairs per epsilon.

    Each unordered pair is counted once, oriented by ascending fact id, and
    the factors are added left to right from 0.0 in group order. The pairs
    are walked anew for each epsilon, not kept, and each distinct
    (p_low, p_high) value pair's factor is computed once per epsilon, so
    memory grows with the facts and the distinct value pairs, not with the
    pairs. An epsilon that :class:`~pcf_engine.corpus.EngineConfig` refuses
    raises ValueError before any row is computed.
    """
    for eps in epsilons:
        corpus.EngineConfig(epsilon=eps)
    ix = engine.build_index(state)
    groups = [[ix.facts[k].pcf for k in group] for group in ix.groups]
    n_pairs = sum(len(values) * (len(values) - 1) // 2 for values in groups)

    rows = []
    for eps in epsilons:
        total = 0.0
        # p_low -> {p_high: implication_factor(p_low, p_high, eps)}
        factors: dict[float, dict[float, float]] = {}
        for values in groups:
            for i, p_low in enumerate(values):
                row = factors.get(p_low)
                if row is None:
                    row = factors[p_low] = {}
                for p_high in islice(values, i + 1, None):
                    factor = row.get(p_high)
                    if factor is None:
                        factor = row[p_high] = engine.implication_factor(p_low, p_high, eps)
                    total += factor
        rows.append((eps, total / n_pairs if n_pairs else 0.0))
    return rows


def _reference_seconds() -> float:
    """Time a fixed stdlib job of the kinds the engine does: JSON, dicts, strings, floats, sorts."""
    started = perf_counter()
    items = {f"http://site-{i}.example/{i % 7}": i * 0.37 for i in range(2000)}
    back = json.loads(json.dumps(items))
    total = 0.0
    for url, value in back.items():
        total += value * value if "1" in url else value
    sorted(back, key=back.get)
    return perf_counter() - started


def scaling_bench(sizes: list[int], seed: int = 0) -> list[tuple[int, int, float, float]]:
    """Time corpus preparation and the scoring+epoch pipeline per corpus size.

    Returns (n_websites, n_facts, data_seconds, engine_seconds) rows; the
    engine column excludes all data generation and table building. The host
    may run the same code at speeds far apart, changing within milliseconds,
    so each of the ``BENCH_REPEATS`` timed runs is divided by the mean time
    of a fixed stdlib reference job run just before and just after it. The
    column is a size's median ratio times the median reference time of the
    whole call, which keeps it in seconds. The median, not the best ratio:
    a reference job that a host stall slowed makes its repeat's ratio too
    small, and the best ratio would pick exactly that repeat. The repeats
    run in rounds that visit every size in turn, so that a slow spell of the
    host lands in one repeat of several sizes, not in every repeat of one
    size. As in ``timeit``, the garbage collector is off while a repeat and
    its reference jobs are timed, so a collection triggered by an earlier
    allocation does not land in one size's timing.
    """
    # Imported here: `statistics` pulls in `decimal`, `fractions` and
    # `random`, about 0.6 MB of memory that every other command would pay,
    # since the CLI imports this module.
    from statistics import median

    config = corpus.EngineConfig(max_epochs=BENCH_EPOCHS, convergence_tol=0.0)
    corpora = []
    for n in sizes:
        spec = generator.GenSpec(
            n_websites=n,
            n_objects=n,
            claims_per_site=BENCH_CLAIMS_PER_SITE,
            corruption_rate=BENCH_CORRUPTION,
            seed=seed,
        )
        t0 = perf_counter()
        kb_records = generator.generate_kb(spec)
        claims = corpus.canonical_claims(generator.generate_claims(spec, kb_records))
        kb = {book.object: book for book in kb_records}
        n_facts = len(corpus.build_state(kb, claims).facts)
        corpora.append((n, n_facts, perf_counter() - t0, kb, claims))

    ratios: list[list[float]] = [[] for _ in corpora]
    references = []
    for _ in range(BENCH_REPEATS):
        for i, (_, _, _, kb, claims) in enumerate(corpora):
            # The engine updates the state it runs on, so each repeat
            # starts from a fresh one, built before the timer starts.
            state = corpus.build_state(kb, claims, config)
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                before = _reference_seconds()
                t1 = perf_counter()
                engine.run(engine.assign_pcf(state))
                took = perf_counter() - t1
                reference = (before + _reference_seconds()) / 2
            finally:
                if gc_was_enabled:
                    gc.enable()
            references.append(reference)
            ratios[i].append(took / reference)
    scale = median(references) if references else 0.0
    return [
        (n, n_facts, data_seconds, median(size_ratios) * scale)
        for (n, n_facts, data_seconds, _, _), size_ratios in zip(corpora, ratios)
    ]
