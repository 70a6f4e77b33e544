"""Desk-scale experiments behind `pcf bench`: engine scaling and epsilon sweeps."""

from __future__ import annotations

import gc
from functools import reduce
from itertools import combinations
from operator import add
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

    Each unordered pair is counted once, oriented by ascending fact id. An
    epsilon that :class:`~pcf_engine.corpus.EngineConfig` refuses raises
    ValueError before any row is computed.
    """
    for eps in epsilons:
        corpus.EngineConfig(epsilon=eps)
    ix = engine.build_index(state)
    pairs = [
        (ix.facts[low].pcf, ix.facts[high].pcf)
        for group in ix.groups
        for low, high in combinations(group, 2)
    ]

    rows = []
    for eps in epsilons:
        if pairs:
            factors = (engine.implication_factor(p1, p2, eps) for p1, p2 in pairs)
            mean = reduce(add, factors, 0.0) / len(pairs)
        else:
            mean = 0.0
        rows.append((eps, mean))
    return rows


def scaling_bench(sizes: list[int], seed: int = 0) -> list[tuple[int, int, float, float]]:
    """Time corpus preparation and the scoring+epoch pipeline per corpus size.

    Returns (n_websites, n_facts, data_seconds, engine_seconds) rows; the
    engine column is the best of ``BENCH_REPEATS`` timed runs and excludes
    all data generation and table building. The repeats run in rounds that
    visit every size in turn, so that a slow spell of the host lands in one
    repeat of several sizes, not in every repeat of one size. As in
    ``timeit``, the garbage collector is off while a repeat is timed, so a
    collection triggered by an earlier allocation does not land in one
    size's timing.
    """
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
        claims = generator.generate_claims(spec, kb_records)
        kb = {book.object: book for book in kb_records}
        n_facts = len(corpus.build_state(kb, claims).facts)
        corpora.append((n, n_facts, perf_counter() - t0, kb, claims))

    best = [float("inf")] * len(corpora)
    for _ in range(BENCH_REPEATS):
        for i, (_, _, _, kb, claims) in enumerate(corpora):
            # The engine updates the state it runs on, so each repeat
            # starts from a fresh one, built before the timer starts.
            state = corpus.build_state(kb, claims, config)
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                t1 = perf_counter()
                engine.run(engine.assign_pcf(state))
                best[i] = min(best[i], perf_counter() - t1)
            finally:
                if gc_was_enabled:
                    gc.enable()
    return [
        (n, n_facts, data_seconds, engine_seconds)
        for (n, n_facts, data_seconds, _, _), engine_seconds in zip(corpora, best)
    ]
