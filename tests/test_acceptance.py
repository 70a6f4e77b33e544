"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line on the terminal (bypassing
capture) so a full run reads as a checklist.
"""

import random
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest
from scipy import stats

from pcf_engine import baselines, bench, cli, corpus, engine, generator, similarity

from conftest import CORE_TRUTH, W1, W2, Claim, core_java_claims, make_claim, one_epoch

ONE_EPOCH = corpus.EngineConfig(max_epochs=1)


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {number} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {number} ({label}): PASS")


def test_1_worked_example_golden(capsys, core_java_kb):
    with criterion(capsys, 1, "worked-example golden values"):
        started = perf_counter()
        name_scores = [
            similarity.name_pcf("cay s horstmenn", CORE_TRUTH),
            similarity.name_pcf("gary", CORE_TRUTH),
            similarity.name_pcf("horstmenn", CORE_TRUTH),
            similarity.name_pcf("corne", CORE_TRUTH),
        ]
        assert name_scores == pytest.approx([1.0, 0.33333, 0.6, 0.41667], abs=1e-3)

        state = engine.assign_pcf(corpus.build_state(core_java_kb, corpus.canonical_claims(core_java_claims())))
        state, _ = one_epoch(state)
        assert state.websites[W2].trust == pytest.approx(0.50833, abs=1e-3)
        assert state.websites[W1].trust == pytest.approx(0.66667, abs=1e-3)
        assert perf_counter() - started < 1.0


def test_2_implication_cases(capsys):
    with criterion(capsys, 2, "implication cases"):
        assert engine.implication_factor(0.7, 0.2, 0.4) == pytest.approx(0.1, abs=1e-12)
        assert engine.implication_factor(0.6, 0.2, 0.4) == pytest.approx(0.4, abs=1e-12)
        assert engine.implication_factor(0.2, 0.7, 0.4) == pytest.approx(0.9, abs=1e-12)


def test_3_exact_copy_trust_is_one(capsys):
    with criterion(capsys, 3, "exact copies reach trust 1 in epoch 1"):
        for seed in range(120):
            rng = random.Random(seed)
            spec = generator.GenSpec(
                n_websites=1,
                n_objects=rng.randint(1, 5),
                claims_per_site=1,
                corruption_rate=0.0,
                seed=seed,
            )
            kb_records = generator.generate_kb(spec)
            kb = {book.object: book for book in kb_records}
            claims = []
            exact_sites = []
            for site_index in range(rng.randint(1, 4)):
                url = f"http://copy-{site_index}.example.net"
                exact_sites.append(url)
                for book in kb_records:
                    claims.append(make_claim(url, book.object, book.authors))
            for site_index in range(rng.randint(0, 3)):
                url = f"http://noisy-{site_index}.example.net"
                for book in kb_records:
                    claims.append(
                        make_claim(
                            url,
                            book.object,
                            generator.corrupt_authors(rng, book.authors, 1.0),
                        )
                    )
            state = engine.assign_pcf(corpus.build_state(kb, corpus.canonical_claims(claims)))
            state, _ = one_epoch(state)
            for url in exact_sites:
                assert state.websites[url].trust == 1.0


def test_4_probability_bounds_suite(capsys):
    with criterion(capsys, 4, "probability bounds over randomized corpora"):
        for seed in range(1000):
            rng = random.Random(seed)
            epsilon = rng.random()
            spec = generator.GenSpec(
                n_websites=rng.randint(2, 5),
                n_objects=rng.randint(1, 4),
                claims_per_site=rng.randint(1, 3),
                corruption_rate=rng.random(),
                seed=seed,
            )
            kb_records = generator.generate_kb(spec)
            kb = {book.object: book for book in kb_records}
            claims = corpus.canonical_claims(generator.generate_claims(spec, kb_records))
            state = corpus.build_state(
                kb,
                claims,
                corpus.EngineConfig(epsilon=epsilon, max_epochs=2, convergence_tol=0.0),
            )
            state, _ = engine.run(engine.assign_pcf(state))
            for site in state.websites.values():
                assert 0.0 <= site.trust <= 1.0
            ix = engine.build_index(state)
            trust = [site.trust for site in ix.sites]
            for fact, confidence in zip(ix.facts, engine.confidences(ix, trust)):
                assert 0.0 <= confidence <= 1.0
                assert 0.0 <= fact.adjusted_confidence <= 1.0

            # damp is idempotent on arbitrary non-negative inputs.
            value = rng.uniform(0.0, 50.0)
            damped = engine.damp(value)
            assert engine.damp(damped) == damped

            # Confidence is monotone in any single provider trust.
            k = rng.randrange(len(ix.facts))
            base = engine.confidences(ix, trust)[k]
            bumped = ix.fact_providers[k][rng.randrange(len(ix.fact_providers[k]))]
            trust[bumped] = min(1.0, trust[bumped] + rng.random())
            assert engine.confidences(ix, trust)[k] >= base

            # Pair-sum identity for |delta| <= epsilon, away from the
            # delta == epsilon carve-out which returns epsilon by design.
            p1, p2 = rng.random(), rng.random()
            if abs(p1 - p2) <= epsilon and abs(abs(p1 - p2) - epsilon) > 1e-9:
                total = engine.implication_factor(p1, p2, epsilon)
                total += engine.implication_factor(p2, p1, epsilon)
                assert total == pytest.approx(2 * epsilon, abs=1e-12)


def test_5_epsilon_sweep_trend(capsys):
    with criterion(capsys, 5, "mean implication affine in epsilon, slope 1"):
        # Both objects carry one weak claim (low id) and one exact claim
        # (high id), so every id-ordered pair has a negative difference.
        kb = {
            "100": corpus.TrueFact(object="100", authors=["alice example"]),
            "200": corpus.TrueFact(object="200", authors=["bob stone"]),
        }
        claims = [
            make_claim("http://weak.com", "100", ["alic"]),
            make_claim("http://exact.com", "100", ["alice example"]),
            make_claim("http://weak.com", "200", ["bob"]),
            make_claim("http://exact.com", "200", ["bob stone"]),
        ]
        state = engine.assign_pcf(corpus.build_state(kb, corpus.canonical_claims(claims)))
        for fact in state.facts.values():
            sibling_ids = [
                f.fact_id
                for f in state.facts.values()
                if f.object == fact.object and f.fact_id > fact.fact_id
            ]
            for sid in sibling_ids:
                assert fact.pcf - state.facts[sid].pcf < 0

        epsilons = [round(0.05 * i, 2) for i in range(11)]
        rows = bench.epsilon_sweep(state, epsilons)
        xs = np.array([eps for eps, _ in rows])
        ys = np.array([mean for _, mean in rows])
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope == pytest.approx(1.0, abs=1e-9)
        assert all(b > a for a, b in zip(ys, ys[1:]))


def test_6_linear_scaling_trend(capsys):
    with criterion(capsys, 6, "engine time linear in website count"):
        started = perf_counter()
        rows = bench.scaling_bench([50, 100, 200, 400, 800], seed=7)
        elapsed = perf_counter() - started
        assert elapsed < 60.0
        xs = np.array([n for n, _, _, _ in rows], dtype=float)
        ys = np.array([engine_s for _, _, _, engine_s in rows])
        r = np.corrcoef(xs, ys)[0, 1]
        assert r * r >= 0.95


def _per_site_corruption_corpus(seed, n_objects=50, claims_per_site=60, sites_per_rate=15):
    spec = generator.GenSpec(
        n_websites=1,
        n_objects=n_objects,
        claims_per_site=1,
        corruption_rate=0.0,
        seed=seed,
    )
    kb_records = generator.generate_kb(spec)
    kb = {book.object: book for book in kb_records}
    rng = random.Random(seed + 100)
    claims = []
    rates = {}
    site_index = 0
    for rate in (0.0, 0.3, 0.6):
        for _ in range(sites_per_rate):
            site_index += 1
            url = f"http://site-{site_index:03d}.example.net"
            rates[url] = rate
            for j in range(claims_per_site):
                book = kb_records[(site_index * claims_per_site + j) % n_objects]
                claims.append(
                    Claim(
                        website=url,
                        object=book.object,
                        authors=generator.corrupt_authors(rng, book.authors, rate),
                    )
                )
    # As ingest stores it: the pcf baseline reads each fact's stored pcf.
    return engine.assign_pcf(corpus.build_state(kb, corpus.canonical_claims(claims), ONE_EPOCH)), rates


def test_7_method_comparison_substitute(capsys):
    with criterion(capsys, 7, "corruption anticorrelates with trust; method ordering"):
        # Part a: over seeded corpora mixing clean, 30%- and 60%-corrupted
        # sites, corruption rate and epoch-1 trust anticorrelate strongly.
        for seed in (0, 1, 2):
            state, rates = _per_site_corruption_corpus(seed)
            trusts = baselines.pcf_run(state, engine.build_index(state))
            urls = sorted(rates)
            rho = stats.spearmanr(
                [rates[u] for u in urls], [trusts[u] for u in urls]
            ).statistic
            assert rho <= -0.9

        # Part b: a claim two edits from the truth fails the substring gate
        # (similarity 0) but still earns half part-weights, and voting only
        # grants the truthful site its vote share.
        kb = {"100": corpus.TrueFact(object="100", authors=["graeme c simsion"])}
        claims = [
            make_claim("http://truthful.com", "100", ["graeme c simsion"]),
            make_claim("http://mangled-a.com", "100", ["graeme simsio"]),
            make_claim("http://mangled-b.com", "100", ["graeme simsio"]),
        ]
        state = engine.assign_pcf(corpus.build_state(kb, corpus.canonical_claims(claims), ONE_EPOCH))
        ix = engine.build_index(state)
        pcf = baselines.pcf_run(state, ix)
        tf = baselines.truthfinder_run(state, ix)
        voting = baselines.voting_run(state, ix)
        for url in ("http://mangled-a.com", "http://mangled-b.com"):
            assert pcf[url] == 0.0
            assert pcf[url] < tf[url]
        assert voting["http://truthful.com"] == pytest.approx(1 / 3)
        assert voting["http://truthful.com"] < 1.0


def test_8_determinism(capsys, tmp_path):
    with criterion(capsys, 8, "byte-identical runs and generation"):
        kb_a, claims_a = tmp_path / "a.jsonl", tmp_path / "a.csv"
        kb_b, claims_b = tmp_path / "b.jsonl", tmp_path / "b.csv"
        gen_flags = [
            "--websites", "8",
            "--objects", "5",
            "--claims-per-site", "3",
            "--corruption", "0.5",
            "--seed", "21",
        ]
        assert cli.main(["gen", *gen_flags, "--out-kb", str(kb_a), "--out-claims", str(claims_a)]) == 0
        assert cli.main(["gen", *gen_flags, "--out-kb", str(kb_b), "--out-claims", str(claims_b)]) == 0
        assert kb_a.read_bytes() == kb_b.read_bytes()
        assert claims_a.read_bytes() == claims_b.read_bytes()

        state_a = tmp_path / "state_a.json"
        state_b = tmp_path / "state_b.json"
        assert cli.main(
            ["ingest", "--kb", str(kb_a), "--claims", str(claims_a), "--state", str(state_a)]
        ) == 0
        state_b.write_bytes(state_a.read_bytes())
        assert cli.main(["run", "--state", str(state_a), "--epochs", "5"]) == 0
        assert cli.main(["run", "--state", str(state_b), "--epochs", "5"]) == 0
        assert state_a.read_bytes() == state_b.read_bytes()
