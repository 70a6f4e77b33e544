import copy

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pcf_engine import baselines, corpus, engine, generator, similarity

from conftest import make_claim
from test_similarity import reference_tf_name_score
from test_engine import NO_FACTS_CASE, SENTINEL_CASE, bits, facts_of, mean, stage_cases, stage_state

ONE_EPOCH = corpus.EngineConfig(max_epochs=1)


def state_of(kb, claims, config=None):
    return engine.assign_pcf(corpus.build_state(kb, corpus.canonical_claims(claims), config))


def run_voting(state):
    return baselines.voting_run(state, engine.build_index(state))


def run_truthfinder(state):
    return baselines.truthfinder_run(state, engine.build_index(state))


def run_pcf(state):
    return baselines.pcf_run(state, engine.build_index(state))


def simple_kb():
    return {
        "100": corpus.TrueFact(object="100", authors=["ann example", "bo sample"]),
        "200": corpus.TrueFact(object="200", authors=["cy other"]),
    }


class TestVoting:
    def test_three_to_one_split(self):
        kb = simple_kb()
        claims = [
            make_claim("http://a.com", "100", ["ann example", "bo sample"]),
            make_claim("http://b.com", "100", ["ann example", "bo sample"]),
            make_claim("http://c.com", "100", ["ann example", "bo sample"]),
            make_claim("http://d.com", "100", ["someone else"]),
        ]
        trusts = run_voting(state_of(kb, claims))
        assert trusts["http://a.com"] == pytest.approx(0.75)
        assert trusts["http://d.com"] == pytest.approx(0.25)

    def test_unanimous_corpus(self):
        kb = simple_kb()
        claims = [
            make_claim(url, isbn, truth.authors)
            for url in ("http://a.com", "http://b.com")
            for isbn, truth in kb.items()
        ]
        trusts = run_voting(state_of(kb, claims))
        assert all(t == 1.0 for t in trusts.values())

    def test_single_site_single_fact(self):
        kb = simple_kb()
        trusts = run_voting(
            state_of(kb, [make_claim("http://a.com", "100", ["ann example"])])
        )
        assert trusts["http://a.com"] == 1.0

    def test_shares_per_object_sum_to_one(self):
        kb = simple_kb()
        claims = [
            make_claim("http://a.com", "100", ["x y"]),
            make_claim("http://b.com", "100", ["z w"]),
            make_claim("http://c.com", "100", ["z w"]),
            make_claim("http://a.com", "200", ["cy other"]),
        ]
        state = state_of(kb, claims)
        result = run_voting(state)
        by_object = {}
        for fact in state.facts.values():
            by_object.setdefault(fact.object, []).append(fact)
        for obj, facts in by_object.items():
            total = sum(len(f.providers) for f in facts)
            shares = [len(f.providers) / total for f in facts]
            assert sum(shares) == pytest.approx(1.0)

    def test_every_website_appears(self, core_java_state):
        trusts = run_voting(core_java_state)
        assert list(trusts) == [site.url for site in engine.build_index(core_java_state).sites]
        assert set(trusts) == set(core_java_state.websites)

    @given(case=stage_cases())
    @example(case=SENTINEL_CASE)
    @example(case=NO_FACTS_CASE)
    def test_equals_the_reference_exactly(self, case):
        """Each fact's share of its object's votes, and each site's mean share from 0.0."""
        votes = {}
        for providers, obj in zip(case.providers, case.objects):
            votes[obj] = votes.get(obj, 0) + len(providers)
        share = [len(p) / votes[obj] for p, obj in zip(case.providers, case.objects)]
        expected = {}
        for site in range(len(case.trust)):
            own = [share[k] for k in facts_of(case, site)]
            expected[f"http://s{site}.example"] = mean(own) if own else 0.0
        got = run_voting(stage_state(case))
        assert list(got) == list(expected)
        assert bits(got.values()) == bits(expected.values())


class TestTruthfinder:
    def test_exact_copies_score_one_like_the_engine(self):
        kb = simple_kb()
        claims = [
            make_claim(url, isbn, truth.authors)
            for url in ("http://a.com", "http://b.com")
            for isbn, truth in kb.items()
        ]
        state = state_of(kb, claims, ONE_EPOCH)
        tf = run_truthfinder(state)
        pcf = run_pcf(state)
        assert all(t == 1.0 for t in tf.values())
        assert tf == pcf

    def test_dropped_middle_names_score_five_sixths_at_epoch_one(self):
        kb = {"100": corpus.TrueFact(object="100", authors=["graeme c simsion"])}
        claims = [make_claim("http://a.com", "100", ["graeme simsion"])]
        trusts = run_truthfinder(state_of(kb, claims, ONE_EPOCH))
        assert trusts["http://a.com"] == pytest.approx(5 / 6)

    def test_substring_gate_failure_ranks_below_weighted_matching(self):
        # The claim is two edits from the truth but not contained in it, so
        # the substring scorer gives 0 while weighted parts earn half credit.
        kb = {"100": corpus.TrueFact(object="100", authors=["graeme c simsion"])}
        claims = [make_claim("http://a.com", "100", ["graeme simsio"])]
        state = state_of(kb, claims, ONE_EPOCH)
        pcf = run_pcf(state)
        tf = run_truthfinder(state)
        assert pcf["http://a.com"] == 0.0
        assert tf["http://a.com"] > pcf["http://a.com"]


class TestThreeMethodComparison:
    def _garbage_corpus(self):
        kb = simple_kb()
        claims = [
            # One truthful site copies the KB verbatim; two others emit
            # disjoint garbage for the first object only.
            make_claim("http://truthful.com", "100", ["ann example", "bo sample"]),
            make_claim("http://truthful.com", "200", ["cy other"]),
            make_claim("http://junk1.com", "100", ["xxxxxxxxx yyyyyyyyy"]),
            make_claim("http://junk2.com", "100", ["qqqqqqqqq wwwwwwwww"]),
        ]
        return state_of(kb, claims, ONE_EPOCH)

    def test_truthful_site_ranks_first_under_all_methods(self):
        state = self._garbage_corpus()
        voting = run_voting(state)
        tf = run_truthfinder(state)
        pcf = run_pcf(state)
        for trusts in (voting, tf, pcf):
            ranked = sorted(trusts.items(), key=lambda kv: -kv[1])
            assert ranked[0][0] == "http://truthful.com"

    def test_only_similarity_methods_reach_trust_one(self):
        state = self._garbage_corpus()
        voting = run_voting(state)
        tf = run_truthfinder(state)
        pcf = run_pcf(state)
        assert pcf["http://truthful.com"] == 1.0
        assert tf["http://truthful.com"] == 1.0
        # Voting only grants the truthful site its mean vote share:
        # one third on the contested object, full share on the other.
        assert voting["http://truthful.com"] == pytest.approx((1 / 3 + 1) / 2)

    def test_deterministic(self):
        state = self._garbage_corpus()
        assert run_voting(state) == run_voting(state)
        assert run_truthfinder(state) == run_truthfinder(state)

    def test_baseline_runs_leave_the_input_state_alone(self):
        # After a run every record field holds a value a baseline could
        # overwrite; the three runs share one index, as `compare` does.
        state, _ = engine.run(self._garbage_corpus())
        before = copy.deepcopy(state)
        ix = engine.build_index(state)
        baselines.pcf_run(state, ix)
        baselines.truthfinder_run(state, ix)
        baselines.voting_run(state, ix)
        assert state == before


def generated_state(seed, **shape):
    """A corrupted generator corpus; with the default shape every seed uses
    the same ISBNs with other authors."""
    spec = generator.GenSpec(
        **{"n_websites": 30, "n_objects": 8, "claims_per_site": 3, "corruption_rate": 0.5, **shape},
        seed=seed,
    )
    kb_records = generator.generate_kb(spec)
    claims = generator.generate_claims(spec, kb_records)
    return state_of({b.object: b for b in kb_records}, claims)


def full_epoch_run(state, score):
    """The engine's epochs from zero trust, all three stages in every epoch,
    with every fact on a known object scored on its own by ``score``."""
    ix = engine.build_index(state)
    pcf = [
        score(fact.authors, state.kb[fact.object].authors) if known else 0.0
        for fact, known in zip(ix.facts, ix.known)
    ]
    trust, _, _ = engine.run_epochs(
        ix, state.config, 0, pcf, [0.0] * len(ix.sites), [0.0] * len(ix.facts)
    )
    return {site.url: t for site, t in zip(ix.sites, trust)}


def reference_truthfinder_run(state):
    """The baseline with every fact scored on its own by the reference scorer."""
    return full_epoch_run(state, reference_tf_name_score)


# One ISBN claimed by 320 sites, every author list corrupted: the shape that
# repeats names the most.
ONE_OBJECT = {"n_websites": 320, "n_objects": 1, "claims_per_site": 1, "corruption_rate": 1.0}


@pytest.mark.parametrize("seed, shape", [
    *(pytest.param(seed, {}, id=str(seed)) for seed in (0, 1, 5, 9)),
    pytest.param(7, ONE_OBJECT, id="one-object"),
])
def test_truthfinder_run_equals_the_per_fact_reference(seed, shape):
    state = generated_state(seed, **shape)
    assert baselines.truthfinder_run(state, engine.build_index(state)) == (
        reference_truthfinder_run(state)
    )


def test_truthfinder_runs_carry_nothing_over():
    # Both corpora claim the same ISBNs against different true authors, so a
    # score remembered from the first run would be wrong in the second.
    first, second = generated_state(2), generated_state(3)
    baselines.truthfinder_run(first, engine.build_index(first))
    assert baselines.truthfinder_run(second, engine.build_index(second)) == (
        reference_truthfinder_run(second)
    )


def varied_state(seed):
    """A small generator corpus whose corruption rate steps with ``seed``; every
    third seed drops a book from the KB, so some facts lie off it."""
    spec = generator.GenSpec(
        n_websites=3 + seed % 5,
        n_objects=1 + seed % 3,
        claims_per_site=2,
        corruption_rate=(seed % 11) / 10.0,
        seed=seed,
    )
    kb_records = generator.generate_kb(spec)
    claims = generator.generate_claims(spec, kb_records)
    kb = {b.object: b for b in (kb_records[1:] if seed % 3 == 0 else kb_records)}
    return state_of(kb, claims)


run_configs = st.builds(
    corpus.EngineConfig,
    epsilon=st.sampled_from([0.0, 0.25, 0.4, 1.0]),
    convergence_tol=st.sampled_from([0.0, 1e-6, 0.05]),
    max_epochs=st.integers(min_value=1, max_value=4),
)


@given(seed=st.integers(min_value=0, max_value=40), config=run_configs)
# Converges at epoch 3 with trusts that a fourth epoch would still move.
@example(seed=1, config=corpus.EngineConfig(convergence_tol=0.05, max_epochs=4))
def test_baselines_equal_the_full_epoch_reference(seed, config):
    # The baselines' last epoch stops after the trust stage; the reference
    # runs all three stages in every epoch and scores each fact on its own.
    state = varied_state(seed)
    state.config = config
    ix = engine.build_index(state)
    assert baselines.truthfinder_run(state, ix) == full_epoch_run(state, reference_tf_name_score)
    assert baselines.pcf_run(state, ix) == full_epoch_run(state, similarity.fact_pcf)


@given(seed=st.integers(min_value=0, max_value=40), config=run_configs)
def test_pcf_run_equals_engine_run_from_zero_trust(seed, config):
    state, _ = engine.run(varied_state(seed))
    state.config = config

    trusts = baselines.pcf_run(state, engine.build_index(state))

    reference = copy.deepcopy(state)
    for site in reference.websites.values():
        site.trust = 0.0
    engine.run(reference)
    assert trusts == {url: site.trust for url, site in reference.websites.items()}
