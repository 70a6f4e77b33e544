import copy
import math
from collections import namedtuple
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass, fields, replace
from typing import Iterable

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pcf_engine import corpus, engine

from conftest import CORE_ISBN, CORE_TRUTH, W1, W2, fact_confidence, make_claim, one_epoch

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# The readable per-fact reference for the implication arithmetic, the oracle
# of engine.implication_rows and engine.adjust_confidences: one term per
# sibling, summed onto the fact's own confidence, then damped.


@dataclass(frozen=True)
class ScoredFact:
    """A fact with the pcf and the confidence that one epoch's implication stage reads."""

    fact_id: int
    object: str
    pcf: float
    confidence: float


@dataclass(frozen=True)
class ImplicationTerm:
    """One sibling fact's contribution to a target fact's adjusted confidence."""

    source_fact: int
    target_fact: int
    delta: float
    factor: float
    contribution: float


def implication_terms(
    fact: ScoredFact, same_object_facts: Iterable[ScoredFact], epsilon: float
) -> list[ImplicationTerm]:
    """Contributions of sibling facts to ``fact``, in ascending sibling id."""
    terms = []
    for sibling in sorted(same_object_facts, key=lambda f: f.fact_id):
        if sibling.fact_id == fact.fact_id or sibling.object != fact.object:
            continue
        factor = engine.implication_factor(fact.pcf, sibling.pcf, epsilon)
        terms.append(
            ImplicationTerm(
                source_fact=sibling.fact_id,
                target_fact=fact.fact_id,
                delta=fact.pcf - sibling.pcf,
                factor=factor,
                contribution=factor * sibling.confidence,
            )
        )
    return terms


def adjust_confidence(
    fact: ScoredFact, same_object_facts: Iterable[ScoredFact], epsilon: float
) -> float:
    """Confidence plus accumulated sibling implication, damped into [0, 1]."""
    total = fact.confidence
    for term in implication_terms(fact, same_object_facts, epsilon):
        total += term.contribution
    return engine.damp(total)


def exact_copy_state(n_sites=3, kb=None, config=None):
    kb = kb or {
        "1000": corpus.TrueFact(object="1000", authors=["ann example", "bo sample"]),
        "1001": corpus.TrueFact(object="1001", authors=["cy other"]),
    }
    claims = []
    for i in range(n_sites):
        url = f"http://copy{i}.example.com"
        for isbn, truth in kb.items():
            claims.append(make_claim(url, isbn, truth.authors))
    return engine.assign_pcf(corpus.build_state(kb, corpus.canonical_claims(claims), config))


class TestAssignPcf:
    def test_exact_copy_fact(self, core_java_kb):
        state = corpus.build_state(
            core_java_kb, corpus.canonical_claims([make_claim(W1, CORE_ISBN, CORE_TRUTH)])
        )
        state = engine.assign_pcf(state)
        assert state.facts[1].pcf == 1.0

    def test_worked_example_pair(self, core_java_state):
        state = engine.assign_pcf(core_java_state)
        by_authors = {f.authors: f.pcf for f in state.facts.values()}
        assert by_authors[("cay s horstmenn", "gary")] == pytest.approx((1 + 1 / 3) / 2)
        assert by_authors[("corne", "horstmenn")] == pytest.approx(0.5083333, abs=1e-6)

    def test_unknown_object_scores_zero(self, core_java_kb):
        state = corpus.build_state(
            core_java_kb, corpus.canonical_claims([make_claim(W1, "missing", ["cay s horstmenn"])])
        )
        state = engine.assign_pcf(state)
        assert state.facts[1].pcf == 0.0
        assert engine.build_index(state).known == (False,)

    def test_pcf_unchanged_by_epochs(self, core_java_state):
        state = engine.assign_pcf(core_java_state)
        before = {fid: f.pcf for fid, f in state.facts.items()}
        state, _ = one_epoch(state)
        state, _ = one_epoch(state)
        assert {fid: f.pcf for fid, f in state.facts.items()} == before


class TestUpdateTrust:
    """The trust stage, the first of the three that run_epoch runs."""

    def test_fresh_exact_copy_site_reaches_one(self):
        updated, _ = one_epoch(exact_copy_state())
        assert all(w.trust == 1.0 for w in updated.websites.values())

    def test_fresh_worked_example(self, core_java_state):
        state, _ = one_epoch(engine.assign_pcf(core_java_state))
        assert state.websites[W2].trust == pytest.approx(0.5083333, abs=1e-6)
        assert state.websites[W1].trust == pytest.approx(2 / 3)

    def test_second_epoch_averages_adjusted_confidence(self, core_java_kb):
        state = corpus.build_state(
            core_java_kb,
            corpus.canonical_claims([
                make_claim(W1, CORE_ISBN, CORE_TRUTH),
                make_claim(W1, "other", ["x y"]),
            ]),
        )
        state = engine.assign_pcf(state)
        site = state.websites[W1]
        site.trust = 0.9
        fact_ids = sorted(state.facts)
        state.facts[fact_ids[0]].adjusted_confidence = 0.4
        state.facts[fact_ids[1]].adjusted_confidence = 0.8
        updated, _ = one_epoch(state)
        assert updated.websites[W1].trust == pytest.approx(0.6)

    def test_site_without_facts_stays_zero(self, core_java_kb):
        state = corpus.build_state(
            core_java_kb, corpus.canonical_claims([make_claim(W1, CORE_ISBN, CORE_TRUTH)])
        )
        state.websites["http://empty.example.com"] = corpus.Website(
            id=99, url="http://empty.example.com"
        )
        updated, _ = one_epoch(engine.assign_pcf(state))
        assert updated.websites["http://empty.example.com"].trust == 0.0

    def test_zero_trust_sentinel_ignores_confident_shared_facts(self, core_java_kb):
        # U's only fact is on an ISBN outside the KB. T also provides it and
        # reaches trust 1, so the shared fact's adjusted confidence is about
        # 1; U still scores 0 in the initial branch and so takes that branch
        # again every epoch. This follows the method literally.
        t, u = "http://t.example.com", "http://u.example.com"
        state = corpus.build_state(
            core_java_kb,
            corpus.canonical_claims([
                make_claim(t, CORE_ISBN, CORE_TRUTH),
                make_claim(t, "not-in-kb", ["q r"]),
                make_claim(u, "not-in-kb", ["q r"]),
            ]),
        )
        state = engine.assign_pcf(state)
        (shared,) = [f for f in state.facts.values() if f.object == "not-in-kb"]
        for _ in range(4):
            state, _ = one_epoch(state)
            assert state.websites[u].trust == 0.0
            assert shared.adjusted_confidence == pytest.approx(1.0)
            assert state.websites[t].trust == pytest.approx(1.0)


class TestFactConfidence:
    def _confidence(self, trusts):
        """Stage 2's confidence of one fact whose providers hold ``trusts``, in this order."""
        websites = {
            f"http://w{i}.com": corpus.Website(
                id=i + 1, url=f"http://w{i}.com", trust=t
            )
            for i, t in enumerate(trusts)
        }
        fact = corpus.FactRecord(
            fact_id=1, object="1", authors=(), providers=tuple(range(1, len(trusts) + 1))
        )
        ix = engine.build_index(corpus.TrustState(websites=websites, facts={1: fact}))
        (confidence,) = engine.confidences(ix, [site.trust for site in ix.sites])
        return confidence

    def test_untrusted_providers(self):
        assert self._confidence([0.0, 0.0]) == 0.0

    def test_two_half_trusted_providers(self):
        s = self._confidence([0.5, 0.5])
        assert s == pytest.approx(0.75)

    def test_fully_trusted_provider_is_clamped(self):
        s = self._confidence([1.0])
        assert s == 1.0 - 1e-10

    @given(
        trusts=st.lists(probabilities, min_size=1, max_size=5),
        bump_index=st.integers(min_value=0, max_value=4),
        bump=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_provider_trust(self, trusts, bump_index, bump):
        bump_index %= len(trusts)
        raised = list(trusts)
        raised[bump_index] = min(1.0, raised[bump_index] + bump)
        assert self._confidence(raised) >= self._confidence(trusts)

    @given(trusts=st.lists(probabilities, min_size=1, max_size=5))
    def test_adding_a_provider_never_decreases_confidence(self, trusts):
        assert self._confidence(trusts + [0.5]) >= self._confidence(trusts)


# A state for the stages: ``providers[k]`` holds fact k's provider sites as
# positions into ``trust``, ``objects[k]`` its object, and ``known`` the
# objects in the KB; ``trust`` is one value per site, ``pcf`` and
# ``adjusted`` one per fact.
StageCase = namedtuple("StageCase", "providers objects known trust pcf adjusted")

# The unit interval's ends, -0.0, the confidence cap and the smallest
# subnormal, or any probability.
stage_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1 - 1e-10, 5e-324]), probabilities)


@st.composite
def stage_cases(draw):
    """Sites with 0-6 facts and facts with 1-6 providers, on up to four objects."""
    n_sites = draw(st.integers(1, 8))
    load = [0] * n_sites
    providers = []
    for _ in range(draw(st.integers(0, 12))):
        free = [i for i in range(n_sites) if load[i] < 6]
        if not free:
            break
        chosen = draw(st.lists(st.sampled_from(free), min_size=1, max_size=6, unique=True))
        for i in chosen:
            load[i] += 1
        providers.append(tuple(chosen))
    n = len(providers)
    return StageCase(
        providers=providers,
        objects=draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        known=draw(st.sets(st.integers(0, 3))),
        trust=draw(st.lists(stage_values, min_size=n_sites, max_size=n_sites)),
        pcf=draw(st.lists(stage_values, min_size=n, max_size=n)),
        adjusted=draw(st.lists(stage_values, min_size=n, max_size=n)),
    )


# Site 0 at trust 0.0 and site 1 at -0.0 take the initial branch; site 2 at
# 0.0 holds only facts on object 1, outside the KB, so it stays at 0.0; site
# 3 holds no facts; site 4, fully trusted, averages facts on known and
# unknown objects, and caps the confidence of each fact it provides.
SENTINEL_CASE = StageCase(
    providers=[(0, 4), (1, 0), (4, 2), (2,), (4, 1)],
    objects=[0, 0, 1, 1, 2],
    known={0, 2},
    trust=[0.0, -0.0, 0.0, 0.7, 1.0],
    pcf=[0.25, 1.0, 0.9, 0.5, 5e-324],
    adjusted=[0.5, 1 - 1e-10, 0.75, 1.0, 0.0],
)
# One site and no facts.
NO_FACTS_CASE = StageCase(providers=[], objects=[], known=set(), trust=[0.3], pcf=[], adjusted=[])


def stage_state(case):
    """The state of ``case``: site i has id i + 1 and fact k id k + 1, so positions are kept."""
    websites = {
        f"http://s{i}.example": corpus.Website(id=i + 1, url=f"http://s{i}.example", trust=t)
        for i, t in enumerate(case.trust)
    }
    facts = {
        k + 1: corpus.FactRecord(
            fact_id=k + 1, object=str(o), authors=(), providers=tuple(sorted(i + 1 for i in providers))
        )
        for k, (providers, o) in enumerate(zip(case.providers, case.objects))
    }
    kb = {str(o): corpus.TrueFact(object=str(o), authors=["a b"]) for o in case.known}
    return corpus.TrustState(websites=websites, facts=facts, kb=kb)


def mean(values):
    """Added left to right from 0.0, as the stages add."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def facts_of(case, site):
    return [k for k, providers in enumerate(case.providers) if site in providers]


def reference_trust_stage(case):
    """The readable stage 1, read from ``case`` rather than from an index."""
    new_trust = []
    for site, old in enumerate(case.trust):
        own = facts_of(case, site)
        if not own:
            new = old
        elif old == 0.0:
            scores = [case.pcf[k] for k in own if case.objects[k] in case.known]
            new = mean(scores) if scores else 0.0
        else:
            new = mean([case.adjusted[k] for k in own])
        new_trust.append(new)
    return new_trust, max([0.0] + [abs(new - old) for new, old in zip(new_trust, case.trust)])


class TestStagesEqualTheReference:
    """Stages 1 and 2, plain loops, against the readable per-item formulas bit for bit."""

    @given(case=stage_cases())
    @example(case=SENTINEL_CASE)
    @example(case=NO_FACTS_CASE)
    def test_trust_stage(self, case):
        ix = engine.build_index(stage_state(case))
        inputs = [bits(v) for v in (case.pcf, case.trust, case.adjusted)]
        trust, max_delta = engine.trust_stage(ix, case.pcf, case.trust, case.adjusted)
        expected, expected_delta = reference_trust_stage(case)
        assert bits(trust) == bits(expected)
        assert max_delta == expected_delta
        assert [bits(v) for v in (case.pcf, case.trust, case.adjusted)] == inputs

    @given(case=stage_cases())
    @example(case=SENTINEL_CASE)
    @example(case=NO_FACTS_CASE)
    def test_confidences(self, case):
        ix = engine.build_index(stage_state(case))
        expected = [
            fact_confidence(case.trust[i] for i in sorted(providers))
            for providers in case.providers
        ]
        assert bits(engine.confidences(ix, case.trust)) == bits(expected)


class TestImplicationFactor:
    def test_difference_above_threshold(self):
        assert engine.implication_factor(0.7, 0.2, 0.4) == pytest.approx(0.1, abs=1e-12)

    def test_difference_equal_to_threshold(self):
        assert engine.implication_factor(0.6, 0.2, 0.4) == pytest.approx(0.4, abs=1e-12)

    def test_negative_difference(self):
        assert engine.implication_factor(0.2, 0.7, 0.4) == pytest.approx(0.9, abs=1e-12)

    def test_equal_probabilities_give_epsilon(self):
        assert engine.implication_factor(0.5, 0.5, 0.4) == pytest.approx(0.4)

    def test_zero_epsilon_gives_absolute_difference(self):
        assert engine.implication_factor(0.2, 0.7, 0.0) == pytest.approx(0.5)
        assert engine.implication_factor(0.7, 0.2, 0.0) == pytest.approx(0.5)

    @given(p1=probabilities, p2=probabilities, eps=probabilities)
    def test_pair_sum_identity_inside_threshold(self, p1, p2, eps):
        # Holds whenever |delta| <= eps, away from the delta == eps special
        # case which deliberately returns eps instead of |eps - delta|.
        delta = p1 - p2
        if abs(delta) > eps or abs(abs(delta) - eps) < 1e-6:
            return
        total = engine.implication_factor(p1, p2, eps) + engine.implication_factor(
            p2, p1, eps
        )
        assert total == pytest.approx(2 * eps, abs=1e-12)

    @given(p1=probabilities, p2=probabilities, epsilons=st.tuples(probabilities, probabilities))
    def test_slope_one_in_epsilon_for_negative_difference(self, p1, p2, epsilons):
        if p1 >= p2:
            return
        lo, hi = sorted(epsilons)
        rise = engine.implication_factor(p1, p2, hi) - engine.implication_factor(p1, p2, lo)
        assert rise == pytest.approx(hi - lo, abs=1e-12)


class TestAdjustConfidence:
    """Worked values of the implication stage, asserted on adjust_confidences."""

    def _fact(self, fact_id, pcf, confidence, obj="1"):
        return ScoredFact(fact_id, obj, pcf, confidence)

    def _adjusted(self, facts, epsilon=0.4):
        """Each fact's adjusted confidence by fact id: stage 3 over build_index's groups."""
        records = {
            f.fact_id: corpus.FactRecord(f.fact_id, f.object, (f"name {f.fact_id}",), pcf=f.pcf)
            for f in facts
        }
        confidence_of = {f.fact_id: f.confidence for f in facts}
        ix = engine.build_index(corpus.TrustState(facts=records))
        pcf = [f.pcf for f in ix.facts]
        confidence = [confidence_of[f.fact_id] for f in ix.facts]
        adjusted = [-1.0] * len(ix.facts)
        rows = engine.implication_rows(ix.groups, pcf, epsilon)
        engine.adjust_confidences(rows, confidence, adjusted)
        return {f.fact_id: a for f, a in zip(ix.facts, adjusted)}

    def test_no_siblings(self):
        assert self._adjusted([self._fact(1, 0.5, 0.5)])[1] == 0.5

    def test_single_sibling_contribution(self):
        adjusted = self._adjusted([self._fact(1, 0.7, 0.5), self._fact(2, 0.2, 0.4)])
        assert adjusted[1] == pytest.approx(0.54)

    def test_equal_pcf_siblings(self):
        adjusted = self._adjusted([self._fact(i, 0.5, 0.3) for i in (1, 2, 3, 4)])
        assert adjusted[1] - 0.3 == pytest.approx(0.36)

    def test_other_object_facts_are_ignored(self):
        adjusted = self._adjusted([self._fact(1, 0.7, 0.5), self._fact(2, 0.2, 0.4, obj="2")])
        assert adjusted == {1: 0.5, 2: 0.4}

    def test_implication_terms_report_contributions(self):
        # The oracle's own worked value: the term behind the 0.54 above.
        fact = self._fact(1, 0.7, 0.5)
        sibling = self._fact(2, 0.2, 0.4)
        (term,) = implication_terms(fact, [sibling], 0.4)
        assert term.source_fact == 2
        assert term.target_fact == 1
        assert term.delta == pytest.approx(0.5)
        assert term.contribution == pytest.approx(0.04)


# Includes pairs exactly epsilon = 0.4 apart (0.9/0.5) and within CASE2_TOL
# of it (0.6/0.2), and equal values when two facts draw the same entry.
pcf_grid = st.sampled_from([0.0, 0.2, 0.25, 0.5, 0.6, 0.9, 1.0, 1 / 3])


class TestAdjustGroup:
    """The implication stage over one group, at every other vector position."""

    @given(
        scores=st.lists(st.tuples(pcf_grid, probabilities), min_size=1, max_size=40),
        epsilon=st.sampled_from([0.4, 0.0, 0.25, 1.0]),
    )
    def test_equals_the_reference_exactly(self, scores, epsilon):
        group = [ScoredFact(i, "1", p, s) for i, (p, s) in enumerate(scores, start=1)]
        expected = [min(adjust_confidence(fact, group, epsilon), 1.0 - 1e-10) for fact in group]
        # The group takes every other position of the vectors, so that a
        # kernel reading or writing the wrong slots fails.
        size = 2 * len(scores) + 1
        positions = range(1, size, 2)
        pcf, confidence, adjusted = [0.7] * size, [0.3] * size, [-1.0] * size
        for k, (p, s) in zip(positions, scores):
            pcf[k], confidence[k] = p, s
        rows = engine.implication_rows([positions], pcf, epsilon)
        engine.adjust_confidences(rows, confidence, adjusted)
        assert adjusted[1::2] == expected
        assert adjusted[::2] == [-1.0] * (len(scores) + 1)


def takes_value_rows(n, d):
    """The measured rule: per-value rows for n facts holding d distinct pcf values."""
    return n >= 4 * (d + 4)


def bits(values):
    """Floats as hex text, so that 0.0 and -0.0 differ."""
    return [v.hex() for v in values]


# The pcf grid with -0.0 beside 0.0, or any probability.
form_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.2, 0.25, 0.5, 0.6, 0.9, 1.0, 1 / 3]), probabilities
)
EDGE_VALUES = [0.0, -0.0, 0.9, 0.5, 0.6, 0.2]
EDGE_PICKS = [(i % 6, 0.1 * (i % 7), 0.05 * (i % 5)) for i in range(64)]


class TestRowForms:
    """Per-fact rows and per-value groups, each against the per-fact reference."""

    @given(
        values=st.lists(form_values, min_size=1, max_size=10),
        n=st.integers(min_value=1, max_value=64),
        # (value index, confidence in a, confidence in b) per fact; n are used.
        picks=st.lists(
            st.tuples(st.integers(0, 9), probabilities, probabilities), min_size=64, max_size=64
        ),
        other=st.lists(st.tuples(form_values, probabilities), min_size=1, max_size=24),
        epsilon=st.sampled_from([0.0, 0.25, 0.4, 1.0]),
    )
    # A per-value group holding 0.0 and -0.0 and the pairs 0.9/0.5 and
    # 0.6/0.2, exactly 0.4 apart; then a per-fact group of the same values.
    @example(
        values=EDGE_VALUES, n=40, picks=EDGE_PICKS, other=[(-0.0, 0.5), (0.0, 0.25)], epsilon=0.4
    )
    @example(values=EDGE_VALUES, n=6, picks=EDGE_PICKS, other=[(0.5, 0.5)], epsilon=0.4)
    def test_both_forms_equal_the_reference(self, values, n, picks, other, epsilon):
        # Groups a and b hold the same pcf values, so they share one plan, at
        # interleaved positions with different confidences; group c follows
        # at every other position. The slots between keep their sentinels.
        picks = picks[:n]
        a = [3 * i + 1 for i in range(n)]
        b = [3 * i + 2 for i in range(n)]
        c = [3 * n + 2 * i + 1 for i in range(len(other))]
        size = 3 * n + 2 * len(other) + 1
        pcf, confidence, adjusted = [0.7] * size, [0.3] * size, [-1.0] * size
        for i, (value, own, twin) in enumerate(picks):
            pcf[a[i]] = pcf[b[i]] = values[value % len(values)]
            confidence[a[i]], confidence[b[i]] = own, twin
        for k, (p, s) in zip(c, other):
            pcf[k], confidence[k] = p, s
        groups = [a, b, c]

        rows = engine.implication_rows(groups, pcf, epsilon)
        engine.adjust_confidences(rows, confidence, adjusted)

        fact_rows, value_groups = rows
        per_value = {group for group, _, _ in value_groups}
        per_fact = [k for k, _, _ in fact_rows]
        for group in groups:
            facts = [ScoredFact(k, "1", pcf[k], confidence[k]) for k in group]
            expected = [min(adjust_confidence(f, facts, epsilon), 1.0 - 1e-10) for f in facts]
            assert bits(adjusted[k] for k in group) == bits(expected)
            took_value_rows = takes_value_rows(len(group), len({pcf[k] for k in group}))
            assert (tuple(group) in per_value) == took_value_rows
        assert sorted(per_fact + [k for g in per_value for k in g]) == sorted(a + b + c)
        assert [adjusted[k] for k in range(0, 3 * n, 3)] == [-1.0] * n
        assert adjusted[3 * n :: 2] == [-1.0] * (len(other) + 1)

    @pytest.mark.parametrize(
        "n, d, per_value",
        [(2, 1, False), (16, 1, False), (19, 1, False), (20, 1, True), (31, 4, False),
         (32, 4, True), (55, 10, False), (56, 10, True), (120, 26, True), (120, 27, False)],
    )
    def test_the_rule_picks_the_form(self, n, d, per_value):
        pcf = [k % d / d for k in range(n)]
        fact_rows, value_groups = engine.implication_rows([range(n)], pcf, 0.4)
        assert (len(value_groups), len(fact_rows)) == ((1, 0) if per_value else (0, n))
        assert takes_value_rows(n, d) == per_value

    def test_a_plan_is_computed_once_per_pcf_values(self, monkeypatch):
        factor = engine.implication_factor
        calls = []

        def counted(p1, p2, epsilon):
            calls.append(None)
            return factor(p1, p2, epsilon)

        monkeypatch.setattr(engine, "implication_factor", counted)
        pcf = [0.25, 0.5, 0.25, 0.5, 0.9] + [0.1 * (k % 4) for k in range(64)]
        (f01, f10), _ = engine.implication_rows([(0, 1)], pcf, 0.4)
        assert len(calls) == 2 * 2
        # A second group with the same values adds no factor, and a fact
        # alone on its object needs none.
        calls.clear()
        rows = engine.implication_rows([(0, 1), (4,), (2, 3)], pcf, 0.4)
        assert len(calls) == 2 * 2
        assert rows == ((f01, f10, (4, (), ()), (2, f01[1], (3,)), (3, f10[1], (2,))), ())
        calls.clear()
        fact_rows, value_groups = engine.implication_rows([range(5, 37), range(37, 69)], pcf, 0.4)
        assert len(calls) == 4 * 32
        assert fact_rows == ()
        assert [g for g, _, _ in value_groups] == [tuple(range(5, 37)), tuple(range(37, 69))]

    def test_value_rows_of_a_large_group_take_linear_memory(self):
        # One object with 1000 facts over 10 pcf values. Per-fact rows hold
        # 1000 tuples of 999 factors and 1000 of 999 positions, about 16 MB;
        # per-value rows hold 10 rows of 1000 factors, under 0.5 MB.
        pcf = [k % 10 / 9 for k in range(1000)]
        tracemalloc.start()
        try:
            rows = engine.implication_rows([range(1000)], pcf, 0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert len(rows[1]) == 1


class TestDamp:
    def test_identity_below_one(self):
        assert engine.damp(0.85) == 0.85

    def test_one_power(self):
        assert engine.damp(3.7) == pytest.approx(0.37)

    def test_two_powers(self):
        assert engine.damp(12.0) == pytest.approx(0.12)

    def test_smallest_alpha_oracle(self):
        # Exhaustive search over alpha must agree with the implementation.
        for value in [0.0, 0.3, 1.0, 1.0001, 5.0, 9.999, 10.0, 123.456, 4096.0]:
            expected = next(
                value * 10.0**-alpha
                for alpha in range(0, 40)
                if value * 10.0**-alpha <= 1.0
            )
            assert engine.damp(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            engine.damp(-0.1)

    @given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
    def test_idempotent_and_bounded(self, value):
        damped = engine.damp(value)
        assert 0.0 <= damped <= 1.0
        assert engine.damp(damped) == damped

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_identity_on_unit_interval(self, value):
        assert engine.damp(value) == value


class TestRunEpoch:
    def test_exact_copy_epoch_one(self):
        state, report = one_epoch(exact_copy_state())
        assert all(w.trust == 1.0 for w in state.websites.values())
        assert all(f.adjusted_confidence == 1 - 1e-10 for f in state.facts.values())
        assert report.epoch == 1
        assert report.max_trust_delta == 1.0

    def test_empty_corpus_is_noop(self):
        state, report = one_epoch(corpus.TrustState())
        assert report.max_trust_delta == 0.0
        assert report.converged
        assert state.epoch == 1

    def test_epoch_one_trust_matches_website_sim(self, core_java_state):
        # Independent route: recompute the website similarity, the mean of
        # name-length ratios, by hand.
        state = engine.assign_pcf(core_java_state)
        after, _ = one_epoch(state)
        for url, site in after.websites.items():
            own = [fact for fact in state.facts.values() if site.id in fact.providers]
            ratios = []
            for fact in own:
                per_name = []
                for claim_name in fact.authors:
                    best = 0.0
                    for true_name in state.kb[fact.object].authors:
                        if claim_name and claim_name in true_name:
                            best = max(best, len(claim_name) / len(true_name))
                    per_name.append(best)
                ratios.append(sum(per_name) / len(per_name))
            assert site.trust == pytest.approx(sum(ratios) / len(ratios))

    def test_second_epoch_trust_is_mean_of_damped_adjusted(self, core_java_state):
        state = engine.assign_pcf(core_java_state)
        first, _ = one_epoch(state)
        adjusted = {fid: f.adjusted_confidence for fid, f in first.facts.items()}
        second, _ = one_epoch(first)
        for url, site in second.websites.items():
            expected = [adjusted[fid] for fid, f in second.facts.items() if site.id in f.providers]
            assert site.trust == pytest.approx(sum(expected) / len(expected))

    def test_updates_the_given_state(self, core_java_state):
        state = engine.assign_pcf(core_java_state)
        after, report = one_epoch(state)
        assert after is state
        assert state.epoch == report.epoch == 1
        assert state.websites[W1].trust == pytest.approx(2 / 3)

    @given(seed=st.integers(min_value=0, max_value=30))
    def test_given_plan_equals_own_plan(self, seed):
        from pcf_engine import generator

        spec = generator.GenSpec(
            n_websites=4 + seed % 5,
            n_objects=1 + seed % 3,
            claims_per_site=2,
            corruption_rate=(seed % 11) / 10.0,
            seed=seed,
        )
        kb_records = generator.generate_kb(spec)
        kb = {b.object: b for b in kb_records}
        claims = corpus.canonical_claims(generator.generate_claims(spec, kb_records))
        config = corpus.EngineConfig(max_epochs=3, convergence_tol=0.0)
        whole = engine.assign_pcf(corpus.build_state(kb, claims, config))
        stepped = copy.deepcopy(whole)
        whole, whole_reports = engine.run(whole)
        step_reports = [one_epoch(stepped)[1] for _ in range(3)]
        assert stepped == whole
        assert [(r.epoch, r.max_trust_delta) for r in step_reports] == [
            (r.epoch, r.max_trust_delta) for r in whole_reports
        ]

    def test_factors_are_computed_once_per_run(self, monkeypatch):
        from pcf_engine import generator

        spec = generator.GenSpec(
            n_websites=12, n_objects=2, claims_per_site=2, corruption_rate=0.8, seed=3
        )
        kb_records = generator.generate_kb(spec)
        kb = {b.object: b for b in kb_records}
        base = engine.assign_pcf(
            corpus.build_state(
                kb, corpus.canonical_claims(generator.generate_claims(spec, kb_records))
            )
        )
        assert max(map(len, engine.build_index(base).groups)) > 2
        factor = engine.implication_factor
        calls = []

        def counted(p1, p2, epsilon):
            calls.append(None)
            return factor(p1, p2, epsilon)

        monkeypatch.setattr(engine, "implication_factor", counted)
        counts = []
        for epochs in (3, 1):
            state = copy.deepcopy(base)
            state.config = corpus.EngineConfig(max_epochs=epochs, convergence_tol=0.0)
            calls.clear()
            _, reports = engine.run(state)
            assert len(reports) == epochs
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_deterministic_successor(self, core_java_state):
        state = engine.assign_pcf(core_java_state)
        a, _ = one_epoch(copy.deepcopy(state))
        b, _ = one_epoch(copy.deepcopy(state))
        assert a is not b
        assert a == b

    def test_is_a_function_of_its_vectors(self, core_java_state):
        # The second site's trust is not zero, so it takes the
        # adjusted-confidence branch.
        state = engine.assign_pcf(core_java_state)
        before = copy.deepcopy(state)
        ix = engine.build_index(state)
        pcf, trust, adjusted = [f.pcf for f in ix.facts], [0.0, 0.5], [0.25, 0.75]
        rows = engine.implication_rows(ix.groups, pcf, state.config.epsilon)
        inputs = copy.deepcopy((pcf, rows, trust, adjusted))
        (new_trust, new_adjusted), report = engine.run_epoch(
            ix, state.config, 7, pcf, rows, trust, adjusted
        )
        assert (pcf, rows, trust, adjusted) == inputs
        assert state == before
        assert report.epoch == 7
        assert new_trust[0] == pytest.approx(2 / 3)  # the mean pcf of W1's one fact
        assert new_trust[1] == 0.75  # the adjusted confidence of W2's one fact
        assert len(new_adjusted) == len(ix.facts)
        # Called again on the same vectors, it returns equal ones.
        again, _ = engine.run_epoch(ix, state.config, 7, pcf, rows, trust, adjusted)
        assert again == (new_trust, new_adjusted)


class TestRunEpochsTrustOnly:
    @pytest.mark.parametrize("max_epochs", [1, 2, 3])
    def test_last_epoch_stops_after_the_trust_stage(self, core_java_state, max_epochs):
        state = engine.assign_pcf(core_java_state)
        config = corpus.EngineConfig(max_epochs=max_epochs, convergence_tol=0.0)
        ix = engine.build_index(state)
        pcf = [f.pcf for f in ix.facts]
        start = ([0.0] * len(ix.sites), [0.0] * len(ix.facts))
        trust, _, reports = engine.run_epochs(ix, config, 0, pcf, *start)
        assert len(reports) == max_epochs

        got = engine.run_epochs(ix, config, 0, pcf, *start, trust_only=True)

        # The adjusted vector is the one the last trust stage read: the
        # previous epoch's, or the input before epoch 1.
        if max_epochs == 1:
            read = start[1]
        else:
            read = engine.run_epochs(ix, replace(config, max_epochs=max_epochs - 1), 0, pcf, *start)[1]
        assert got == (trust, read, [])


class TestBuildIndex:
    def test_orders_by_id_whatever_the_insertion_order(self):
        kb = {"1": corpus.TrueFact(object="1", authors=["a b"])}
        websites = {
            f"http://s{i}.com": corpus.Website(id=i, url=f"http://s{i}.com") for i in (3, 1, 2)
        }
        links = {10: (1, 3), 4: (2,), 7: (1, 2, 3)}  # fact id -> provider site ids
        facts = {}
        for fid, providers in links.items():
            facts[fid] = corpus.FactRecord(
                fact_id=fid, object="1" if fid != 4 else "2", authors=(), providers=providers
            )
        ix = engine.build_index(corpus.TrustState(websites=websites, facts=facts, kb=kb))
        assert [w.id for w in ix.sites] == [1, 2, 3]
        assert [f.fact_id for f in ix.facts] == [4, 7, 10]
        assert ix.site_facts == ((1, 2), (0, 1), (1, 2))
        assert ix.fact_providers == ((1,), (0, 1, 2), (0, 2))
        assert ix.groups == ((0,), (1, 2))
        assert ix.known == (False, True, True)


class TestRun:
    def test_exact_copy_converges_in_two_epochs(self):
        config = corpus.EngineConfig(max_epochs=10, convergence_tol=1e-6)
        state, reports = engine.run(exact_copy_state(config=config))
        assert len(reports) == 2
        assert reports[-1].converged
        assert reports[-1].max_trust_delta == pytest.approx(1e-10, rel=1e-6)

    def test_single_epoch_cap(self, core_java_state):
        core_java_state.config = replace(core_java_state.config, max_epochs=1)
        _, reports = engine.run(engine.assign_pcf(core_java_state))
        assert len(reports) == 1

    def test_zero_tolerance_runs_all_epochs(self):
        config = corpus.EngineConfig(max_epochs=4, convergence_tol=0.0)
        _, reports = engine.run(exact_copy_state(config=config))
        assert len(reports) == 4

    def test_rejects_zero_epochs(self, core_java_state):
        with pytest.raises(ValueError, match="max_epochs 0 below 1"):
            replace(core_java_state.config, max_epochs=0)


class TestEngineConfig:
    @pytest.mark.parametrize(
        "setting, value",
        [
            ("epsilon", -0.1),
            ("epsilon", 1.5),
            ("epsilon", math.nan),
            ("max_epochs", 0),
            ("max_epochs", -3),
            ("convergence_tol", math.inf),
            ("convergence_tol", -math.inf),
            ("convergence_tol", math.nan),
        ],
    )
    def test_refuses_a_value_the_engine_cannot_run_with(self, setting, value):
        with pytest.raises(ValueError, match=f"config {setting} "):
            corpus.EngineConfig(**{setting: value})

    def test_holds_the_three_run_settings_and_is_frozen(self):
        config = corpus.EngineConfig(epsilon=0.0, convergence_tol=0.0, max_epochs=1)
        assert [f.name for f in fields(config)] == ["epsilon", "convergence_tol", "max_epochs"]
        with pytest.raises(FrozenInstanceError):
            config.epsilon = 0.5


class TestEpochBounds:
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_all_quantities_stay_in_unit_interval(self, seed):
        from pcf_engine import generator

        spec = generator.GenSpec(
            n_websites=3 + seed % 3,
            n_objects=2 + seed % 2,
            claims_per_site=2,
            corruption_rate=(seed % 10) / 10.0,
            seed=seed,
        )
        kb_records = generator.generate_kb(spec)
        kb = {b.object: b for b in kb_records}
        claims = corpus.canonical_claims(generator.generate_claims(spec, kb_records))
        config = corpus.EngineConfig(max_epochs=3, convergence_tol=0.0)
        state = engine.assign_pcf(corpus.build_state(kb, claims, config))
        state, _ = engine.run(state)
        for site in state.websites.values():
            assert 0.0 <= site.trust <= 1.0
        ix = engine.build_index(state)
        confidence = engine.confidences(ix, [site.trust for site in ix.sites])
        for fact, c in zip(ix.facts, confidence):
            assert 0.0 <= c <= 1.0
            assert 0.0 <= fact.adjusted_confidence <= 1.0
