"""The trust/confidence/implication iteration.

The engine updates the state it is given and returns that same object;
callers that need the original keep a deep copy of it first. One epoch
runs three stages:

1. every website's trust is updated (first epoch: mean correctness of its
   facts against the knowledge base; afterwards: mean adjusted confidence
   of its facts),
2. every fact's confidence is computed from its providers' trusts,
3. every fact's confidence is adjusted by the implication of sibling facts
   on the same object, damped back into [0, 1].

Iteration order is ascending website/fact id everywhere, so results are
bit-identical run to run.

``run`` compiles the state once into an :class:`EpochPlan`: sites and facts
in id order, each with its own facts or providers, and each object's facts
as a sibling group, all in ascending id and holding the state's own
records. Every epoch then walks those tuples with no sorting or regrouping.
The confidence stage calls ``fact_confidence`` on each fact's providers, and
the implication stage is ``adjust_group``, a flat loop over each group's
(pcf, confidence) pairs. ``implication_terms`` and ``adjust_confidence`` are
the readable reference for the implication arithmetic: ``adjust_group``
performs the same float operations in the same order, so its results equal
theirs bit for bit. ``run`` takes its length from ``state.config``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from time import perf_counter
from typing import Iterable, Sequence

from .corpus import FactRecord, TrustState, Website
from .similarity import Scorer, fact_pcf

# Absolute tolerance for detecting the delta == epsilon implication case.
CASE2_TOL = 1e-9


@dataclass(frozen=True)
class ImplicationTerm:
    """One sibling fact's contribution to a target fact's adjusted confidence."""

    source_fact: int
    target_fact: int
    delta: float
    factor: float
    contribution: float


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    max_trust_delta: float
    converged: bool
    trust_seconds: float
    confidence_seconds: float
    implication_seconds: float
    # The whole epoch, building the plan included when run_epoch builds it.
    epoch_seconds: float


@dataclass(frozen=True)
class EpochPlan:
    """A state's records in the order an epoch visits them.

    ``sites`` pairs each website, in ascending id, with its facts in
    ascending fact id; ``facts`` pairs each fact, in ascending id, with its
    providers in ascending site id; ``groups`` holds each object's facts in
    ascending fact id, objects in the order of their smallest fact id. The
    plan references the state's own records, so it stays valid across
    epochs, which change only trusts and fact scores, and goes stale if
    records or their links are added, removed or replaced.
    """

    sites: tuple[tuple[Website, tuple[FactRecord, ...]], ...]
    facts: tuple[tuple[FactRecord, tuple[Website, ...]], ...]
    groups: tuple[tuple[FactRecord, ...], ...]


def build_plan(state: TrustState) -> EpochPlan:
    """Compile ``state`` into the id-ordered plan that ``run_epoch`` walks."""
    facts = state.facts
    by_id = {w.id: w for w in state.websites.values()}
    return EpochPlan(
        sites=tuple(
            (site, tuple(facts[fid] for fid in sorted(site.fact_ids)))
            for site in sorted(state.websites.values(), key=lambda w: w.id)
        ),
        facts=tuple(
            (facts[fid], tuple(by_id[pid] for pid in sorted(facts[fid].providers)))
            for fid in sorted(facts)
        ),
        groups=tuple(tuple(group) for group in state.facts_by_object().values()),
    )


def assign_pcf(state: TrustState, score: Scorer = fact_pcf) -> TrustState:
    """Score every fact's probability of correctness against the KB.

    ``score(claimed_authors, true_authors)`` gives the probability; the
    weighted-name baseline passes its own matcher. Facts for objects
    missing from the knowledge base are flagged and get probability 0. The
    scores depend only on the KB, so they stay fixed across epochs.
    """
    for fact in state.facts.values():
        truth = state.kb.get(fact.object)
        fact.unknown_object = truth is None
        fact.pcf = score(fact.authors, truth.authors) if truth else 0.0
    return state


def fact_confidence(providers: Iterable[Website], clamp: float) -> float:
    """Confidence that a fact is correct given its providers' trusts.

    s(f) = 1 - prod(1 - t(w)) over ``providers``, multiplied in the order
    given (the plan's ascending site id), clamped to 1 - ``clamp`` so a
    fully trusted provider still yields a finite log score.
    """
    product = 1.0
    for site in providers:
        product *= 1.0 - site.trust
    return min(1.0 - product, 1.0 - clamp)


def confidence_score(s: float) -> float:
    """Log-domain confidence: -ln(1 - s), strictly increasing in s.

    The score of both a fact's confidence and its adjusted confidence.
    """
    if not 0.0 <= s < 1.0:
        raise ValueError(f"confidence must lie in [0, 1) after clamping, got {s}")
    return -math.log(1.0 - s)


def implication_factor(p1: float, p2: float, epsilon: float) -> float:
    """Influence of a fact with probability ``p2`` on one with ``p1``.

    The factor measures how far the probability difference deviates from
    the allowed threshold: |epsilon - (p1 - p2)|, except that a positive
    difference equal to the threshold (within CASE2_TOL) yields exactly
    epsilon. The positivity guard keeps the negative-difference branch a
    pure affine function of epsilon.
    """
    delta = p1 - p2
    if delta > 0 and abs(delta - epsilon) < CASE2_TOL:
        return epsilon
    return abs(epsilon - delta)


def implication_terms(
    fact: FactRecord, same_object_facts: Iterable[FactRecord], epsilon: float
) -> list[ImplicationTerm]:
    """Contributions of sibling facts to ``fact``, in ascending sibling id."""
    terms = []
    for sibling in sorted(same_object_facts, key=lambda f: f.fact_id):
        if sibling.fact_id == fact.fact_id or sibling.object != fact.object:
            continue
        factor = implication_factor(fact.pcf, sibling.pcf, epsilon)
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
    fact: FactRecord, same_object_facts: Iterable[FactRecord], epsilon: float
) -> float:
    """Confidence plus accumulated sibling implication, damped into [0, 1]."""
    total = fact.confidence
    for term in implication_terms(fact, same_object_facts, epsilon):
        total += term.contribution
    return damp(total)


def damp(s_prime: float) -> float:
    """Scale by the smallest power of ten bringing the value to at most 1.

    Identity for inputs already in [0, 1]; idempotent.
    """
    if s_prime < 0:
        raise ValueError(f"adjusted confidence must be non-negative, got {s_prime}")
    value = s_prime
    alpha = 0
    while value > 1.0:
        alpha += 1
        value = s_prime * 10.0**-alpha
    return value


def adjust_group(group: Sequence[FactRecord], epsilon: float, clamp: float) -> None:
    """Stage 3 for one object: set each fact's adjusted confidence and score.

    ``group`` is the object's facts in ascending fact id. Each fact's total
    starts at its own confidence and adds factor * confidence for every
    sibling in ascending id, with ``implication_factor`` inlined; then comes
    ``damp`` and the clamp to 1 - ``clamp``. These are the float operations
    of ``adjust_confidence``, in its order, so the results are equal.
    """
    ceiling = 1.0 - clamp
    scores = [(f.pcf, f.confidence) for f in group]
    for i, (p1, total) in enumerate(scores):
        for p2, s in chain(scores[:i], scores[i + 1 :]):
            delta = p1 - p2
            if delta > 0 and abs(delta - epsilon) < CASE2_TOL:
                total += epsilon * s
            else:
                total += abs(epsilon - delta) * s
        fact = group[i]
        fact.adjusted_confidence = min(damp(total), ceiling)
        fact.adjusted_score = confidence_score(fact.adjusted_confidence)


def run_epoch(
    state: TrustState, plan: EpochPlan | None = None
) -> tuple[TrustState, EpochReport]:
    """Execute one full three-stage pass on ``state``; returns it and a report.

    ``plan`` is ``build_plan(state)``, which ``run`` builds once for all its
    epochs; without one the epoch builds its own.

    Trust stage: a website still at trust zero takes the initial branch, the
    mean stored probability of its facts on known objects (equal to its
    claim-to-truth similarity); otherwise trust is the mean adjusted
    confidence of all its facts from the previous epoch. Websites with no
    facts keep their trust. Means add left to right from 0.0, so they do not
    depend on the Python version's ``sum``.

    Zero trust is the "first epoch" sentinel, following PAPER.md's method
    literally: a website whose facts all lie on objects outside the knowledge
    base scores 0 in the initial branch and so takes that branch again every
    epoch, staying at 0 however confident its shared facts become. Changing
    that is a separate decision about the method, not about this code.
    """
    t0 = perf_counter()
    if plan is None:
        plan = build_plan(state)
    cfg = state.config

    t1 = perf_counter()
    max_delta = 0.0
    for site, own in plan.sites:
        old = site.trust
        if not own:
            new = old
        elif old == 0.0:
            total = 0.0
            known = 0
            for fact in own:
                if not fact.unknown_object:
                    total += fact.pcf
                    known += 1
            new = total / known if known else 0.0
        else:
            total = 0.0
            for fact in own:
                total += fact.adjusted_confidence
            new = total / len(own)
        site.trust = new
        max_delta = max(max_delta, abs(new - old))
    t2 = perf_counter()

    for fact, providers in plan.facts:
        fact.confidence = fact_confidence(providers, cfg.confidence_clamp)
        fact.confidence_score = confidence_score(fact.confidence)
    t3 = perf_counter()

    for group in plan.groups:
        adjust_group(group, cfg.epsilon, cfg.confidence_clamp)
    t4 = perf_counter()

    state.epoch += 1
    report = EpochReport(
        epoch=state.epoch,
        max_trust_delta=max_delta,
        converged=max_delta < cfg.convergence_tol,
        trust_seconds=t2 - t1,
        confidence_seconds=t3 - t2,
        implication_seconds=t4 - t3,
        epoch_seconds=perf_counter() - t0,
    )
    return state, report


def run(state: TrustState) -> tuple[TrustState, list[EpochReport]]:
    """Repeat epochs on ``state`` until the largest trust change drops below tolerance.

    ``state.config`` gives the length: at most ``max_epochs`` epochs,
    stopping early once an epoch's largest trust change is below
    ``convergence_tol``. A tolerance of 0 runs exactly ``max_epochs`` epochs.
    """
    cfg = state.config
    if cfg.max_epochs < 1:
        raise ValueError(f"max_epochs must be at least 1, got {cfg.max_epochs}")
    plan = build_plan(state)
    reports: list[EpochReport] = []
    for _ in range(cfg.max_epochs):
        state, report = run_epoch(state, plan)
        reports.append(report)
        if report.max_trust_delta < cfg.convergence_tol:
            break
    return state, reports
