"""Voting and weighted-name baselines for method comparison.

The voting baseline scores by provider counts alone. The weighted-name
baseline runs the engine's epochs but scores facts with the 2:1:3
first/middle/last matcher instead of the substring-ratio function. All
baselines work on vectors over an index of the state and write no record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from .corpus import EngineConfig, TrustState
from .engine import Index, Vector, run_epochs
from .similarity import Scorer, WeightedNameScorer, fact_pcf

METHOD_PCF = "pcf"
METHOD_TRUTHFINDER = "truthfinder"
METHOD_VOTING = "voting"


@dataclass
class BaselineResult:
    method: str
    trusts: dict[str, float]
    winners: dict[str, int]


def _result(method: str, ix: Index, trust: Vector, fact_score: Vector) -> BaselineResult:
    """Trusts by url; each object's winner is its fact of highest score, ties to the smallest id."""
    winners = {
        ix.facts[group[0]].object: ix.facts[max(group, key=lambda k: (fact_score[k], -k))].fact_id
        for group in ix.groups
    }
    return BaselineResult(method, {site.url: t for site, t in zip(ix.sites, trust)}, winners)


def voting_run(state: TrustState, ix: Index) -> BaselineResult:
    """Score websites by vote shares, ignoring fact truthness.

    Each distinct fact's share on an object is providers / total providers
    for that object; a website's trust is the mean share of its facts. The
    winner per object is the fact with the largest share.
    """
    share = [0.0] * len(ix.facts)
    for group in ix.groups:
        total = sum(len(ix.fact_providers[k]) for k in group)
        for k in group:
            share[k] = len(ix.fact_providers[k]) / total
    trust = [
        reduce(add, map(share.__getitem__, own), 0.0) / len(own) if own else 0.0
        for own in ix.site_facts
    ]
    return _result(METHOD_VOTING, ix, trust, share)


def _engine_run(
    state: TrustState, ix: Index, config: EngineConfig | None, method: str, score: Scorer
) -> BaselineResult:
    # From zero trust, epoch 1 reads only pcf, so the adjusted input is zeros.
    pcf = [
        score(fact.authors, state.kb[fact.object].authors) if known else 0.0
        for fact, known in zip(ix.facts, ix.known)
    ]
    config = state.config if config is None else config
    trust, adjusted, _ = run_epochs(
        ix, config, 0, pcf, [0.0] * len(ix.sites), [0.0] * len(ix.facts)
    )
    return _result(method, ix, trust, adjusted)


def truthfinder_run(
    state: TrustState, ix: Index, config: EngineConfig | None = None
) -> BaselineResult:
    """Run the engine's epochs from zero trust with the weighted-name fact scorer.

    One scorer serves the whole run, so each distinct name pair is scored once.
    """
    return _engine_run(state, ix, config, METHOD_TRUTHFINDER, WeightedNameScorer())


def pcf_run(state: TrustState, ix: Index, config: EngineConfig | None = None) -> BaselineResult:
    """Run the engine's epochs from zero trust with the substring-ratio fact scorer."""
    return _engine_run(state, ix, config, METHOD_PCF, fact_pcf)
