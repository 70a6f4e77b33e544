"""Voting and weighted-name baselines for method comparison.

The voting baseline scores by provider counts alone. The weighted-name
baseline reuses the full engine pipeline but scores facts with the
2:1:3 first/middle/last matcher instead of the substring-ratio function.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import add

from .corpus import EngineConfig, TrustState
from .engine import assign_pcf, run
from .similarity import Scorer, fact_pcf, tf_name_score

METHOD_PCF = "pcf"
METHOD_TRUTHFINDER = "truthfinder"
METHOD_VOTING = "voting"


@dataclass
class BaselineResult:
    method: str
    trusts: dict[str, float]
    winners: dict[str, int]


def voting_run(state: TrustState) -> BaselineResult:
    """Score websites by vote shares, ignoring fact truthness.

    Each distinct fact's share on an object is providers / total providers
    for that object; a website's trust is the mean share of its facts. The
    winner per object is the fact with the largest share (ties go to the
    smallest fact id).
    """
    share: dict[int, float] = {}
    winners: dict[str, int] = {}
    for obj, facts in sorted(state.facts_by_object().items()):
        total = sum(len(f.providers) for f in facts)
        for fact in facts:
            share[fact.fact_id] = len(fact.providers) / total
        winners[obj] = max(facts, key=lambda f: (share[f.fact_id], -f.fact_id)).fact_id

    trusts = {}
    for url, site in state.websites.items():
        own = sorted(site.fact_ids)
        trusts[url] = reduce(add, (share[fid] for fid in own), 0.0) / len(own) if own else 0.0
    return BaselineResult(METHOD_VOTING, trusts, winners)


def _engine_run(
    state: TrustState, config: EngineConfig | None, method: str, score: Scorer
) -> BaselineResult:
    # The engine updates the records it runs on, so it gets fresh ones and
    # the caller's stay as they were. They share the KB, the author lists and
    # the fact_ids/providers sets, which the engine never changes. At zero
    # trust, epoch 1 writes every fact field before reading it.
    working = TrustState(
        websites={url: replace(site, trust=0.0) for url, site in state.websites.items()},
        facts={fid: replace(fact) for fid, fact in state.facts.items()},
        kb=state.kb,
        config=state.config if config is None else config,
    )
    run(assign_pcf(working, score=score))

    winners = {
        obj: max(facts, key=lambda f: (f.adjusted_confidence, -f.fact_id)).fact_id
        for obj, facts in sorted(working.facts_by_object().items())
    }
    trusts = {url: site.trust for url, site in working.websites.items()}
    return BaselineResult(method, trusts, winners)


def truthfinder_run(state: TrustState, config: EngineConfig | None = None) -> BaselineResult:
    """Run the engine pipeline with the weighted-name fact scorer."""
    return _engine_run(state, config, METHOD_TRUTHFINDER, tf_name_score)


def pcf_run(state: TrustState, config: EngineConfig | None = None) -> BaselineResult:
    """Run the engine pipeline from a fresh zero-trust start."""
    return _engine_run(state, config, METHOD_PCF, fact_pcf)
