"""Voting and weighted-name baselines for method comparison.

The voting baseline scores by provider counts alone. The weighted-name
baseline runs the engine's epochs but scores facts with the 2:1:3
first/middle/last matcher, all in one ``weighted_name_scores`` call, instead
of the substring-ratio function; the pcf run reads the substring-ratio
scores that ``ingest`` stored in ``fact.pcf``, as ``pcf run`` does. Each run
returns its url -> trust table in the index's site order; the engine runs
read ``state.config`` and keep only the last trust vector, so their last
epoch runs the trust stage alone (``run_epochs(..., trust_only=True)``). All
baselines work on vectors over an index of the state and write no record.
"""

from __future__ import annotations

from .corpus import TrustState
from .engine import Index, run_epochs
from .similarity import weighted_name_scores


def voting_run(state: TrustState, ix: Index) -> dict[str, float]:
    """Score websites by vote shares, ignoring fact truthness.

    Each distinct fact's share on an object is providers / total providers
    for that object; a website's trust is the mean share of its facts, 0.0
    for a website with none. The provider counts are taken once, each
    object's total is summed as integers, and each website's shares are
    added from 0.0 in ascending fact id: plain loops with no function call
    per fact or site.
    """
    counts = list(map(len, ix.fact_providers))
    share = [0.0] * len(counts)
    for group in ix.groups:
        votes = 0
        for k in group:
            votes += counts[k]
        for k in group:
            share[k] = counts[k] / votes
    table = {}
    for site, own, n in zip(ix.sites, ix.site_facts, map(len, ix.site_facts)):
        total = 0.0
        for k in own:
            total += share[k]
        table[site.url] = total / n if n else 0.0
    return table


def _engine_run(state: TrustState, ix: Index, pcf: list[float]) -> dict[str, float]:
    # From zero trust, epoch 1 reads only pcf, so the adjusted input is zeros.
    trust, _, _ = run_epochs(
        ix, state.config, 0, pcf, [0.0] * len(ix.sites), [0.0] * len(ix.facts), trust_only=True
    )
    return {site.url: t for site, t in zip(ix.sites, trust)}


def truthfinder_run(state: TrustState, ix: Index) -> dict[str, float]:
    """Run the engine's epochs from zero trust with the weighted-name fact scorer.

    One ``weighted_name_scores`` call scores all facts, each name split once;
    a fact off the KB is scored against no true author, which gives 0.0.
    """
    pcf = weighted_name_scores(
        (fact.authors, state.kb[fact.object].authors if known else [])
        for fact, known in zip(ix.facts, ix.known)
    )
    return _engine_run(state, ix, pcf)


def pcf_run(state: TrustState, ix: Index) -> dict[str, float]:
    """Run the engine's epochs from zero trust on the stored substring-ratio scores.

    The scores are each fact's ``pcf``, as ``assign_pcf`` stored them at
    ingest, so the table equals ``engine.run`` from zero trust on the state.
    """
    return _engine_run(state, ix, [fact.pcf for fact in ix.facts])
