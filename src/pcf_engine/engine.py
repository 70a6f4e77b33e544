"""The trust/confidence/implication iteration.

``run`` updates the state it is given and returns that same object;
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

``build_index`` compiles a state once into an :class:`Index`: its records in
id order and their links as positions. An epoch, ``run_epoch``, is a
function over float vectors indexed by those positions and touches no
record. ``run`` reads the records into vectors once, runs the epochs through
``run_epochs`` and writes the last trust and adjusted-confidence vectors back
once; a stage-2 confidence lives for one epoch. The stages are the
functions ``trust_stage``, ``confidences`` (which calls ``fact_confidence``
on each fact's provider trusts) and ``adjust_confidences``. The baselines
call ``run_epochs`` on vectors of their own with ``trust_only``: they keep
only the last trust vector, so their last epoch runs stage 1 alone.

A sibling's implication factor depends only on the two facts' pcf and on
epsilon, which stay fixed for a whole run. So ``run_epochs`` builds the
:data:`ImplicationRows` once per run with ``implication_rows``, which fills
them by calling ``implication_factor``, the one place that holds the
formula. Each epoch's implication stage, ``adjust_confidences``, only folds
``total += factor * confidence`` over each fact's siblings in ascending fact
id, left to right, so every total is bit for bit what computing each factor
inside the fold would give. The rows take O(k^2) memory for a group of k
facts where the fold alone needs O(k): about 260 kB for one object with
120 facts. The stage timer ``implication_seconds`` times the fold only, not
the one-time build. The tests hold a readable per-fact reference of the
implication arithmetic as the oracle, and check that the fold's results
equal the reference's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

from .corpus import EngineConfig, FactRecord, TrustState, Website
from .similarity import fact_pcf

# Absolute tolerance for detecting the delta == epsilon implication case.
CASE2_TOL = 1e-9
# Confidences are capped at 1 - CONFIDENCE_CLAMP, so that no fact is certain.
CONFIDENCE_CLAMP = 1e-10

# One float per site or per fact, in the order of an Index's sites or facts.
Vector = list[float]
# Per fact position k: (k, the implication factors of k's siblings, their
# positions), siblings in ascending fact id. Fixed for one (groups, pcf,
# epsilon); built by ``implication_rows``.
ImplicationRows = tuple[tuple[int, tuple[float, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    max_trust_delta: float
    converged: bool
    trust_seconds: float
    confidence_seconds: float
    implication_seconds: float
    # The whole run_epoch call.
    epoch_seconds: float


@dataclass(frozen=True)
class Index:
    """A state's records in ascending id, and their links as positions into them.

    ``site_facts[i]`` holds site ``i``'s facts and ``fact_providers[k]`` fact
    ``k``'s providers, ascending; ``groups`` holds each object's facts,
    objects in the order of their smallest fact id; ``known[k]`` says whether
    fact ``k``'s object is in the KB. Epochs change no record or link.
    """

    sites: tuple[Website, ...]
    facts: tuple[FactRecord, ...]
    site_facts: tuple[tuple[int, ...], ...]
    fact_providers: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[int, ...], ...]
    known: tuple[bool, ...]


def build_index(state: TrustState) -> Index:
    """Compile ``state`` into the index that epochs and the baselines walk."""
    sites = sorted(state.websites.values(), key=lambda w: w.id)
    facts = [state.facts[fid] for fid in sorted(state.facts)]
    site_at = {site.id: i for i, site in enumerate(sites)}
    fact_providers = tuple(tuple(sorted(map(site_at.__getitem__, f.providers))) for f in facts)
    # Facts in ascending id: each site's list comes out ascending.
    site_facts: list[list[int]] = [[] for _ in sites]
    groups: dict[str, list[int]] = {}
    for k, (fact, providers) in enumerate(zip(facts, fact_providers)):
        for i in providers:
            site_facts[i].append(k)
        groups.setdefault(fact.object, []).append(k)
    return Index(
        sites=tuple(sites),
        facts=tuple(facts),
        site_facts=tuple(map(tuple, site_facts)),
        fact_providers=fact_providers,
        groups=tuple(map(tuple, groups.values())),
        known=tuple(fact.object in state.kb for fact in facts),
    )


def assign_pcf(state: TrustState) -> TrustState:
    """Score every fact's probability of correctness against the KB.

    Facts for objects missing from the knowledge base get probability 0.
    The scores depend only on the KB, so they stay fixed across epochs.
    """
    for fact in state.facts.values():
        truth = state.kb.get(fact.object)
        fact.pcf = fact_pcf(fact.authors, truth.authors) if truth else 0.0
    return state


def fact_confidence(trusts: Iterable[float]) -> float:
    """Confidence that a fact is correct given its providers' trusts.

    s(f) = 1 - prod(1 - t(w)) over ``trusts``, multiplied in the order
    given (the index's ascending site id), capped at 1 - ``CONFIDENCE_CLAMP``
    so that no fact is certain, even with a fully trusted provider.
    """
    product = 1.0
    for trust in trusts:
        product *= 1.0 - trust
    return min(1.0 - product, 1.0 - CONFIDENCE_CLAMP)


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


def implication_rows(
    groups: Iterable[Sequence[int]], pcf: Vector, epsilon: float
) -> ImplicationRows:
    """Each fact's sibling factors and sibling positions, for ``adjust_confidences``.

    ``groups`` holds each object's fact positions in ascending fact id. A
    group holds few distinct pcf values, so each distinct value's full row
    of ``implication_factor`` against the group is computed once, and a
    fact's factors are that row without its own position. A fact alone on
    its object gets empty tuples.
    """
    rows = []
    for group in map(tuple, groups):
        values = [pcf[k] for k in group]
        full: dict[float, tuple[float, ...]] = {}
        for i, (k, p1) in enumerate(zip(group, values)):
            row = full.get(p1)
            if row is None:
                row = full[p1] = tuple(implication_factor(p1, p2, epsilon) for p2 in values)
            rows.append((k, row[:i] + row[i + 1 :], group[:i] + group[i + 1 :]))
    return tuple(rows)


def adjust_confidences(rows: ImplicationRows, confidence: Vector, adjusted: Vector) -> None:
    """Stage 3: set ``adjusted`` at each fact position that ``rows`` holds.

    Each fact's total starts at its own confidence and adds factor *
    confidence for every sibling in ascending fact id, left to right; then
    comes ``damp`` and the cap at 1 - ``CONFIDENCE_CLAMP``.
    """
    ceiling = 1.0 - CONFIDENCE_CLAMP
    for k, factors, siblings in rows:
        total = confidence[k]
        for f, j in zip(factors, siblings):
            total += f * confidence[j]
        adjusted[k] = min(damp(total), ceiling)


def trust_stage(ix: Index, pcf: Vector, trust: Vector, adjusted: Vector) -> tuple[Vector, float]:
    """Stage 1: the new trust vector and the largest trust change, leaving the inputs alone.

    A website still at trust zero takes the initial branch, the mean
    probability of its facts on known objects (equal to its claim-to-truth
    similarity); otherwise trust is the mean adjusted confidence of all its
    facts from the previous epoch. Websites with no facts keep their trust.
    Means add left to right from 0.0, so they do not depend on the Python
    version's ``sum``.

    Zero trust is the "first epoch" sentinel, following PAPER.md's method
    literally: a website whose facts all lie on objects outside the knowledge
    base scores 0 in the initial branch and so takes that branch again every
    epoch, staying at 0 however confident its shared facts become. Changing
    that is a separate decision about the method, not about this code.
    """
    known = ix.known
    new_trust = []
    max_delta = 0.0
    for old, own in zip(trust, ix.site_facts):
        if not own:
            new = old
        elif old == 0.0:
            total = 0.0
            count = 0
            for k in own:
                if known[k]:
                    total += pcf[k]
                    count += 1
            new = total / count if count else 0.0
        else:
            total = 0.0
            for k in own:
                total += adjusted[k]
            new = total / len(own)
        new_trust.append(new)
        max_delta = max(max_delta, abs(new - old))
    return new_trust, max_delta


def confidences(ix: Index, trust: Vector) -> Vector:
    """Stage 2: ``fact_confidence`` over each fact's providers' trusts."""
    at = trust.__getitem__
    return [fact_confidence(map(at, providers)) for providers in ix.fact_providers]


def run_epoch(
    ix: Index,
    config: EngineConfig,
    epoch: int,
    pcf: Vector,
    rows: ImplicationRows,
    trust: Vector,
    adjusted: Vector,
) -> tuple[tuple[Vector, Vector], EpochReport]:
    """One three-stage pass; returns new (trust, adjusted) vectors and the
    report of epoch number ``epoch``, leaving its inputs alone.

    ``rows`` is ``implication_rows`` over ``ix.groups``, ``pcf`` and
    ``config.epsilon``. The stages are ``trust_stage``, ``confidences`` and
    ``adjust_confidences``, each timed.
    """
    t0 = perf_counter()
    new_trust, max_delta = trust_stage(ix, pcf, trust, adjusted)
    t1 = perf_counter()

    confidence = confidences(ix, new_trust)
    t2 = perf_counter()

    new_adjusted = [0.0] * len(confidence)
    adjust_confidences(rows, confidence, new_adjusted)
    t3 = perf_counter()

    report = EpochReport(
        epoch=epoch,
        max_trust_delta=max_delta,
        converged=max_delta < config.convergence_tol,
        trust_seconds=t1 - t0,
        confidence_seconds=t2 - t1,
        implication_seconds=t3 - t2,
        epoch_seconds=perf_counter() - t0,
    )
    return (new_trust, new_adjusted), report


def run_epochs(
    ix: Index,
    config: EngineConfig,
    epoch: int,
    pcf: Vector,
    trust: Vector,
    adjusted: Vector,
    *,
    trust_only: bool = False,
) -> tuple[Vector, Vector, list[EpochReport]]:
    """Repeat ``run_epoch`` after epoch number ``epoch``; returns its last
    (trust, adjusted) vectors and all reports.

    At most ``config.max_epochs`` epochs, stopping early after the first
    epoch whose report is ``converged`` (its largest trust change is below
    ``convergence_tol``). A tolerance of 0 runs exactly ``max_epochs`` epochs.
    The implication rows are built once, before the first epoch.

    ``trust_only`` is for a caller that keeps only the last trust vector.
    Whether an epoch is the last is known after its trust stage, so the last
    epoch stops there and its stages 2 and 3, whose results nobody reads, do
    not run. The epochs are the same; the returned trust is equal bit for
    bit, the adjusted vector is the one that last trust stage read, and no
    reports are made.
    """
    rows = implication_rows(ix.groups, pcf, config.epsilon)
    reports: list[EpochReport] = []
    last = epoch + config.max_epochs
    for number in range(epoch + 1, last + 1):
        if trust_only:
            trust, max_delta = trust_stage(ix, pcf, trust, adjusted)
            if number == last or max_delta < config.convergence_tol:
                break
            adjusted = [0.0] * len(ix.facts)
            adjust_confidences(rows, confidences(ix, trust), adjusted)
            continue
        (trust, adjusted), report = run_epoch(ix, config, number, pcf, rows, trust, adjusted)
        reports.append(report)
        if report.converged:
            break
    return trust, adjusted, reports


def run(state: TrustState) -> tuple[TrustState, list[EpochReport]]:
    """``run_epochs`` on vectors read from ``state``'s records, written back after the last epoch.

    The write-back sets every trust and adjusted confidence; ``state.epoch``
    counts the epochs. Fact confidences are not stored: each is
    ``fact_confidence`` over its providers' trusts.
    """
    ix = build_index(state)
    pcf = [fact.pcf for fact in ix.facts]
    adjusted = [fact.adjusted_confidence for fact in ix.facts]
    trust, adjusted, reports = run_epochs(
        ix, state.config, state.epoch, pcf, [site.trust for site in ix.sites], adjusted
    )
    for site, t in zip(ix.sites, trust):
        site.trust = t
    for fact, a in zip(ix.facts, adjusted):
        fact.adjusted_confidence = a
    state.epoch += len(reports)
    return state, reports
