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
functions ``trust_stage``, ``confidences`` and ``adjust_confidences``. The
baselines call ``run_epochs`` on vectors of their own with ``trust_only``:
they keep only the last trust vector, so their last epoch runs stage 1 alone.

Stages 1 and 2 are plain loops over the index's positions that call no
function per site or fact: each mean, product and largest change is written
out inline, in the same float operations and order as the readable per-item
formulas that the tests hold as their reference, so the results equal those
formulas' bit for bit.

A sibling's implication factor depends only on the two facts' pcf and on
epsilon, which stay fixed for a whole run. So ``run_epochs`` builds the
:data:`ImplicationRows` once per run with ``implication_rows``, which fills
them by calling ``implication_factor``, the one place that holds the
formula. Each epoch's implication stage, ``adjust_confidences``, adds
``factor * confidence`` over each fact's siblings onto its own confidence
in ascending fact id, left to right, so every total is bit for bit what
computing each factor inside the fold would give. A group of k facts holds
few distinct pcf values d, so the rows take one of two forms, picked per
group by ``VALUE_ROWS_SHARE`` from k and d:

- per-fact rows, for small groups and groups of many values: each fact's
  sibling factors and sibling positions, O(k^2) memory. The fold multiplies
  and adds in bytecode.
- per-value groups, for large groups of few values: one factor row over the
  whole group per distinct value, O(k * d) memory. Each epoch the fold
  multiplies each row by the group's confidences once, in C, and then only
  adds the products before and after each fact's own position.

For one object with 120 facts and 10 values the per-fact rows would take
about 260 kB and the per-value rows take about 30 kB; with 1000 facts, about
16 MB against 0.4 MB. The stage timer ``implication_seconds`` times the fold
only, not the one-time build. The tests hold a readable per-fact reference
of the implication arithmetic as the oracle, and check that the results of
both forms equal the reference's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from time import perf_counter
from typing import Iterable, Sequence

from .corpus import EngineConfig, FactRecord, TrustState, Website
from .similarity import fact_pcf

# Absolute tolerance for detecting the delta == epsilon implication case.
CASE2_TOL = 1e-9
# Confidences are capped at 1 - CONFIDENCE_CLAMP, so that no fact is certain.
CONFIDENCE_CLAMP = 1e-10

# A group of n facts holding d distinct pcf values takes per-value rows when
# n >= VALUE_ROWS_SHARE * (d + VALUE_ROWS_SHARE): 20 facts for one value, 56
# for 10. Each epoch the per-value form makes d * n products in C, then adds
# n - 1 of them per fact; the per-fact form multiplies and adds in bytecode.
# Measured fold time per epoch, per-value over per-fact (median of 41
# alternating runs, CPython 3.11, 2-vCPU KVM guest): 1.16-1.69 at n = 8 and
# 0.94-1.56 at n = 16, whatever d; on the rule's edge 0.86-0.91 at (n, d) =
# (20, 1), (28, 3), (32, 4), (40, 6) and (56, 10); just outside it 0.91-1.00 at
# (32, 8), (40, 10), (56, 14) and (120, 40); 0.67 at (120, 10) and 1.54 at
# (120, 120).
VALUE_ROWS_SHARE = 4

# One float per site or per fact, in the order of an Index's sites or facts.
Vector = list[float]
# A per-fact row (k, factors, siblings): fact position k, the implication
# factors of k's siblings and their positions, siblings in ascending fact id.
FactRow = tuple[int, tuple[float, ...], tuple[int, ...]]
# A per-value group (group, value_rows, value_of): the group's fact positions
# in ascending fact id, one row of ``implication_factor`` against the whole
# group per distinct pcf value, and the index into ``value_rows`` of each
# fact's value.
ValueGroup = tuple[tuple[int, ...], tuple[tuple[float, ...], ...], tuple[int, ...]]
# (per-fact rows, per-value groups): every fact position of the groups in
# exactly one of them. Fixed for one (groups, pcf, epsilon); built by
# ``implication_rows``.
ImplicationRows = tuple[tuple[FactRow, ...], tuple[ValueGroup, ...]]


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
    # Sites in ascending id and providers too, so their positions ascend.
    fact_providers = tuple(tuple(map(site_at.__getitem__, f.providers)) for f in facts)
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
    """The sibling factors of ``groups``' facts, for ``adjust_confidences``.

    ``groups`` holds each object's fact positions in ascending fact id. A
    group of n facts holds d distinct pcf values, often few, so each
    distinct value's full row of ``implication_factor`` against the group is
    computed once. A group that ``VALUE_ROWS_SHARE`` picks keeps just those
    rows, a per-value group in O(n * d) memory; any other group gives each
    fact a per-fact row, its value's row without its own position, in
    O(n^2). Groups with the same pcf values share one plan, which holds no
    positions. A fact alone on its object gets a per-fact row of empty
    tuples, and no factor is computed.
    """
    fact_rows: list[FactRow] = []
    value_groups: list[ValueGroup] = []
    plans: dict[tuple[float, ...], tuple] = {}
    for group in map(tuple, groups):
        if len(group) == 1:
            fact_rows.append((group[0], (), ()))
            continue
        values = tuple(map(pcf.__getitem__, group))
        plan = plans.get(values)
        if plan is None:
            plan = plans[values] = _group_plan(values, epsilon)
        rows, value_of = plan
        if value_of is None:
            fact_rows += zip(group, rows, [group[:i] + group[i + 1 :] for i in range(len(group))])
        else:
            value_groups.append((group, rows, value_of))
    return tuple(fact_rows), tuple(value_groups)


def _group_plan(values: tuple[float, ...], epsilon: float) -> tuple[tuple, tuple[int, ...] | None]:
    """(per-value rows, each fact's value index), or (per-fact factors, None), for a group's pcf.

    Values that compare equal share a row: ``implication_factor`` gives the
    same bits for 0.0 and -0.0.
    """
    rows: dict[float, tuple[float, ...]] = {}
    for p1 in values:
        if p1 not in rows:
            rows[p1] = tuple([implication_factor(p1, p2, epsilon) for p2 in values])
    if len(values) >= VALUE_ROWS_SHARE * (len(rows) + VALUE_ROWS_SHARE):
        index = {p: i for i, p in enumerate(rows)}
        return tuple(rows.values()), tuple(map(index.__getitem__, values))
    full = map(rows.__getitem__, values)
    return tuple([row[:i] + row[i + 1 :] for i, row in enumerate(full)]), None


def adjust_confidences(rows: ImplicationRows, confidence: Vector, adjusted: Vector) -> None:
    """Stage 3: set ``adjusted`` at each fact position that ``rows`` holds.

    Each fact's total starts at its own confidence and adds factor *
    confidence for every sibling in ascending fact id, left to right; then
    comes ``damp`` and the cap at 1 - ``CONFIDENCE_CLAMP``. A per-value
    group multiplies each value row by the group's confidences once, in C,
    and each fact adds its row's products before its own position, then
    those after it: the same products in the same order.
    """
    ceiling = 1.0 - CONFIDENCE_CLAMP
    fact_rows, value_groups = rows
    for k, factors, siblings in fact_rows:
        total = confidence[k]
        for f, j in zip(factors, siblings):
            total += f * confidence[j]
        adjusted[k] = min(damp(total), ceiling)
    for group, value_rows, value_of in value_groups:
        confs = tuple(map(confidence.__getitem__, group))
        products = [tuple(map(mul, row, confs)) for row in value_rows]
        for i, (k, total, row) in enumerate(zip(group, confs, map(products.__getitem__, value_of))):
            for x in row[:i]:
                total += x
            for x in row[i + 1 :]:
                total += x
            adjusted[k] = min(damp(total), ceiling)


def trust_stage(ix: Index, pcf: Vector, trust: Vector, adjusted: Vector) -> tuple[Vector, float]:
    """Stage 1: the new trust vector and the largest trust change, leaving the inputs alone.

    A website still at trust zero takes the initial branch, the mean
    probability of its facts on known objects (equal to its claim-to-truth
    similarity); otherwise trust is the mean adjusted confidence of all its
    facts from the previous epoch. Websites with no facts keep their trust.
    Means add left to right from 0.0, so they do not depend on the Python
    version's ``sum``. The largest change is kept with ``delta > max_delta``
    over the change made non-negative, which is what ``max`` of ``abs``
    gives, NaN included; the facts per site come from one ``map(len, ...)``.

    Zero trust is the "first epoch" sentinel, following PAPER.md's method
    literally: a website whose facts all lie on objects outside the knowledge
    base scores 0 in the initial branch and so takes that branch again every
    epoch, staying at 0 however confident its shared facts become. Changing
    that is a separate decision about the method, not about this code.
    """
    known = ix.known
    new_trust = []
    append = new_trust.append
    max_delta = 0.0
    for old, own, n in zip(trust, ix.site_facts, map(len, ix.site_facts)):
        if not n:
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
            new = total / n
        append(new)
        delta = new - old
        if delta < 0.0:
            delta = -delta
        if delta > max_delta:
            max_delta = delta
    return new_trust, max_delta


def confidences(ix: Index, trust: Vector) -> Vector:
    """Stage 2: each fact's confidence from its providers' trusts.

    s(f) = 1 - prod(1 - t(w)) over f's providers, multiplied in ascending
    site id, capped at 1 - ``CONFIDENCE_CLAMP`` so that no fact is certain,
    even with a fully trusted provider. The cap, ``ceiling if c > ceiling
    else c``, is exactly ``min(c, ceiling)``, NaN included.
    """
    ceiling = 1.0 - CONFIDENCE_CLAMP
    confidence = []
    append = confidence.append
    for providers in ix.fact_providers:
        product = 1.0
        for i in providers:
            product *= 1.0 - trust[i]
        c = 1.0 - product
        append(ceiling if c > ceiling else c)
    return confidence


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
    counts the epochs. Fact confidences are not stored: ``confidences``
    derives them from the trusts.
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
