"""Trust-ordered result listings for ISBN and title queries."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .corpus import StateColumns, TrustState, normalize_name

# The keys of ``state.method_trusts`` that ``run`` and ``compare`` store and
# ``query --method`` ranks by.
METHOD_PCF = "pcf"
METHOD_TRUTHFINDER = "truthfinder"
METHOD_VOTING = "voting"


class StaleMethodError(Exception):
    """The requested ranking method has not been computed on this state."""


@dataclass(frozen=True)
class SerpRow:
    rank: int
    url: str
    trust: float
    object: str
    claimed_authors: tuple[str, ...]
    confidence: float


def rank_websites(
    state: TrustState | StateColumns, method: str = METHOD_PCF
) -> list[tuple[str, float]]:
    """All websites ordered by trust descending, url ascending on ties."""
    trusts = state.method_trusts.get(method)
    if trusts is None:
        raise StaleMethodError(
            f"method {method!r} has not been run on this state"
        )
    # Two C-level sorts instead of a Python key per site: the second is
    # stable, so sites of equal trust (0.0 and -0.0 too) keep url order.
    ranking = sorted(trusts.items(), key=itemgetter(0))
    ranking.sort(key=itemgetter(1), reverse=True)
    return ranking


def query(
    state: StateColumns, needle: str, method: str = METHOD_PCF, top_k: int = 10
) -> list[SerpRow]:
    """Rank the providers of objects matching an ISBN or title substring,
    over the columns of ``corpus.read_state``.

    An object matches when its ISBN equals the needle or its normalized
    title contains the normalized needle. One row is emitted per
    (website, fact) pair on a matched object, in ranking order and then
    ascending fact id, truncated to ``top_k``; a ``top_k`` below 1 raises
    ValueError. No matching object yields an empty list.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    needle = needle.strip()
    needle_norm = normalize_name(needle)
    matched = {isbn for isbn, title in zip(state.isbns, state.titles)
               if isbn == needle or (needle_norm and needle_norm in normalize_name(title))}
    # One sweep of the ISBN column: the facts on matched objects and on an
    # ISBN equal to the needle, sorted by fact id whatever the file order.
    objects, fact_ids = state.objects, state.fact_ids
    hits = list(compress(range(len(objects)), map((matched | {needle}).__contains__, objects)))
    if not (matched or hits):
        return []
    hits.sort(key=fact_ids.__getitem__)

    # Each site's matched facts, in ascending fact id.
    facts_of: dict[int, list[int]] = {}
    for i in hits:
        for site_id in state.providers[i]:
            facts_of.setdefault(site_id, []).append(i)

    rows: list[SerpRow] = []
    for url, trust in rank_websites(state, method):
        for i in facts_of.pop(state.site_of[url], ()):
            rows.append(SerpRow(len(rows) + 1, url, trust, objects[i], state.authors[i],
                                state.adjusted[i]))
            if len(rows) >= top_k:
                return rows
        if not facts_of:
            break
    return rows


def serp_tsv(rows: list[SerpRow]) -> str:
    """Tab-separated listing: rank, url, trust, isbn, authors, confidence."""
    lines = [
        "{}\t{}\t{:.6f}\t{}\t{}\t{:.6f}".format(
            row.rank,
            row.url,
            row.trust,
            row.object,
            ";".join(row.claimed_authors),
            row.confidence,
        )
        for row in rows
    ]
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
