"""Name-similarity scoring.

Two scorers live here. The primary one treats a claimed author name as
correct to the degree that it is a contiguous substring of a true author
name, scored by the character-length ratio. The second is a weighted
first/middle/last name matcher (weights 2:1:3) used by the comparison
baseline.
"""

from __future__ import annotations

from typing import Callable, Iterable

FIRST_WEIGHT = 2.0
MIDDLE_WEIGHT = 1.0
LAST_WEIGHT = 3.0

_PART_WEIGHTS = {"first": FIRST_WEIGHT, "middle": MIDDLE_WEIGHT, "last": LAST_WEIGHT}

# A fact scorer: (claimed authors, true authors) -> probability in [0, 1].
Scorer = Callable[[list[str], list[str]], float]


def name_pcf(claim_name: str, true_authors: Iterable[str]) -> float:
    """Probability that one claimed name is correct, in [0, 1].

    The best len(claim)/len(true) over the true authors that contain the
    claim as a contiguous substring, internal spaces counted: 1.0 exactly
    when the claim equals a true author, 0 when none contains it. An empty
    claim never matches.
    """
    if not claim_name:
        return 0.0
    best = 0.0
    for true_name in true_authors:
        if claim_name in true_name:
            ratio = len(claim_name) / len(true_name)
            if ratio > best:
                best = ratio
    return best


def fact_pcf(claim_authors: list[str], true_authors: list[str]) -> float:
    """Mean per-name correctness over a claim's author list.

    The sum adds left to right from 0.0, as every float sum in the package
    does, since the builtin ``sum`` rounds differently from Python 3.12 on.
    """
    if not claim_authors:
        return 0.0
    total = 0.0
    for name in claim_authors:
        total += name_pcf(name, true_authors)
    return total / len(claim_authors)


def levenshtein(a: str, b: str) -> int:
    """Edit distance via the classic two-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


def split_name_parts(name: str) -> dict[str, str]:
    """Split a normalized name into first/middle/last parts.

    One token is a bare last name; two tokens are first+last; with three or
    more, everything interior joins into the middle part.
    """
    tokens = name.split()
    if not tokens:
        return {}
    if len(tokens) == 1:
        return {"last": tokens[0]}
    if len(tokens) == 2:
        return {"first": tokens[0], "last": tokens[1]}
    return {"first": tokens[0], "middle": " ".join(tokens[1:-1]), "last": tokens[-1]}


def _part_credit(claim_part: str | None, true_part: str) -> float:
    # Full credit on exact match; half credit on a near miss (substring
    # either way, or within two edits); otherwise nothing.
    if not claim_part:
        return 0.0
    if claim_part == true_part:
        return 1.0
    if claim_part in true_part or true_part in claim_part:
        return 0.5
    if levenshtein(claim_part, true_part) <= 2:
        return 0.5
    return 0.0


def _weighted_name_score(claim_name: str, true_name: str) -> float:
    true_parts = split_name_parts(true_name)
    if not true_parts:
        return 0.0
    claim_parts = split_name_parts(claim_name)
    total = 0.0
    granted = 0.0
    for part, value in true_parts.items():
        weight = _PART_WEIGHTS[part]
        total += weight
        granted += weight * _part_credit(claim_parts.get(part), value)
    return granted / total


def tf_name_score(claim_authors: list[str], true_authors: list[str]) -> float:
    """Weighted first/middle/last matching score in [0, 1].

    Each claim author is paired with the true author giving it the highest
    part-weighted score (first 2, middle 1, last 3), then scores average
    over the claim's authors.
    """
    if not claim_authors or not true_authors:
        return 0.0
    total = 0.0
    for claim_name in claim_authors:
        total += max(_weighted_name_score(claim_name, t) for t in true_authors)
    return total / len(claim_authors)
