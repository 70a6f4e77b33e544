"""Name-similarity scoring.

Two scorers live here. The primary one treats a claimed author name as
correct to the degree that it is a contiguous substring of a true author
name, scored by the character-length ratio. The second is a weighted
first/middle/last name matcher (weights 2:1:3) used by the comparison
baseline. Its near-miss test, edit distance at most 2, uses Myers'
bit-parallel edit distance; the tests check it against the classic
dynamic program. Sites copy the same author names, so the baseline scores
through one :class:`WeightedNameScorer` per run: each distinct name is split
once, and each distinct name pair and part pair is scored once. Two exact
shortcuts skip most of that work: a claimed name equal to a true author
scores 1.0 without being paired, and two parts whose character sets differ
in more than four characters are more than two edits apart, so they skip
the edit distance.
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

    A name equal to a true author scores exactly 1.0 without the substring
    search: len/len is 1.0, and no name that contains it scores more. The
    sum adds left to right from 0.0, as every float sum in the package
    does, since the builtin ``sum`` rounds differently from Python 3.12 on.
    """
    if not claim_authors:
        return 0.0
    total = 0.0
    for name in claim_authors:
        total += 1.0 if name and name in true_authors else name_pcf(name, true_authors)
    return total / len(claim_authors)


def levenshtein(a: str, b: str) -> int:
    """Edit distance by Myers' bit-parallel algorithm (Hyyro's formulation).

    Bit i of the vectors holds column i of the dynamic program over the
    shorter string; each character of the longer one updates the whole
    column with a few integer operations. Python ints are the bit vectors,
    so there is no length limit.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if not m:
        return len(a)
    peq: dict[str, int] = {}
    for i, c in enumerate(b):
        peq[c] = peq.get(c, 0) | (1 << i)
    full = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = full, 0, m
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        # ``~`` sets every bit above m; only pv needs the mask, since mv
        # takes no bit that xv, and so pv, mv and eq, does not have.
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


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
    # The distance is at least the length difference.
    if abs(len(claim_part) - len(true_part)) > 2:
        return 0.0
    # It is also at least half the size of the character sets' symmetric
    # difference: a substitution changes that size by at most 2, an
    # insertion or a deletion by at most 1, so two edits change it by at
    # most 4 from the 0 of equal strings.
    if len(set(claim_part).symmetric_difference(true_part)) > 4:
        return 0.0
    if levenshtein(claim_part, true_part) <= 2:
        return 0.5
    return 0.0


class WeightedNameScorer:
    """The weighted-name fact scorer, remembering what it has computed.

    Scores exactly as :func:`tf_name_score`, but keeps each distinct name's
    parts, each (claim name, true name) score and each (claim part, true
    part) credit. Names and parts have memos of their own: a middle part such
    as "b c" is also a two-token name, and the two map to different values.
    The memos grow with the distinct names scored and last as long as the
    object, so make one per run. A claimed name that is one of the true
    authors and has a token scores 1.0 with no pair scored: that is its
    score against itself, and no pair scores more.
    """

    def __init__(self) -> None:
        self._parts: dict[str, dict[str, str]] = {}
        self._names: dict[tuple[str, str], float] = {}
        self._credits: dict[tuple[str | None, str], float] = {}

    def __call__(self, claim_authors: list[str], true_authors: list[str]) -> float:
        if not claim_authors or not true_authors:
            return 0.0
        total = 0.0
        for claim_name in claim_authors:
            # Against itself every part earns credit 1.0, so the score is
            # exactly 1.0; a name with no token, such as " ", scores 0.0.
            if claim_name in true_authors and self._split(claim_name):
                total += 1.0
            else:
                total += max(self._name_score(claim_name, true_name) for true_name in true_authors)
        return total / len(claim_authors)

    def _name_score(self, claim_name: str, true_name: str) -> float:
        key = (claim_name, true_name)
        score = self._names.get(key)
        if score is None:
            claim_parts = self._split(claim_name)
            total = 0.0
            granted = 0.0
            for part, value in self._split(true_name).items():
                weight = _PART_WEIGHTS[part]
                total += weight
                granted += weight * self._credit(claim_parts.get(part), value)
            score = self._names[key] = granted / total if total else 0.0
        return score

    def _split(self, name: str) -> dict[str, str]:
        parts = self._parts.get(name)
        if parts is None:
            parts = self._parts[name] = split_name_parts(name)
        return parts

    def _credit(self, claim_part: str | None, true_part: str) -> float:
        key = (claim_part, true_part)
        credit = self._credits.get(key)
        if credit is None:
            credit = self._credits[key] = _part_credit(claim_part, true_part)
        return credit


def tf_name_score(claim_authors: list[str], true_authors: list[str]) -> float:
    """Weighted first/middle/last matching score in [0, 1].

    Each claim author is paired with the true author giving it the highest
    part-weighted score (first 2, middle 1, last 3), then scores average
    over the claim's authors. A fresh :class:`WeightedNameScorer` scores
    the one fact, so nothing carries over from call to call.
    """
    return WeightedNameScorer()(claim_authors, true_authors)
