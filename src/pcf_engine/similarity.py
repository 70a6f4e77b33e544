"""Name-similarity scoring.

Two scorers live here. The primary one treats a claimed author name as
correct to the degree that it is a contiguous substring of a true author
name, scored by the character-length ratio. The second is a weighted
first/middle/last name matcher (weights 2:1:3) used by the comparison
baseline. Its near-miss test, edit distance at most 2, uses Myers'
bit-parallel edit distance; the tests check it against the classic
dynamic program. Sites copy the same author names, so one
:func:`weighted_name_scores` call scores all of a run's facts, splitting
each distinct name once and crediting each distinct unequal part pair
once. Exact shortcuts skip most of that work: a claimed name equal to a
true author scores 1.0 unpaired, equal parts take full credit inline, and
parts whose character sets differ in more than four characters are more
than two edits apart, so they skip the edit distance.
"""

from __future__ import annotations

from typing import Iterable, Sequence

FIRST_WEIGHT = 2.0
MIDDLE_WEIGHT = 1.0
LAST_WEIGHT = 3.0


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


def fact_pcf(claim_authors: Sequence[str], true_authors: Sequence[str]) -> float:
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


class _NameParts(dict):
    """A normalized name's (first, middle, last) parts on lookup, each split once.

    One token is a bare last name; two tokens are first+last; with three or
    more, everything interior joins into the middle part. An absent part is
    None, and so is a name with no token.
    """

    def __missing__(self, name: str) -> tuple[str | None, str | None, str] | None:
        tokens = name.split()
        if not tokens:
            parts = None
        elif len(tokens) == 1:
            parts = None, None, tokens[0]
        else:
            parts = tokens[0], " ".join(tokens[1:-1]) or None, tokens[-1]
        self[name] = parts
        return parts


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


def weighted_name_scores(pairs: Iterable[tuple[Sequence[str], Sequence[str]]]) -> list[float]:
    """The weighted first/middle/last score in [0, 1] of each (claimed
    authors, true authors) pair, in order.

    Each claimed name takes its best part-weighted score (first 2, middle 1,
    last 3) over the true authors, and a fact scores the mean over its
    claimed names, added left to right from 0.0; either list empty scores
    0.0. Weights and credits sum to multiples of 0.5 no larger than 6, exact
    in any order. A claimed name that is a true author and has a token
    scores 1.0, its score against itself, unpaired. The memos last one call.
    """
    split = _NameParts()
    credits: dict[tuple[str, str], float] = {}
    scores = []
    for claim_authors, true_authors in pairs:
        if not claim_authors or not true_authors:
            scores.append(0.0)
            continue
        total = 0.0
        for claim_name in claim_authors:
            # strip() drops the whitespace split() splits on: text is left iff there is a token.
            if claim_name in true_authors and claim_name.strip():
                total += 1.0
                continue
            claim = split[claim_name]
            if claim is None:
                continue
            first, middle, last = claim
            best = 0.0
            for true_name in true_authors:
                true = split[true_name]
                if true is None:
                    continue
                true_first, true_middle, true_last = true
                if true_last == last:
                    granted = LAST_WEIGHT
                else:
                    if (credit := credits.get((last, true_last))) is None:
                        credit = credits[last, true_last] = _part_credit(last, true_last)
                    granted = LAST_WEIGHT * credit
                weight = LAST_WEIGHT
                if true_first is not None:
                    weight += FIRST_WEIGHT
                    if true_first == first:
                        granted += FIRST_WEIGHT
                    elif first is not None:
                        if (credit := credits.get((first, true_first))) is None:
                            credit = credits[first, true_first] = _part_credit(first, true_first)
                        granted += FIRST_WEIGHT * credit
                    if true_middle is not None:
                        weight += MIDDLE_WEIGHT
                        if true_middle == middle:
                            granted += MIDDLE_WEIGHT
                        elif middle is not None:
                            if (credit := credits.get((middle, true_middle))) is None:
                                credit = credits[middle, true_middle] = _part_credit(middle, true_middle)
                            granted += MIDDLE_WEIGHT * credit
                score = granted / weight
                if score > best:
                    best = score
            total += best
        scores.append(total / len(claim_authors))
    return scores


def tf_name_score(claim_authors: Sequence[str], true_authors: Sequence[str]) -> float:
    """The weighted-name score of one fact, by :func:`weighted_name_scores`."""
    return weighted_name_scores([(claim_authors, true_authors)])[0]
