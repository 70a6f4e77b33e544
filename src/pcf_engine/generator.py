"""Seeded synthetic corpus generation with controllable corruption.

Stands in for a live bookseller crawl: emits a knowledge base of invented
books and a claims table where each website copies the true author lists,
corrupting each claim independently with a configurable probability.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path

from .corpus import CLAIMS_HEADER, ObjectId, TrueFact

FIRST_NAMES = [
    "alice", "bruno", "carla", "deepak", "elena", "farid", "grace", "henrik",
    "irene", "jorge", "kavya", "liam", "meera", "nadia", "oscar", "priya",
    "quentin", "rosa", "stefan", "tomas", "uma", "viktor", "wendy", "yusuf",
]
MIDDLE_NAMES = ["b", "c", "d", "g", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v"]
LAST_NAMES = [
    "almeida", "bergstrom", "chatterjee", "dimitrov", "eriksson", "fontaine",
    "gallagher", "hashimoto", "ivanova", "jankowski", "kaufmann", "lindqvist",
    "moreau", "nakamura", "okafor", "petrov", "quispe", "rosenberg",
    "santana", "takahashi", "urbanski", "vasquez", "whitfield", "zimmerman",
]
TITLE_WORDS = [
    "applied", "complete", "essential", "modern", "practical", "advanced",
    "algorithms", "networks", "databases", "compilers", "statistics",
    "optimization", "systems", "analysis", "programming", "foundations",
    "handbook", "introduction", "principles", "patterns",
]
PUBLISHERS = [
    "north star press", "meridian books", "orchard house", "blue harbor",
    "summit academic", "lantern row",
]


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one reproducible synthetic corpus."""

    n_websites: int
    n_objects: int
    claims_per_site: int
    corruption_rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_websites < 1:
            raise ValueError("n_websites must be at least 1")
        if self.n_objects < 1:
            raise ValueError("n_objects must be at least 1")
        if self.claims_per_site < 1:
            raise ValueError("claims_per_site must be at least 1")
        if not 0.0 <= self.corruption_rate <= 1.0:
            raise ValueError("corruption_rate must lie in [0, 1]")


@dataclass
class BookRow(TrueFact):
    """One generated KB record: a true fact and the listing columns its files carry."""

    publisher: str = ""
    price: float = 0.0


@dataclass
class ClaimRow:
    """One generated claims row: a claim and the listing columns beside it.

    ``authors`` is in claimed order, as written to the claims file;
    ``corpus.canonical_claims`` sorts each row's names into the fact key
    that ``corpus.build_state`` merges on.
    """

    website: str
    object: ObjectId
    authors: list[str]
    publisher: str
    price: float
    quantity: int


def random_author(rng: random.Random) -> str:
    parts = [rng.choice(FIRST_NAMES)]
    if rng.random() < 0.5:
        parts.append(rng.choice(MIDDLE_NAMES))
    parts.append(rng.choice(LAST_NAMES))
    return " ".join(parts)


def generate_kb(spec: GenSpec) -> list[BookRow]:
    """Invent ``n_objects`` books with one to three distinct authors each."""
    rng = random.Random(spec.seed)
    books = []
    for i in range(spec.n_objects):
        authors: list[str] = []
        for _ in range(rng.randint(1, 3)):
            name = random_author(rng)
            while name in authors:
                name = random_author(rng)
            authors.append(name)
        title = " ".join(
            rng.choice(TITLE_WORDS) for _ in range(rng.randint(2, 4))
        ) + f" vol {i + 1}"
        books.append(
            BookRow(
                object=str(9780000000000 + i),
                authors=authors,
                title=title,
                publisher=rng.choice(PUBLISHERS),
                price=round(rng.uniform(8.0, 150.0), 2),
            )
        )
    return books


def _truncate_tail(rng: random.Random, authors: list[str]) -> None:
    # Keeps the claim a prefix of the true name, so containment survives.
    # A cut that would repeat another author leaves the name whole.
    idx = rng.randrange(len(authors))
    name = authors[idx]
    cut = rng.randint(1, 4)
    kept = name[: max(1, len(name) - cut)].rstrip() or name[:1]
    if kept not in authors:
        authors[idx] = kept


def _drop_middle_token(rng: random.Random, authors: list[str]) -> None:
    candidates = [i for i, name in enumerate(authors) if len(name.split()) >= 3]
    if not candidates:
        _truncate_tail(rng, authors)
        return
    idx = rng.choice(candidates)
    tokens = authors[idx].split()
    tokens.pop(rng.randrange(1, len(tokens) - 1))
    shorter = " ".join(tokens)
    if shorter in authors:
        _truncate_tail(rng, authors)
        return
    authors[idx] = shorter


def _drop_author(rng: random.Random, authors: list[str]) -> None:
    if len(authors) < 2:
        _truncate_tail(rng, authors)
        return
    authors.pop(rng.randrange(len(authors)))


def _replace_author(rng: random.Random, authors: list[str]) -> None:
    idx = rng.randrange(len(authors))
    name = random_author(rng)
    while name in authors:
        name = random_author(rng)
    authors[idx] = name


# Each op changes the list in place and never writes a name that the list
# already holds: a claim names each author once, and ingest refuses a repeat.
CORRUPTION_OPS = [_truncate_tail, _drop_middle_token, _drop_author, _replace_author]


def corrupt_authors(
    rng: random.Random, authors: list[str], rate: float
) -> list[str]:
    """Copy an author list, applying one random corruption with probability ``rate``."""
    out = list(authors)
    if rate > 0.0 and rng.random() < rate:
        rng.choice(CORRUPTION_OPS)(rng, out)
    return out


def generate_claims(spec: GenSpec, kb: list[BookRow]) -> list[ClaimRow]:
    """One claims row per (website, object) pair, objects assigned round-robin.

    Round-robin assignment keeps per-object provider counts uniform: with
    fewer objects than total claims, sites wrap around and overlap.
    """
    rng = random.Random(spec.seed + 1)
    claims = []
    for site_index in range(spec.n_websites):
        url = f"http://books-{site_index + 1:03d}.example.net/store"
        for j in range(spec.claims_per_site):
            book = kb[(site_index * spec.claims_per_site + j) % spec.n_objects]
            claims.append(
                ClaimRow(
                    website=url,
                    object=book.object,
                    authors=corrupt_authors(rng, book.authors, spec.corruption_rate),
                    publisher=book.publisher,
                    price=book.price,
                    quantity=rng.randint(1, 40),
                )
            )
    return claims


def write_kb_file(path: str | Path, books: list[BookRow]) -> None:
    """Write ``books`` as JSON Lines, each line the text of ``json.dumps(record,
    sort_keys=True)`` built from one template: strings through its ASCII
    escaper, the price through ``repr``. A price that is not a finite int or
    float (a bool, NaN or an infinity) raises ValueError naming its line."""
    for number, price in enumerate([book.price for book in books], 1):
        if type(price) not in (int, float) or price != price or abs(price) == math.inf:
            raise ValueError(f"line {number}: price must be a finite number, not {price!r}")
    Path(path).write_text("".join([
        f'{{"authors": [{", ".join(map(_encode, book.authors))}], "isbn": {_encode(book.object)}, '
        f'"price": {book.price!r}, "publisher": {_encode(book.publisher)}, '
        f'"title": {_encode(book.title)}}}\n'
        for book in books
    ]) or "\n", encoding="utf-8")


def write_claims_file(path: str | Path, claims: list[ClaimRow]) -> None:
    """Write ``claims`` under ``CLAIMS_HEADER``, each row its six fields joined by
    commas: ``csv.writer``'s text (``lineterminator="\\n"``) for fields needing no
    quotes. A field holding a comma, ``"``, CR, LF or NUL raises ValueError naming its row."""
    rows = [CLAIMS_HEADER] + [
        (c.website, c.object, ";".join(c.authors), c.publisher, repr(c.price), str(c.quantity))
        for c in claims
    ]
    text = "\n".join(map(",".join, rows)) + "\n"
    # The joins put five commas in each row and an LF after it; any more came from a field.
    counts = (text.count(","), text.count("\n"))
    if counts != (5 * len(rows), len(rows)) or any(map(text.__contains__, '"\r\0')):
        number, field = next(
            (number, field) for number, row in enumerate(rows) for field in row
            if any(map(field.__contains__, ',"\r\n\0'))
        )
        raise ValueError(f"row {number}: field {field!r} holds a comma, a quote, CR, LF or NUL")
    Path(path).write_text(text, encoding="utf-8")
