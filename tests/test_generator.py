"""The files ``pcf gen`` writes: the bytes of the reference writers, the
refusals of what those would have quoted or written wrongly, and a round trip
through the loaders."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcf_engine import corpus, generator

from conftest import reference_write_claims_file, reference_write_kb_file

specs = st.builds(
    generator.GenSpec,
    n_websites=st.integers(1, 60),
    n_objects=st.integers(1, 20),
    claims_per_site=st.integers(1, 4),
    corruption_rate=st.floats(0.0, 1.0),
    seed=st.integers(),
)


def corpus_of(spec):
    books = generator.generate_kb(spec)
    return books, generator.generate_claims(spec, books)


def assert_reference_bytes(tmp, books, claims):
    tmp = Path(tmp)
    generator.write_kb_file(tmp / "kb.jsonl", books)
    reference_write_kb_file(tmp / "ref-kb.jsonl", books)
    assert (tmp / "kb.jsonl").read_bytes() == (tmp / "ref-kb.jsonl").read_bytes()
    generator.write_claims_file(tmp / "claims.csv", claims)
    reference_write_claims_file(tmp / "ref-claims.csv", claims)
    assert (tmp / "claims.csv").read_bytes() == (tmp / "ref-claims.csv").read_bytes()


def book(**fields):
    row = {"object": "9780000000000", "authors": ["ann ax"], "title": "t", "price": 12.5}
    return generator.BookRow(**{**row, **fields})


def claim(**fields):
    row = {
        "website": "http://a.example/x", "object": "9780000000000", "authors": ["ann ax"],
        "publisher": "p", "price": 12.5, "quantity": 3,
    }
    return generator.ClaimRow(**{**row, **fields})


class TestReferenceBytes:
    @settings(max_examples=60, deadline=None)
    @given(spec=specs)
    def test_equals_the_reference_writers(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            assert_reference_bytes(tmp, *corpus_of(spec))

    def test_no_books_or_claims(self, tmp_path):
        assert_reference_bytes(tmp_path, [], [])
        assert (tmp_path / "kb.jsonl").read_text() == "\n"
        assert (tmp_path / "claims.csv").read_text() == ",".join(corpus.CLAIMS_HEADER) + "\n"

    def test_one_object_every_claim_corrupted(self, tmp_path):
        assert_reference_bytes(tmp_path, *corpus_of(generator.GenSpec(60, 1, 1, 1.0)))

    def test_claims_taking_every_corruption_op(self, tmp_path, monkeypatch):
        taken = set()

        def recorded(op):
            def run(rng, authors):
                taken.add(op.__name__)
                op(rng, authors)
            return run

        monkeypatch.setattr(
            generator, "CORRUPTION_OPS", list(map(recorded, generator.CORRUPTION_OPS))
        )
        assert_reference_bytes(tmp_path, *corpus_of(generator.GenSpec(40, 12, 4, 0.5)))
        assert taken == {
            "_truncate_tail", "_drop_middle_token", "_drop_author", "_replace_author"
        }

    @pytest.mark.parametrize("price", [0, 7, 10**20, -0.0, 5e-324, 1e308, 0.1 + 0.2])
    def test_any_finite_price(self, tmp_path, price):
        assert_reference_bytes(tmp_path, [book(), book(price=price, object="2")], [])

    def test_escaped_text(self, tmp_path):
        # JSON escapes these in the KB; none needs quotes in the claims file.
        text = "café \\ \t   \U0001f600 ' ;"
        books = [book(title=text, publisher=text, authors=[text, "b"], object=text)]
        claims = [claim(website=text, publisher=text, authors=[text, "b"], object=text)]
        assert_reference_bytes(tmp_path, books, claims)


class TestRefusals:
    # The csv module quotes some of these only on some interpreters, and
    # raises on NUL on others, so the old bytes for them depended on the version.
    @pytest.mark.parametrize("char", [",", '"', "\r", "\n", "\0"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("website", "http://b.example/{}"),
            ("object", "97800{}"),
            ("authors", ["ann ax", "bo{}b"]),
            ("publisher", "north{}star"),
            ("quantity", "1{}2"),
        ],
    )
    def test_claims_field_needing_quotes_names_its_row(self, tmp_path, field, value, char):
        value = [name.format(char) for name in value] if field == "authors" else value.format(char)
        path = tmp_path / "claims.csv"
        with pytest.raises(ValueError, match="^row 2: field .* holds a comma"):
            generator.write_claims_file(path, [claim(), claim(**{field: value}), claim()])
        assert not path.exists()

    @pytest.mark.parametrize("price", [True, False, math.nan, math.inf, -math.inf])
    def test_kb_price_that_no_loader_takes_names_its_line(self, tmp_path, price):
        path = tmp_path / "kb.jsonl"
        with pytest.raises(ValueError, match="^line 2: price must be a finite number"):
            generator.write_kb_file(path, [book(), book(price=price, object="2"), book()])
        assert not path.exists()
        # What the old writer wrote for it is refused on load.
        reference_write_kb_file(path, [book(), book(price=price, object="2")])
        with pytest.raises(corpus.CorpusError, match="line 2: price must be a finite number"):
            corpus.load_knowledge_base(path)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(spec=specs)
    def test_loaders_give_back_the_generated_corpus(self, spec):
        books, claims = corpus_of(spec)
        with tempfile.TemporaryDirectory() as tmp:
            kb_path, claims_path = Path(tmp) / "kb.jsonl", Path(tmp) / "claims.csv"
            generator.write_kb_file(kb_path, books)
            generator.write_claims_file(claims_path, claims)
            kb = corpus.load_knowledge_base(kb_path)
            loaded = corpus.load_claims(claims_path)
        assert [(f.object, f.authors, f.title) for f in kb.values()] == [
            (b.object, b.authors, b.title) for b in books
        ]
        assert loaded == corpus.canonical_claims(claims)

