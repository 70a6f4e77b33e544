import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcf_engine import corpus, engine, generator, serp

from test_corpus import _saved_text, valid_states

QUERY_ISBN = "8183330088"
OTHER_ISBN = "8183330090"

# Seven-site fixture: two tied at trust 1.0, one clearly last.
SITE_TRUSTS = {
    "http://shop-william.example.com": 0.25,
    "http://shop-123books.example.com": 0.210526315789474,
    "http://shop-balsingh.example.com": 0.337938596491228,
    "http://shop-textbook.example.com": 0.130756578947368,
    "http://shop-aggarwal.example.com": 1.0,
    "http://shop-acm.example.com": 0.58333333,
    "http://shop-pedersen.example.com": 1.0,
}


def bookstore_state():
    state = corpus.TrustState()
    state.kb[QUERY_ISBN] = corpus.TrueFact(
        object=QUERY_ISBN,
        authors=["ivan bayross"],
        title="web enabled commercial applications development",
    )
    state.kb[OTHER_ISBN] = corpus.TrueFact(
        object=OTHER_ISBN, authors=["someone else"], title="unrelated handbook"
    )
    providers_of_query = [
        "http://shop-aggarwal.example.com",
        "http://shop-pedersen.example.com",
        "http://shop-balsingh.example.com",
        "http://shop-william.example.com",
    ]
    fact_id = 0
    for idx, (url, trust) in enumerate(sorted(SITE_TRUSTS.items()), start=1):
        site = corpus.Website(id=idx, url=url, trust=trust)
        state.websites[url] = site
        fact_id += 1
        isbn = QUERY_ISBN if url in providers_of_query else OTHER_ISBN
        fact = corpus.FactRecord(
            fact_id=fact_id,
            object=isbn,
            authors=(f"claimed name {fact_id}",),
            providers=(idx,),
            adjusted_confidence=trust / 2,
        )
        state.facts[fact_id] = fact
    state.method_trusts["pcf"] = dict(SITE_TRUSTS)
    state.epoch = 1
    return state


def read_saved(state, tmp_path):
    """``state`` saved to a file and read back as ``corpus.read_state``'s columns."""
    path = tmp_path / "state.json"
    corpus.save_state(state, path)
    return corpus.read_state(path)


# The record-based query that ``serp.query`` replaced, kept as its oracle:
# the same rows over ``corpus.load_state``'s TrustState.
def reference_query(state, needle, method=serp.METHOD_PCF, top_k=10):
    """Every fact sorted by id, the matched ones grouped by provider, rows in ranking order."""
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    needle = needle.strip()
    needle_norm = corpus.normalize_name(needle)
    matched = {isbn for isbn, truth in state.kb.items()
               if isbn == needle or (needle_norm and needle_norm in corpus.normalize_name(truth.title))}
    facts = [fact for fact in map(state.facts.__getitem__, sorted(state.facts))
             if fact.object in matched or fact.object == needle]
    if not (matched or facts):
        return []
    facts_of = {}
    for fact in facts:
        for site_id in fact.providers:
            facts_of.setdefault(site_id, []).append(fact)
    rows = []
    for url, trust in serp.rank_websites(state, method):
        for fact in facts_of.get(state.websites[url].id, ()):
            rows.append(serp.SerpRow(len(rows) + 1, url, trust, fact.object, fact.authors,
                                     fact.adjusted_confidence))
            if len(rows) >= top_k:
                return rows
    return rows


class TestRankWebsites:
    def test_bookstore_fixture_order(self):
        ranking = serp.rank_websites(bookstore_state(), "pcf")
        urls = [url for url, _ in ranking]
        # The two trust-one sites lead, ordered by url; the weakest is last.
        assert urls[:2] == [
            "http://shop-aggarwal.example.com",
            "http://shop-pedersen.example.com",
        ]
        assert urls[-1] == "http://shop-textbook.example.com"
        trusts = [t for _, t in ranking]
        assert trusts == sorted(trusts, reverse=True)

    def test_equal_trusts_fall_back_to_url_order(self):
        state = bookstore_state()
        state.method_trusts["pcf"] = {url: 0.4 for url in SITE_TRUSTS}
        ranking = serp.rank_websites(state, "pcf")
        assert [url for url, _ in ranking] == sorted(SITE_TRUSTS)

    def test_single_website(self):
        state = corpus.TrustState()
        state.websites["http://only.com"] = corpus.Website(id=1, url="http://only.com", trust=0.7)
        state.method_trusts["pcf"] = {"http://only.com": 0.7}
        assert serp.rank_websites(state, "pcf") == [("http://only.com", 0.7)]

    def test_uncomputed_method_is_stale(self):
        with pytest.raises(serp.StaleMethodError):
            serp.rank_websites(bookstore_state(), "voting")

    # A few trusts, 0.0 and -0.0 among them, shared by many urls.
    @given(table=st.dictionaries(
        st.text(alphabet="ab/:.é", max_size=6),
        st.sampled_from([0.0, -0.0, 5e-324, 0.25, 1.0]) | st.floats(0, 1),
        max_size=30,
    ))
    def test_equals_the_key_function_reference(self, table):
        state = corpus.TrustState(method_trusts={"pcf": table})
        expected = sorted(table.items(), key=lambda item: (-item[1], item[0]))
        ranking = serp.rank_websites(state, "pcf")
        assert [(url, repr(t)) for url, t in ranking] == [(url, repr(t)) for url, t in expected]

    def test_positive_scaling_preserves_the_permutation(self):
        state = bookstore_state()
        before = [url for url, _ in serp.rank_websites(state, "pcf")]
        state.method_trusts["pcf"] = {
            url: t * 0.25 for url, t in state.method_trusts["pcf"].items()
        }
        after = [url for url, _ in serp.rank_websites(state, "pcf")]
        assert after == before


def ranked_books_state():
    """Twelve sites with four claims each over twelve books, after ``run``:
    "vol 1" matches several books, so a site lists several facts."""
    spec = generator.GenSpec(
        n_websites=12, n_objects=12, claims_per_site=4, corruption_rate=0.5, seed=3
    )
    books = generator.generate_kb(spec)
    state = corpus.build_state(
        {b.object: b for b in books},
        corpus.canonical_claims(generator.generate_claims(spec, books)),
    )
    state, _ = engine.run(engine.assign_pcf(state))
    state.method_trusts["pcf"] = {url: site.trust for url, site in state.websites.items()}
    return books, state


def _title_needle(title, draw):
    """A substring of ``title`` with its case changed, periods and commas put
    in, and its spaces widened."""
    start = draw(st.integers(0, len(title)))
    text = title[start:draw(st.integers(start, len(title)))].swapcase()
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([".", ",", ". "])) + text[at:]
    return "  " + text.replace(" ", draw(st.sampled_from([" ", "  ", " \t "]))) + " "


def _listing(query, state, needle, method, top):
    """The TSV of a query, or the type and text of what it raised."""
    try:
        return serp.serp_tsv(query(state, needle, method=method, top_k=top))
    except serp.StaleMethodError as exc:
        return ("stale", str(exc))


class TestQuery:
    def test_trusted_providers_lead_for_isbn(self, tmp_path):
        rows = serp.query(read_saved(bookstore_state(), tmp_path), QUERY_ISBN, method="pcf", top_k=10)
        assert [r.url for r in rows[:2]] == [
            "http://shop-aggarwal.example.com",
            "http://shop-pedersen.example.com",
        ]
        assert [r.rank for r in rows] == list(range(1, len(rows) + 1))
        assert all(r.object == QUERY_ISBN for r in rows)

    def test_title_substring_matches(self, tmp_path):
        rows = serp.query(read_saved(bookstore_state(), tmp_path), "Commercial Applications",
                          method="pcf")
        assert rows
        assert all(r.object == QUERY_ISBN for r in rows)

    def test_unmatched_needle_gives_empty_result(self, tmp_path):
        assert serp.query(read_saved(bookstore_state(), tmp_path), "no such isbn", method="pcf") == []

    def test_top_k_one(self, tmp_path):
        rows = serp.query(read_saved(bookstore_state(), tmp_path), QUERY_ISBN, method="pcf", top_k=1)
        assert len(rows) == 1
        assert rows[0].url == "http://shop-aggarwal.example.com"

    @pytest.mark.parametrize("needle", ["vol 1", "9780000000003", "no such title"])
    def test_equals_a_per_site_reference(self, tmp_path, needle):
        books, state = ranked_books_state()
        matched = {
            b.object
            for b in books
            if needle == b.object or needle in corpus.normalize_name(b.title)
        }
        expected = [
            (url, fact.fact_id)
            for url, _ in serp.rank_websites(state, "pcf")
            for fact in sorted(state.facts.values(), key=lambda f: f.fact_id)
            if state.websites[url].id in fact.providers and fact.object in matched
        ]
        by_key = {(f.object, f.authors): f.fact_id for f in state.facts.values()}
        rows = serp.query(read_saved(state, tmp_path), needle, top_k=1000)
        assert [(r.url, by_key[r.object, r.claimed_authors]) for r in rows] == expected
        if needle == "vol 1":
            assert len(expected) > len({url for url, _ in expected}) > 1

    def test_tables_in_reverse_file_order_give_the_same_rows(self, tmp_path):
        # The reversed file gives each site's facts in descending id.
        _, state = ranked_books_state()
        columns = read_saved(state, tmp_path)
        doc = json.loads((tmp_path / "state.json").read_text(encoding="utf-8"))
        for table in ("facts", "kb", "websites"):
            doc[table].reverse()
        reversed_path = tmp_path / "reversed.json"
        reversed_path.write_text(json.dumps(doc), encoding="utf-8")
        rows = serp.query(columns, "vol 1", top_k=1000)
        assert len(rows) > len({row.url for row in rows}) > 1
        assert serp.query(corpus.read_state(reversed_path), "vol 1", top_k=1000) == rows

    def test_repeat_query_is_identical(self, tmp_path):
        columns = read_saved(bookstore_state(), tmp_path)
        assert serp.query(columns, QUERY_ISBN) == serp.query(columns, QUERY_ISBN)

    def test_every_row_provides_a_fact_for_a_matched_object(self, tmp_path):
        state = bookstore_state()
        for row in serp.query(read_saved(state, tmp_path), QUERY_ISBN):
            site = state.websites[row.url]
            assert any(
                fact.object == QUERY_ISBN and site.id in fact.providers
                for fact in state.facts.values()
            )

    @settings(deadline=None)
    @given(state=valid_states(), data=st.data())
    def test_equals_the_reference_in_any_file_order(self, state, data):
        """The columns of a file whose facts, KB and websites come in any
        order give the reference's rows over ``load_state``'s records, for
        needles of five kinds, every method the state holds (and ``pcf``,
        stale or not) and every ``top`` up to one past the full listing."""
        doc = json.loads(_saved_text(state))
        if doc["facts"] and data.draw(st.booleans(), label="one isbn"):
            # As many facts as stay distinct move to one ISBN, so that a site
            # can list several facts of one needle.
            isbn = data.draw(st.sampled_from(sorted({doc["facts"][0]["isbn"], *state.kb})))
            taken = {tuple(fact["authors"]) for fact in doc["facts"] if fact["isbn"] == isbn}
            for fact in doc["facts"]:
                if tuple(fact["authors"]) not in taken:
                    taken.add(tuple(fact["authors"]))
                    fact["isbn"] = isbn
        if serp.METHOD_PCF not in doc["method_trusts"] and data.draw(st.booleans(), label="ranked"):
            # The table that `pcf run` stores, so that more needles reach the ranking.
            doc["method_trusts"][serp.METHOD_PCF] = {site["url"]: site["trust"] for site in doc["websites"]}
        for table in ("facts", "kb", "websites"):
            doc[table] = data.draw(st.permutations(doc[table]), label=table)
        fact_isbns = sorted({fact["isbn"] for fact in doc["facts"]} - state.kb.keys())
        kinds = {
            "kb isbn": sorted(state.kb),
            "fact isbn": fact_isbns,
            "title": [book.title for book in state.kb.values()],
            "whitespace": ["", " ", " \t\r\n "],
            "miss": ["no such needle \x00"],
        }
        kind = data.draw(st.sampled_from([kind for kind, options in kinds.items() if options]))
        needle = data.draw(st.sampled_from(kinds[kind]), label=kind)
        if kind == "title":
            needle = _title_needle(needle, data.draw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            columns, records = corpus.read_state(path), corpus.load_state(path)
        for method in sorted(doc["method_trusts"].keys() | {serp.METHOD_PCF}):
            full = _listing(reference_query, records, needle, method, 10**9)
            rows = full.count("\n") if isinstance(full, str) else 0
            for top in range(1, rows + 2):
                assert _listing(serp.query, columns, needle, method, top) == _listing(
                    reference_query, records, needle, method, top
                )


class TestSerpTsv:
    def test_format(self, tmp_path):
        rows = serp.query(read_saved(bookstore_state(), tmp_path), QUERY_ISBN, top_k=2)
        text = serp.serp_tsv(rows)
        lines = text.splitlines()
        assert len(lines) == 2
        first = lines[0].split("\t")
        assert first[0] == "1"
        assert first[1] == "http://shop-aggarwal.example.com"
        assert first[2] == "1.000000"
        assert first[3] == QUERY_ISBN
        assert first[5] == "0.500000"

    def test_empty(self):
        assert serp.serp_tsv([]) == ""
