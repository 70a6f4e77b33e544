import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcf_engine import corpus, engine, generator, serp

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


class TestQuery:
    def test_trusted_providers_lead_for_isbn(self):
        rows = serp.query(bookstore_state(), QUERY_ISBN, method="pcf", top_k=10)
        assert [r.url for r in rows[:2]] == [
            "http://shop-aggarwal.example.com",
            "http://shop-pedersen.example.com",
        ]
        assert [r.rank for r in rows] == list(range(1, len(rows) + 1))
        assert all(r.object == QUERY_ISBN for r in rows)

    def test_title_substring_matches(self):
        rows = serp.query(bookstore_state(), "Commercial Applications", method="pcf")
        assert rows
        assert all(r.object == QUERY_ISBN for r in rows)

    def test_unmatched_needle_gives_empty_result(self):
        assert serp.query(bookstore_state(), "no such isbn", method="pcf") == []

    def test_top_k_one(self):
        rows = serp.query(bookstore_state(), QUERY_ISBN, method="pcf", top_k=1)
        assert len(rows) == 1
        assert rows[0].url == "http://shop-aggarwal.example.com"

    @pytest.mark.parametrize("needle", ["vol 1", "9780000000003", "no such title"])
    def test_equals_a_per_site_reference(self, needle):
        # Twelve sites with four claims each over twelve books: "vol 1"
        # matches several books, so a site lists several facts.
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
        rows = serp.query(state, needle, top_k=1000)
        assert [(r.url, by_key[r.object, r.claimed_authors]) for r in rows] == expected
        if needle == "vol 1":
            assert len(expected) > len({url for url, _ in expected}) > 1

    def test_repeat_query_is_identical(self):
        state = bookstore_state()
        assert serp.query(state, QUERY_ISBN) == serp.query(state, QUERY_ISBN)

    def test_every_row_provides_a_fact_for_a_matched_object(self):
        state = bookstore_state()
        for row in serp.query(state, QUERY_ISBN):
            site = state.websites[row.url]
            assert any(
                fact.object == QUERY_ISBN and site.id in fact.providers
                for fact in state.facts.values()
            )


class TestSerpTsv:
    def test_format(self):
        rows = serp.query(bookstore_state(), QUERY_ISBN, top_k=2)
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
