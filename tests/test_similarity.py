import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pcf_engine import corpus, engine, similarity

from conftest import CORE_ISBN, CORE_TRUTH, W2, core_java_claims, make_claim, one_epoch

# Normalized-name strategy: lowercase words separated by single spaces.
words = st.text(alphabet="abcdefghij", min_size=1, max_size=8)
names = st.builds(" ".join, st.lists(words, min_size=1, max_size=4))


def levenshtein_dp(a: str, b: str) -> int:
    """Reference edit distance: the classic two-row dynamic program."""
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


def _reference_part_credit(claim_part, true_part):
    if not claim_part:
        return 0.0
    if claim_part == true_part:
        return 1.0
    if claim_part in true_part or true_part in claim_part:
        return 0.5
    if levenshtein_dp(claim_part, true_part) <= 2:
        return 0.5
    return 0.0


_PART_WEIGHTS = {"first": 2.0, "middle": 1.0, "last": 3.0}


def split_name_parts(name):
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


def _reference_weighted_name_score(claim_name, true_name):
    true_parts = split_name_parts(true_name)
    if not true_parts:
        return 0.0
    claim_parts = split_name_parts(claim_name)
    total = 0.0
    granted = 0.0
    for part, value in true_parts.items():
        weight = _PART_WEIGHTS[part]
        total += weight
        granted += weight * _reference_part_credit(claim_parts.get(part), value)
    return granted / total


def reference_tf_name_score(claim_authors, true_authors):
    """The weighted-name scorer as one function per (claim, true) pair over
    the dynamic program, with no length prefilter and no shared splits."""
    if not claim_authors or not true_authors:
        return 0.0
    total = 0.0
    for claim_name in claim_authors:
        total += max(_reference_weighted_name_score(claim_name, t) for t in true_authors)
    return total / len(claim_authors)


# Edit-distance text: repeats ("a" twice), non-ASCII and a space; short
# strings or ones longer than 64 characters, one machine word.
_chars = st.sampled_from("aabcé😀 ")
texts = st.text(alphabet=_chars, max_size=12) | st.text(alphabet=_chars, min_size=60, max_size=140)


@st.composite
def edited(draw, text, max_edits=3):
    """``text`` after up to ``max_edits`` random insertions, deletions and substitutions."""
    chars = list(text)
    for _ in range(draw(st.integers(0, max_edits))):
        op = draw(st.sampled_from(["insert", "delete", "substitute"]))
        if op != "insert" and not chars:
            continue
        at = draw(st.integers(0, len(chars) - (op != "insert")))
        if op == "delete":
            del chars[at]
        elif op == "insert":
            chars.insert(at, draw(_chars))
        else:
            chars[at] = draw(_chars)
    return "".join(chars)


@st.composite
def text_pairs(draw):
    a = draw(texts)
    b = draw(edited(a) | texts)
    return a, b


tokens = st.text(alphabet="abcdeé", min_size=1, max_size=9)
true_names = st.builds(" ".join, st.lists(tokens, min_size=1, max_size=4))


@st.composite
def name_lists(draw):
    """(claimed names, true names); most claims are true names whose tokens
    are each up to three edits off, some with a token dropped."""
    truth = draw(st.lists(true_names, min_size=1, max_size=3))
    claims = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)) == 0:
            claims.append(draw(true_names))
            continue
        parts = [draw(edited(token)) for token in draw(st.sampled_from(truth)).split()]
        if len(parts) > 1 and draw(st.booleans()):
            del parts[draw(st.integers(0, len(parts) - 1))]
        claims.append(" ".join(parts))
    return claims, truth


class TestCharLength:
    """Name ratios are character-length ratios, internal spaces counted."""

    def test_counts_internal_spaces(self):
        assert similarity.name_pcf("gary", ["gary cornell"]) == 4 / 12
        assert similarity.name_pcf("cay s", ["cay s horstmenn"]) == 5 / 15
        assert similarity.name_pcf("s horstmenn", ["cay s horstmenn"]) == 11 / 15

    def test_empty(self):
        # An empty true name has no characters to contain a claim.
        assert similarity.name_pcf("gary", ["", "gary cornell"]) == 4 / 12
        assert similarity.name_pcf("gary", [""]) == 0.0


class TestNamePcf:
    def test_worked_example_ratios(self):
        assert similarity.name_pcf("cay s horstmenn", CORE_TRUTH) == 1.0
        assert similarity.name_pcf("gary", CORE_TRUTH) == pytest.approx(1 / 3)
        assert similarity.name_pcf("horstmenn", CORE_TRUTH) == pytest.approx(0.6)
        assert similarity.name_pcf("corne", CORE_TRUTH) == pytest.approx(5 / 12)

    def test_no_containment_gives_zero(self):
        assert similarity.name_pcf("zzz", CORE_TRUTH) == 0.0

    def test_empty_claim_gives_zero(self):
        assert similarity.name_pcf("", CORE_TRUTH) == 0.0

    @given(claim=names, truth=st.lists(names, min_size=1, max_size=4))
    def test_bounded_and_exact_iff_equal(self, claim, truth):
        score = similarity.name_pcf(claim, truth)
        assert 0.0 <= score <= 1.0
        if score == 1.0:
            assert claim in truth
        if claim in truth:
            assert score == 1.0

    @given(claim=names, padding=words)
    def test_lengthening_the_match_never_raises_the_ratio(self, claim, padding):
        base = similarity.name_pcf(claim, [claim])
        longer = similarity.name_pcf(claim, [claim + " " + padding])
        assert longer <= base


def reference_fact_pcf(claim_authors, true_authors):
    """The readable fact score: the mean, added left to right, of each name's
    best len(name)/len(true) over the true authors that hold the name."""
    if not claim_authors:
        return 0.0
    total = 0.0
    for name in claim_authors:
        ratios = [len(name) / len(true) for true in true_authors if name and name in true]
        total += max(ratios, default=0.0)
    return total / len(claim_authors)


# True author lists whose names hold one another, so that a claimed name can
# equal one true author and lie within several others.
PCF_TRUTHS = ["ab", "a b", "ab c", "x ab", "b", ""]


@st.composite
def pcf_cases(draw):
    """A claimed and a true author list: empty names, names equal to a true
    author, contiguous pieces of true authors, and unrelated names."""
    truth = draw(st.lists(st.sampled_from(PCF_TRUTHS) | names, max_size=4))
    claimed = st.just("") | names
    if truth:
        pieces = st.sampled_from(truth).flatmap(lambda true: st.lists(
            st.integers(0, len(true)), min_size=2, max_size=2
        ).map(lambda ends: true[min(ends):max(ends)]))
        claimed |= st.sampled_from(truth) | pieces
    return draw(st.lists(claimed, max_size=5)), truth


class TestFactPcf:
    @given(case=pcf_cases())
    @example(case=([], ["ab"]))
    @example(case=(["", "ab"], ["ab", ""]))
    @example(case=(["ab", "b", "a b"], ["ab", "ab c", "x ab", "a b"]))
    def test_equals_the_per_name_reference(self, case):
        claimed, truth = case
        expected = reference_fact_pcf(claimed, truth)
        assert similarity.fact_pcf(claimed, truth).hex() == expected.hex()

    def test_one_exact_one_truncated(self):
        score = similarity.fact_pcf(["cay s horstmenn", "gary"], CORE_TRUTH)
        assert score == pytest.approx((1 + 1 / 3) / 2)

    def test_both_truncated(self):
        score = similarity.fact_pcf(["horstmenn", "corne"], CORE_TRUTH)
        assert score == pytest.approx(0.5083333, abs=1e-6)

    def test_identical_lists(self):
        assert similarity.fact_pcf(list(CORE_TRUTH), CORE_TRUTH) == 1.0


class TestWebsiteSim:
    """A website's similarity, the mean claim-to-truth score of its facts on
    known objects, is the trust the first epoch gives it."""

    def _trust(self, claims, kb, url="http://x.com"):
        state, _ = one_epoch(engine.assign_pcf(corpus.build_state(kb, corpus.canonical_claims(claims))))
        return state.websites[url].trust

    def test_exact_copy_site(self, core_java_kb):
        claims = [make_claim("http://x.com", CORE_ISBN, CORE_TRUTH)]
        assert self._trust(claims, core_java_kb) == 1.0

    def test_truncating_site(self, core_java_kb):
        score = self._trust(core_java_claims(), core_java_kb, url=W2)
        assert score == pytest.approx(0.5083333, abs=1e-6)

    def test_mean_of_exact_and_garbage(self, core_java_kb):
        kb = dict(core_java_kb)
        kb["2222"] = corpus.TrueFact(object="2222", authors=["annoth er"])
        claims = [
            make_claim("http://x.com", CORE_ISBN, CORE_TRUTH),
            make_claim("http://x.com", "2222", ["qqqq qq"]),
        ]
        assert self._trust(claims, kb) == 0.5

    def test_unknown_objects_do_not_enter_the_mean(self, core_java_kb):
        claims = [
            make_claim("http://x.com", CORE_ISBN, CORE_TRUTH),
            make_claim("http://x.com", "not-in-kb", ["qqqq qq"]),
        ]
        assert self._trust(claims, core_java_kb) == 1.0

    def test_no_scorable_facts_gives_zero(self, core_java_kb):
        claims = [make_claim("http://x.com", "not-in-kb", ["qqqq qq"])]
        assert self._trust(claims, core_java_kb) == 0.0


class TestLevenshtein:
    def test_known_distances(self):
        assert similarity.levenshtein("simsio", "simsion") == 1
        assert similarity.levenshtein("grame", "graeme") == 1
        assert similarity.levenshtein("", "abc") == 3
        assert similarity.levenshtein("kitten", "sitting") == 3

    @given(a=words, b=words)
    def test_symmetry_and_identity(self, a, b):
        assert similarity.levenshtein(a, b) == similarity.levenshtein(b, a)
        assert similarity.levenshtein(a, a) == 0


class TestLevenshteinFastPath:
    """The bit-parallel distance equals the dynamic program."""

    @given(pair=text_pairs())
    @example(pair=("", ""))
    @example(pair=("", "é😀"))
    @example(pair=("aaaa", "aa"))
    @example(pair=("a" * 70, "a" * 69 + "b"))
    @example(pair=("ab" * 40, "ba" * 40))
    @example(pair=("é" * 65 + "😀", "😀" + "é" * 65))
    def test_equals_the_dynamic_program(self, pair):
        a, b = pair
        assert similarity.levenshtein(a, b) == levenshtein_dp(a, b)


class TestPartCredit:
    """A part's credit equals the reference, which always runs the dynamic
    program; the character-set bound only skips distances above 2."""

    @given(pair=text_pairs())
    # Set difference 4 ({a, b, c, d}) at distance 2: still a near miss.
    @example(pair=("ab", "cd"))
    # Set difference 6 at distance 3: no credit.
    @example(pair=("abc", "xyz"))
    def test_equals_the_reference(self, pair):
        a, b = pair
        assert similarity._part_credit(a, b) == _reference_part_credit(a, b)

    def test_bound_skips_the_edit_distance(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return levenshtein_dp(a, b)

        monkeypatch.setattr(similarity, "levenshtein", counting)
        assert similarity._part_credit("abc", "xyz") == 0.0
        assert calls == []
        assert similarity._part_credit("ab", "cd") == 0.5
        assert calls == [("ab", "cd")]


class TestTfNameScoreReference:
    """The scorer equals the per-pair formulation over the dynamic program."""

    @given(lists=name_lists())
    @example(lists=(["grame c simsio", "graeme c simsion"], ["graeme c simsion"]))
    @example(lists=(["gr simsionnn", "x"], ["graeme simsion", "simsion"]))
    # Two deletions: lengths two apart, two edits, neither a substring.
    @example(lists=(["graeme smion"], ["graeme simsion"]))
    def test_equals_the_reference_exactly(self, lists):
        claims, truth = lists
        assert similarity.tf_name_score(claims, truth) == reference_tf_name_score(claims, truth)


# Names that share parts: "a b c z" has the middle part "b c", which is also
# the two-token name "b c", and the pair ("b c", "b d") scores 0.7 as names
# but 0.5 as middle parts; the middle "b" of "a b c" is the one-token name
# "b". Near misses of "graeme c simsion" reach the edit distance. " " and
# "\t" have no token: they score 0.0 even against themselves. "\x1cb c\t"
# splits as "b c" does, but is not equal to it as a string.
NAME_POOL = [
    "b", "b c", "b d", "a b c", "a b c z", "a b d z",
    "graeme c simsion", "graeme simsion", "grame simsio", "simsion", " ", "\t", "\x1cb c\t",
]
pooled_lists = st.lists(st.sampled_from(NAME_POOL), max_size=3)
pooled_batches = st.lists(st.tuples(pooled_lists, pooled_lists), min_size=1, max_size=12)


def counting_part_credit(monkeypatch):
    """Wrap ``similarity._part_credit``; returns the list of its calls."""
    calls = []

    def counting(claim_part, true_part):
        calls.append((claim_part, true_part))
        return _reference_part_credit(claim_part, true_part)

    monkeypatch.setattr(similarity, "_part_credit", counting)
    return calls


class TestWeightedNameScores:
    """One call over many facts gives each the reference score: its memos
    return what scoring from scratch would."""

    @given(batch=pooled_batches)
    @example(batch=[([], ["b c"])])
    @example(batch=[(["b c"], [])])
    @example(batch=[(["a b c z", "a b c z"], ["b c", "a b c z"])])
    @example(batch=[(["b c"], ["b d"]), (["a b c z"], ["a b d z"])])
    @example(batch=[(["a b d z"], ["a b c z"]), (["b d"], ["b c"])])
    @example(batch=[([" "], [" ", "b"])])
    # Tabs, spaces and \x1c inside and around names, and a true list that
    # holds a name with no token.
    @example(batch=[(["\ta b", "a\x1cb", " b c ", "\x1c"], ["a b", " ", "b c", "\x1c"])])
    @example(batch=[(["\t", "a\tb\x1cc", "\x1c", "b"], ["\t", "\x1c", "a b c"])])
    def test_equals_the_reference_on_every_fact(self, batch):
        expected = [reference_tf_name_score(claims, truth) for claims, truth in batch]
        assert similarity.weighted_name_scores(batch) == expected

    def test_a_true_name_scores_one_without_pairing(self, monkeypatch):
        calls = counting_part_credit(monkeypatch)
        assert similarity.weighted_name_scores([(["a b", "c"], ["c", "a b"])]) == [1.0]
        assert calls == []

    def test_equal_parts_reach_no_credit(self, monkeypatch):
        calls = counting_part_credit(monkeypatch)
        # First and last equal, the middle absent from the claim.
        assert similarity.weighted_name_scores([(["a c"], ["a b c"])]) == [5 / 6]
        assert calls == []

    @given(batch=pooled_batches)
    @example(batch=[(["b c"], ["b d"]), (["b c"], ["b d"])])
    @example(batch=[(["a b c z"], ["a b d z"]), (["b c"], ["b d"])])
    def test_each_unequal_part_pair_is_credited_once_per_call(self, batch):
        # The distinct (claim part, true part) pairs that differ, of every
        # claimed name that is not a true author with a token, against every
        # true author.
        expected = set()
        for claims, truth in batch:
            for claim_name in claims:
                if claim_name in truth and claim_name.strip():
                    continue
                claim_parts = split_name_parts(claim_name)
                for true_name in truth:
                    for part, value in split_name_parts(true_name).items():
                        if claim_parts.get(part) not in (None, value):
                            expected.add((claim_parts[part], value))
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = counting_part_credit(monkeypatch)
            for _ in range(2):
                calls.clear()
                similarity.weighted_name_scores(batch)
                assert sorted(calls) == sorted(expected)


# Every character that str.split() splits on in the Latin-1 range, and U+3000
# beyond it; U+200B, a zero-width space, is not one.
_spaced_names = st.text(alphabet="ab \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u3000\u200b", max_size=8)


class TestSplitNameParts:
    """The scorer's tuple split holds the reference split's parts, None for
    an absent part and for a name with no token."""

    def test_one_token_is_last_name(self):
        assert split_name_parts("simsion") == {"last": "simsion"}
        assert similarity._NameParts()["simsion"] == (None, None, "simsion")

    def test_two_tokens(self):
        assert split_name_parts("graeme simsion") == {
            "first": "graeme",
            "last": "simsion",
        }
        assert similarity._NameParts()["graeme simsion"] == ("graeme", None, "simsion")

    def test_interior_tokens_join_into_middle(self):
        assert split_name_parts("a b c d") == {
            "first": "a",
            "middle": "b c",
            "last": "d",
        }
        assert similarity._NameParts()["a b c d"] == ("a", "b c", "d")

    @given(name=_spaced_names)
    @example(name="")
    @example(name=" \t\x1c ")
    @example(name="\x1ca\tb c\x1c")
    @example(name="\u200b")
    def test_tuple_split_equals_the_reference_split(self, name):
        parts = split_name_parts(name)
        expected = (parts.get("first"), parts.get("middle"), parts["last"]) if parts else None
        assert similarity._NameParts()[name] == expected
        # The scorer's "has a token" test for a claimed name.
        assert bool(name.strip()) == bool(parts)


class TestTfNameScore:
    def test_exact_match(self):
        assert similarity.tf_name_score(list(CORE_TRUTH), CORE_TRUTH) == 1.0

    def test_missing_middle_name(self):
        score = similarity.tf_name_score(["graeme simsion"], ["graeme c simsion"])
        assert score == pytest.approx(5 / 6)

    def test_last_name_one_edit_off(self):
        score = similarity.tf_name_score(["graeme c simsio"], ["graeme c simsion"])
        assert score == pytest.approx(0.75)

    def test_misspelled_first_and_last(self):
        # "grame" is within two edits of "graeme", "simsio" of "simsion";
        # both earn half weight, the absent middle earns nothing.
        score = similarity.tf_name_score(["grame simsio"], ["graeme c simsion"])
        assert score == pytest.approx(2.5 / 6)

    def test_disjoint_names(self):
        assert similarity.tf_name_score(["xxxxxxxx yyyyyyyy"], ["aaaa bbbb cccc"]) == 0.0

    @given(claims=st.lists(names, min_size=1, max_size=3), truth=st.lists(names, min_size=1, max_size=3))
    def test_bounded(self, claims, truth):
        score = similarity.tf_name_score(claims, truth)
        assert 0.0 <= score <= 1.0
