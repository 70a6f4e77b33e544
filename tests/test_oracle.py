"""The whole pipeline against the benchmark's independent oracle.

``perfbench/oracle.py`` re-implements the method of PAPER.md from the KB and
claims files alone and never imports ``pcf_engine``. Here drawn corpora go
through ``gen``, ``ingest``, ``run --epochs k --tol 0``, ``compare`` and one
``query``, all through ``cli.main``. Every site's trust and every fact's
adjusted confidence must lie within the oracle's ``TOLERANCE`` (1e-9) of
its ``Corpus.epochs(k)``, and ``compare``'s ``pcf`` column and the query's
rows must pass the oracle's own ``Checker``. The oracle is loaded from its
path and only read; its ``EPSILON`` is a module constant, so each example
sets it on the loaded module.
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcf_engine import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# A book whose one true author has ten letters, and two claims of nine and
# five of them: pcf 0.9 and 0.5, which differ by exactly 0.4, so at
# epsilon 0.4 their implication takes the delta == epsilon branch.
TIE_ISBN = "tie-0"
TIE_BOOK = {"isbn": TIE_ISBN, "title": "tied pair", "authors": ["abcdefghij"]}
TIE_CLAIMS = [("http://tie-a.example", "abcdefghi"), ("http://tie-b.example", "abcde")]


def load_oracle():
    """``perfbench/oracle.py`` as a module of its own; it imports ``common``
    from its directory, which is on the path only while it loads."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle", PERFBENCH / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    had_common = "common" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        if not had_common:
            sys.modules.pop("common", None)
    return module


oracle = load_oracle()


def saved_values(path):
    """Each site's trust by url and each fact's adjusted confidence by
    (ISBN, authors), as the state file at ``path`` stores them."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    trusts = {site["url"]: site["trust"] for site in doc["websites"]}
    adjusted = {
        (fact["isbn"], tuple(fact["authors"])): fact["adjusted_confidence"]
        for fact in doc["facts"]
    }
    return trusts, adjusted


def pcf(argv):
    """``cli.main(argv)``, which must exit 0; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def write_corpus(work, websites, objects, claims_per_site, corruption, seed, drop, tie):
    """``pcf gen``'s files in ``work``, the first book dropped from the KB if
    ``drop``, the tied pair added if ``tie``; returns their paths."""
    kb, claims = work / "kb.jsonl", work / "claims.csv"
    pcf(["gen", "--websites", str(websites), "--objects", str(objects),
         "--claims-per-site", str(claims_per_site), "--corruption", str(corruption),
         "--seed", str(seed), "--out-kb", str(kb), "--out-claims", str(claims)])
    lines = kb.read_text(encoding="utf-8").splitlines(keepends=True)[int(drop):]
    rows = claims.read_text(encoding="utf-8")
    if tie:
        lines.append(json.dumps(TIE_BOOK) + "\n")
        rows += "".join(f"{url},{TIE_ISBN},{name},,,\n" for url, name in TIE_CLAIMS)
    kb.write_text("".join(lines), encoding="utf-8")
    claims.write_text(rows, encoding="utf-8")
    return kb, claims


def close(got, want):
    """The keys differ, or the values that differ by more than the oracle's tolerance."""
    if got.keys() != want.keys():
        return sorted(got.keys() ^ want.keys(), key=repr)[:5]
    return [(key, got[key], want[key]) for key in want
            if abs(got[key] - want[key]) > oracle.TOLERANCE][:5]


@settings(max_examples=100, deadline=None)
@given(
    websites=st.integers(1, 60),
    objects=st.integers(1, 20),
    claims_per_site=st.integers(1, 4),
    corruption=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    drop=st.booleans(),
    tie=st.booleans(),
    epsilon=st.just(0.4) | st.floats(0.0, 1.0),
    epochs=st.integers(1, 8),
    needle=st.sampled_from(["9780000000001", "9780000000002", "vol 1", "VOL 2", TIE_ISBN, "zzz"]),
    method=st.sampled_from(["pcf", "truthfinder", "voting"]),
    top=st.integers(1, 40),
)
@example(websites=30, objects=3, claims_per_site=2, corruption=0.5, seed=1, drop=True, tie=True,
         epsilon=0.4, epochs=3, needle=TIE_ISBN, method="pcf", top=5)
def test_pipeline_agrees_with_the_oracle(
    websites, objects, claims_per_site, corruption, seed, drop, tie, epsilon, epochs, needle,
    method, top,
):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        kb, claims = write_corpus(
            work, websites, objects, claims_per_site, corruption, seed, drop, tie
        )
        state = work / "state.json"
        pcf(["ingest", "--kb", str(kb), "--claims", str(claims), "--state", str(state)])
        pcf(["run", "--state", str(state), "--epochs", str(epochs), "--tol", "0",
             "--epsilon", repr(epsilon)])
        oracle.EPSILON = epsilon
        checker = oracle.Checker(work, {"kb": str(kb), "claims": str(claims)})
        checker.trust, checker.adjusted = checker.corpus.epochs(epochs)
        trusts, adjusted = saved_values(state)
        assert close(trusts, checker.trust) == []
        assert close(adjusted, checker.adjusted) == []

        (work / "compare.csv").write_text(pcf(["compare", "--state", str(state)]), encoding="utf-8")
        assert checker.check_compare({"artifact": state.name, "csv": "compare.csv"}) == []
        rows = pcf(["query", "--state", str(state), "--needle", needle, "--method", method,
                    "--top", str(top)])
        assert checker.check_query({"state": state.name, "needle": needle, "method": method,
                                    "top": top, "stdout": rows}) == []
