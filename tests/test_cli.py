import contextlib
import copy
import csv
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcf_engine import cli, corpus, engine, generator, serp

from conftest import (
    CORE_ISBN, REPLACEMENTS, W1, json_paths, list_mutations, write_core_fixture
)
from test_golden import gen


def gen_args(tmp_path, websites=6, objects=4, claims_per_site=2, corruption=0.5, seed=11):
    kb = tmp_path / "kb.jsonl"
    claims = tmp_path / "claims.csv"
    return [
        "gen",
        "--websites", str(websites),
        "--objects", str(objects),
        "--claims-per-site", str(claims_per_site),
        "--corruption", str(corruption),
        "--seed", str(seed),
        "--out-kb", str(kb),
        "--out-claims", str(claims),
    ], kb, claims


def _ids_as_floats(record, key):
    record[key] = [float(i) for i in record[key]]


# json.dumps writes an infinity as `Infinity`, a token the loader refuses on
# its own. A case that stores this marker is written with the number literal
# 1e400 in its place, which overflows to an infinity as it is read.
OVERFLOW = 1.25e300


def _unprovided_object(doc):
    """Take every fact of one ISBN off its providers."""
    isbn = doc["facts"][0]["isbn"]
    for fact in doc["facts"]:
        if fact["isbn"] == isbn:
            fact["providers"] = []


def _second_fact_on_a_key(doc):
    """Give fact 2 the ISBN and authors of fact 1 (the two merge in build_state)."""
    first, second = doc["facts"][:2]
    second.update(isbn=first["isbn"], authors=list(first["authors"]))


def _tab_in_url(doc):
    """Put a tab into the first site's url, in the websites and every method table."""
    url = doc["websites"][0]["url"]
    doc["websites"][0]["url"] = url + "\tx"
    for table in doc["method_trusts"].values():
        table[url + "\tx"] = table.pop(url)


def ingest(tmp_path, kb, claims):
    state = tmp_path / "state.json"
    code = cli.main(
        ["ingest", "--kb", str(kb), "--claims", str(claims), "--state", str(state)]
    )
    assert code == 0
    return state


def _parser_failures():
    """(command, argv tail) pairs that the parser refuses or answers with
    help: help, a flag without its value, an unknown flag, and no arguments
    where one is required."""
    cases = []
    for name, (_, _, arguments) in cli.COMMANDS.items():
        tails = [["-h"], [arguments[-1][0]], ["--no-such-flag"]]
        if any(options.get("required") for _, options in arguments):
            tails.append([])
        cases += [(name, tail) for tail in tails]
    return cases


class TestParser:
    @pytest.mark.parametrize("command, tail", _parser_failures())
    def test_one_command_prints_what_the_full_parser_prints(self, capsys, command, tail):
        # main builds only the named command's subparser.
        texts = []
        for parse in (cli.main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exit:
                parse([command, *tail])
            out = capsys.readouterr()
            texts.append((exit.value.code, out.out, out.err))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"]], ids=["none", "help", "unknown"])
    def test_without_a_command_the_full_parser_answers(self, capsys, argv):
        with pytest.raises(SystemExit):
            cli.main(argv)
        out = capsys.readouterr()
        assert "{ingest,run,query,compare,gen,bench}" in out.out + out.err
        if argv == ["-h"]:
            assert all(help_text in out.out for help_text, _, _ in cli.COMMANDS.values())


# Run in a fresh interpreter: the `pcf_engine` modules loaded by
# `import pcf_engine.cli`, those loaded once `cli.main(argv)` has run, and
# the package's own attributes.
IMPORTS_CHILD = """
import contextlib, io, json, sys
import pcf_engine.cli

def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "pcf_engine")

before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = pcf_engine.cli.main(sys.argv[1:])
print(json.dumps([before, loaded(), code, sorted(vars(sys.modules["pcf_engine"]))]))
"""
CLI_MODULES = {
    "pcf_engine", "pcf_engine.cli", "pcf_engine.corpus", "pcf_engine.engine",
    "pcf_engine.similarity", "pcf_engine.baselines", "pcf_engine.serp",
}


@pytest.fixture(scope="module")
def golden_state(tmp_path_factory):
    """The golden gen-40x4 KB and claims files, and a state after ingest and run."""
    tmp = tmp_path_factory.mktemp("golden")
    with contextlib.redirect_stdout(io.StringIO()):
        kb, claims = gen(tmp, "gen-40x4")
        state = tmp / "state.json"
        assert cli.main(["ingest", "--kb", str(kb), "--claims", str(claims),
                         "--state", str(state)]) == 0
        assert cli.main(["run", "--state", str(state)]) == 0
    return kb, claims, state


class TestImports:
    """`import pcf_engine.cli` loads the modules every command runs;
    `generator` and `bench` load only for `gen` and `bench`. Only
    `pcf_engine` names are compared: an interpreter's start-up hooks may
    load other modules."""

    def loads(self, *argv):
        done = subprocess.run(
            [sys.executable, "-c", IMPORTS_CHILD, *map(str, argv)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            timeout=60,
            check=True,
        )
        before, after, code, names = json.loads(done.stdout)
        assert code == 0
        return set(before), set(after), names

    def test_the_cli_loads_the_modules_every_command_runs(self, golden_state):
        before, _, names = self.loads("query", "--state", golden_state[2], "--needle", "x")
        assert before == CLI_MODULES
        # No name of the package's own: only its submodules and dunders.
        own = {name for name in names if not name.startswith("__")}
        assert own == {module.partition(".")[2] for module in CLI_MODULES} - {""}

    @pytest.mark.parametrize("command", ["ingest", "run", "compare", "query"])
    def test_a_command_on_a_state_loads_no_more(self, tmp_path, golden_state, command):
        kb, claims, state = golden_state
        path = tmp_path / "state.json"
        path.write_bytes(state.read_bytes())
        tail = {
            "ingest": ["--kb", kb, "--claims", claims],
            "query": ["--needle", "978", "--method", "pcf"],
        }.get(command, [])
        before, after, _ = self.loads(command, "--state", path, *tail)
        assert after == before

    def test_gen_loads_the_generator_alone(self, tmp_path):
        args, _, _ = gen_args(tmp_path)
        before, after, _ = self.loads(*args)
        assert after - before == {"pcf_engine.generator"}

    def test_bench_loads_bench_and_the_generator(self, golden_state):
        before, after, _ = self.loads(
            "bench", "--sweep-epsilon", "0:0.2:0.1", "--state", golden_state[2]
        )
        assert after - before == {"pcf_engine.bench", "pcf_engine.generator"}


class TestIngest:
    def test_worked_example_fixture(self, tmp_path, capsys):
        kb, claims = write_core_fixture(tmp_path)
        state_path = ingest(tmp_path, kb, claims)
        out = capsys.readouterr().out
        assert "1 objects" in out and "2 facts" in out
        state = corpus.load_state(state_path)
        assert len(state.kb) == 1
        assert len(state.facts) == 2
        assert sorted(f.pcf for f in state.facts.values()) == pytest.approx(
            [0.5083333, (1 + 1 / 3) / 2], abs=1e-6
        )

    def test_missing_file_exits_2_and_names_path(self, tmp_path, capsys):
        code = cli.main(
            [
                "ingest",
                "--kb", str(tmp_path / "nope.jsonl"),
                "--claims", str(tmp_path / "claims.csv"),
                "--state", str(tmp_path / "state.json"),
            ]
        )
        assert code == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_malformed_row_exits_2_and_names_row(self, tmp_path, capsys):
        kb, claims = write_core_fixture(tmp_path)
        claims.write_text(
            "website_url,isbn,authors,publisher,price,quantity\n"
            "http://a.com,1,x y,,,\n"
            "http://b.com,1,,,,\n",
            encoding="utf-8",
        )
        code = cli.main(
            ["ingest", "--kb", str(kb), "--claims", str(claims), "--state", str(tmp_path / "s.json")]
        )
        assert code == 2
        assert "row 2" in capsys.readouterr().err

    def test_field_over_the_csv_limit_exits_2_and_names_row(self, tmp_path, capsys):
        kb, claims = write_core_fixture(tmp_path)
        with claims.open("a", encoding="utf-8") as fh:
            fh.write(f"http://b.com,1,{'x' * 140_000},,,\n")
        code = cli.main(
            ["ingest", "--kb", str(kb), "--claims", str(claims), "--state", str(tmp_path / "s.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row 3" in err


    def test_url_with_a_tab_exits_2_and_names_row(self, tmp_path, capsys):
        # Its `query` row would have had seven tab-separated fields.
        kb, claims = write_core_fixture(tmp_path)
        with claims.open("a", encoding="utf-8") as fh:
            fh.write(f"http://b.com/x\ty,{CORE_ISBN},Gary Cornell,,,\n")
        state = tmp_path / "s.json"
        code = cli.main(["ingest", "--kb", str(kb), "--claims", str(claims), "--state", str(state)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row 3: website_url holds a tab, CR or LF" in err
        assert not state.exists()

    def test_repeated_claim_name_exits_2_and_names_row(self, tmp_path, capsys):
        kb, claims = write_core_fixture(tmp_path)
        with claims.open("a", encoding="utf-8") as fh:
            fh.write(f"http://b.com,{CORE_ISBN},Gary Cornell;gary cornell.,,,\n")
        code = cli.main(
            ["ingest", "--kb", str(kb), "--claims", str(claims), "--state", str(tmp_path / "s.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row 3: duplicate author name 'gary cornell'" in err

    def test_kb_author_name_with_a_semicolon_exits_2_and_names_line(self, tmp_path, capsys):
        kb, claims = write_core_fixture(tmp_path)
        with kb.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"isbn": "2", "authors": ["Ann Ax", "a;b"]}) + "\n")
        code = cli.main(
            ["ingest", "--kb", str(kb), "--claims", str(claims), "--state", str(tmp_path / "s.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 2: author name 'a;b'" in err


# A nesting depth past the recursion limit: the JSON decoder raises RecursionError.
DEEP = 100_000


class TestDeepNesting:
    """JSON nested past the recursion limit is refused like other bad JSON:
    exit 2, naming the KB line or the state file."""

    def test_kb_line_exits_2_and_names_line(self, tmp_path, capsys):
        kb, claims = write_core_fixture(tmp_path)
        with kb.open("a", encoding="utf-8") as fh:
            fh.write("\n" + "[" * DEEP + "]" * DEEP + "\n")
        state = tmp_path / "s.json"
        code = cli.main(["ingest", "--kb", str(kb), "--claims", str(claims), "--state", str(state)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {kb}: line 3: JSON nested too deeply\n"
        assert not state.exists()

    @pytest.mark.parametrize("command", [["run"], ["compare"], ["query", "--needle", CORE_ISBN]])
    def test_state_exits_2(self, tmp_path, capsys, command):
        state = tmp_path / "state.json"
        state.write_text('{"kb":' + "[" * DEEP + "]" * DEEP + "}\n", encoding="utf-8")
        before = state.read_bytes()
        assert cli.main([command[0], "--state", str(state), *command[1:]]) == 2
        assert capsys.readouterr().err == f"error: {state}: JSON nested too deeply\n"
        assert state.read_bytes() == before


class TestRun:
    def test_exact_corpus_prints_converged(self, tmp_path, capsys):
        args, kb, claims = gen_args(tmp_path, corruption=0.0)
        assert cli.main(args) == 0
        state_path = ingest(tmp_path, kb, claims)
        capsys.readouterr()
        assert cli.main(["run", "--state", str(state_path), "--epochs", "5"]) == 0
        out = capsys.readouterr().out
        assert "converged=true" in out
        assert "max_trust_delta" in out

    def test_flags_override_config(self, tmp_path, capsys):
        args, kb, claims = gen_args(tmp_path)
        cli.main(args)
        state_path = ingest(tmp_path, kb, claims)
        cli.main(
            [
                "run",
                "--state", str(state_path),
                "--epochs", "2",
                "--epsilon", "0",
                "--tol", "0",
            ]
        )
        state = corpus.load_state(state_path)
        assert state.config.epsilon == 0.0
        assert state.config.convergence_tol == 0.0
        assert state.config.max_epochs == 2
        assert state.epoch == 2

    def test_each_epoch_is_one_module_level_run_epoch_call(self, tmp_path, capsys, monkeypatch):
        # The benchmark's traced pass wraps engine.run_epoch to time each epoch.
        args, kb, claims = gen_args(tmp_path)
        assert cli.main(args) == 0
        state_path = ingest(tmp_path, kb, claims)
        epochs = []
        run_epoch = engine.run_epoch

        def counted(ix, config, epoch, *rest):
            epochs.append(epoch)
            return run_epoch(ix, config, epoch, *rest)

        monkeypatch.setattr(engine, "run_epoch", counted)
        assert cli.main(["run", "--state", str(state_path), "--epochs", "3", "--tol", "0"]) == 0
        assert epochs == [1, 2, 3]
        assert cli.main(["run", "--state", str(state_path), "--epochs", "2", "--tol", "0"]) == 0
        assert epochs == [1, 2, 3, 4, 5]

    @staticmethod
    def _assert_refused(tmp_path, capsys, *argvs):
        """Each command exits 2 with an error line and leaves the state file as it was."""
        state_path = ingest(tmp_path, *write_core_fixture(tmp_path))
        before = state_path.read_bytes()
        capsys.readouterr()
        for command, *flags in argvs:
            assert cli.main([command, "--state", str(state_path), *flags]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert state_path.read_bytes() == before

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_is_a_usage_error(self, tmp_path, capsys, tol):
        self._assert_refused(tmp_path, capsys, ["run", f"--tol={tol}"])

    def test_zero_epochs_is_a_usage_error(self, tmp_path, capsys):
        # An epsilon outside [0, 1] and a zero --top are refused the same way.
        self._assert_refused(
            tmp_path,
            capsys,
            ["run", "--epochs", "0"],
            ["run", "--epsilon", "1.5"],
            ["query", "--needle", CORE_ISBN, "--top", "0"],
        )

    def test_unreadable_state_exits_2(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text("{broken", encoding="utf-8")
        assert cli.main(["run", "--state", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_version_1_state_exits_2_and_says_to_ingest_again(self, tmp_path, capsys):
        # Version 2 also stored each fact's confidence and a config clamp and
        # seed; version 3 each KB book's publisher and price.
        kb, claims = write_core_fixture(tmp_path)
        state = ingest(tmp_path, kb, claims)
        doc = json.loads(state.read_text(encoding="utf-8"))
        for version in (1, 2, 3):
            doc["pcf_state_version"] = version
            state.write_text(json.dumps(doc), encoding="utf-8")
            capsys.readouterr()
            assert cli.main(["run", "--state", str(state)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"schema version {version}" in err
            assert "pcf ingest" in err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d["facts"][0]["providers"].append(999999),
            lambda d: d["facts"][0]["providers"].clear(),
            lambda d: d["websites"][0].update(trust="nan"),
            lambda d: d["websites"][0].update(trust=1.5),
            lambda d: d["facts"][0].update(pcf=-0.1),
            lambda d: d["facts"][0].update(adjusted_confidence="nan"),
            lambda d: d["facts"][0].update(adjusted_confidence=2.0),
            lambda d: d.pop("epoch"),
            lambda d: d.update(method_trusts=[]),
            # Each duplicate is placed so that the merged tables still pass
            # the link check.
            lambda d: d["websites"].insert(0, dict(d["websites"][0], url="http://dup.example.com")),
            lambda d: d["websites"].insert(0, dict(d["websites"][0], id=99)),
            lambda d: d["facts"].append(dict(d["facts"][0], authors=["someone else"])),
            lambda d: d["config"].update(epsilon="nan"),
            lambda d: d["config"].update(epsilon=1.5),
            lambda d: d["config"].update(epsilon=-0.1),
            lambda d: d["config"].update(max_epochs=0),
            lambda d: d["config"].update(convergence_tol="inf"),
            lambda d: d["config"].update(convergence_tol="nan"),
            # Wrongly typed strings used to load and crash a later command.
            lambda d: d["websites"][0].update(url=5),
            lambda d: d["facts"][0].update(authors=[1, 2]),
            lambda d: d["kb"][0].update(title=7),
            lambda d: d["kb"][0].update(authors="abc"),
            # Wrongly typed numbers used to be coerced.
            lambda d: d["websites"][0].update(id=1.5),
            lambda d: d["websites"][0].update(trust=True),
            lambda d: d.update(epoch="3"),
            lambda d: _ids_as_floats(d["facts"][0], "providers"),
            lambda d: d["kb"][0].update(price=math.nan),
            # Out-of-range numbers used to load, and `query` printed them.
            lambda d: d["method_trusts"]["pcf"].update({W1: 5.0}),
            lambda d: d["method_trusts"]["pcf"].update({W1: -1.0}),
            lambda d: d["method_trusts"]["pcf"].update({W1: OVERFLOW}),
            # `compare` used to divide by zero on an object that no website provides.
            _unprovided_object,
            # `query` skipped urls it did not know and left out the missing site.
            lambda d: d["method_trusts"]["pcf"].pop(W1),
            lambda d: d["method_trusts"]["pcf"].update({"http://nobody.example": 0.9}),
            # Not in the form build_state gives; these used to load and run.
            lambda d: d["facts"][0].update(authors=["ann ax", "ann ax"]),
            lambda d: d["facts"][0].update(authors=d["facts"][0]["authors"][::-1]),
            lambda d: d["facts"][0].update(providers=[1, 1]),
            lambda d: d["facts"][0].update(providers=[2, 1]),
            _second_fact_on_a_key,
            # Author lists and ISBNs that ingest refuses; these used to load and run.
            lambda d: d["facts"][0].update(authors=[]),
            lambda d: d["facts"][0].update(authors=[""]),
            lambda d: d["facts"][0].update(authors=["a;b"]),
            lambda d: d["kb"][0].update(authors=[]),
            lambda d: d["kb"][0].update(authors=["x", "x"]),
            lambda d: d["kb"][0].update(authors=["a;b"]),
            lambda d: d["kb"][0].update(isbn=""),
            lambda d: d["kb"].append(dict(d["kb"][0], title="another title")),
            # An empty string or object used to load as an empty table.
            lambda d: d.update(facts=""),
            lambda d: d.update(facts={}),
            lambda d: d.update(kb=""),
            lambda d: d.update(kb={}),
            # A record or config of another type used to be refused with
            # Python's indexing error, naming neither table nor record.
            lambda d: d.update(facts=["x"]),
            lambda d: d.update(websites=[[1]]),
            lambda d: d.update(config=[]),
            lambda d: d.update(kb=[None]),
            # `run --epochs 1` printed epoch=-6 after epoch -7.
            lambda d: d.update(epoch=-7),
            # A url or ISBN with a tab, CR or LF split a row of `query`'s TSV
            # or `compare`'s CSV.
            _tab_in_url,
            lambda d: d["kb"][0].update(isbn=d["kb"][0]["isbn"] + "\r"),
            lambda d: d["facts"][0].update(isbn=d["facts"][0]["isbn"] + "\n"),
            # The bare NaN token, which save_state never writes, in a field
            # the loader reads.
            lambda d: d["websites"][0].update(trust=math.nan),
        ],
        ids=[
            "missing-provider", "providers-unmirrored", "nan-trust", "trust-above-one",
            "negative-pcf",
            "nan-confidence", "adjusted-above-one", "no-epoch", "method-trusts-list",
            "duplicate-website-id", "duplicate-url", "duplicate-fact-id",
            "nan-epsilon", "epsilon-above-one", "negative-epsilon",
            "zero-max-epochs", "infinite-tol", "nan-tol", "integer-url",
            "integer-author-names",
            "integer-title", "string-author-list", "fractional-website-id",
            "boolean-trust", "string-epoch", "float-provider-ids", "nan-price",
            "method-trust-above-one", "negative-method-trust",
            "overflowing-method-trust",
            "fact-without-providers", "method-table-missing-site", "method-table-unknown-url",
            "repeated-author", "unsorted-authors", "repeated-provider", "descending-providers",
            "second-fact-on-a-key", "empty-fact-authors", "blank-fact-author",
            "fact-author-with-semicolon", "empty-kb-authors", "repeated-kb-author",
            "kb-author-with-semicolon", "empty-kb-isbn", "repeated-kb-isbn",
            "facts-as-string", "facts-as-object", "kb-as-string", "kb-as-object",
            "string-fact", "list-website", "config-as-list", "null-kb-book",
            "negative-epoch", "url-with-tab", "kb-isbn-with-cr", "fact-isbn-with-lf",
            "nan-token-trust",
        ],
    )
    def test_corrupted_state_exits_2(self, tmp_path, capsys, corrupt):
        kb, claims = write_core_fixture(tmp_path)
        state = ingest(tmp_path, kb, claims)
        assert cli.main(["run", "--state", str(state), "--epochs", "1"]) == 0
        doc = json.loads(state.read_text(encoding="utf-8"))
        corrupt(doc)
        state.write_text(json.dumps(doc).replace(repr(OVERFLOW), "1e400"), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["run", "--state", str(state)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        # `query` never writes, so the writer's own checks cannot stop it.
        assert cli.main(["query", "--state", str(state), "--needle", CORE_ISBN]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestQuery:
    def _ranked_state(self, tmp_path, capsys):
        args, kb, claims = gen_args(tmp_path, corruption=0.3)
        cli.main(args)
        state_path = ingest(tmp_path, kb, claims)
        cli.main(["run", "--state", str(state_path)])
        capsys.readouterr()
        return state_path

    def test_rows_are_trust_sorted_tsv(self, tmp_path, capsys):
        state_path = self._ranked_state(tmp_path, capsys)
        code = cli.main(
            ["query", "--state", str(state_path), "--needle", "9780000000001"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        trusts = [float(line.split("\t")[2]) for line in lines]
        assert trusts == sorted(trusts, reverse=True)
        assert [line.split("\t")[0] for line in lines] == [
            str(i) for i in range(1, len(lines) + 1)
        ]

    def test_unknown_isbn_is_empty_success(self, tmp_path, capsys):
        state_path = self._ranked_state(tmp_path, capsys)
        assert cli.main(["query", "--state", str(state_path), "--needle", "zzz"]) == 0
        assert capsys.readouterr().out == ""

    def test_top_limits_rows(self, tmp_path, capsys):
        state_path = self._ranked_state(tmp_path, capsys)
        cli.main(
            ["query", "--state", str(state_path), "--needle", "9780000000001", "--top", "3"]
        )
        assert len(capsys.readouterr().out.splitlines()) <= 3

    def test_stale_method_exits_3(self, tmp_path, capsys):
        args, kb, claims = gen_args(tmp_path)
        cli.main(args)
        state_path = ingest(tmp_path, kb, claims)
        capsys.readouterr()
        code = cli.main(
            [
                "query",
                "--state", str(state_path),
                "--needle", "9780000000001",
                "--method", "voting",
            ]
        )
        assert code == 3
        assert "voting" in capsys.readouterr().err

    # Book 100 has no facts; ISBN 300 has a fact but no KB book.
    @pytest.mark.parametrize("needle, code", [("Lonely", 3), ("300", 3), ("nothing", 0)])
    def test_only_a_needle_that_matches_nothing_skips_the_ranking(
        self, tmp_path, capsys, needle, code
    ):
        """A needle that matches a KB book with no facts, or the ISBN of a
        fact off the KB, reaches the ranking, which an ingested state has not
        computed; one that matches nothing prints nothing and exits 0."""
        kb = tmp_path / "kb.jsonl"
        kb.write_text(
            json.dumps({"isbn": "100", "title": "Lonely Volume", "authors": ["ann ax"]}) + "\n"
            + json.dumps({"isbn": "200", "title": "Claimed Book", "authors": ["bo by"]}) + "\n",
            encoding="utf-8",
        )
        claims = tmp_path / "claims.csv"
        claims.write_text(
            ",".join(corpus.CLAIMS_HEADER) + "\n"
            "http://a.example,200,Bo By,,,\nhttp://b.example,300,Cy Cz,,,\n",
            encoding="utf-8",
        )
        state = ingest(tmp_path, kb, claims)
        capsys.readouterr()
        assert cli.main(["query", "--state", str(state), "--needle", needle]) == code
        out = capsys.readouterr()
        assert out.out == ""
        assert ("'pcf'" in out.err) == (code == 3)
        assert cli.main(["run", "--state", str(state), "--epochs", "1"]) == 0
        capsys.readouterr()
        assert cli.main(["query", "--state", str(state), "--needle", needle]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [row[1:2] + row[3:5] for row in rows] == (
            [["http://b.example", "300", "cy cz"]] if needle == "300" else []
        )


class TestCompare:
    def test_truthful_versus_garbage(self, tmp_path, capsys):
        kb = tmp_path / "kb.jsonl"
        kb.write_text(
            json.dumps({"isbn": "100", "authors": ["ann example", "bo sample"]})
            + "\n"
            + json.dumps({"isbn": "200", "authors": ["cy other"]})
            + "\n",
            encoding="utf-8",
        )
        claims = tmp_path / "claims.csv"
        claims.write_text(
            "website_url,isbn,authors,publisher,price,quantity\n"
            "http://truthful.com,100,ann example;bo sample,,,\n"
            "http://truthful.com,200,cy other,,,\n"
            "http://junk.com,100,xxxxxxxxx yyyyyyyyy,,,\n",
            encoding="utf-8",
        )
        state_path = ingest(tmp_path, kb, claims)
        capsys.readouterr()
        assert cli.main(["compare", "--state", str(state_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "url,voting,truthfinder,pcf"
        table = {
            line.split(",")[0]: [float(v) for v in line.split(",")[1:]]
            for line in lines[1:]
        }
        voting, truthfinder, pcf = table["http://truthful.com"]
        assert pcf == truthfinder == 1.0
        assert voting < 1.0
        # The comparison records every method for later queries.
        state = corpus.load_state(state_path)
        assert set(state.method_trusts) == {"voting", "truthfinder", "pcf"}

    def test_single_site_tops_every_scale(self, tmp_path, capsys):
        kb = tmp_path / "kb.jsonl"
        kb.write_text(
            json.dumps({"isbn": "100", "authors": ["ann example"]}) + "\n",
            encoding="utf-8",
        )
        claims = tmp_path / "claims.csv"
        claims.write_text(
            "website_url,isbn,authors,publisher,price,quantity\n"
            "http://only.com,100,ann example,,,\n",
            encoding="utf-8",
        )
        state_path = ingest(tmp_path, kb, claims)
        capsys.readouterr()
        cli.main(["compare", "--state", str(state_path)])
        lines = capsys.readouterr().out.splitlines()
        assert [float(v) for v in lines[1].split(",")[1:]] == [1.0, 1.0, 1.0]

    def test_urls_with_commas_and_quotes_read_back_through_csv(self, tmp_path, capsys):
        # A comma url used to give a row of five fields.
        urls = ["http://a.com/x,y", 'http://b.com/"q"', 'http://c.com/"a,b"', "http://d.com/ plain"]
        kb = tmp_path / "kb.jsonl"
        kb.write_text(json.dumps({"isbn": "100", "authors": ["ann example"]}) + "\n", encoding="utf-8")
        claims = tmp_path / "claims.csv"
        with claims.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(
                [corpus.CLAIMS_HEADER] + [[url, "100", "ann example", "", "", ""] for url in urls]
            )
        state_path = ingest(tmp_path, kb, claims)
        capsys.readouterr()
        assert cli.main(["compare", "--state", str(state_path)]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert {len(row) for row in rows} == {4}
        assert [row[0] for row in rows[1:]] == sorted(urls)
        # Byte for byte what csv.writer writes for the same rows.
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(rows)
        assert out == expected.getvalue()

    def test_empty_corpus_prints_header_only(self, tmp_path, capsys):
        kb = tmp_path / "kb.jsonl"
        kb.write_text("", encoding="utf-8")
        claims = tmp_path / "claims.csv"
        claims.write_text(
            "website_url,isbn,authors,publisher,price,quantity\n", encoding="utf-8"
        )
        state_path = ingest(tmp_path, kb, claims)
        capsys.readouterr()
        assert cli.main(["compare", "--state", str(state_path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["url,voting,truthfinder,pcf"]

    def test_pcf_column_reads_the_stored_pcf(self, tmp_path, capsys):
        # Hand-edited pcf values that no scorer gives, one on a fact whose
        # book is gone from the KB: the column follows them, as `pcf run` does.
        args, kb, claims = gen_args(tmp_path)
        assert cli.main(args) == 0
        state_path = ingest(tmp_path, kb, claims)
        assert cli.main(["run", "--state", str(state_path), "--epochs", "3"]) == 0
        doc = json.loads(state_path.read_text(encoding="utf-8"))
        doc["kb"] = [rec for rec in doc["kb"] if rec["isbn"] != doc["facts"][0]["isbn"]]
        for i, fact in enumerate(doc["facts"]):
            fact["pcf"] = (0.137 * (i + 1)) % 1.0
        state_path.write_text(json.dumps(doc), encoding="utf-8")
        zero_trust = corpus.load_state(state_path)
        for site in zero_trust.websites.values():
            site.trust = 0.0
        capsys.readouterr()

        assert cli.main(["compare", "--state", str(state_path)]) == 0

        def trusts(state):
            return {url: w.trust for url, w in engine.run(state)[0].websites.items()}

        expected = trusts(copy.deepcopy(zero_trust))
        assert expected != trusts(engine.assign_pcf(zero_trust))
        assert corpus.load_state(state_path).method_trusts["pcf"] == expected
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["pcf"] for row in rows] == [f"{expected[row['url']]:.6f}" for row in rows]


class TestGen:
    def test_zero_corruption_yields_unit_trusts(self, tmp_path, capsys):
        args, kb, claims = gen_args(tmp_path, corruption=0.0)
        assert cli.main(args) == 0
        state_path = ingest(tmp_path, kb, claims)
        cli.main(["run", "--state", str(state_path), "--epochs", "1"])
        state = corpus.load_state(state_path)
        assert all(w.trust == 1.0 for w in state.websites.values())

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        args_a, kb_a, claims_a = gen_args(tmp_path / "a", seed=42)
        args_b, kb_b, claims_b = gen_args(tmp_path / "b", seed=42)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        cli.main(args_a)
        cli.main(args_b)
        assert kb_a.read_bytes() == kb_b.read_bytes()
        assert claims_a.read_bytes() == claims_b.read_bytes()

    def test_fifty_sites_two_claims_all_distinct(self, tmp_path):
        # 100 objects and 50 sites at 2 claims each touch every object once.
        args, kb, claims = gen_args(
            tmp_path, websites=50, objects=100, claims_per_site=2, corruption=0.0
        )
        cli.main(args)
        state_path = ingest(tmp_path, kb, claims)
        state = corpus.load_state(state_path)
        assert len(state.facts) == 100

    def test_no_claim_names_an_author_twice(self, tmp_path, capsys):
        # At this shape and seed a replaced author once drew a name the claim
        # already held.
        args, kb, claims = gen_args(
            tmp_path, websites=600, objects=75, claims_per_site=8, corruption=0.6, seed=1
        )
        assert cli.main(args) == 0
        with claims.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for row in rows:
            names = row[2].split(";")
            assert len(set(names)) == len(names), row
        ingest(tmp_path, kb, claims)

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize(
        "op, authors",
        [
            # Every cut of "anne" is one of the other names.
            (generator._truncate_tail, ["anne", "ann", "an", "a"]),
            # Dropping the middle name gives the second author.
            (generator._drop_middle_token, ["ann b cole", "ann cole"]),
            (generator._drop_author, ["ann cole", "bo dee", "cy eng"]),
            (generator._replace_author, None),
        ],
        ids=["truncate_tail", "drop_middle_token", "drop_author", "replace_author"],
    )
    def test_corruption_never_repeats_a_name(self, op, authors, seed):
        if authors is None:
            # Put the first name that _replace_author draws for this seed
            # beside the one it replaces.
            probe = random.Random(seed)
            idx = probe.randrange(2)
            authors = ["ann cole", "bo dee"]
            authors[1 - idx] = generator.random_author(probe)
        out = list(authors)
        op(random.Random(seed), out)
        assert len(set(out)) == len(out), (authors, out)

    def test_corruption_rate_must_be_a_rate(self, tmp_path, capsys):
        args, kb, claims = gen_args(tmp_path, corruption=1.5)
        assert cli.main(args) == 2
        assert capsys.readouterr().err.startswith("error: corruption_rate")
        assert not kb.exists() and not claims.exists()

    @pytest.mark.parametrize(
        "setting, value",
        [("n_websites", 0), ("n_objects", 0), ("claims_per_site", 0), ("corruption_rate", 1.5)],
    )
    def test_spec_refuses_a_bad_value_when_built(self, setting, value):
        shape = {"n_websites": 2, "n_objects": 2, "claims_per_site": 1, "corruption_rate": 0.5}
        with pytest.raises(ValueError, match=setting):
            generator.GenSpec(**{**shape, setting: value})


class TestBench:
    def _state(self, tmp_path, capsys):
        args, kb, claims = gen_args(tmp_path, corruption=0.4, seed=5)
        cli.main(args)
        path = ingest(tmp_path, kb, claims)
        capsys.readouterr()
        return path

    def test_websites_list_row_count(self, tmp_path, capsys):
        state_path = self._state(tmp_path, capsys)
        assert cli.main(
            ["bench", "--websites-list", "5,10,15", "--state", str(state_path)]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n_websites,n_facts,data_seconds,engine_seconds"
        assert len(lines) == 4
        assert [int(line.split(",")[0]) for line in lines[1:]] == [5, 10, 15]

    def test_epsilon_sweep_grid(self, tmp_path, capsys):
        state_path = self._state(tmp_path, capsys)
        assert cli.main(
            ["bench", "--sweep-epsilon", "0:0.4:0.1", "--state", str(state_path)]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "epsilon,mean_implication_factor"
        assert [float(line.split(",")[0]) for line in lines[1:]] == [
            0.0, 0.1, 0.2, 0.3, 0.4,
        ]

    def test_requires_a_mode(self, tmp_path, capsys):
        state_path = self._state(tmp_path, capsys)
        assert cli.main(["bench", "--state", str(state_path)]) == 2

    def test_websites_list_reads_no_state(self, capsys):
        assert cli.main(["bench", "--websites-list", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n_websites,n_facts,data_seconds,engine_seconds"
        assert len(lines) == 2

    def test_websites_list_size_is_refused_by_the_spec(self, capsys):
        assert cli.main(["bench", "--websites-list", "5,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n_websites must be at least 1")

    def test_sweep_needs_a_state(self, capsys):
        assert cli.main(["bench", "--websites-list", "5", "--sweep-epsilon", "0:0.4:0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_sweep_refuses_an_epsilon_the_engine_refuses(self, tmp_path, capsys):
        state_path = self._state(tmp_path, capsys)
        code = cli.main(["bench", "--sweep-epsilon", "0:5:1", "--state", str(state_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config epsilon 2.0 outside [0, 1]")

    # NaN fails every comparison and no value passes infinity, so a grid
    # that took them would grow without end; the child's short timeout
    # turns that into a failure instead of a hang.
    @pytest.mark.parametrize("grid", ["0:inf:0.1", "nan:1:0.1", "0:1:nan"])
    def test_sweep_refuses_a_non_finite_grid(self, tmp_path, capsys, grid):
        state_path = self._state(tmp_path, capsys)
        done = subprocess.run(
            [sys.executable, "-m", "pcf_engine.cli", "bench",
             "--sweep-epsilon", grid, "--state", str(state_path)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            timeout=5,
        )
        assert done.returncode == 2
        assert done.stdout == b""
        assert b"need finite lo, hi and step" in done.stderr

    # Without the cap, the first two would build a trillion values and the
    # third would repeat 0.5 until memory ran out; the child's short
    # timeout fails the test long before.
    @pytest.mark.parametrize("grid", ["0:1:1e-12", "0:1:0.00009999", "0.5:0.5:1e-300"])
    def test_sweep_refuses_a_grid_over_the_cap(self, tmp_path, capsys, grid):
        state_path = self._state(tmp_path, capsys)
        done = subprocess.run(
            [sys.executable, "-m", "pcf_engine.cli", "bench",
             "--sweep-epsilon", grid, "--state", str(state_path)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            timeout=5,
        )
        assert done.returncode == 2
        assert done.stdout == b""
        assert f"need at most {cli.MAX_GRID_STEPS} steps from lo to hi".encode() in done.stderr

    def test_grid_at_the_cap_is_taken(self):
        grid = cli._epsilon_grid(f"0:1:{1 / cli.MAX_GRID_STEPS}")
        assert len(grid) == cli.MAX_GRID_STEPS + 1
        assert (grid[0], grid[-1]) == (0.0, 1.0)


class TestDeterminism:
    def test_run_twice_from_same_state_is_byte_identical(self, tmp_path, capsys):
        args, kb, claims = gen_args(tmp_path, corruption=0.6, seed=9)
        cli.main(args)
        state_a = ingest(tmp_path, kb, claims)
        state_b = tmp_path / "state_b.json"
        state_b.write_bytes(state_a.read_bytes())
        cli.main(["run", "--state", str(state_a), "--epochs", "4"])
        cli.main(["run", "--state", str(state_b), "--epochs", "4"])
        assert state_a.read_bytes() == state_b.read_bytes()


class TestClosedStdout:
    """A reader that stops early (`pcf compare ... | head`) is no input error."""

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_exits_0_quietly_after_writing_the_state(self, tmp_path, capsys, command):
        args, kb, claims = gen_args(tmp_path, seed=3)
        cli.main(args)
        state_path = ingest(tmp_path, kb, claims)
        before = state_path.read_bytes()
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pcf_engine.cli", command, "--state", str(state_path)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 0
        assert state_path.read_bytes() != before
        corpus.load_state(state_path)


@pytest.fixture
def collector():
    """Turn the cyclic collector back to its state before the test."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def _with_command(monkeypatch, name, func):
    """Make `pcf name` call ``func`` in place of its ``cmd_*`` function."""
    help_text, _, arguments = cli.COMMANDS[name]
    monkeypatch.setitem(cli.COMMANDS, name, (help_text, func, arguments))


def _raises(exc_type, *args):
    def command(parsed):
        raise exc_type(*args)

    return command


# Each way out of main: the command (None: argparse refuses the arguments)
# and the exit status or the exception that leaves main.
EXITS = {
    "ok": (lambda parsed: cli.EXIT_OK, 0),
    "state-error": (_raises(corpus.StateError, "bad state"), 2),
    "stale": (_raises(serp.StaleMethodError, "stale method"), 3),
    "broken-pipe": (_raises(BrokenPipeError), 0),
    "unexpected": (_raises(RuntimeError, "a bug"), RuntimeError),
    "usage": (None, SystemExit),
}


class TestCollectorPause:
    """main runs the command with the cyclic collector paused."""

    def test_command_runs_with_the_collector_off(self, monkeypatch, collector):
        seen = []
        _with_command(monkeypatch, "query", lambda parsed: seen.append(gc.isenabled()) or 0)
        gc.enable()
        assert cli.main(["query", "--state", "state.json", "--needle", "x"]) == 0
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("way_out", EXITS)
    def test_main_leaves_the_collector_as_it_found_it(
        self, tmp_path, monkeypatch, collector, way_out, enabled
    ):
        func, expected = EXITS[way_out]
        if func is None:
            argv = ["query"]  # --state and --needle are required
        else:
            _with_command(monkeypatch, "query", func)
            argv = ["query", "--state", "state.json", "--needle", "x"]
        # The broken-pipe path points stdout's descriptor at the null device,
        # so stdout is a file of the test's own.
        with open(tmp_path / "stdout.txt", "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            (gc.enable if enabled else gc.disable)()
            if isinstance(expected, int):
                assert cli.main(argv) == expected
            else:
                with pytest.raises(expected):
                    cli.main(argv)
            assert gc.isenabled() is enabled


def _cyclic_garbage(tmp_path, websites):
    """What ``gc.collect()`` finds after each command on a `pcf gen` corpus
    of ``websites`` sites, with the collector off throughout."""
    tmp_path.mkdir()
    args, kb, claims = gen_args(
        tmp_path, websites=websites, objects=websites // 2, corruption=0.3, seed=2
    )
    state = tmp_path / "state.json"
    refused = tmp_path / "refused.json"
    commands = {
        "gen": args,
        "ingest": ["ingest", "--kb", str(kb), "--claims", str(claims), "--state", str(state)],
        "run": ["run", "--state", str(state)],
        "compare": ["compare", "--state", str(state)],
        "query": ["query", "--state", str(state), "--needle", "vol 1", "--top", "50"],
        "sweep": ["bench", "--sweep-epsilon", "0:0.5:0.1", "--state", str(state)],
        "scaling": ["bench", "--websites-list", str(websites)],
        "refused": ["query", "--state", str(refused), "--needle", "vol 1"],
    }
    found = {}
    gc.disable()
    for name, argv in commands.items():
        if name == "refused":
            # The last site breaks a rule, so the loader reads every record first.
            doc = json.loads(state.read_text(encoding="utf-8"))
            doc["websites"][-1]["trust"] = 2.0
            refused.write_text(json.dumps(doc), encoding="utf-8")
        gc.collect()
        assert cli.main(argv) == (2 if name == "refused" else 0)
        found[name] = gc.collect()
    return found


class TestCyclicGarbage:
    """Why the pause is sound: no command leaves cyclic garbage that grows
    with its input, so pausing the collector for a command holds back no
    memory that grows with it either."""

    def test_a_larger_corpus_leaves_no_more(self, tmp_path, collector):
        small = _cyclic_garbage(tmp_path / "small", 50)
        large = _cyclic_garbage(tmp_path / "large", 400)
        assert all(large[name] <= small[name] for name in small), (small, large)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A small `gen` state after ingest, run and compare, as a JSON document."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    args, kb, claims = gen_args(tmp_path, websites=5, objects=3, claims_per_site=2, seed=4)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0
        state_path = ingest(tmp_path, kb, claims)
        assert cli.main(["run", "--state", str(state_path)]) == 0
        assert cli.main(["compare", "--state", str(state_path)]) == 0
    doc = json.loads(state_path.read_text(encoding="utf-8"))
    return doc, json_paths(doc)


def _exit_codes(doc, isbn, method):
    """Each command's exit code and stderr on a state file holding ``doc``."""
    commands = {
        "run": [],
        "compare": [],
        "query": ["--needle", isbn, "--method", method],
    }
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        state_path = Path(tmp) / "state.json"
        for command, extra in commands.items():
            state_path.write_text(json.dumps(doc), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "--state", str(state_path), *extra])
            results[command] = (code, err.getvalue())
    return results


class TestStateFuzz:
    """A state document with one value of the wrong JSON type, or one key
    missing, makes `run`, `compare` and `query` exit 0 or 2 (3 for a stale
    `query` method), never with a traceback. One list edited out of the form
    ingest writes makes each exit 2."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_state_never_escapes_an_exception(self, fuzz_base, data):
        base, paths = fuzz_base
        path, is_key = data.draw(st.sampled_from(paths), label="path")
        doc = copy.deepcopy(base)
        parent = reduce(lambda node, key: node[key], path[:-1], doc)
        if is_key and data.draw(st.booleans(), label="drop"):
            del parent[path[-1]]
        else:
            old = parent[path[-1]]
            parent[path[-1]] = data.draw(
                st.sampled_from([v for v in REPLACEMENTS if type(v) is not type(old)]),
                label="value",
            )
        method = data.draw(st.sampled_from(["pcf", "truthfinder", "voting"]), label="method")
        for command, (code, err) in _exit_codes(doc, base["kb"][0]["isbn"], method).items():
            allowed = {0, 2, 3} if command == "query" else {0, 2}
            assert code in allowed, (command, code, err)
            if code:
                assert err.startswith("error: ")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_list_out_of_ingest_form_exits_2(self, fuzz_base, data):
        base, _ = fuzz_base
        table, index, key, op = data.draw(st.sampled_from(list_mutations(base)), label="edit")
        doc = copy.deepcopy(base)
        values = doc[table][index][key]
        if op == "reverse":
            values.reverse()
        elif op == "empty":
            values.clear()
        else:
            entry = data.draw(st.sampled_from(values), label="entry")
            values.insert(data.draw(st.integers(0, len(values)), label="at"), entry)
        for command, (code, err) in _exit_codes(doc, base["kb"][0]["isbn"], "pcf").items():
            assert code == 2, (table, index, key, op, command, err)
            assert err.startswith("error: ")


# KB records and claims rows of `gen --websites 5 --objects 3
# --claims-per-site 2 --seed 4`: header plus 10 rows.
FUZZ_KB_RECORDS = 3
FUZZ_CLAIMS_ROWS = 11
DROP = object()
# Values of every JSON type, a huge int and a string past the csv field limit
# in place of a KB value, or the key dropped.
KB_VALUES = [
    None, True, False, 0, -1, 0.5, math.nan, math.inf, "", " ", "x", [], ["a b"], [None], {},
    {"a": 1}, 10**400, "x" * 140_000, DROP,
]
# Blank, long and non-numeric text in place of a claims cell.
CELL_VALUES = ["", "   ", "x" * 140_000, "abc", ";;", "nan", "1e400", "-1", "1.5", "9" * 5000]
KB_FIELDS = ["isbn", "title", "authors", "publisher", "price", ("authors", 0)]


@pytest.fixture(scope="module")
def ingest_fuzz_base(tmp_path_factory):
    """The KB records and claims rows of a small `gen` corpus."""
    tmp_path = tmp_path_factory.mktemp("ingest_fuzz")
    args, kb, claims = gen_args(tmp_path, websites=5, objects=3, claims_per_site=2, seed=4)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0
    records = [json.loads(line) for line in kb.read_text(encoding="utf-8").splitlines()]
    with claims.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert (len(records), len(rows)) == (FUZZ_KB_RECORDS, FUZZ_CLAIMS_ROWS)
    return records, rows


class TestIngestFuzz:
    """A KB value of another JSON type, a huge int or a long string, a KB key
    dropped, or a blank, long or non-numeric claims cell, makes `ingest`
    exit 0 or 2, never with a traceback."""

    @settings(max_examples=80, deadline=None)
    @given(
        mutation=st.tuples(
            st.just("kb"),
            st.integers(0, FUZZ_KB_RECORDS - 1),
            st.sampled_from(KB_FIELDS),
            st.sampled_from(KB_VALUES),
        )
        | st.tuples(
            st.just("claims"),
            st.integers(0, FUZZ_CLAIMS_ROWS - 1),
            st.integers(0, 5),
            st.sampled_from(CELL_VALUES),
        )
    )
    @example(mutation=("kb", 1, "price", 10**400))
    @example(mutation=("claims", 4, 2, "x" * 140_000))
    def test_mutated_inputs_never_escape_an_exception(self, ingest_fuzz_base, mutation):
        side, index, field, value = mutation
        records, rows = copy.deepcopy(ingest_fuzz_base)
        if side == "kb":
            parent, key = records[index], field
            if isinstance(field, tuple):
                parent, key = parent[field[0]], field[1]
            if value is DROP:
                del parent[key]
            else:
                parent[key] = value
        else:
            rows[index][field] = value
        with tempfile.TemporaryDirectory() as tmp:
            kb, claims = Path(tmp) / "kb.jsonl", Path(tmp) / "claims.csv"
            kb.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            with claims.open("w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows(rows)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(
                    ["ingest", "--kb", str(kb), "--claims", str(claims),
                     "--state", str(Path(tmp) / "state.json")]
                )
        assert code in {0, 2}, (mutation[:3], code, err.getvalue()[:200])
        if code:
            assert err.getvalue().startswith("error: ")


# Byte strings that the byte fuzz inserts: a BOM, a byte that is not UTF-8,
# whitespace and separators of JSON and CSV, brackets, the non-finite tokens
# and an int past the interpreter's digit limit.
FUZZ_TOKENS = [
    b"\xef\xbb\xbf", b"\xff", b"\t", b"\r", b"\n", b'"', b";", b",", b"[", b"]", b"{", b"}",
    b"NaN", b"1e999", b"9" * 5000,
]


def _mutate(data, text: bytes) -> bytes:
    """``text`` after 1 to 4 edits drawn from ``data``: a deleted span, a
    flipped byte, a copied span or an inserted token."""
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        at = data.draw(st.integers(0, len(text) - 1), label="at")
        op = data.draw(st.sampled_from(["delete", "flip", "copy", "insert"]), label="op")
        if op == "delete":
            text = text[:at] + text[at + data.draw(st.integers(1, 16), label="length"):]
        elif op == "flip":
            flipped = text[at] ^ data.draw(st.integers(1, 255), label="mask")
            text = text[:at] + bytes([flipped]) + text[at + 1:]
        else:
            if op == "copy":
                start = data.draw(st.integers(0, len(text) - 1), label="from")
                insert = text[start:start + data.draw(st.integers(1, 64), label="length")]
            else:
                insert = data.draw(st.sampled_from(FUZZ_TOKENS), label="token")
            text = text[:at] + insert + text[at:]
    return text


@pytest.fixture(scope="module")
def byte_fuzz_base(tmp_path_factory):
    """The KB, claims and state bytes of test_golden's `gen-40x4` corpus at
    seed 0, the state after ingest, run and compare, and an ISBN it holds."""
    tmp_path = tmp_path_factory.mktemp("byte_fuzz")
    args, kb, claims = gen_args(
        tmp_path, websites=40, objects=12, claims_per_site=4, corruption=0.5, seed=0
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0
        state = ingest(tmp_path, kb, claims)
        assert cli.main(["run", "--state", str(state)]) == 0
        assert cli.main(["compare", "--state", str(state)]) == 0
    isbn = json.loads(kb.read_text(encoding="utf-8").splitlines()[0])["isbn"]
    files = {"kb.jsonl": kb, "claims.csv": claims, "state.json": state}
    return {name: path.read_bytes() for name, path in files.items()}, isbn


class TestByteFuzz:
    """One to four byte edits of the KB, the claims or the state make
    `ingest`, `run`, `compare` and `query` exit 0 or 2 (3 for `query` on a
    state whose pcf table an edit renamed), never with a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_bytes_never_escape_an_exception(self, byte_fuzz_base, data):
        files, isbn = byte_fuzz_base
        files = dict(files)
        name = data.draw(st.sampled_from(sorted(files)), label="file")
        files[name] = _mutate(data, files[name])
        with tempfile.TemporaryDirectory() as tmp:
            paths = {key: Path(tmp) / key for key in files}
            if name == "state.json":
                commands = [["run"], ["compare"], ["query", "--needle", isbn]]
            else:
                commands = [["ingest", "--kb", str(paths["kb.jsonl"]),
                             "--claims", str(paths["claims.csv"])]]
            for command in commands:
                # `run` and `compare` rewrite the state, so each command reads the mutated bytes.
                for key, text in files.items():
                    paths[key].write_bytes(text)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([*command, "--state", str(paths["state.json"])])
                allowed = {0, 2, 3} if command[0] == "query" else {0, 2}
                assert code in allowed, (command[0], code, err.getvalue()[:200])
                if code:
                    assert err.getvalue().startswith("error: ")
