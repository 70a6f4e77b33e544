"""Command-line driver: ingest, run, query, compare, gen, bench."""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from dataclasses import replace

from . import baselines, corpus, engine, serp

# `generator` and `bench` are imported in `cmd_gen` and `cmd_bench`, so no
# other command loads them.

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STALE = 3

# The most steps an epsilon grid may take from lo to hi. A sweep folds every
# sibling pair once per value, so a longer grid is no use, and a tiny step
# would build a list until memory runs out.
MAX_GRID_STEPS = 10_000


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one integer, got {text!r}")
    return values


def _epsilon_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numeric lo:hi:step, got {text!r}")
    # NaN fails every comparison and no value passes infinity, so neither
    # bounds a grid.
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise argparse.ArgumentTypeError(f"need finite lo, hi and step, got {text!r}")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"need step > 0 and hi >= lo, got {text!r}")
    too_long = argparse.ArgumentTypeError(
        f"need at most {MAX_GRID_STEPS} steps from lo to hi, got {text!r}"
    )
    if (hi - lo) / step > MAX_GRID_STEPS:
        raise too_long
    # A step below the spacing of floats near lo adds nothing to lo, so the
    # loop is bounded too.
    grid = []
    for i in range(MAX_GRID_STEPS + 2):
        value = lo + i * step
        if value > hi + 1e-12:
            return grid
        grid.append(round(value, 12))
    raise too_long


def cmd_ingest(args: argparse.Namespace) -> int:
    kb = corpus.load_knowledge_base(args.kb)
    claims = corpus.load_claims(args.claims)
    state = corpus.build_state(kb, claims)
    state = engine.assign_pcf(state)
    corpus.save_state(state, args.state)
    print(
        f"ingested {len(kb)} objects and {len(claims)} claims -> "
        f"{len(state.websites)} websites, {len(state.facts)} facts"
    )
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    state = corpus.load_state(args.state)
    overrides = {}
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    if args.tol is not None:
        overrides["convergence_tol"] = args.tol
    if args.epochs is not None:
        overrides["max_epochs"] = args.epochs
    if overrides:
        state.config = replace(state.config, **overrides)

    state, reports = engine.run(state)
    state.method_trusts[serp.METHOD_PCF] = {
        url: site.trust for url, site in state.websites.items()
    }
    corpus.save_state(state, args.state)
    for report in reports:
        print(
            f"epoch={report.epoch} max_trust_delta={report.max_trust_delta:.9f} "
            f"converged={str(report.converged).lower()} "
            f"trust_s={report.trust_seconds:.6f} "
            f"confidence_s={report.confidence_seconds:.6f} "
            f"implication_s={report.implication_seconds:.6f} "
            f"epoch_s={report.epoch_seconds:.6f}"
        )
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    state = corpus.load_state(args.state)
    rows = serp.query(state, args.needle, method=args.method, top_k=args.top)
    sys.stdout.write(serp.serp_tsv(rows))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    """Store the three methods' trust tables in the state, then print them as CSV.

    The rows go out through one ``writelines`` over a generator, so no
    ``print`` runs per site and no string of the whole CSV is built. Each
    url is written as ``csv.writer`` writes it (:func:`_csv_field`).
    """
    state = corpus.load_state(args.state)
    ix = engine.build_index(state)
    tables = state.method_trusts
    tables[serp.METHOD_VOTING] = voting = baselines.voting_run(state, ix)
    tables[serp.METHOD_TRUTHFINDER] = truthfinder = baselines.truthfinder_run(state, ix)
    tables[serp.METHOD_PCF] = pcf = baselines.pcf_run(state, ix)
    corpus.save_state(state, args.state)

    sys.stdout.write("url,voting,truthfinder,pcf\n")
    sys.stdout.writelines(
        f"{_csv_field(url)},{voting[url]:.6f},{truthfinder[url]:.6f},{pcf[url]:.6f}\n"
        for url in sorted(state.websites)
    )
    return EXIT_OK


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer(..., lineterminator="\\n")`` writes it: in
    quotes, each quote doubled, if it holds a comma or a quote. A url holds
    no CR or LF, since ``load_state`` refuses them."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def cmd_gen(args: argparse.Namespace) -> int:
    from . import generator

    spec = generator.GenSpec(
        n_websites=args.websites,
        n_objects=args.objects,
        claims_per_site=args.claims_per_site,
        corruption_rate=args.corruption,
        seed=args.seed,
    )
    kb_records = generator.generate_kb(spec)
    claims = generator.generate_claims(spec, kb_records)
    generator.write_kb_file(args.out_kb, kb_records)
    generator.write_claims_file(args.out_claims, claims)
    print(
        f"generated {len(kb_records)} objects -> {args.out_kb}, "
        f"{len(claims)} claims -> {args.out_claims}"
    )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench

    if args.websites_list is None and args.sweep_epsilon is None:
        print(
            "error: bench needs --websites-list and/or --sweep-epsilon",
            file=sys.stderr,
        )
        return EXIT_INPUT
    sweep = None
    if args.sweep_epsilon is not None:
        if args.state is None:
            print("error: bench --sweep-epsilon needs --state", file=sys.stderr)
            return EXIT_INPUT
        sweep = bench.epsilon_sweep(corpus.load_state(args.state), args.sweep_epsilon)
    if args.websites_list is not None:
        # GenSpec refuses a size below 1 here, before anything is printed.
        scaling = bench.scaling_bench(args.websites_list)
        print("n_websites,n_facts,data_seconds,engine_seconds")
        for n, facts, data_s, engine_s in scaling:
            print(f"{n},{facts},{data_s:.6f},{engine_s:.6f}")
    if sweep is not None:
        print("epsilon,mean_implication_factor")
        for eps, mean in sweep:
            print(f"{eps},{mean:.12f}")
    return EXIT_OK


# Each command's help, function and arguments as (flag, options), in the
# order `pcf -h` lists them.
COMMANDS = {
    "ingest": ("build a state file from KB and claims files", cmd_ingest, [
        ("--kb", {"required": True, "help": "knowledge base (JSON Lines)"}),
        ("--claims", {"required": True, "help": "claims table (CSV)"}),
        ("--state", {"required": True, "help": "output state file (JSON)"}),
    ]),
    "run": ("run trust epochs on a state file", cmd_run, [
        ("--state", {"required": True}),
        ("--epochs", {"type": int, "default": None}),
        ("--epsilon", {"type": float, "default": None}),
        ("--tol", {"type": float, "default": None}),
    ]),
    "query": ("rank provider websites for an ISBN or title", cmd_query, [
        ("--state", {"required": True}),
        ("--needle", {"required": True, "help": "ISBN or title substring"}),
        ("--method", {
            "choices": [serp.METHOD_PCF, serp.METHOD_TRUTHFINDER, serp.METHOD_VOTING],
            "default": serp.METHOD_PCF,
        }),
        ("--top", {"type": int, "default": 10}),
    ]),
    "compare": ("trust table for all three methods", cmd_compare, [
        ("--state", {"required": True}),
    ]),
    "gen": ("generate a synthetic KB and claims corpus", cmd_gen, [
        ("--websites", {"type": int, "required": True}),
        ("--objects", {"type": int, "required": True}),
        ("--claims-per-site", {"type": int, "required": True}),
        ("--corruption", {"type": float, "required": True}),
        ("--seed", {"type": int, "default": 0}),
        ("--out-kb", {"required": True}),
        ("--out-claims", {"required": True}),
    ]),
    "bench": ("scaling timings and epsilon sweeps", cmd_bench, [
        ("--websites-list", {"type": _int_list, "default": None}),
        ("--sweep-epsilon", {"type": _epsilon_grid, "default": None}),
        ("--state", {"default": None, "help": "needed only by --sweep-epsilon"}),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `pcf` parser with every subcommand, or with ``command``'s alone.

    With one subcommand, the command list in the usage line is still the
    full one, so every text the parser prints for that command is the full
    parser's.
    """
    parser = argparse.ArgumentParser(
        prog="pcf",
        description="Rank fact-providing websites by trustworthiness against a knowledge base.",
    )
    # A one-command parser lists every command in its usage line, as the
    # full parser does. The full parser sets no metavar: one would replace
    # `command` in the error that `pcf bogus` prints.
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, func, arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the named command's subparser is built; `pcf`, `pcf -h` and an
    # unknown command get the full parser and its texts.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    # No command makes cyclic garbage that grows with its input, so the
    # collector's passes over the state's containers are pure cost.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`pcf compare ... | head`). Every
        # command writes its files before it prints, so nothing is lost.
        # Output still buffered goes to the null device, so that the flush
        # at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (corpus.CorpusError, corpus.StateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except serp.StaleMethodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALE
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
