#!/usr/bin/env python3
"""Desk-scale trend experiments, written as CSVs for plotting elsewhere.

Three experiments:
  epsilon  - mean implication factor vs threshold on a mixed corpus
  scaling  - engine wall time vs website count at fixed claims/site
  methods  - mean trust per method at increasing corruption rates
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pcf_engine import baselines, bench, corpus, engine, generator, serp

# Each method's run, in the column order of method_comparison.csv.
METHODS = {
    serp.METHOD_VOTING: baselines.voting_run,
    serp.METHOD_TRUTHFINDER: baselines.truthfinder_run,
    serp.METHOD_PCF: baselines.pcf_run,
}


def build_corpus(n_websites, n_objects, claims_per_site, corruption, seed, config=None):
    spec = generator.GenSpec(
        n_websites=n_websites,
        n_objects=n_objects,
        claims_per_site=claims_per_site,
        corruption_rate=corruption,
        seed=seed,
    )
    kb_records = generator.generate_kb(spec)
    kb = {book.object: book for book in kb_records}
    claims = corpus.canonical_claims(generator.generate_claims(spec, kb_records))
    return engine.assign_pcf(corpus.build_state(kb, claims, config))


def epsilon_experiment(out_dir, seed):
    state = build_corpus(30, 20, 4, 0.5, seed)
    epsilons = [round(0.05 * i, 2) for i in range(11)]
    rows = bench.epsilon_sweep(state, epsilons)
    path = out_dir / "epsilon_sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "mean_implication_factor"])
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def scaling_experiment(out_dir, seed):
    sizes = [50, 100, 200, 400, 800]
    rows = bench.scaling_bench(sizes, seed=seed)
    path = out_dir / "scaling.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_websites", "n_facts", "data_seconds", "engine_seconds"])
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def methods_experiment(out_dir, seed):
    one_epoch = corpus.EngineConfig(max_epochs=1)
    path = out_dir / "method_comparison.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["corruption_rate", *(f"{method}_mean" for method in METHODS)])
        for rate in (0.0, 0.3, 0.6):
            state = build_corpus(40, 40, 6, rate, seed, one_epoch)
            ix = engine.build_index(state)
            tables = [run(state, ix) for run in METHODS.values()]
            writer.writerow([rate, *(f"{sum(t.values()) / len(t):.6f}" for t in tables)])
    print(f"wrote {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", help="directory for CSV output")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--only",
        choices=["epsilon", "scaling", "methods"],
        default=None,
        help="run a single experiment instead of all three",
    )
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    experiments = {
        "epsilon": epsilon_experiment,
        "scaling": scaling_experiment,
        "methods": methods_experiment,
    }
    selected = [args.only] if args.only else list(experiments)
    for name in selected:
        experiments[name](out_dir, args.seed)


if __name__ == "__main__":
    main()
