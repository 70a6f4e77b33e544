"""Independent correctness oracle for the benchmark's outputs.

A naive, readable re-implementation of the method in PAPER.md, built from the
generated KB and claims files alone. It never imports pcf_engine:

* pcf: a claimed name scores len(claim)/len(true) for the best true author
  containing it as a substring, else 0; a fact scores the mean over names.
* trust: a site still at trust exactly 0 takes the mean pcf of its facts on
  known objects (the literal "initial" branch, re-entered by any site whose
  trust is 0 again); otherwise the mean adjusted confidence of its facts.
* confidence: s = 1 - prod(1 - t) over providers, clamped to 1 - 1e-10.
* implication: s + sum over siblings of |eps - d| * s(sibling) with
  d = pcf(fact) - pcf(sibling), exactly eps when d == eps, then divided by
  the smallest power of ten bringing it to at most 1 and clamped again.

It checks every output the clients recorded: the fact table and pcf after
`ingest`, site trusts and fact confidences after `run`, the `pcf` column of
`compare` (state and CSV), and each `query` listing: ordered by
(-trust, url), only matched ISBNs, complete up to --top. Writes
``oracle.json``: the corpus counts and, per client, one list of errors per
record.

    python3 perfbench/oracle.py --work DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path

from common import EPOCHS

EPSILON = 0.4
CLAMP = 1e-10
# pcf values are float ratios, so a difference that is eps on paper can miss
# it by rounding (0.9 - 0.5); ties are matched within this band, as the
# README's "exactly epsilon when d == epsilon" intends.
TIE_BAND = 1e-9
# Absolute tolerance on trusts and confidences: room for reordered sums,
# tight enough to catch a flipped damping decision.
TOLERANCE = 1e-9
# The CLI prints six decimals.
PRINTED = 5e-7 + TOLERANCE


def normalize(raw: str) -> str:
    return re.sub(r"\s+", " ", raw.lower().replace(".", "").replace(",", "")).strip()


class Corpus:
    """Facts keyed by (isbn, sorted normalised names), with their providers."""

    def __init__(self, kb_path: str, claims_path: str) -> None:
        self.titles: dict[str, str] = {}
        self.truth: dict[str, list[str]] = {}
        for line in Path(kb_path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                book = json.loads(line)
                isbn = book["isbn"].strip()
                self.titles[isbn] = normalize(book["title"])
                self.truth[isbn] = [normalize(a) for a in book["authors"]]
        self.providers: dict[tuple, set[str]] = {}
        self.site_facts: dict[str, set[tuple]] = {}
        with open(claims_path, encoding="utf-8", newline="") as fh:
            rows = csv.DictReader(fh)
            self.claims = 0
            for row in rows:
                self.claims += 1
                names = [normalize(n) for n in row["authors"].split(";")]
                key = (row["isbn"].strip(), tuple(sorted(n for n in names if n)))
                url = row["website_url"].strip()
                self.providers.setdefault(key, set()).add(url)
                self.site_facts.setdefault(url, set()).add(key)
        self.siblings: dict[str, list[tuple]] = {}
        for key in self.providers:
            self.siblings.setdefault(key[0], []).append(key)
        self.pcf = {key: self.fact_pcf(key) for key in self.providers}

    def fact_pcf(self, key: tuple) -> float:
        isbn, names = key
        if isbn not in self.truth or not names:
            return 0.0
        total = 0.0
        for name in names:
            best = 0.0
            for true in self.truth[isbn]:
                if name in true:
                    best = max(best, len(name) / len(true))
            total += best
        return total / len(names)

    def counts(self) -> dict[str, int]:
        return {"claims": self.claims, "websites": len(self.site_facts),
                "facts": len(self.providers), "objects": len(self.siblings)}

    def epochs(self, n: int) -> tuple[dict[str, float], dict[tuple, float]]:
        """Site trusts and adjusted fact confidences after ``n`` epochs from zero trust."""
        trust = {url: 0.0 for url in self.site_facts}
        adjusted = {key: 0.0 for key in self.providers}
        for _ in range(n):
            for url, keys in self.site_facts.items():
                if trust[url] == 0.0:
                    known = [self.pcf[k] for k in keys if k[0] in self.truth]
                    trust[url] = sum(known) / len(known) if known else 0.0
                else:
                    trust[url] = sum(adjusted[k] for k in keys) / len(keys)
            s = {}
            for key, urls in self.providers.items():
                disbelief = 1.0
                for url in urls:
                    disbelief *= 1.0 - trust[url]
                s[key] = min(1.0 - disbelief, 1.0 - CLAMP)
            for key in self.providers:
                total = s[key]
                for other in self.siblings[key[0]]:
                    if other != key:
                        d = self.pcf[key] - self.pcf[other]
                        factor = EPSILON if abs(d - EPSILON) < TIE_BAND else abs(EPSILON - d)
                        total += factor * s[other]
                alpha = 0
                while total / 10**alpha > 1.0:
                    alpha += 1
                adjusted[key] = min(total / 10**alpha, 1.0 - CLAMP)
        return trust, adjusted


class Checker:
    def __init__(self, work: Path, plan: dict) -> None:
        self.work = work
        self.corpus = Corpus(plan["kb"], plan["claims"])
        self.trust, self.adjusted = self.corpus.epochs(EPOCHS)
        self._states: dict[str, dict] = {}
        self._verdicts: dict[str, list[str]] = {}

    def state(self, name: str) -> dict:
        """A saved state, with facts keyed as the oracle keys them."""
        if name not in self._states:
            doc = json.loads((self.work / name).read_text(encoding="utf-8"))
            urls = {w["id"]: w["url"] for w in doc["websites"]}
            doc["fact_by_key"] = {(f["isbn"], tuple(f["authors"])): f for f in doc["facts"]}
            doc["urls"] = urls
            self._states[name] = doc
        return self._states[name]

    def check(self, record: dict) -> list[str]:
        op = record["op"]
        if op == "counts":
            return []
        if record["rc"] != 0:
            return [f"{op} exited {record['rc']}: {record.get('stderr', '')}"]
        if op == "query":
            return self.check_query(record)
        key = f"{op}:{record['artifact']}:{record.get('csv')}"
        if key not in self._verdicts:
            self._verdicts[key] = getattr(self, f"check_{op}")(record)
        return self._verdicts[key]

    def check_facts(self, doc: dict) -> list[str]:
        errors = []
        corpus = self.corpus
        if set(doc["fact_by_key"]) != set(corpus.providers):
            errors.append("fact table differs from the claims")
            return errors
        if {w["url"] for w in doc["websites"]} != set(corpus.site_facts):
            errors.append("website set differs from the claims")
            return errors
        for key, fact in doc["fact_by_key"].items():
            if {doc["urls"][i] for i in fact["providers"]} != corpus.providers[key]:
                errors.append(f"providers of {key} differ")
            if abs(fact["pcf"] - corpus.pcf[key]) > TOLERANCE:
                errors.append(f"pcf of {key}: {fact['pcf']!r} != {corpus.pcf[key]!r}")
        return errors

    def check_trusts(self, label: str, trusts: dict[str, float]) -> list[str]:
        errors = [f"{label} of {url}: {trusts.get(url)!r} != {want!r}"
                  for url, want in self.trust.items()
                  if url not in trusts or abs(trusts[url] - want) > TOLERANCE]
        return errors[:20]

    def check_ingest(self, record: dict) -> list[str]:
        doc = self.state(record["artifact"])
        errors = self.check_facts(doc)
        if any(w["trust"] != 0.0 for w in doc["websites"]):
            errors.append("ingest left a non-zero trust")
        return errors

    def check_run(self, record: dict) -> list[str]:
        doc = self.state(record["artifact"])
        errors = self.check_facts(doc)
        if errors:
            return errors
        errors = self.check_trusts("trust", {w["url"]: w["trust"] for w in doc["websites"]})
        for key, fact in doc["fact_by_key"].items():
            if abs(fact["adjusted_confidence"] - self.adjusted[key]) > TOLERANCE:
                errors.append(f"adjusted confidence of {key}: "
                              f"{fact['adjusted_confidence']!r} != {self.adjusted[key]!r}")
        return errors[:20]

    def check_compare(self, record: dict) -> list[str]:
        errors = self.check_run(record)
        doc = self.state(record["artifact"])
        tables = doc["method_trusts"]
        for method in ("pcf", "truthfinder", "voting"):
            if set(tables.get(method, {})) != set(self.corpus.site_facts):
                errors.append(f"compare recorded no full {method} table")
        errors += self.check_trusts("compare pcf", tables.get("pcf", {}))
        lines = (self.work / record["csv"]).read_text(encoding="utf-8").splitlines()
        if lines[:1] != ["url,voting,truthfinder,pcf"]:
            return errors + ["compare CSV header"]
        urls = [line.split(",")[0] for line in lines[1:]]
        if urls != sorted(self.trust):
            return errors + ["compare CSV rows are not every url in order"]
        for line in lines[1:]:
            url, pcf = line.split(",")[0], float(line.split(",")[3])
            if abs(pcf - self.trust[url]) > PRINTED:
                errors.append(f"compare CSV pcf of {url}: {pcf} != {self.trust[url]!r}")
        return errors[:20]

    def check_query(self, record: dict) -> list[str]:
        if record["state"] is None:
            return ["query ran on a state that compare did not write"]
        doc = self.state(record["state"])
        corpus = self.corpus
        needle = record["needle"].strip()
        wanted = normalize(needle)
        matched = {isbn for isbn, title in corpus.titles.items()
                   if isbn == needle or (wanted and wanted in title)}
        matched |= {isbn for isbn in corpus.siblings if isbn == needle}
        trusts = doc["method_trusts"].get(record["method"])
        if set(trusts or ()) != set(corpus.site_facts):
            return [f"query {needle!r}: no full {record['method']} table to rank by"]
        ranking = sorted(trusts, key=lambda url: (-trusts[url], url))
        expected = [(url, key) for url in ranking
                    for key in sorted(corpus.site_facts[url]) if key[0] in matched]
        expected = expected[:record["top"]]
        rows = [line.split("\t") for line in record["stdout"].splitlines()]
        errors = []
        if len(rows) != len(expected):
            return [f"query {needle!r}: {len(rows)} rows, expected {len(expected)}"]
        if [row[1] for row in rows] != [url for url, _ in expected]:
            return [f"query {needle!r}: rows not ordered by (-trust, url)"]
        for rank, row in enumerate(rows, start=1):
            if len(row) != 6 or row[0] != str(rank):
                errors.append(f"query {needle!r}: malformed row {row}")
                continue
            url, key = row[1], (row[3], tuple(row[4].split(";")))
            if key[0] not in matched:
                errors.append(f"query {needle!r}: unmatched isbn {key[0]}")
            if key not in corpus.site_facts[url]:
                errors.append(f"query {needle!r}: {url} does not claim {key}")
                continue
            if row[2] != f"{trusts[url]:.6f}":
                errors.append(f"query {needle!r}: trust of {url} printed {row[2]}")
            if abs(float(row[5]) - self.adjusted[key]) > PRINTED:
                errors.append(f"query {needle!r}: confidence of {key} printed {row[5]}")
        if len({(row[1], row[3], row[4]) for row in rows}) != len(rows):
            errors.append(f"query {needle!r}: duplicate rows")
        return errors[:20]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    plan = json.loads((args.work / "plan.json").read_text())
    checker = Checker(args.work, plan)
    verdicts = {}
    for client in ("e2e", "traced"):
        path = args.work / f"{client}.json"
        if path.exists():
            records = json.loads(path.read_text())["records"]
            verdicts[client] = [checker.check(record) for record in records]
    (args.work / "oracle.json").write_text(json.dumps(
        {"counts": checker.corpus.counts(), "verdicts": verdicts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
