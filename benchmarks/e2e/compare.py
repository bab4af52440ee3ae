"""Compare two sets of benchmark runs from the ledger.

    python3 benchmarks/e2e/compare.py BASE CHANGE      # verdict per workload x metric
    python3 benchmarks/e2e/compare.py BASE             # one side: medians and spreads

A side selects the untraced ledger entries whose ``--label`` equals it or
whose commit starts with it.  For every workload and every end-to-end metric
of BENCHMARK.json the tool prints each side's run count, median and
quartiles, then a verdict:

* ``better``: the change wins at least 9 of every 10 runs paired in ledger
  order (the i-th run of each side; ties count for neither), and the medians
  differ by more than the distance between the base's quartiles;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound;
* ``unresolved``: either side's quartile distance, as a share of its median,
  is wider than the bound, and the change's runs do not all beat the base's;
* ``unchanged``: otherwise.

Detail metrics (``--details``) are listed with the same statistics but have
no bound, so they get no verdict.  Compile-cold image digests are checked to
repeat for each seed within a side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

E2E = Path(__file__).resolve().parent


def load(ledger: Path, selector: str, smoke: bool) -> List[dict]:
    entries = []
    with open(ledger, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            if entry["trace"] or entry["smoke"] != smoke:
                continue
            if entry.get("label") == selector or str(entry.get("commit", "")).startswith(selector):
                entries.append(entry)
    return sorted(entries, key=lambda entry: entry["timestamp"])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: List[float], change: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    change_median = quartiles(change)[1]
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(change_median - base_median) > base_q3 - base_q1:
        return "better"
    if sign * (change_median - base_median) < -bound * abs(base_median):
        return "worse"
    all_beat = min(sign * c for c in change) > max(sign * b for b in base)
    if max(spread(base), spread(change)) > bound and not all_beat:
        return "unresolved"
    return "unchanged"


def row_text(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"n={len(values):<3} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread(values):6.1%}"


def by_workload(entries: List[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = defaultdict(list)
    for entry in entries:
        grouped[entry["workload"]].append(entry)
    return grouped


def digest_check(entries: List[dict]) -> Optional[str]:
    seen: Dict[int, set] = defaultdict(set)
    for entry in entries:
        if "image_digest" in entry["details"]:
            seen[entry["seed"]].add(entry["details"]["image_digest"])
    if not seen:
        return None
    differing = sorted(seed for seed, digests in seen.items() if len(digests) > 1)
    if differing:
        return f"image digest DIFFERS between runs of seed(s) {differing}"
    return f"image digest repeats for each of {len(seen)} seed(s)"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--ledger", default=str(E2E / "results" / "history.jsonl"))
    parser.add_argument("--details", action="store_true", help="also list detail metrics")
    parser.add_argument("--smoke", action="store_true", help="compare smoke-scale runs")
    args = parser.parse_args(argv)

    with open(E2E.parents[1] / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    sides = [by_workload(load(Path(args.ledger), args.base, args.smoke))]
    if args.change is not None:
        sides.append(by_workload(load(Path(args.ledger), args.change, args.smoke)))
    if not any(sides[0].values()):
        print(f"no untraced runs match {args.base!r} in {args.ledger}", file=sys.stderr)
        return 2

    counts = defaultdict(int)
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = [side.get(workload, []) for side in sides]
        if not all(runs):
            continue
        print(f"== {workload} ==")
        for spec in benchmark["end_to_end"]:
            values = [[entry["metrics"][spec["name"]] for entry in side] for side in runs]
            print(f"  {spec['name']} ({spec['unit']}, {spec['better']} is better, bound {spec['bound']:.0%})")
            for label, side_values in zip(("base  ", "change"), values):
                print(f"    {label} {row_text(side_values)}")
            if len(values) == 2:
                result = verdict(values[0], values[1], spec["better"], spec["bound"])
                counts[result] += 1
                delta = quartiles(values[1])[1] / quartiles(values[0])[1] - 1.0
                print(f"    verdict {result} (median change {delta:+.1%})")
            elif spread(values[0]) > spec["bound"]:
                counts["spread above bound"] += 1
                print("    spread above the bound")
        if args.details:
            names = sorted(set.intersection(*(set(e["details"]) for side in runs for e in side)))
            for name in names:
                print(f"  detail {name}")
                for label, side in zip(("base  ", "change"), runs):
                    print(f"    {label} {row_text([entry['details'][name] for entry in side])}")
        for label, side in zip(("base", "change"), runs):
            note = digest_check(side)
            if note:
                print(f"  {label}: {note}")
                if "DIFFERS" in note:
                    counts["digest differs"] += 1
    print("summary: " + ", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
