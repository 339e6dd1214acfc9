"""Compare two result sets written by sweep.py: a parent and a change.

    python3 perfbench/compare.py PARENT.json CHANGE.json

Prints one row per workload x end-to-end metric with both medians and
quartiles, both sides' failed/attempted commands, the share of pairs the
change wins and a verdict.  Runs are
paired by workload and seed.  The verdict follows the benchmark's rule:

* improved: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither), and its median is better than the
  parent's by more than the parent's own quartile spread;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json (a share of the parent's median);
* unresolved: not worse, but the run-to-run spread (quartile distance over
  median, the wider of the two sides) exceeds the bound, and not every run
  of the change reads better than every run of the parent;
* no worse: otherwise.

Failures are judged on counts, not on the per-run `pass_ratio` values:
each side's failed and attempted commands are pooled over its paired runs.
If the change's pooled failed share is above the parent's, its `pass_ratio`
row is worse, and each other row of that workload that is not worse reads
unresolved, because a failed command can cut a run short and so look fast.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def verdict(pairs: list, bound: float, better: str) -> tuple[str, float]:
    """(verdict, share of pairs won) for aligned (parent, change) values."""
    worse_sign = 1 if better == "lower" else -1
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    wins = sum(1 for p, c in pairs if worse_sign * (c - p) < 0)
    won = wins / len(pairs)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = worse_sign * (pmed - cmed)
    if len(pairs) >= 10 and won >= 0.9 and gain > pq3 - pq1:
        return "improved", won
    if -gain > bound * abs(pmed):
        return "worse", won
    spread = max((pq3 - pq1) / abs(pmed), (cq3 - cq1) / abs(cmed))
    all_better = all(worse_sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", won
    return "no worse", won


FAILURE_METRIC = "pass_ratio"


def runs_by_key(result_set: dict) -> dict:
    """(workload, seed) -> untraced run results, in run order."""
    out = defaultdict(list)
    for run in result_set["runs"]:
        if run["trace"] == 0:
            out[(run["workload"], run["seed"])].append(run["result"])
    return out


def pooled_failures(results: list) -> tuple[int, int]:
    """(failed, attempted) commands summed over run results."""
    return (sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results))


def rows(parent_set: dict, change_set: dict, spec: dict) -> list:
    parent = runs_by_key(parent_set)
    change = runs_by_key(change_set)
    out = []
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = [pc for key in sorted(parent) if key[0] == workload
                 for pc in zip(parent[key], change.get(key, []))]
        if not pairs:
            continue
        pf, pa = pooled_failures([p for p, _ in pairs])
        cf, ca = pooled_failures([c for _, c in pairs])
        failed_more = cf * pa > pf * ca
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                      for p, c in pairs]
            result, won = verdict(values, metric["bound"], metric["better"])
            if name == FAILURE_METRIC:
                result = "worse" if failed_more else "no worse"
            elif failed_more and result != "worse":
                result = "unresolved"
            out.append({"workload": workload, "metric": name,
                        "unit": metric["unit"], "pairs": len(pairs),
                        "parent": quartiles([p for p, _ in values]),
                        "change": quartiles([c for _, c in values]),
                        "failed": f"{pf}/{pa} -> {cf}/{ca}",
                        "won": won, "verdict": result})
    return out


def fmt(q) -> str:
    q1, med, q3 = q
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCH_FILE.read_text())
    parent_set = json.loads(Path(args.parent).read_text())
    change_set = json.loads(Path(args.change).read_text())
    table = rows(parent_set, change_set, spec)
    if not table:
        print("no paired runs (same workload and seed) in the two sets",
              file=sys.stderr)
        return 1
    header = ("workload", "metric", "unit", "pairs", "parent med [q1, q3]",
              "change med [q1, q3]", "failed", "won", "verdict")
    lines = [header] + [(r["workload"], r["metric"], r["unit"], str(r["pairs"]),
                         fmt(r["parent"]), fmt(r["change"]), r["failed"],
                         f"{r['won']:.2f}", r["verdict"]) for r in table]
    widths = [max(len(line[k]) for line in lines) for k in range(len(header))]
    for line in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
