"""Run every workload over a range of seeds and record one result set.

    python3 perfbench/sweep.py --out perfbench/results/NAME.json [--seeds 1-10]
        [--trace 0|1]

Run it from the root of the source tree to measure.  Each run is a separate
`run.py` process with the run length from BENCHMARK.json, so that result
sets of two commits compare like with like; seeds are the outer loop, so
slow drift of the machine spreads over every workload.  The result set is
labelled with the stem of --out and records the Python version, the CPU
count, the git commit of the tree (when it is a git checkout) and the load
average at the start and end of every run and of the whole sweep.  At the
end it prints every metric by name with its unit: the median and quartiles
over the runs, and for end-to-end metrics the spread as a share of the
median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from run import WORKLOADS, quartiles

BENCH_DIR = Path(__file__).resolve().parent


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    before = loadavg()
    start = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": elapsed, "loadavg_start": before, "loadavg_end": loadavg(),
            "summary": lines[:-1], "result": json.loads(lines[-1])}


def summary(runs: list, spec: dict) -> list:
    """Lines giving every metric's median and quartiles per workload."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = []
    for workload in WORKLOADS:
        mine = [r["result"] for r in runs if r["workload"] == workload]
        if not mine:
            continue
        failed = sum(r["failed"] for r in mine)
        attempted = sum(r["attempted"] for r in mine)
        out.append(f"{workload}: {len(mine)} runs, {failed}/{attempted} "
                   f"commands failed")
        for name, first in mine[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in mine]
            q1, med, q3 = quartiles(values)
            line = (f"  {name:34} {med:14.6g} {first['unit']:6} "
                    f"[q1 {q1:.6g}, q3 {q3:.6g}]")
            if name in bounds and med:
                line += f"  spread {(q3 - q1) / abs(med):.3f} (bound {bounds[name]})"
            out.append(line)
    return out


def main(argv=None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    meta = {"label": Path(args.out).stem, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "run_seconds": spec["run_seconds"],
            "trace": args.trace, "seeds": seeds, "workloads": list(WORKLOADS),
            "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "loadavg_start": loadavg()}
    runs = []
    for seed in seeds:
        for workload in WORKLOADS:
            run = run_one(workload, seed, spec["run_seconds"], args.trace)
            runs.append(run)
            print(f"{workload} seed={seed} {run['elapsed_s']:.1f} s  "
                  f"load {run['loadavg_end'].split()[0]}", flush=True)
    meta["loadavg_end"] = loadavg()
    meta["finished_utc"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"meta": meta, "runs": runs}, indent=1) + "\n")
    print("\n".join(summary(runs, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
