"""qkspin benchmark: time to verdict of real `qkspin ... --format json` runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the source tree to measure (the directory holding
`src/qkspin`).  Every command runs as a fresh `python -m qkspin.cli`
process, one at a time: a closed loop with one client.  The workload seed
reaches the program only as the command line's `--seed`.  Every output is
checked against the stored one in `perfbench/expected/`.

--trace 0 prints the end-to-end metrics: the median over passes of the wall
time of one full pass of the workload's commands divided by the time of a
fixed reference loop run next to them in the same pass (passes repeat while
the next one fits in --seconds, at least one), the median interpreter
set-up time, the peak RSS of any workload child and the share of commands
that passed.  The line before the result also gives the raw pass times.

--trace 1 runs one untraced pass and then one traced pass, each command in
a fresh interpreter under `tracer.py`, and prints the per-layer metrics.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"

# Each workload names its suites explicitly instead of `--suite all`, so that
# widening `all` later does not change the measured work.  Every command
# takes at most a few seconds, so a run holds several passes.
WORKLOADS = {
    # Scalar arithmetic, mu_matrix / two_form_matrix and mu-matrix compose.
    "clifford-n3": [["verify", "--n", "3", "--suite", "clifford"]],
    # Rational arithmetic only; derivation_ext_matrix, compose and madd.
    "curvature-n2": [["verify", "--n", "2", "--suite", "curvature"]],
    # Exact elimination over the projector families (linalg dominates).
    "oracle-n3": [["verify", "--n", "3", "--suite", "weitzenboeck"]],
    # Short commands: start-up, import, first-use caches and rendering.
    "cli-batch": [
        ["dims", "--n", "4"],
        ["bound", "--n", "2", "--kappa", "16"],
        ["bound", "--n", "5", "--r", "0", "--kappa", "28/5"],
        ["weitzenboeck", "--n", "3", "--r", "1", "--oracle"],
        ["weitzenboeck", "--n", "3", "--r", "0", "--oracle"],
        ["verify", "--n", "2", "--suite", "all"],
        ["verify", "--n", "3", "--suite", "lemmas"],
    ],
}

DEFAULT_SEED = 0          # the seed the stored outputs were produced at
SETUP_LAUNCHES = 16       # interpreter launches timed per run for setup_s
CHILD_TIMEOUT_S = 170     # a hung child is killed so the run still ends
REFERENCE_TERMS = 20000   # terms of the reference loop run before each command


class SourceMissing(Exception):
    pass


def program_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "qkspin" / "cli.py").is_file():
        raise SourceMissing(f"no src/qkspin/cli.py under {root}; run from the "
                            f"root of the qkspin source tree")
    return root


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def command_argv(cmd: list, seed: int) -> list:
    return [*cmd, "--format", "json", "--seed", str(seed)]


def run_child(argv: list, env: dict) -> tuple[int, bytes, bytes, float, float]:
    """Run a child to completion: (exit code, stdout, stderr, wall s, max RSS MB).

    The child is reaped with os.wait4, which gives its own resource usage.
    """
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        err: list = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = perf_counter() - start
    return proc.returncode, out, err[0], wall, usage.ru_maxrss / 1024


# -- output check ----------------------------------------------------------

def slug(cmd: list) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", " ".join(cmd)).strip("-")


def expected_output(cmd: list, seed: int) -> bytes:
    """The stored output of cmd, as it must read at `seed`.

    At the default seed it is the stored bytes.  At another seed every check
    must still pass under the same names, so the report must equal the
    stored one with only params.seed changed.
    """
    stored = (EXPECTED_DIR / f"{slug(cmd)}.json").read_bytes()
    report = json.loads(stored)
    if seed == DEFAULT_SEED or "seed" not in report["params"]:
        return stored
    report["params"]["seed"] = seed
    return (json.dumps(report, indent=2) + "\n").encode()


def output_ok(cmd: list, seed: int, rc: int, out: bytes) -> bool:
    return rc == 0 and out == expected_output(cmd, seed)


# -- measurement -------------------------------------------------------------

def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def reference_s() -> float:
    """Wall time of a fixed loop of Fraction sums in this interpreter.

    The host's speed drifts by a third or more over minutes.  The loop runs
    right before each command, in the same closed loop, so the pass time
    divided by the pass's reference time cancels that drift.
    """
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(i % 97, i % 89 + 1)
    return perf_counter() - start


def measure_setup(env: dict, launches: int) -> list:
    """Wall times of fresh interpreters importing qkspin.cli."""
    argv = [sys.executable, "-c", "import qkspin.cli"]
    times = []
    for _ in range(launches):
        rc, _, err, wall, _ = run_child(argv, env)
        if rc != 0:
            raise SourceMissing(f"import qkspin.cli failed: {err.decode()[-500:]}")
        times.append(wall)
    return times


class Pass:
    """One full pass over a workload's commands."""

    def __init__(self):
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.rollups: list = []

    def record(self, cmd, ok, wall, rss, err):
        self.attempted += 1
        self.wall_s += wall
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if not ok:
            self.failed += 1
            print(f"FAILED: qkspin {' '.join(cmd)} (exit code or output differs "
                  f"from expected/{slug(cmd)}.json)\n{err.decode()[-2000:]}",
                  file=sys.stderr)


def untraced_pass(commands: list, seed: int, env: dict) -> Pass:
    p = Pass()
    for cmd in commands:
        p.reference_s += reference_s()
        argv = command_argv(cmd, seed)
        rc, out, err, wall, rss = run_child([sys.executable, "-m", "qkspin.cli",
                                             *argv], env)
        p.record(cmd, output_ok(cmd, seed, rc, out), wall, rss, err)
    return p


def traced_pass(commands: list, seed: int, env: dict) -> Pass:
    p = Pass()
    script = str(BENCH_DIR / "tracer.py")
    for cmd in commands:
        argv = command_argv(cmd, seed)
        rc, out, err, wall, rss = run_child([sys.executable, script, *argv], env)
        ok = False
        if rc == 0:
            child = json.loads(out)
            ok = output_ok(cmd, seed, child["rc"], child["output"].encode())
            p.rollups.append(child["trace"])
        p.record(cmd, ok, wall, rss, err)
    return p


def measure(workload: str, seed: int, seconds: float, env: dict) -> dict:
    commands = WORKLOADS[workload]
    measure_setup(env, 1)   # warm-up: the first launch may compile bytecode
    # Half the set-up launches go before the passes and half after, so that
    # setup_s samples the machine over the whole run, as the passes do.
    setup = measure_setup(env, SETUP_LAUNCHES // 2)
    passes: list = []
    deadline = perf_counter() + seconds
    while True:
        passes.append(untraced_pass(commands, seed, env))
        if perf_counter() + passes[-1].wall_s + passes[-1].reference_s > deadline:
            break
    setup += measure_setup(env, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    w1, wmed, w3 = quartiles([p.wall_s for p in passes])
    q1, med, q3 = quartiles([p.wall_s / p.reference_s for p in passes])
    s1, smed, s3 = quartiles(setup)
    print(f"{workload} seed={seed}: n={len(passes)} passes; pass wall median "
          f"{wmed:.4f} s (q1 {w1:.4f}, q3 {w3:.4f}); wall_rel median {med:.4f} "
          f"(q1 {q1:.4f}, q3 {q3:.4f}); setup_s median {smed:.4f} s "
          f"(q1 {s1:.4f}, q3 {s3:.4f}, n={len(setup)} launches)")
    metrics = {
        "wall_rel": (med, "ref"),
        "setup_s": (smed, "s"),
        "peak_rss_mb": (max(p.peak_rss_mb for p in passes), "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return result(attempted, failed, metrics)


def measure_traced(workload: str, seed: int, env: dict) -> dict:
    commands = WORKLOADS[workload]
    measure_setup(env, 1)   # warm-up, as in measure()
    plain = untraced_pass(commands, seed, env)
    traced = traced_pass(commands, seed, env)
    print(f"{workload} seed={seed}: untraced pass {plain.wall_s:.4f} s, "
          f"traced pass {traced.wall_s:.4f} s")
    values = tracer.layer_metrics(tracer.merge(traced.rollups),
                                  plain.wall_s, traced.wall_s)
    metrics = {name: (value, tracer.unit_of(name)) for name, value in values.items()}
    return result(plain.attempted + traced.attempted,
                  plain.failed + traced.failed, metrics)


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env = child_env(program_root())
        if args.trace:
            res = measure_traced(args.workload, args.seed, env)
        else:
            res = measure(args.workload, args.seed, args.seconds, env)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
