"""Store the golden outputs: stdout, stderr and exit code of fixed command lines.

    python3 tests/golden/record.py

Each command line in `LINES` runs as a fresh `python -m qkspin.cli`
process on the source tree this file sits in, and its result is written to
`tests/golden/<slug>.json` as {"argv", "exit_code", "stdout", "stderr"}.
`tests/test_golden.py` replays the lines with n <= 4 in tier-1 and
`compare.py` beside this file the rest.  A golden file changes only in a
change that says which line changed and why.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
ROOT = GOLDEN_DIR.parent.parent

LINES = (
    [["verify", "--n", str(n), "--suite", suite]
     for n in range(1, 6) for suite in ("lemmas", "clifford", "weitzenboeck", "all")]
    + [["verify", "--n", "2", "--suite", "curvature"]]
    + [["weitzenboeck", "--n", str(n), "--r", str(r), "--oracle"]
       for n, r in ((3, 0), (3, 1), (4, 2), (5, 2), (5, 5))]
    + [["dims", "--n", "4"],
       ["bound", "--n", "2", "--kappa", "16"],
       ["bound", "--n", "5", "--r", "0", "--kappa", "28/5"]])


def argv(line: list) -> list:
    return [*line, "--format", "json"]


def slug(line: list) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", " ".join(line)).strip("-")


def n_of(argv: list) -> int:
    return int(argv[argv.index("--n") + 1])


def run(argv: list) -> dict:
    """The golden record of one command line, run in a fresh interpreter."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", "qkspin.cli", *argv],
                          capture_output=True, env=env, check=False)
    return {"argv": argv, "exit_code": proc.returncode,
            "stdout": proc.stdout.decode(), "stderr": proc.stderr.decode()}


def stored() -> list:
    """Every golden record, in file name order."""
    return [json.loads(path.read_text())
            for path in sorted(GOLDEN_DIR.glob("*.json"))]


def main() -> int:
    for line in LINES:
        record = run(argv(line))
        (GOLDEN_DIR / f"{slug(line)}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        print(f"exit {record['exit_code']}  {slug(line)}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
