"""Compare the golden lines with n >= 5 against a fresh run of each.

    python3 tests/golden/compare.py

Tier-1 (`tests/test_golden.py`) replays the lines with n <= 4; this script
runs the slower rest, each in a fresh interpreter on the source tree it
sits in, and prints one line per command: "same" when stdout, stderr and
the exit code equal the stored ones byte for byte, else the first field
that differs.  It exits 1 if any line differs.
"""

from __future__ import annotations

import sys
import time

from record import n_of, run, stored


def main() -> int:
    failed = 0
    for record in stored():
        if n_of(record["argv"]) < 5:
            continue
        start = time.perf_counter()
        got = run(record["argv"])
        wall = time.perf_counter() - start
        diff = next((field for field in ("exit_code", "stdout", "stderr")
                     if got[field] != record[field]), None)
        failed += diff is not None
        print(f"{wall:7.2f} s  {'same' if diff is None else 'DIFFERS in ' + diff}"
              f"  {' '.join(record['argv'])}")
    print(f"{failed} line(s) differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
