"""Store the expected output of every workload command at the default seed.

    python3 perfbench/record.py

Run it from the root of the source tree whose outputs become the reference.
Each command's standard output is written byte for byte to
`perfbench/expected/<slug>.json`; a command that exits non-zero is an error.
"""

from __future__ import annotations

import sys

from run import (DEFAULT_SEED, EXPECTED_DIR, WORKLOADS, child_env, command_argv,
                 program_root, run_child, slug)


def main() -> int:
    env = child_env(program_root())
    EXPECTED_DIR.mkdir(exist_ok=True)
    for commands in WORKLOADS.values():
        for cmd in commands:
            argv = [sys.executable, "-m", "qkspin.cli",
                    *command_argv(cmd, DEFAULT_SEED)]
            rc, out, err, wall, _ = run_child(argv, env)
            if rc != 0:
                print(f"qkspin {' '.join(cmd)} exited {rc}:\n{err.decode()}",
                      file=sys.stderr)
                return 1
            (EXPECTED_DIR / f"{slug(cmd)}.json").write_bytes(out)
            print(f"{wall:8.3f} s  {slug(cmd)}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
