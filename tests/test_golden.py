"""Golden outputs: the stored command lines with n <= 4, byte for byte.

Each file under `tests/golden/` holds the stdout, stderr and exit code of
one `--format json` command line, recorded in a fresh interpreter by
`tests/golden/record.py`.  The lines are replayed here in process; the
lines with n >= 5 are compared by `tests/golden/compare.py`.
"""

import json
from pathlib import Path

import pytest

from qkspin.cli import main

GOLDEN = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))
RECORDS = [json.loads(path.read_text()) for path in GOLDEN]


def n_of(argv):
    return int(argv[argv.index("--n") + 1])


def test_the_golden_lines_are_stored():
    assert len(RECORDS) == 29
    assert sum(n_of(rec["argv"]) <= 4 for rec in RECORDS) == 22


@pytest.mark.parametrize(
    "record", [rec for rec in RECORDS if n_of(rec["argv"]) <= 4],
    ids=lambda rec: " ".join(rec["argv"][:-2]))
def test_a_golden_line_prints_its_stored_output(capsys, record):
    code = main(list(record["argv"]))
    out = capsys.readouterr()
    assert (code, out.err) == (record["exit_code"], record["stderr"])
    assert out.out == record["stdout"]
