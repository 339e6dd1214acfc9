"""Command line contract: formats, determinism, exit codes."""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qkspin.cli import _decimal, main

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _load_bench():
    """perfbench/run.py, whose workload commands have stored outputs."""
    sys.path.insert(0, str(BENCH_DIR))   # run.py imports its sibling tracer
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", BENCH_DIR / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


bench = _load_bench()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dims_values(capsys):
    code, out, _ = run(capsys, "dims", "--n", "2", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == 1
    assert rep["values"]["total"] == 16
    ranks = [row["rank_formula"] for row in rep["values"]["rows"]]
    assert ranks == [5, 8, 3]
    code, out, _ = run(capsys, "dims", "--n", "1", "--format", "json")
    assert json.loads(out)["values"]["total"] == 4
    code, out, _ = run(capsys, "dims", "--n", "3", "--format", "json")
    assert json.loads(out)["values"]["total"] == 64


def test_dims_out_of_range(capsys):
    code, _, err = run(capsys, "dims", "--n", "9")
    assert code == 2
    assert "error" in err


def test_json_determinism(capsys):
    args = ("verify", "--n", "2", "--suite", "curvature", "--seed", "7",
            "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["timing_ms"] is None
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_verify_bianchi_reports_dimension(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--suite", "bianchi",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    dim_check = next(c for c in rep["checks"] if "dimension" in c["name"])
    assert dim_check["status"] == "pass"
    assert code == 0


def test_verify_rejects_big_bianchi(capsys):
    code, _, err = run(capsys, "verify", "--n", "6", "--suite", "bianchi")
    assert code == 2
    assert "n <= 5" in err


def test_weitzenboeck_rejects_big_oracle(capsys):
    code, _, err = run(capsys, "weitzenboeck", "--n", "6", "--r", "2", "--oracle")
    assert code == 2
    assert "n <= 5" in err
    # the closed form alone has no limit on n
    code, out, _ = run(capsys, "weitzenboeck", "--n", "6", "--r", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"n": 6, "r": 2, "oracle": False}


def test_verify_bianchi_at_n3(capsys):
    # dim V = 12: the solution space is 12^2 (12^2 - 1) / 12 = 1716
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "bianchi",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == [
        "check,Bianchi solution space dimension (n=3),pass,1716",
        "check,solutions of I-III' equal ker(m) as subspaces,pass,None",
    ]


def test_weitzenboeck_json_entry(capsys):
    code, out, _ = run(capsys, "weitzenboeck", "--n", "2", "--r", "1",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["values"]["W"]["entries"][0][0].startswith("1/2|")
    assert rep["values"]["W_E"][0] == ["1/2", "-1/4", "1"]


def test_weitzenboeck_oracle_flag(capsys):
    code, out, _ = run(capsys, "weitzenboeck", "--n", "2", "--r", "1",
                       "--oracle", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"][0]["name"] == "closed form = oracle"
    assert rep["checks"][0]["status"] == "pass"


def test_weitzenboeck_degenerate_notice(capsys):
    code, out, _ = run(capsys, "weitzenboeck", "--n", "2", "--r", "0",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert any("degenerate" in c["name"] for c in rep["checks"])


def test_bound_values(capsys):
    code, out, _ = run(capsys, "bound", "--n", "2", "--kappa", "16",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["values"]["bound"] == "5"
    code, out, _ = run(capsys, "bound", "--n", "2", "--r", "1",
                       "--kappa", "16", "--format", "json")
    assert json.loads(out)["values"]["bound"] == "6"
    code, out, _ = run(capsys, "bound", "--n", "5", "--kappa", "28/5",
                       "--format", "json")
    assert json.loads(out)["values"]["bound"] == "8/5"


@pytest.mark.parametrize("value, text", [
    (Fraction(0), "0"),
    (Fraction(8, 5), "1.6"),
    (Fraction(1, 3), "0.333333333333"),
    (Fraction(-2, 3), "-0.666666666667"),
    (Fraction(1999999999999, 2000000000000), "1"),
    (Fraction(10 ** 20, 3), "33333333333300000000"),
    (Fraction(1, 10 ** 15), "0.000000000000001"),
    (Fraction(123456789012345), "123456789012000"),
])
def test_decimal_rendering(value, text):
    # 12 significant digits, ties away from zero, no exponent, no trailing 0
    assert _decimal(value) == text


def test_bound_rejects_nonpositive_kappa(capsys):
    code, _, err = run(capsys, "bound", "--n", "2", "--kappa", "0")
    assert code == 2
    code, _, err = run(capsys, "bound", "--n", "2", "--kappa", "-4")
    assert code == 2
    code, _, err = run(capsys, "bound", "--n", "1", "--kappa", "4")
    assert code == 2
    code, _, err = run(capsys, "bound", "--n", "2", "--kappa", "bogus")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_csv_format(capsys):
    code, out, _ = run(capsys, "bound", "--n", "2", "--kappa", "16",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,name,status,value"
    assert any(line.startswith("value,bound,") for line in lines)


@pytest.mark.parametrize(
    "cmd", [cmd for cmds in bench.WORKLOADS.values() for cmd in cmds],
    ids=bench.slug)
def test_workload_output_matches_stored(capsys, cmd):
    # every benchmark command prints its stored JSON byte for byte
    code, out, _ = run(capsys, *bench.command_argv(cmd, bench.DEFAULT_SEED))
    assert code == 0
    stored = (bench.EXPECTED_DIR / f"{bench.slug(cmd)}.json").read_bytes()
    assert out.encode() == stored
