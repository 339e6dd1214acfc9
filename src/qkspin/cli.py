"""Batch command line front end: dims, verify, weitzenboeck, bound.

Output formats: table (default), json, csv.  JSON reports follow a stable
schema {"schema_version", "command", "params", "checks", "values",
"timing_ms"} and are byte-identical across runs for a fixed command line;
wall-clock timing is only included when --timing is passed, since it would
break that reproducibility.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error.

Randomized inputs (the symmetric 4-forms of the curvature suite) derive
from --seed through Python's random.Random, an explicitly seeded Mersenne
Twister whose integer draws are stable across platforms and versions.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

# spinor, verify and weitzenboeck are loaded lazily (see the package
# docstring): each command compiles only the module it reads.
from . import SUITES, spinor, verify, weitzenboeck
from .lefschetz import Check, PrimitiveDimensionError, primitive_dim
from .scalar import Scalar

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def _fmt_fraction(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _decimal(x) -> str:
    """Display-only rendering to 12 significant digits; never compared."""
    from decimal import ROUND_HALF_UP, Context, Decimal
    f = Fraction(x)
    if f == 0:
        return "0"
    ctx = Context(prec=12, rounding=ROUND_HALF_UP)
    d = ctx.divide(Decimal(f.numerator), Decimal(f.denominator))
    return format(d.normalize(ctx), "f")


def _jsonable(value):
    if isinstance(value, Fraction):
        return _fmt_fraction(value)
    if isinstance(value, Scalar):
        return value.encode()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def emit_report(args, command: str, params: dict, checks: list, values: dict,
                started: float) -> int:
    failed = [c for c in checks if not c.ok]
    if args.format == "json":
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "params": _jsonable(params),
            "checks": [{"name": c.name, "status": "pass" if c.ok else "fail",
                        "witness": _jsonable(c.witness) if not c.ok else None}
                       for c in checks],
            "values": _jsonable(values),
            "timing_ms": int((time.monotonic() - started) * 1000)
            if args.timing else None,
        }
        print(json.dumps(report, indent=2))
    elif args.format == "csv":
        print("kind,name,status,value")
        for c in checks:
            print(f"check,{_csv(c.name)},{'pass' if c.ok else 'fail'},"
                  f"{_csv(_scalarize(c.value))}")
        for k, v in values.items():
            print(f"value,{_csv(k)},,{_csv(_scalarize(v))}")
    else:
        for c in checks:
            mark = "ok  " if c.ok else "FAIL"
            extra = "" if c.value is None else f"  [{_scalarize(c.value)}]"
            print(f"  {mark}  {c.name}{extra}")
            if not c.ok and c.witness is not None:
                print(f"        witness: {c.witness}")
        for k, v in values.items():
            if isinstance(v, list) and v and isinstance(v[0], dict):
                _print_table(v)
            else:
                print(f"  {k}: {_scalarize(v)}")
        if args.timing:
            print(f"  elapsed: {(time.monotonic() - started) * 1000:.0f} ms")
        if checks:
            print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def _scalarize(v):
    if isinstance(v, Fraction):
        return _fmt_fraction(v)
    if isinstance(v, (list, tuple)):
        return "[" + " ".join(str(_scalarize(x)) for x in v) + "]"
    return v


def _csv(v) -> str:
    s = str(v)
    return '"' + s.replace('"', '""') + '"' if ("," in s or '"' in s) else s


def _print_table(rows: list):
    headers = list(rows[0])
    cells = [[str(_scalarize(row.get(h, ""))) for h in headers] for row in rows]
    widths = [max(len(h), *(len(c[k]) for c in cells))
              for k, h in enumerate(headers)]
    print("  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for c in cells:
        print("  " + "  ".join(x.rjust(w) for x, w in zip(c, widths)))


# -- commands --------------------------------------------------------------

def cmd_dims(args) -> int:
    started = time.monotonic()
    n = args.n
    if not 1 <= n <= 6:
        raise UsageError("dims requires 1 <= n <= 6")
    constructed = witness = None
    if n <= 4:
        spin = spinor.SpinorSpace(n)
        try:
            constructed = [spin.grade_dim(r) for r in range(n + 1)]
        except PrimitiveDimensionError as exc:
            witness = exc.witness
    rows = []
    for r in range(n + 1):
        row = {
            "r": r,
            "rank_formula": spinor.rank_formula(n, r),
            "primitive_dim": primitive_dim(n, n - r),
        }
        if constructed is not None:
            row["constructed"] = constructed[r]
        rows.append(row)
    total = sum(spinor.rank_formula(n, r) for r in range(n + 1))
    checks = []
    checks.append(Check(f"total rank equals 4^{n}", total == 4 ** n, value=total))
    if n <= 4:
        checks.append(Check("constructed dimensions match the formula",
                            constructed == [spinor.rank_formula(n, r)
                                            for r in range(n + 1)],
                            witness, value=constructed))
    values = {"rows": rows, "total": total}
    return emit_report(args, "dims", {"n": n}, checks, values, started)


def cmd_verify(args) -> int:
    started = time.monotonic()
    n = args.n
    if n < 1:
        raise UsageError("verify requires n >= 1")
    # measured at n = 5 on a 2-vCPU VM with Python 3.11.7: `verify --n 5
    # --suite all --format json` passes all 138 checks in 10.3-10.4 s at
    # 97 MB peak RSS (two runs)
    if n > 5:
        raise UsageError("verification suites are limited to n <= 5")
    checks = verify.run_suite(args.suite, n, args.seed)
    return emit_report(args, "verify", {"n": n, "suite": args.suite,
                                        "seed": args.seed},
                       checks, {}, started)


def cmd_weitzenboeck(args) -> int:
    started = time.monotonic()
    n, r = args.n, args.r if args.r is not None else 0
    if n < 1 or not 0 <= r <= n:
        raise UsageError("weitzenboeck requires n >= 1 and 0 <= r <= n")
    if args.oracle and n > 5:
        raise UsageError("the weitzenboeck oracle is limited to n <= 5")
    w = weitzenboeck.w_full(n, r)
    if args.format == "json":
        w_value = w.to_json()
    else:
        w_value = [dict([("row", w.row_labels[k])] +
                        [(w.col_labels[j], _fmt_fraction(v))
                         for j, v in enumerate(row)])
                   for k, row in enumerate(w.entries)]
    values = {
        "W_H": [[_fmt_fraction(v) for v in row]
                for row in weitzenboeck.wh_closed(r)],
        "W_E": [[_fmt_fraction(v) for v in row]
                for row in weitzenboeck.we_closed(n, r)],
        "W": w_value,
    }
    checks = []
    if args.oracle:
        name = "closed form = oracle"
        try:
            rep = weitzenboeck.recover_matches_closed_form(n, r)
        except PrimitiveDimensionError as exc:
            rep = {"ok": False, "witness": exc.witness}
        else:
            if not 1 <= r <= n - 1:
                name += (" (degenerate grade: restricted to columns "
                         f"{rep['alive']})")
        checks.append(Check(name, rep["ok"], rep["witness"]))
    elif not 1 <= r <= n - 1:
        checks.append(Check(
            f"degenerate grade r={r}: matrix shown for reference; only the "
            f"surviving operator columns are meaningful", True))
    return emit_report(args, "weitzenboeck", {"n": n, "r": r,
                                              "oracle": bool(args.oracle)},
                       checks, values, started)


def cmd_bound(args) -> int:
    started = time.monotonic()
    n, r = args.n, args.r if args.r is not None else 0
    if n < 2:
        raise UsageError("the eigenvalue bound requires n >= 2")
    if not 0 <= r <= n:
        raise UsageError("bound requires 0 <= r <= n")
    try:
        kappa = Fraction(args.kappa)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse --kappa {args.kappa!r}: {exc}")
    if kappa <= 0:
        raise UsageError("--kappa must be positive (positive scalar curvature)")
    rep = weitzenboeck.estimate_bound(n, r, kappa)
    checks = [Check("coefficient re-derivation agrees with the closed form",
                    rep["agree"], rep["witness"], value=rep["coefficient"])]
    values = {
        "coefficient": _fmt_fraction(rep["coefficient"]),
        "bound": _fmt_fraction(rep["bound"]),
        "bound_decimal": _decimal(rep["bound"]),
    }
    return emit_report(args, "bound", {"n": n, "r": r,
                                       "kappa": _fmt_fraction(kappa)},
                       checks, values, started)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkspin",
        description="Exact verification suites for quaternionic spin algebra")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default="table")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized 4-forms (deterministic)")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing (breaks byte-for-byte "
                            "reproducibility of the JSON output)")

    p = sub.add_parser("dims", help="spinor summand ranks and totals")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="run an exact verification suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--suite", choices=SUITES, default="all")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("weitzenboeck", help="emit the Weitzenboeck matrices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--oracle", action="store_true",
                   help="re-derive the matrix by brute force and compare")
    common(p)
    p.set_defaults(func=cmd_weitzenboeck)

    p = sub.add_parser("bound", help="the eigenvalue lower bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--kappa", type=str, required=True,
                   help="scalar curvature, integer or rational p/q")
    common(p)
    p.set_defaults(func=cmd_bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
