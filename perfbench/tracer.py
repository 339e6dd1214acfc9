"""Per-layer tracing for the qkspin benchmark.

The wrappers live here, outside the package, and are installed only for
the duration of a traced command (`installed`).  Each wrapped name is
patched wherever a caller looks it up: module attributes of every loaded
`qkspin` module that hold the original object (so `verify`'s
`from .curvature import qzero_check` is covered) and class attributes for
methods and operators.  Leaving the context restores every original.

Three kinds of wrapper, by call frequency:

* spans (name, start, end, parent) for calls at or above the suite /
  recovery / derivation level; these give inclusive and self times;
* timers (call count plus accumulated inclusive seconds, no tree) for the
  sparse-matrix and elimination kernels, called tens of thousands of times;
* plain counters for the `Scalar` and `Fraction` operators, called
  millions of times.

Run as a script, this module executes one `qkspin` command line in-process
under tracing and prints a JSON object with the exit code, the captured
standard output, the wall time and the raw rollup (`Recorder.rollup`):

    PYTHONPATH=src python3 perfbench/tracer.py verify --n 2 --suite lemmas --format json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MARK = "_perfbench_wrapper"

# name -> (module, dotted attributes).  Methods are "Class.method".
SPANS = {
    "cli.command": ("qkspin.cli", ["cmd_dims", "cmd_verify", "cmd_weitzenboeck",
                                   "cmd_bound"]),
    "cli.emit": ("qkspin.cli", ["emit_report"]),
    "verify.clifford": ("qkspin.verify", ["suite_clifford"]),
    "verify.lemmas": ("qkspin.verify", ["suite_lemmas"]),
    "verify.curvature": ("qkspin.verify", ["suite_curvature"]),
    "verify.bianchi": ("qkspin.verify", ["suite_bianchi"]),
    "verify.weitzenboeck": ("qkspin.verify", ["suite_weitzenboeck"]),
    "lefschetz.relations": ("qkspin.lefschetz", ["check_sl2", "check_ext_relations",
                                                 "check_sym_relations"]),
    "lefschetz.primitive_build": ("qkspin.lefschetz", ["PrimitiveSpace.__init__"]),
    "spinor.mu_matrix": ("qkspin.spinor", ["SpinorSpace.mu_matrix"]),
    "spinor.two_form": ("qkspin.spinor", ["SpinorSpace.two_form_matrix"]),
    "spinor.hermitian": ("qkspin.spinor", ["SpinorSpace.hermitian"]),
    "curvature.derivation": ("qkspin.curvature", ["derivation_ext_matrix"]),
    "curvature.sym4_trivial": ("qkspin.curvature", ["sym4_acts_trivially"]),
    "curvature.qzero": ("qkspin.curvature", ["qzero_check"]),
    "curvature.rank": ("qkspin.curvature", ["curv_span_rank", "ker_m_rank",
                                            "_rank_of_columns"]),
    "curvature.bianchi": ("qkspin.curvature", ["BianchiSystem.__init__",
                                               "BianchiSystem.solution_equals_ker_m"]),
    "weitzenboeck.recover": ("qkspin.weitzenboeck", ["recover_w"]),
    "weitzenboeck.sub_oracle": ("qkspin.weitzenboeck", ["recover_wh", "recover_we"]),
    "weitzenboeck.identities": ("qkspin.weitzenboeck", ["curvature_scalar_identities"]),
    "weitzenboeck.combination": ("qkspin.weitzenboeck", ["row_combination"]),
}

TIMERS = {
    "sparsemat.compose": ("qkspin.sparsemat", ["compose"]),
    "sparsemat.madd": ("qkspin.sparsemat", ["madd"]),
    "linalg.eliminate": ("qkspin.linalg", ["Echelon.add"]),
    "linalg.kernel": ("qkspin.linalg", ["kernel_basis_with_free"]),
    "linalg.invert": ("qkspin.linalg", ["invert"]),
    "weitzenboeck.factors": ("qkspin.weitzenboeck", ["ProjectorFamily.right_factors",
                                                     "ProjectorFamily.left_factors"]),
    "lefschetz.primitive_space": ("qkspin.lefschetz", ["primitive_space"]),
    "lefschetz.ops": ("qkspin.lefschetz", ["PrimitiveSpace.contract_matrix",
                                           "PrimitiveSpace.wedge_circ_matrix"]),
}

COUNTERS = {
    "scalar.new": ("qkspin.scalar", ["Scalar.__init__"]),
    "scalar.mul": ("qkspin.scalar", ["Scalar.__mul__", "Scalar.__rmul__"]),
    "scalar.add": ("qkspin.scalar", ["Scalar.__add__", "Scalar.__radd__",
                                     "Scalar.__sub__", "Scalar.__rsub__"]),
    "fraction.mul": ("fractions", ["Fraction.__mul__", "Fraction.__rmul__"]),
    "fraction.add": ("fractions", ["Fraction.__add__", "Fraction.__radd__",
                                   "Fraction.__sub__", "Fraction.__rsub__"]),
}

# Extra counts a timer records from its result, keyed by timer name.
RESULT_COUNTS = {
    "sparsemat.compose": ("sparsemat.compose_nnz",
                          lambda m: sum(len(col) for col in m.values())),
    "linalg.eliminate": ("linalg.rank_gained", bool),
}


class Recorder:
    """In-memory spans, counts and timer seconds of one traced command."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index or None]
        self.stack: list = []        # indices of open spans
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
        return _mark(wrapper)

    def timer(self, name, fn):
        counts, seconds = self.counts, self.seconds
        extra_name, extra = RESULT_COUNTS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                counts[name] += 1
            if extra is not None:
                counts[extra_name] += extra(result)
            return result
        return _mark(wrapper)

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return _mark(wrapper)

    def rollup(self) -> dict:
        """Summable raw totals: counts, inclusive seconds, self seconds."""
        seconds = dict(self.seconds)
        seconds.update(inclusive_seconds(self.spans))
        counts = dict(self.counts)
        counts.update(Counter(s[0] for s in self.spans))
        return {"counts": counts, "seconds": seconds,
                "self_seconds": self_seconds(self.spans)}


def _mark(wrapper):
    setattr(wrapper, MARK, True)
    return wrapper


# -- span arithmetic ---------------------------------------------------------

def self_seconds(spans) -> dict:
    """Per name, the sum over its spans of duration minus child coverage.

    A span's self time is its duration minus the part of its interval that
    its direct children cover; children are clipped to the parent and
    overlapping children are counted once.
    """
    children: defaultdict = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: defaultdict = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for cstart, cend in sorted(children.get(idx, ())):
            cstart, cend = max(cstart, cursor), min(cend, end)
            if cend > cstart:
                covered += cend - cstart
                cursor = cend
        out[name] += (end - start) - covered
    return dict(out)


def inclusive_seconds(spans) -> dict:
    """Per name, the summed duration of spans with no same-named ancestor."""
    out: defaultdict = defaultdict(float)
    for name, start, end, parent in spans:
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            out[name] += end - start
    return dict(out)


def merge(rollups) -> dict:
    """Sum several rollups key by key."""
    total = {"counts": Counter(), "seconds": defaultdict(float),
             "self_seconds": defaultdict(float)}
    for roll in rollups:
        for part, values in roll.items():
            for key, value in values.items():
                total[part][key] += value
    return {part: dict(values) for part, values in total.items()}


# -- installing and removing the wrappers ---------------------------------

def _targets(module_name: str, dotted: str):
    """(owner, attribute, original) for every name callers reach `dotted` by."""
    module = sys.modules[module_name]
    if "." in dotted:
        cls_name, attr = dotted.split(".")
        owner = vars(module)[cls_name]
        return [(owner, attr, vars(owner)[attr])]
    original = vars(module)[dotted]
    sites = []
    for name, mod in sorted(sys.modules.items()):
        if name == "qkspin" or name.startswith("qkspin."):
            for attr, value in vars(mod).items():
                if value is original:
                    sites.append((mod, attr, original))
    return sites


def patch_plan():
    """Every (kind, metric name, owner, attribute, original) to patch."""
    import qkspin.cli  # noqa: F401  (loads every module that gets wrapped)
    plan = []
    for kind, table in (("span", SPANS), ("timer", TIMERS), ("counter", COUNTERS)):
        for name, (module_name, attrs) in table.items():
            for dotted in attrs:
                for owner, attr, original in _targets(module_name, dotted):
                    plan.append((kind, name, owner, attr, original))
    return plan


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Install every wrapper for the duration of the block, then restore."""
    plan = patch_plan()
    wrapped = {}
    try:
        for kind, name, owner, attr, original in plan:
            key = original, kind, name
            if key not in wrapped:
                wrapped[key] = getattr(recorder, kind)(name, original)
            setattr(owner, attr, wrapped[key])
        yield recorder
    finally:
        for _, _, owner, attr, original in plan:
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------

def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(roll: dict, untraced_wall_s: float, traced_wall_s: float) -> dict:
    """The benchmark's per-layer metrics from a (merged) rollup."""
    c, s, own = roll["counts"], roll["seconds"], roll["self_seconds"]
    count = lambda key: int(c.get(key, 0))  # noqa: E731
    secs = lambda key: float(s.get(key, 0.0))  # noqa: E731
    prim_calls = count("lefschetz.primitive_space")
    prim_built = count("lefschetz.primitive_build")
    return {
        "scalar.new_count": count("scalar.new"),
        "scalar.mul_count": count("scalar.mul"),
        "scalar.add_count": count("scalar.add"),
        "fraction.mul_count": count("fraction.mul"),
        "fraction.add_count": count("fraction.add"),
        "sparsemat.compose_count": count("sparsemat.compose"),
        "sparsemat.compose_s": secs("sparsemat.compose"),
        "sparsemat.compose_nnz": count("sparsemat.compose_nnz"),
        "sparsemat.madd_count": count("sparsemat.madd"),
        "sparsemat.madd_s": secs("sparsemat.madd"),
        "linalg.rows_fed": count("linalg.eliminate"),
        "linalg.rank_gained": count("linalg.rank_gained"),
        "linalg.useful_ratio": _ratio(count("linalg.rank_gained"),
                                      count("linalg.eliminate")),
        "linalg.eliminate_s": secs("linalg.eliminate"),
        "linalg.kernel_s": secs("linalg.kernel"),
        "linalg.invert_s": secs("linalg.invert"),
        "lefschetz.primitive_space_count": prim_calls,
        "lefschetz.primitive_space_built": prim_built,
        "lefschetz.cache_hit_ratio": _ratio(prim_calls - prim_built, prim_calls),
        "lefschetz.primitive_build_s": secs("lefschetz.primitive_build"),
        "lefschetz.ops_built": count("lefschetz.ops"),
        "lefschetz.relations_s": secs("lefschetz.relations"),
        "spinor.mu_matrix_count": count("spinor.mu_matrix"),
        "spinor.mu_matrix_s": secs("spinor.mu_matrix"),
        "spinor.two_form_s": secs("spinor.two_form"),
        "spinor.hermitian_s": secs("spinor.hermitian"),
        "curvature.derivation_count": count("curvature.derivation"),
        "curvature.derivation_s": secs("curvature.derivation"),
        "curvature.sym4_trivial_s": secs("curvature.sym4_trivial"),
        "curvature.qzero_s": secs("curvature.qzero"),
        "curvature.rank_s": secs("curvature.rank"),
        "curvature.bianchi_s": secs("curvature.bianchi"),
        "weitzenboeck.recover_s": secs("weitzenboeck.recover"),
        "weitzenboeck.factors_s": secs("weitzenboeck.factors"),
        "weitzenboeck.sub_oracle_s": secs("weitzenboeck.sub_oracle"),
        "weitzenboeck.identities_s": secs("weitzenboeck.identities"),
        "weitzenboeck.combination_s": secs("weitzenboeck.combination"),
        "verify.clifford_s": float(own.get("verify.clifford", 0.0)),
        "verify.lemmas_s": float(own.get("verify.lemmas", 0.0)),
        "verify.curvature_s": float(own.get("verify.curvature", 0.0)),
        "verify.bianchi_s": float(own.get("verify.bianchi", 0.0)),
        "verify.weitzenboeck_s": float(own.get("verify.weitzenboeck", 0.0)),
        "cli.emit_s": secs("cli.emit"),
        "cli.command_s": secs("cli.command"),
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
    }


def run_traced(argv) -> dict:
    """Run one qkspin command line in-process under tracing."""
    from qkspin import cli
    recorder = Recorder()
    out = io.StringIO()
    with installed(recorder), contextlib.redirect_stdout(out):
        start = perf_counter()
        rc = cli.main(argv)
        wall = perf_counter() - start
    return {"rc": rc, "output": out.getvalue(), "wall_s": wall,
            "trace": recorder.rollup()}


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run_traced(sys.argv[1:])))
