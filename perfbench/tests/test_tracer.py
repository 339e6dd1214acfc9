import contextlib
import io
import sys
from fractions import Fraction

import pytest

import run
import tracer


def leftover_wrappers() -> list:
    """Attributes of qkspin modules, their classes and Fraction still wrapped."""
    owners = [Fraction]
    for name, mod in sys.modules.items():
        if name == "qkspin" or name.startswith("qkspin."):
            owners.append(mod)
            owners.extend(v for v in vars(mod).values() if isinstance(v, type)
                          and v.__module__ == name)
    return [f"{getattr(o, '__name__', o)}.{attr}" for o in owners
            for attr, value in vars(o).items() if getattr(value, tracer.MARK, False)]


def test_self_seconds_on_synthetic_tree():
    # root [0, 10] with children [1, 4] and [5, 7]; [2, 3] is a grandchild,
    # which only the first child loses.
    spans = [
        ["root", 0.0, 10.0, None],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 7.0, 0],
    ]
    assert tracer.self_seconds(spans) == {"root": 5.0, "child": 4.0,
                                          "grandchild": 1.0}


def test_self_seconds_clips_and_merges_children():
    # overlapping children count once; a child running past its parent's
    # end is clipped to the parent
    spans = [
        ["parent", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],
        ["c", 8.0, 12.0, 0],
    ]
    assert tracer.self_seconds(spans)["parent"] == pytest.approx(10 - 5 - 2)


def test_inclusive_seconds_counts_outermost_span_of_a_name():
    spans = [
        ["rank", 0.0, 4.0, None],
        ["other", 1.0, 3.0, 0],
        ["rank", 1.5, 2.5, 1],     # nested inside another "rank": not added
        ["rank", 5.0, 6.0, None],
    ]
    assert tracer.inclusive_seconds(spans) == {"rank": 5.0, "other": 2.0}


def test_wrappers_are_installed_then_removed():
    plan = tracer.patch_plan()
    argv = ["verify", "--n", "1", "--suite", "lemmas", "--format", "json"]
    traced = tracer.run_traced(argv)
    assert leftover_wrappers() == []
    for _, _, owner, attr, original in plan:
        assert getattr(owner, attr) is original
    counts = traced["trace"]["counts"]
    assert counts["fraction.mul"] > 0 and counts["verify.lemmas"] == 1

    from qkspin import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert traced["rc"] == 0 and traced["output"] == out.getvalue()


def test_wrappers_are_removed_when_the_traced_code_raises():
    with pytest.raises(RuntimeError):
        with tracer.installed(tracer.Recorder()):
            assert leftover_wrappers()
            raise RuntimeError("boom")
    assert leftover_wrappers() == []


def test_traced_output_equals_stored():
    cmd = run.WORKLOADS["cli-batch"][1]
    traced = tracer.run_traced(run.command_argv(cmd, run.DEFAULT_SEED))
    assert run.output_ok(cmd, run.DEFAULT_SEED, traced["rc"],
                         traced["output"].encode())


def test_names_are_patched_where_callers_look_them_up():
    sites = {(name, f"{owner.__name__}.{attr}")
             for _, name, owner, attr, _ in tracer.patch_plan()}
    for module in ("lefschetz", "spinor", "verify", "weitzenboeck"):
        assert ("lefschetz.primitive_space",
                f"qkspin.{module}.primitive_space") in sites
    assert ("curvature.qzero", "qkspin.verify.qzero_check") in sites
    assert ("curvature.sym4_trivial", "qkspin.verify.sym4_acts_trivially") in sites
