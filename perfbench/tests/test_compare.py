import json
from pathlib import Path

from compare import rows, verdict

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]


def pairs(change):
    return list(zip(PARENT, change))


def test_clear_gain_is_improved():
    change = [v * 0.8 for v in PARENT]
    assert verdict(pairs(change), 0.1, "lower") == ("improved", 1.0)


def test_gain_needs_ten_pairs():
    change = [v * 0.8 for v in PARENT]
    assert verdict(pairs(change)[:9], 0.1, "lower")[0] == "no worse"


def test_gain_needs_nine_tenths_of_pairs():
    change = [v * 0.8 for v in PARENT[:8]] + [20.0, 20.0]
    result, won = verdict(pairs(change), 0.5, "lower")
    assert won == 0.8 and result == "no worse"


def test_small_shift_within_spread_is_not_a_gain():
    change = [v - 0.05 for v in PARENT]
    result, won = verdict(pairs(change), 0.1, "lower")
    assert won == 1.0 and result == "no worse"


def test_median_past_the_bound_is_worse():
    change = [v * 1.15 for v in PARENT]
    assert verdict(pairs(change), 0.1, "lower")[0] == "worse"
    assert verdict(pairs(change), 0.2, "lower")[0] == "no worse"


def test_wide_spread_is_unresolved():
    wide = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(pairs(wide), 0.1, "lower")[0] == "unresolved"


def test_wide_spread_but_every_run_better_is_resolved():
    parent = [10.0, 14.0, 18.0]
    change = [9.0, 8.5, 9.5]
    assert verdict(list(zip(parent, change)), 0.1, "lower")[0] == "no worse"


def test_higher_is_better_orientation():
    ones = [1.0] * 10
    assert verdict(list(zip(ones, ones)), 0.01, "higher") == ("no worse", 0.0)
    dropped = [0.9] * 10
    assert verdict(list(zip(ones, dropped)), 0.01, "higher")[0] == "worse"


def result_set(walls, failed_runs=(), attempted=1):
    """A result set of one workload, seeds 1..len(walls); the runs at the
    indices in failed_runs had one failed command and a cut-short pass."""
    runs = []
    for i, wall in enumerate(walls):
        failed = 1 if i in failed_runs else 0
        if failed:
            wall *= 0.1
        metrics = {"wall_rel": wall, "setup_s": 0.1, "peak_rss_mb": 18.0,
                   "pass_ratio": (attempted - failed) / attempted}
        runs.append({"workload": "oracle-n3", "seed": i + 1, "trace": 0,
                     "result": {"correct": not failed, "attempted": attempted,
                                "failed": failed,
                                "metrics": {k: {"value": v, "unit": "-"}
                                            for k, v in metrics.items()}}})
    return {"meta": {}, "runs": runs}


def verdicts(parent, change):
    return {r["metric"]: r["verdict"] for r in rows(parent, change, SPEC)}


def test_same_runs_are_no_worse():
    same = result_set(PARENT)
    assert set(verdicts(same, same).values()) == {"no worse"}


def test_one_failed_run_in_ten_is_worse():
    # One command per run: the per-run pass ratios are [0, 1, ..., 1], whose
    # median and quartiles all read 1, so only the pooled counts show it.
    got = verdicts(result_set(PARENT), result_set(PARENT, failed_runs={3}))
    assert got["pass_ratio"] == "worse"


def test_failures_among_many_commands_are_worse():
    got = verdicts(result_set(PARENT, attempted=56),
                   result_set(PARENT, failed_runs={2, 7}, attempted=56))
    assert got["pass_ratio"] == "worse"


def test_no_gain_on_a_workload_that_failed_more():
    # Every run of the change is faster, but one failed and was cut short.
    faster = [v * 0.8 for v in PARENT]
    assert verdicts(result_set(PARENT), result_set(faster))["wall_rel"] == "improved"
    got = verdicts(result_set(PARENT), result_set(faster, failed_runs={0}))
    assert got["wall_rel"] == "unresolved"
    assert got["setup_s"] == "unresolved"
