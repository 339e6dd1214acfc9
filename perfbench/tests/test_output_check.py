import json

import run

CMD = run.WORKLOADS["curvature-n2"][0]


def test_every_workload_command_has_a_stored_output():
    for commands in run.WORKLOADS.values():
        for cmd in commands:
            assert (run.EXPECTED_DIR / f"{run.slug(cmd)}.json").is_file()


def test_default_seed_compares_the_stored_bytes():
    stored = (run.EXPECTED_DIR / f"{run.slug(CMD)}.json").read_bytes()
    assert run.expected_output(CMD, run.DEFAULT_SEED) == stored
    assert run.output_ok(CMD, run.DEFAULT_SEED, 0, stored)
    assert not run.output_ok(CMD, run.DEFAULT_SEED, 1, stored)
    assert not run.output_ok(CMD, run.DEFAULT_SEED, 0, stored.replace(b"pass", b"fail", 1))


def test_other_seed_changes_only_the_echoed_seed():
    stored = json.loads((run.EXPECTED_DIR / f"{run.slug(CMD)}.json").read_bytes())
    other = json.loads(run.expected_output(CMD, 7))
    assert other["params"]["seed"] == 7
    other["params"]["seed"] = stored["params"]["seed"]
    assert other == stored
    assert all(check["status"] == "pass" for check in other["checks"])


def test_reserialized_report_matches_the_stored_bytes():
    # the non-default-seed path rebuilds the bytes the CLI prints
    for commands in run.WORKLOADS.values():
        for cmd in commands:
            stored = (run.EXPECTED_DIR / f"{run.slug(cmd)}.json").read_bytes()
            assert (json.dumps(json.loads(stored), indent=2) + "\n").encode() == stored
