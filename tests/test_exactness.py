"""Exactness: no float reaches a value or witness that a suite reports."""

import pytest

from qkspin.scalar import Scalar
from qkspin.verify import run_suite


def _floats(obj, path=()):
    """Paths to every float inside nested dicts (keys too), lists and tuples."""
    if isinstance(obj, float):
        yield path
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _floats(k, path + ("key",))
            yield from _floats(v, path + (k,))
    elif isinstance(obj, (list, tuple)):
        for k, v in enumerate(obj):
            yield from _floats(v, path + (k,))


def test_walker_finds_nested_floats():
    assert list(_floats({"a": [1, (2, {3: 0.5})], 1.5: None})) == \
        [("a", 1, 1, 3), ("key",)]


@pytest.mark.parametrize("n", [1, 2])
def test_no_float_in_values_or_witnesses(n):
    checks = run_suite("all", n)
    assert checks
    for check in checks:
        for part in ("value", "witness"):
            found = list(_floats(getattr(check, part)))
            assert not found, (check.name, part, found)


@pytest.mark.parametrize("n", [1, 2])
def test_suites_construct_no_scalar(n, monkeypatch):
    # every suite runs over Q; Scalar is left to the public mu API, the
    # twisted Hermitian form, J and the JSON codec
    made = []
    init = Scalar.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Scalar, "__init__", counting)
    checks = run_suite("all", n)
    assert all(c.ok for c in checks)
    assert len(made) == 0, made[:5]
