"""Shared fixtures."""

import sys

import pytest

from qkspin import curvature


@pytest.fixture
def ordered_rform(monkeypatch):
    """Make `ModelCurvature` read a form's value for the ordered (i, j, k, l)
    under that ordered tuple, instead of its sorted multiset.

    Inside a test taking this fixture, a dict keyed by ordered tuples is
    any 4-tensor R(e_i, e_j, e_k, e_l), symmetric or not: the index keeps
    the real table's layout and replaces only its keys.
    """
    def ordered_index(space):
        labels = range(space.dim)
        flats = [space.flat_basis(l) for l in labels]
        return [((i, j), [(k, [(t, sign, (i, j, k, l))
                               for l, (t, sign) in enumerate(flats)])
                          for k in labels])
                for i in labels for j in labels]

    monkeypatch.setattr(curvature, "_rform_index", ordered_index)


def _cached_functions():
    """Every `functools.cache` of a loaded qkspin module or of its classes."""
    for name, mod in list(sys.modules.items()):
        if name == "qkspin" or name.startswith("qkspin."):
            for value in vars(mod).values():
                if isinstance(value, type) and value.__module__ == name:
                    yield from (v for v in vars(value).values()
                                if hasattr(v, "cache_clear"))
                elif hasattr(value, "cache_clear"):
                    yield value


@pytest.fixture(autouse=True, scope="module")
def cold_caches():
    """Leave the package's caches empty after each test module.

    Levels, primitive spaces and operators are cached for the life of a
    process, so without this a test would see whatever earlier modules had
    built and could pass or fail by the order it runs in.
    """
    yield
    for fn in _cached_functions():
        fn.cache_clear()
