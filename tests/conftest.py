"""Shared fixtures."""

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
