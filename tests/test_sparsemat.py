"""Sparse accumulators: entries start from their first term and keep their type."""

import random
from fractions import Fraction

import pytest

from qkspin import sparsemat
from qkspin.linalg import row_sub
from qkspin.scalar import Scalar
from qkspin.symplectic import add_into


class Strict:
    """A rational that refuses to be added to anything but another Strict.

    It has no reflected operators, so `0 + x` raises: a sum that starts
    from the int 0 instead of its first term fails loudly.
    """

    def __init__(self, value):
        self.value = Fraction(value)

    def _other(self, other):
        if not isinstance(other, Strict):
            raise TypeError(f"Strict combined with {type(other).__name__}")
        return other.value

    def __add__(self, other):
        return Strict(self.value + self._other(other))

    def __sub__(self, other):
        return Strict(self.value - self._other(other))

    def __mul__(self, other):
        return Strict(self.value * self._other(other))

    def __neg__(self):
        return Strict(-self.value)

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        return isinstance(other, Strict) and self.value == other.value

    def __hash__(self):
        return hash(self.value)


ONES = [Fraction(1), Scalar(1), 1, Strict(1)]


def _entries(m: dict):
    for mcol in m.values():
        yield from mcol.values()


def _pair(one):
    two, three = one + one, one + one + one
    a = {0: {0: two, 1: three}, 1: {1: one}, 3: {2: three}}
    b = {0: {0: one, 1: two}, 2: {1: three}, 4: {3: one}}
    return a, b


@pytest.mark.parametrize("one", ONES, ids=lambda o: type(o).__name__)
def test_entry_type_kept(one):
    a, b = _pair(one)
    kind = type(one)
    acc = sparsemat.madd(a)
    sparsemat.madd_into(acc, b)
    for result in (sparsemat.compose(a, b), sparsemat.madd(a, b), acc):
        assert result
        assert all(type(v) is kind for v in _entries(result))
    vec = sparsemat.apply_cols(a, {0: one, 1: one + one})
    assert vec and all(type(v) is kind for v in vec.values())


@pytest.mark.parametrize("one", ONES, ids=lambda o: type(o).__name__)
def test_cancelling_sum_drops_entry_and_column(one):
    minus = -one
    a = {0: {0: one, 1: one}, 1: {0: one}}
    b = {0: {0: minus, 1: minus}, 1: {1: one}}
    assert sparsemat.madd(a, b) == {1: {0: one, 1: one}}
    acc = {0: {0: one}}
    sparsemat.madd_into(acc, {0: {0: minus}})
    assert acc == {}
    # (1, -1) against a matrix whose two columns coincide
    assert sparsemat.compose({0: {0: one}, 1: {0: one}}, {0: {0: one, 1: minus}}) == {}
    assert sparsemat.apply_cols({0: {0: one}, 1: {0: one}}, {0: one, 1: minus}) == {}


def test_madd_into_equals_madd_and_leaves_its_argument():
    mats = [{0: {0: Fraction(1, 2), 2: Fraction(3)}, 1: {1: Fraction(1)}},
            {0: {0: Fraction(-1, 2)}, 2: {0: Fraction(5)}},
            {1: {1: Fraction(-1)}, 2: {1: Fraction(2, 3)}},
            {0: {2: Fraction(-3), 4: Fraction(1)}}]
    snapshot = [{c: dict(col) for c, col in m.items()} for m in mats]
    acc: dict = {}
    for m in mats:
        sparsemat.madd_into(acc, m)
    assert acc == sparsemat.madd(*mats) == {0: {4: Fraction(1)},
                                            2: {0: Fraction(5), 1: Fraction(2, 3)}}
    assert mats == snapshot


@pytest.mark.parametrize("one", ONES, ids=lambda o: type(o).__name__)
def test_add_into_starts_from_first_term(one):
    acc: dict = {}
    add_into(acc, "x", one)
    add_into(acc, "y", one + one)
    assert acc == {"x": one, "y": one + one}
    assert all(type(v) is type(one) for v in acc.values())
    add_into(acc, "x", -one)
    assert acc == {"y": one + one}


@pytest.mark.parametrize("one", ONES, ids=lambda o: type(o).__name__)
def test_row_sub_starts_from_first_term(one):
    two = one + one
    out = row_sub({0: one, 1: two}, two, {1: one, 2: one})
    assert out == {0: one, 2: -two}
    assert all(type(v) is type(one) for v in out.values())


def test_int_copies_clear_the_whole_family_and_keep_its_kind():
    a = {0: {0: Fraction(1, 2), 2: Fraction(3)}, 1: {1: Fraction(-2, 3)}}
    b = {2: {0: Fraction(5, 4)}}
    s, copies = sparsemat.int_copies([a, b])
    assert s == 12
    assert copies == [{0: {0: 6, 2: 36}, 1: {1: -8}}, {2: {0: 15}}]
    for m in copies:
        assert all(type(v) is int for v in _entries(m))
    # int matrices, and an empty family, need no scale
    ints = {0: {1: 3, 2: -1}}
    assert sparsemat.int_copies([ints, {}]) == (1, [ints, {}])
    assert sparsemat.int_copies([]) == (1, [])


@pytest.mark.parametrize("one", ONES, ids=lambda o: type(o).__name__)
def test_weighted_madd_into_equals_adding_the_scaled_copy(one):
    two = one + one
    acc = {0: {0: two, 1: one}, 2: {1: two}}
    m = {0: {0: -one, 2: one}, 1: {0: one}, 2: {1: -one}}
    want = sparsemat.madd(acc, sparsemat.mscale(m, two))
    sparsemat.madd_into(acc, m, two)
    # the weighted column 2 cancels and is dropped, column 1 comes last
    assert acc == want == {0: {1: one, 2: two}, 1: {0: two}}
    assert list(acc) == list(want)
    assert all(type(v) is type(one) for v in _entries(acc))
    sparsemat.madd_into(acc, m, 0)
    assert acc == want


def _compose_by_copy(acc, a, b):
    """The product built first and then added, kept as the reference for
    `compose_into`."""
    sparsemat.madd_into(acc, sparsemat.compose(a, b))


def _random_matrix(rng, shape, one, density=0.5):
    rows, cols = shape
    return {c: col for c in range(cols)
            if (col := {r: rng.randint(-2, 2) * one for r in range(rows)
                        if rng.random() < density and rng.randint(-2, 2)})}


@pytest.mark.parametrize("one", [1, Fraction(1, 3)], ids=["int", "Fraction"])
def test_compose_into_equals_adding_the_product(one):
    # acc column 0 is cancelled by the product and emptied; column 1 gains
    # a row; column 2 is new and comes last
    a = {0: {0: one, 1: one}, 1: {0: one}}
    b = {0: {0: -one}, 1: {1: one + one}, 2: {0: one, 1: -one}}
    acc = {0: {0: one * one, 1: one * one}, 1: {2: one}}
    want = {c: dict(col) for c, col in acc.items()}
    _compose_by_copy(want, a, b)
    sparsemat.compose_into(acc, a, b)
    assert acc == want and list(acc) == list(want) == [1, 2]
    assert list(acc[1]) == [2, 0]
    assert all(type(v) is type(one) for v in _entries(acc))
    # random sums of products, with small entries so partial sums cancel
    rng = random.Random(11)
    for _ in range(200):
        acc, want = {}, {}
        for _ in range(rng.randint(1, 4)):
            a = _random_matrix(rng, (4, 3), one)
            b = _random_matrix(rng, (3, 5), one)
            sparsemat.compose_into(acc, a, b)
            _compose_by_copy(want, a, b)
            assert acc == want and list(acc) == list(want)
        assert all(type(v) is type(one) for v in _entries(acc))
