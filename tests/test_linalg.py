"""Exact elimination: integer input stays exact, field elements keep their type."""

from fractions import Fraction

import pytest

from qkspin import sparsemat
from qkspin.linalg import Echelon, invert, kernel_basis
from qkspin.scalar import SQRT2, Scalar


def _values(result):
    if isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, list):
        for v in result:
            yield from _values(v)
    else:
        yield result


def test_integer_input_divides_exactly():
    # matrices are column-major {col: {row: value}} with no stored zeros
    inv = invert({0: {0: 2}, 1: {1: 3}}, 2)
    assert inv == {0: {0: Fraction(1, 2)}, 1: {1: Fraction(1, 3)}}
    ech = Echelon()
    ech.add({0: 2, 1: 3})
    assert ech.rows == [{0: 1, 1: Fraction(3, 2)}]
    kern = kernel_basis([{0: 2, 1: 3}], 2)
    assert kern == [{1: 1, 0: Fraction(-3, 2)}]

    # rows (3, 1, 0), (1, 2, 5), (0, 7, 4)
    m = {0: {0: 3, 1: 1}, 1: {0: 1, 1: 2, 2: 7}, 2: {1: 5, 2: 4}}
    inv3 = invert(m, 3)
    assert sparsemat.compose(m, inv3) == sparsemat.identity(3)
    rows = [{0: 3, 1: 1, 2: 7}, {0: 6, 2: 5}, {1: 4, 2: 9}]
    big = Echelon()
    for row in rows:
        big.add(row)
    # float == Fraction compares by value, so the types are checked directly
    for result in (inv, ech.rows, kern, inv3, big.rows, kernel_basis(rows[:2], 3)):
        assert not any(isinstance(v, float) for v in _values(result))


def test_field_rows_keep_their_type():
    ech = Echelon()
    ech.add({0: Scalar(2, 1), 1: SQRT2})
    assert all(isinstance(v, Scalar) for v in ech.rows[0].values())
    inv = invert({0: {0: Fraction(2), 1: Fraction(1)},
                  1: {0: Fraction(1), 1: Fraction(1)}}, 2)
    assert inv == {0: {0: 1, 1: -1}, 1: {0: -1, 1: 2}}
    assert all(isinstance(v, Fraction) for v in _values(inv))


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        invert({0: {0: 1, 1: 2}, 1: {0: 2, 1: 4}}, 2)
    # rows (1, 0, 1), (0, 0, 0), (1, 1, 1): a zero row
    with pytest.raises(ValueError):
        invert({0: {0: Fraction(1), 2: 1}, 1: {2: 1}, 2: {0: 1, 2: 1}}, 3)


def test_invert_scalar_matrix():
    # rows (1 + sqrt2, sqrt2), (i, 2)
    m = {0: {0: Scalar(1, 1), 1: Scalar(0, 0, 1)}, 1: {0: SQRT2, 1: Scalar(2)}}
    inv = invert(m, 2)
    assert all(isinstance(v, Scalar) for v in _values(inv))
    assert sparsemat.compose(m, inv) == sparsemat.identity(2)
