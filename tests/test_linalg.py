"""Exact elimination: integer input stays exact, field elements keep their type."""

from fractions import Fraction

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
    inv = invert([[2, 0], [0, 3]])
    assert inv == [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
    ech = Echelon()
    ech.add({0: 2, 1: 3})
    assert ech.rows == [{0: 1, 1: Fraction(3, 2)}]
    kern = kernel_basis([{0: 2, 1: 3}], 2)
    assert kern == [{1: 1, 0: Fraction(-3, 2)}]

    m = [[3, 1, 0], [1, 2, 5], [0, 7, 4]]
    inv3 = invert(m)
    for i in range(3):
        for j in range(3):
            assert sum(m[i][k] * inv3[k][j] for k in range(3)) == (i == j)
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
    inv = invert([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert inv == [[1, -1], [-1, 2]]
    assert all(isinstance(v, Fraction) for row in inv for v in row)
