"""Exact elimination: integer input stays exact, field elements keep their type."""

from fractions import Fraction

import pytest

from qkspin import sparsemat
from qkspin.linalg import Echelon, invert, kernel_basis_with_free
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
    kern = kernel_basis_with_free([{0: 2, 1: 3}], 2)[1]
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
    for result in (inv, ech.rows, kern, inv3, big.rows,
                   kernel_basis_with_free(rows[:2], 3)[1]):
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


def _dense_rref(rows, ncols):
    """Reference: the textbook dense reduction, walking every pivot per row.

    Returns (rows, pivots, residues): the reduced rows as sparse dicts, their
    pivot columns, and each input row reduced against the form before it.
    """
    out, pivots, residues = [], [], []
    for row in rows:
        vec = [Fraction(row.get(c, 0)) for c in range(ncols)]
        for piv, r in zip(pivots, out):
            if vec[piv]:
                f = vec[piv]
                vec = [a - f * b for a, b in zip(vec, r)]
        residues.append({c: v for c, v in enumerate(vec) if v})
        if not any(vec):
            continue
        piv = next(c for c, v in enumerate(vec) if v)
        vec = [v / vec[piv] for v in vec]
        for k, r in enumerate(out):
            if r[piv]:
                f = r[piv]
                out[k] = [a - f * b for a, b in zip(r, vec)]
        out.append(vec)
        pivots.append(piv)
    return ([{c: v for c, v in enumerate(r) if v} for r in out], pivots,
            residues)


def _seeded_rows(rng, ncols, value):
    # a few sparse base rows and more rows combined from them, so that many
    # rows are dependent and reduce to zero
    base = [{c: value(rng) for c in rng.sample(range(ncols), rng.randint(1, 5))}
            for _ in range(8)]
    rows = list(base)
    for _ in range(14):
        combo: dict = {}
        for row in rng.sample(base, rng.randint(1, 3)):
            f = value(rng)
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + f * v
        rows.append({c: v for c, v in combo.items() if v})
    rng.shuffle(rows)
    return [row for row in rows if row]


@pytest.mark.parametrize("value", [
    lambda rng: rng.choice([-3, -2, -1, 1, 2, 3]),
    lambda rng: Fraction(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 4)),
], ids=["int", "Fraction"])
def test_sparse_pivot_lookup_matches_a_dense_reduction(value):
    import random
    for seed in range(20):
        rng = random.Random(seed)
        ncols = 12
        rows = _seeded_rows(rng, ncols, value)
        want_rows, want_pivots, want_residues = _dense_rref(rows, ncols)
        ech = Echelon()
        for row, residue in zip(rows, want_residues):
            assert ech.reduce(row) == residue
            assert ech.add(row) == bool(residue)
        assert ech.rows == want_rows
        assert ech.pivots == want_pivots
        assert ech.rank == len(want_rows)
        assert ech.pivot_row == {p: k for k, p in enumerate(want_pivots)}
        for k, (piv, row) in enumerate(zip(ech.pivots, ech.rows)):
            # each pivot column occurs only in its own row, with value 1
            assert row[piv] == 1
            assert all(piv not in other for j, other in enumerate(ech.rows)
                       if j != k)
        holders: dict = {}
        for k, row in enumerate(ech.rows):
            for col in row:
                if col not in ech.pivot_row:
                    holders.setdefault(col, set()).add(k)
        assert {c: ks for c, ks in ech.col_rows.items() if ks} == holders
