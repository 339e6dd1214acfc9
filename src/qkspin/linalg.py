"""Exact Gaussian elimination over a field.

Works for any element type supporting +, -, *, /, bool() and equality,
in particular `fractions.Fraction` and `qkspin.scalar.Scalar`.  Rows are
sparse dicts {column: value}; zero entries are never stored.  Pivot order
is fixed by (row order, smallest column), so every result is deterministic.
An `int` pivot is promoted to `Fraction` before dividing, so integer input
gives exact rational results rather than floats.  `Echelon` is the only
elimination routine: rank, kernels and `invert` all feed it rows.
"""

from __future__ import annotations

from fractions import Fraction


def _exact(pivot):
    return Fraction(pivot) if isinstance(pivot, int) else pivot


def row_sub(row: dict, factor, other: dict) -> dict:
    """row - factor * other, sparsely."""
    out = dict(row)
    for col, val in other.items():
        new = out.get(col, 0) - factor * val
        if new:
            out[col] = new
        else:
            out.pop(col, None)
    return out


class Echelon:
    """Incrementally maintained reduced row echelon form."""

    def __init__(self):
        self.rows = []     # reduced rows, each with leading coefficient 1
        self.pivots = []   # pivot column of each row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> dict:
        """Return row reduced against the current echelon (not inserted)."""
        for piv, r in zip(self.pivots, self.rows):
            val = row.get(piv)
            if val:
                row = row_sub(row, val, r)
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it increased the rank."""
        row = self.reduce(dict(row))
        if not row:
            return False
        piv = min(row)
        inv_val = _exact(row[piv])
        row = {c: v / inv_val for c, v in row.items()}
        # back-substitute into existing rows to keep the form reduced
        for k, r in enumerate(self.rows):
            val = r.get(piv)
            if val:
                self.rows[k] = row_sub(r, val, row)
        self.rows.append(row)
        self.pivots.append(piv)
        return True


def rank(rows) -> int:
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def kernel_basis(rows, ncols: int) -> list[dict]:
    """Basis of {x : A x = 0} for A given by sparse rows over columns 0..ncols-1.

    Each basis vector carries value 1 on its own free column and 0 on all
    other free columns, so coordinates with respect to this basis can be
    read off directly.
    """
    return kernel_basis_with_free(rows, ncols)[1]


def kernel_basis_with_free(rows, ncols: int) -> tuple[list[int], list[dict]]:
    """kernel_basis plus the free column owned by each basis vector."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    pivot_set = set(ech.pivots)
    free_cols = []
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = {free: _one_like(ech)}
        for piv, r in zip(ech.pivots, ech.rows):
            val = r.get(free)
            if val:
                vec[piv] = -val
        free_cols.append(free)
        basis.append(vec)
    return free_cols, basis


def _one_like(ech: Echelon):
    # Kernel vectors need a multiplicative unit of the right type; rows are
    # normalised so any pivot value is 1 in the working field.
    for r in ech.rows:
        for v in r.values():
            return v / v
    return Fraction(1)


def invert(matrix: list[list]) -> list[list]:
    """Exact inverse of a square dense matrix (list of rows).

    The rows of [A | I] are fed to an `Echelon`.  A is singular exactly when
    some pivot falls in the right block; otherwise the reduced rows, ordered
    by pivot, read [I | A^-1].
    """
    n = len(matrix)
    ech = Echelon()
    for i, row in enumerate(matrix):
        aug = {j: v for j, v in enumerate(row) if v}
        aug[n + i] = 1
        ech.add(aug)
    if any(piv >= n for piv in ech.pivots):
        raise ValueError("matrix is singular")
    by_pivot = dict(zip(ech.pivots, ech.rows))
    zero = _one_like(ech) * 0
    return [[by_pivot[i].get(n + j, zero) for j in range(n)] for i in range(n)]
