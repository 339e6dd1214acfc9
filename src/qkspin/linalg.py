"""Exact Gaussian elimination over a field.

Works for any element type supporting +, -, *, /, bool() and equality,
in particular `fractions.Fraction` and `qkspin.scalar.Scalar`.  Rows are
sparse dicts {column: value} and `invert` takes and returns column-major
`sparsemat` matrices; zero entries are never stored in either.  Pivot order
is fixed by (row order, smallest column), so every result is deterministic.
An `int` pivot is promoted to `Fraction` before dividing, so integer input
gives exact rational results rather than floats.  `Echelon` is the only
elimination routine: `rank`, `kernel_basis_with_free` and `invert` all
feed it rows.

`Echelon` keeps a map from each pivot column to its row, and `reduce`
subtracts only at the pivot columns present in the incoming row.  That is
the whole reduction because the form is reduced: each row is zero on every
other row's pivot column, so subtracting it adds no pivot column and leaves
the row's other pivot entries as they were.  A map from each non-pivot
column to the rows holding it lets `add` back-substitute a new pivot into
only those rows.
"""

from __future__ import annotations

from fractions import Fraction


def _exact(pivot):
    return Fraction(pivot) if isinstance(pivot, int) else pivot


def row_sub(row: dict, factor, other: dict) -> dict:
    """row - factor * other, sparsely."""
    out = dict(row)
    for col, val in other.items():
        old = out.get(col)
        new = -(factor * val) if old is None else old - factor * val
        if new:
            out[col] = new
        else:
            out.pop(col, None)
    return out


class Echelon:
    """Incrementally maintained reduced row echelon form."""

    def __init__(self):
        self.rows = []        # reduced rows, each with leading coefficient 1
        self.pivots = []      # pivot column of each row
        self.pivot_row = {}   # pivot column -> index of its row
        self.col_rows = {}    # non-pivot column -> indices of the rows holding it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> dict:
        """Return row reduced against the current echelon (not inserted)."""
        rows, pivot_row = self.rows, self.pivot_row
        for piv in [c for c in row if c in pivot_row]:
            row = row_sub(row, row[piv], rows[pivot_row[piv]])
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        piv = min(row)
        inv_val = _exact(row[piv])
        row = {c: v / inv_val for c, v in row.items()}
        # back-substitute into the rows holding piv, to keep the form reduced
        rows, col_rows = self.rows, self.col_rows
        for k in col_rows.pop(piv, ()):
            rows[k] = new = row_sub(rows[k], rows[k][piv], row)
            for col in row:
                if col in new:
                    col_rows.setdefault(col, set()).add(k)
                elif col != piv:
                    col_rows[col].discard(k)
        for col in row:
            if col != piv:
                col_rows.setdefault(col, set()).add(len(rows))
        self.pivot_row[piv] = len(rows)
        rows.append(row)
        self.pivots.append(piv)
        return True


def rank(rows) -> int:
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def kernel_basis_with_free(rows, ncols: int) -> tuple[list[int], list[dict]]:
    """(free columns, basis of {x : A x = 0}) for A given by sparse rows over
    columns 0..ncols-1.

    Each basis vector carries value 1 on its own free column and 0 on all
    other free columns, so coordinates with respect to this basis can be
    read off directly.
    """
    ech = Echelon()
    for row in rows:
        ech.add(row)
    # -(entry of each pivot row on a free column), gathered by free column
    off_pivot: dict = {}
    for piv, r in zip(ech.pivots, ech.rows):
        for col, val in r.items():
            if col != piv:
                off_pivot.setdefault(col, {})[piv] = -val
    one = _one_like(ech)
    free_cols = [free for free in range(ncols) if free not in ech.pivot_row]
    basis = [{free: one, **off_pivot.get(free, {})} for free in free_cols]
    return free_cols, basis


def _one_like(ech: Echelon):
    # Kernel vectors need a multiplicative unit of the right type; rows are
    # normalised so any pivot value is 1 in the working field.
    for r in ech.rows:
        for v in r.values():
            return v / v
    return Fraction(1)


def invert(m: dict, dim: int) -> dict:
    """Exact inverse of a square column-major matrix over 0..dim-1.

    Column j of A, followed by e_j in the right block, is fed to an `Echelon`
    as row j of [A^T | I].  A is singular exactly when some pivot falls in
    the right block; otherwise the reduced row with pivot i reads
    [e_i | column i of A^-1].
    """
    ech = Echelon()
    for j in range(dim):
        ech.add({**m.get(j, {}), dim + j: 1})
    if any(piv >= dim for piv in ech.pivots):
        raise ValueError("matrix is singular")
    return {piv: {k - dim: v for k, v in row.items() if k >= dim}
            for piv, row in zip(ech.pivots, ech.rows)}
