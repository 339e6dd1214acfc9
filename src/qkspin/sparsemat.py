"""Column-major sparse matrices: {col: {row: value}} with no stored zeros.

Every sparse sum here starts an entry from its first term: the routines
read `old = acc.get(key)` and store `term if old is None else old + term`,
dropping the entry (and an emptied column) when the sum cancels.  No int
`0` enters a field sum, so an entry keeps the type of its terms and its
first addition never takes `Fraction`'s reflected path.  There are two
in-place accumulators, each with its copying form written on top of it:
`madd_into` adds a matrix, optionally weighted (`madd`), and `compose_into`
adds a product (`compose`), entry by entry, without building the product
first.

`from_images` is the one operator builder: every matrix that applies an
elementwise rule to each basis element of its domain goes through it.
`kron_into` places the Kronecker product of two such matrices as a block
of a larger one.

`int_copies` clears the denominators of a family of rational matrices
once, so a check whose verdict is unchanged by a nonzero scale composes
int matrices instead of Fractions.  `relation_sum` adds products of such
int matrices, each factor with its scale, at the lcm of the scales: every
operator identity a suite checks (`lefschetz.check_relation`) and every
derivation of a ladder is one.
"""

from __future__ import annotations

from math import lcm, prod


def from_images(images, coords) -> dict:
    """The matrix whose column k is coords(images[k]); zero images are skipped.

    images is any iterable of sparse elements, one per domain basis element
    in basis order, and coords maps an element to its codomain coordinates.
    """
    return {k: coords(img) for k, img in enumerate(images) if img}


def kron_into(acc: dict, a: dict, b: dict, b_shape: tuple, at: tuple) -> None:
    """Store the Kronecker product a tensor b as a block of acc.

    b_shape is b's (rows, cols); the entry a[ca][ra] b[cb][rb] goes to
    column at[1] + ca cols + cb and row at[0] + ra rows + rb.  The block
    must not overlap an entry already in acc.
    """
    b_rows, b_cols = b_shape
    row0, col0 = at
    for ca, acol in a.items():
        for cb, bcol in b.items():
            out = acc.setdefault(col0 + ca * b_cols + cb, {})
            for ra, va in acol.items():
                base = row0 + ra * b_rows
                for rb, vb in bcol.items():
                    out[base + rb] = va * vb


def compose(a: dict, b: dict) -> dict:
    """Matrix product a @ b (apply b first)."""
    out: dict = {}
    compose_into(out, a, b)
    return out


def compose_into(acc: dict, a: dict, b: dict) -> None:
    """Add the product a @ b into acc in place; a and b are not modified.

    acc's columns keep their order: a column the product adds comes last,
    and one whose sum cancels is dropped once its product column is done.
    """
    for col, bcol in b.items():
        out = acc.setdefault(col, {})
        for mid, v in bcol.items():
            acol = a.get(mid)
            if not acol:
                continue
            for row, w in acol.items():
                old = out.get(row)
                new = w * v if old is None else old + w * v
                if new:
                    out[row] = new
                else:
                    out.pop(row, None)
        if not out:
            del acc[col]


def madd_into(acc: dict, m: dict, factor=1) -> None:
    """Add factor times m into acc in place; m is not modified.

    A factor other than 1 multiplies each entry as it is added, so a
    weighted sum takes no scaled copy of its terms.
    """
    if not factor:
        return
    weighted = factor != 1
    for col, mcol in m.items():
        out = acc.get(col)
        if out is None:
            out = ({row: factor * v for row, v in mcol.items() if v} if weighted
                   else {row: v for row, v in mcol.items() if v})
            if out:
                acc[col] = out
            continue
        for row, v in mcol.items():
            if weighted:
                v = factor * v
            old = out.get(row)
            new = v if old is None else old + v
            if new:
                out[row] = new
            else:
                out.pop(row, None)
        if not out:
            del acc[col]


def madd(*mats) -> dict:
    out: dict = {}
    for m in mats:
        madd_into(out, m)
    return out


def mscale(m: dict, factor) -> dict:
    if not factor:
        return {}
    return {col: {row: factor * v for row, v in mcol.items()}
            for col, mcol in m.items()}


def msub(a: dict, b: dict) -> dict:
    out = madd(a)
    madd_into(out, b, -1)
    return out


def relation_sum(terms) -> tuple[int, dict]:
    """(S, S sum_t c_t F_t1 ... F_tm), int, over an iterable of terms.

    A term is (c, F_1, ..., F_m): an int c times the product of one or more
    factors, F_m applied first.  A factor is ((s, mats), x), mats[x] an int
    matrix and mats[x] / s the exact operator.  Each term is read once and
    added at S, the lcm of the scales read so far, the sum rescaled whenever
    S grows, so a streamed sum never holds all its factors.
    """
    scale, total = 1, {}
    for c, *factors in terms:
        s = prod(s_f for (s_f, _), _ in factors)
        if scale % s:
            total = mscale(total, lcm(scale, s) // scale)
            scale = lcm(scale, s)
        *left, product = (m[x] for (_, m), x in factors)
        for m in reversed(left[1:]):
            product = compose(m, product)
        weight = c * (scale // s)
        if left and weight == 1:
            # a unit term's last product is added as it is formed
            compose_into(total, left[0], product)
        else:
            madd_into(total, compose(left[0], product) if left else product,
                      weight)
    return scale, total


def transpose(m: dict) -> dict:
    """Swap the roles of rows and columns: {col: {row: v}} -> {row: {col: v}}."""
    out: dict = {}
    for col, mcol in m.items():
        for row, v in mcol.items():
            out.setdefault(row, {})[col] = v
    return out


def integral(m: dict) -> dict:
    """m with each rational entry of denominator 1 stored as an int.

    The other entries are kept as they are, so an exact matrix stays exact;
    an operator that is integral then multiplies in int arithmetic.
    """
    return {col: {row: v.numerator if v.denominator == 1 else v
                  for row, v in mcol.items()}
            for col, mcol in m.items()}


def int_copies(family: list) -> tuple[int, list]:
    """(s, [s times each matrix of the family, with int entries]).

    s is the lcm of the denominators of every entry of the family, 1 for a
    family of int matrices or an empty one.
    """
    s = lcm(*(v.denominator for m in family for col in m.values()
              for v in col.values()))
    return s, [{col: {row: v.numerator * (s // v.denominator)
                      for row, v in mcol.items()}
                for col, mcol in m.items()} for m in family]


def identity(dim: int, one=1) -> dict:
    return {k: {k: one} for k in range(dim)}


def is_scalar_multiple(m: dict, dim: int, value) -> bool:
    """Does m equal value * id on a dim-dimensional space?"""
    if not value:
        return not m
    return all(m.get(col, {}) == {col: value} for col in range(dim))


def apply_cols(m: dict, vec: dict) -> dict:
    out = {}
    for col, v in vec.items():
        mcol = m.get(col)
        if not mcol:
            continue
        for row, w in mcol.items():
            old = out.get(row)
            new = w * v if old is None else old + w * v
            if new:
                out[row] = new
            else:
                out.pop(row, None)
    return out
