"""Sym^4 triviality and the primitive-space operator identity.

The paper's Sym^4 lemma: the symmetric 4-form part R^hyper of a
quaternionic Kaehler curvature acts trivially, both on Lambda E
(`sym4_acts_trivially`) and through the operator sum on each primitive
level (`qzero_check`).  The model tensor itself, `ModelCurvature`, lives
in `curvature`, which reaches every public name here as well; this module
reads only a model's attributes, so a suite that never builds a model
never compiles `curvature`.

The two checks run in int arithmetic.  Every operator they compose is
integral except the 4-form's own values, and `ModelCurvature` clears
those denominators once, with the int lcm `scale`.  Each check tests
"operator = 0", and the operator is linear in the form, so it vanishes for
scale R exactly when it vanishes for R: the verdicts are exact, and a
witness is divided back by the scale into a Fraction.

Both checks sum S_ij o der(R(e_i, e_j)) over every ordered pair (i, j),
where the form-independent factor S_ij is symmetric in (i, j).  As der
and the restriction to a primitive level are linear, the sum equals
sum_{i <= j} S_ij o der(P_ij) with P_ij = R(e_i, e_j) + R(e_j, e_i) for
i < j and P_ii = R(e_i, e_i), for any form, symmetric or not.  So each
check builds one derivation and takes one product per unordered pair,
and a "not primitive" witness names the pair with i <= j.

The ambient check is decided on Lambda^1 and Lambda^2.  For endomorphisms
A, B, der(A) der(B) = der(AB) + sum_{a<b} (A (x) B + B (x) A)_ab, the last
term acting on the a-th and b-th factors of a monomial.  So
T = sum der(de_i . de_j) der(P_ij) is der(C) + W, with C = sum
(de_i . de_j) P_ij and W the two-body extension of K = sum
(de_i . de_j) (x) P_ij + P_ij (x) (de_i . de_j).  Every pair of factors of
an alternating tensor lies in Lambda^2, so W depends only on K there.  T is
0 on Lambda^0, C on Lambda^1 and der(C) + K on Lambda^2: if it vanishes on
Lambda^1 and Lambda^2, then C = 0 and K = 0 on Lambda^2, so T = 0 on every
Lambda^q.  The first degree where T is nonzero, if any, is 1 or 2, for
every form, symmetric or not.

Neither check reads Lambda^0.  der(A) on Lambda^0 is 0 for every A, so
both operator sums, each composed with der(P_ij), vanish there for every
form: the ambient check starts at Lambda^1, and the suite runs the
primitive check for q = n - r >= 1 only.  `sym4_total(model, 0)` and
`qzero_check(model, n)` stay valid calls: the first returns the zero
operator, the second a passing check.

The primitive check's form-independent factor, de_j^flat wedge_circ de_i_
+ (i <-> j), is read off the primitive ladder: with de_i^flat = s_i e_fi,
it is s_i s_j times `PrimitiveOps.derivation` of e_fi e_fj, so this module
composes no ladder operators of its own.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import TYPE_CHECKING

from . import sparsemat
from .lefschetz import NotPrimitiveError, primitive_ops, primitive_space
from .powers import ExtPower, sort_sign
from .symplectic import SymplecticSpace, add_into

if TYPE_CHECKING:
    from .curvature import ModelCurvature


@functools.cache
def _derivation_table(space: SymplecticSpace, q: int) -> list:
    """(column, monomial, below, above) for each Lambda^q monomial, in
    column order.

    below and above list (row, source, target, sign) for each label of the
    monomial and each other label that may replace it, with rows below
    resp. above the column, in ascending row order: replacing source by
    target in the monomial gives sign times the monomial of `row`.  Each
    such row arises from one replacement only, as it names the label
    removed and the one added.  A label replacing itself gives the column
    back, so the diagonal entry is summed over the monomial's own labels.
    The table depends only on (space, q), so the sorting signs are found
    once per run, not once per endomorphism.
    """
    amb = ExtPower(space, q)
    table = []
    for column, mono in enumerate(amb.basis):
        off = []
        for pos, source in enumerate(mono):
            rest = mono[:pos] + mono[pos + 1:]
            for target in range(space.dim):
                if target != source and (res := sort_sign(
                        rest[:pos] + (target,) + rest[pos:])):
                    sign, key = res
                    off.append((amb.index[key], source, target, sign))
        off.sort()
        table.append((column, mono, [e for e in off if e[0] < column],
                      [e for e in off if e[0] > column]))
    return table


def derivation_ext_matrix(space: SymplecticSpace, endo: dict, q: int) -> dict:
    """Derivation extension of an E-endomorphism to Lambda^q, column-major.

    Read off `_derivation_table` column by column: each off-diagonal entry
    is stored as it is read, and the diagonal one is summed once, so
    columns, and the rows of each column, come out in ascending order;
    entries keep the type of endo's entries.
    """
    get = endo.get
    cols = {}
    for column, mono, below, above in _derivation_table(space, q):
        col = {}
        for row, source, target, sign in below:
            if (img := get(source)) and (v := img.get(target)):
                col[row] = v if sign == 1 else -v
        diag = None
        for label in mono:
            if (img := get(label)) and (v := img.get(label)):
                diag = v if diag is None else diag + v
        if diag:
            col[column] = diag
        for row, source, target, sign in above:
            if (img := get(source)) and (v := img.get(target)):
                col[row] = v if sign == 1 else -v
        if col:
            cols[column] = col
    return cols


def sym2_endo(space: SymplecticSpace, i: int, j: int) -> dict:
    """de_i . de_j as an endomorphism: e -> de_i(e) de_j^flat + de_j(e) de_i^flat.

    Its entries are the int signs of the flat map.
    """
    out: dict = {}
    ti, si = space.flat_basis(i)
    tj, sj = space.flat_basis(j)
    add_into(out.setdefault(i, {}), tj, sj)
    add_into(out.setdefault(j, {}), ti, si)
    return {k: v for k, v in out.items() if v}


@functools.cache
def _sym2_derivation(space: SymplecticSpace, i: int, j: int, q: int) -> dict:
    """The derivation extension of de_i . de_j to Lambda^q, with int entries.

    Built once per run and shared, so callers must not modify it.
    """
    return derivation_ext_matrix(space, sym2_endo(space, i, j), q)


def _form_derivations(model: ModelCurvature, q: int) -> dict:
    """{(i, j): der(scale P_ij)} on Lambda^q: the model's held level for
    1 <= q <= n (`r_derivations`), built afresh at any other q."""
    held = model.r_derivations
    return held[q] if q in held else model.derivations(q)


def sym4_total(model: ModelCurvature, q: int) -> dict:
    """2 scale times the endomorphism that the form induces on Lambda^q E.

    The endomorphism is 1/2 sum_{i,j} der(de_i . de_j) der(R(e_i, e_j)).
    The factor der(de_i . de_j) is symmetric in (i, j), so the sum is
    1/2 sum_{i <= j} der(de_i . de_j) der(P_ij), one product per unordered
    pair (see the module docstring).  The factors der(de_i . de_j) depend
    only on (E, q, i, j), not on the form, and are built once per run
    (`_sym2_derivation`, a `functools.cache`); the factors der(scale P_ij)
    come from the model (`_form_derivations`).  Both have int entries, so
    the sum is int arithmetic.  It is valid at every q, though
    `sym4_acts_trivially` reads only q = 1, 2.
    """
    E = model.E
    d_ps = _form_derivations(model, q)
    total: dict = {}
    for (i, j), d_p in d_ps.items():
        sparsemat.compose_into(total, _sym2_derivation(E, i, j, q), d_p)
    return total


def sym4_acts_trivially(model: ModelCurvature) -> dict:
    """The induced endomorphism of Lambda E vanishes degree by degree.

    Degree q is tested on `sym4_total`, 2 scale times the endomorphism, for
    q = 1, 2 <= 2n only: it vanishes on Lambda^0, and on every Lambda^q
    once it vanishes on Lambda^1 and Lambda^2 (see the module docstring),
    so a loop over q = 0..2n gives the same verdict and witness.  The test
    "operator = 0" is linear in the form, so clearing the denominators with
    the nonzero int scale changes no verdict, and a witness entry v is
    divided back exactly, as Fraction(v, 2 scale).
    """
    for q in (1, 2):
        total = sym4_total(model, q)
        if total:
            col, entries = next(iter(total.items()))
            return {"ok": False,
                    "witness": (q, (col, {row: Fraction(v, 2 * model.scale)
                                          for row, v in entries.items()}))}
    return {"ok": True, "witness": None}


@functools.cache
def _qzero_operator(space: SymplecticSpace, q: int, i: int, j: int) -> dict:
    """de_j^flat wedge_circ de_i_ + (i <-> j) from primitive level q to q.

    With (fi, s_i) and (fj, s_j) the flat maps of i and j, this is s_i s_j
    times the ladder's derivation of e_fi e_fj.  Its entries are integers:
    the ladder's int matrix at scale s is divided by s exactly.  Built once
    per run and shared, so callers must not modify it.
    """
    (fi, s_i), (fj, s_j) = space.flat_basis(i), space.flat_basis(j)
    s, der = primitive_ops(space).derivation(q, fi, fj)
    return {col: {row: s_i * s_j * v // s for row, v in mcol.items()}
            for col, mcol in der.items()}


def qzero_total(model: ModelCurvature, q: int) -> tuple:
    """(scale times the operator sum on primitive level q, None), or
    (None, witness) when a restriction leaves the primitive space.

    The operator sum de_j^flat wedge_circ de_i_ + (i <-> j) is symmetric in
    (i, j), so it is composed with der(P_ij) over the unordered pairs
    i <= j, one product per pair (see the module docstring).  The operator
    sums depend only on (E, q, i, j), not on the form, and are built once
    per run (`_qzero_operator`, a `functools.cache`).  The form's
    derivation der(scale P_ij) (`_form_derivations`) is restricted to
    the primitive level as `to_coords` of its product with the kernel
    basis B.  Every factor has int entries, so the sum is int arithmetic.
    If a restriction leaves the primitive space (R is not a symmetric
    4-form), the witness is ("not primitive", i, j, c) for the first pair
    i <= j and the first primitive basis column c whose image under
    der(P_ij) is not primitive.
    """
    E = model.E
    prim = primitive_space(E, q)
    total: dict = {}
    for (i, j), d_amb in _form_derivations(model, q).items():
        try:
            d_prim = prim.to_coords(sparsemat.compose(d_amb, prim.matrix))
        except NotPrimitiveError as exc:
            return None, ("not primitive", i, j, exc.column)
        sparsemat.compose_into(total, _qzero_operator(E, q, i, j), d_prim)
    return total, None


def qzero_check(model: ModelCurvature, r: int) -> dict:
    """The operator sum de_j^flat wedge_circ de_i_ + (i <-> j) after the
    4-form action vanishes on the primitive space of degree q = n - r.

    It is tested on `qzero_total`, scale times the operator, summed over
    the unordered pairs i <= j; a "not primitive" witness names the first
    such pair.  As the test "operator = 0" is linear in the form, the
    scaling changes no verdict, and a witness entry v is divided back
    exactly, as Fraction(v, scale).
    """
    total, witness = qzero_total(model, model.n - r)
    if witness:
        return {"ok": False, "witness": witness}
    if not total:
        return {"ok": True, "witness": None}
    col, entries = next(iter(total.items()))
    return {"ok": False,
            "witness": (col, {row: Fraction(v, model.scale)
                              for row, v in entries.items()})}
