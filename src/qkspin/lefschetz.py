"""Lefschetz sl2 operators and primitive subspaces of Lambda^q E.

L wedges with the canonical bivector L_E = 1/2 sum de_i^flat wedge e_i,
its adjoint Lambda contracts with the symplectic form, and H = [Lambda, L]
acts as (n-k) id on Lambda^k E.  The primitive space is ker(Lambda); it is
realized by an explicitly computed kernel basis in free-column-pivot form,
so the coordinates of a column are its entries on the free columns.

L, Lambda and H = Lambda L - L Lambda are int matrices read off index
tables, as are the contraction and wedge tables on Lambda^q from which the
primitive ladder is built.  The elementwise rules `apply_L`,
`apply_Lambda`, `ext_contract` and `wedge_circ` stay as the references the
tests compare these tables with.

The projection onto ker(Lambda) along im(L) is built from the kernel basis
B (`projector`, through `linalg.invert`, the tests' reference) and as the
sl2 polynomial P = prod_k (id - L Lambda / lam_k), cleared to the int
c P = prod_k (lam_k id - L Lambda).  The lemmas suite checks that they agree
by the two products Lambda (c P) = 0 and (c P) L = 0, which suffice: P is
id plus L times a polynomial, so v - P v lies in im(L); Lambda P = 0 puts
P v in ker(Lambda), and P fixes ker(Lambda), where L Lambda vanishes, so
P is idempotent with image ker(Lambda); P L = 0 gives im(L) inside ker(P),
and v - P v in im(L) gives the converse.  So P projects onto ker(Lambda)
along im(L), and B spans ker(Lambda) by construction: that is `projector`.

Every operator identity is data for one checker, `check_relation`: cases
of sum_t c_t F_t1 ... F_tm = want id, each summed in int arithmetic at the
lcm of its factors' scales (`sparsemat.relation_sum`).  The lemma relations
read the held int levels (`Ladder.scaled`) of `PrimitiveOps`, the contraction /
modified-wedge ladder on the primitive levels of Lambda^q E, and of
`powers.SymOps`, the product / normalized-contraction ladder on Sym^r H.
A failing relation names its first failing case key, or its sum.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb

from . import linalg, sparsemat
from .powers import (
    ExtPower,
    Ladder,
    ext_contract,
    ext_product,
    ext_wedge_vec,
    reader,
    sort_sign,
    sym_ops,
)
from .symplectic import (
    SymplecticSpace,
    add_into,
    scale,
    sharp,
    sub,
)

@functools.cache
def canonical_bivector(space: SymplecticSpace) -> dict:
    """L_E as an exterior element of degree 2."""
    out: dict = {}
    for i in range(space.dim):
        j, sg = space.flat_basis(i)
        term = ext_wedge_vec({j: Fraction(sg, 2)}, {(i,): Fraction(1)})
        for mono, c in term.items():
            add_into(out, mono, c)
    return out


def apply_L(space: SymplecticSpace, elem: dict) -> dict:
    return ext_product(canonical_bivector(space), elem)


def apply_Lambda(space: SymplecticSpace, elem: dict) -> dict:
    """Contraction with sigma; adjoint of apply_L for the extended form."""
    out = {}
    for i in range(space.dim):
        si, sg = space.sharp_basis(i)
        step = ext_contract({si: Fraction(sg, 2)},
                            ext_contract({i: Fraction(1)}, elem))
        for mono, c in step.items():
            add_into(out, mono, c)
    return out


@functools.cache
def L_op(space: SymplecticSpace, q: int) -> dict:
    """Matrix of L: Lambda^(q-2) -> Lambda^q, int; shared, so read-only.

    L wedges with the bivector sum_i c_i e_i ^ e_(i+n), whose coefficients
    c_i = 1/2 + 1/2 are `canonical_bivector`'s, integral.
    """
    bivector = [(pair, c.numerator) for pair, c in canonical_bivector(space).items()]
    target = ExtPower(space, q).index
    out = {}
    for col, mono in enumerate(ExtPower(space, q - 2).basis):
        image = {}
        for pair, c in bivector:
            merged = sort_sign(pair + mono)
            if merged:
                image[target[merged[1]]] = merged[0] * c
        if image:
            out[col] = image
    return out


def Lambda_op(space: SymplecticSpace, q: int) -> dict:
    """Matrix of Lambda: Lambda^q -> Lambda^(q-2), int.

    Lambda e_mono = sum (-1)^(p+r+1) e_(mono without i, i+n), over the
    i < n with both i and i+n in mono, at positions p < r.
    """
    n = space.half_dim
    target = ExtPower(space, q - 2).index
    out = {}
    for col, mono in enumerate(ExtPower(space, q).basis):
        position = {idx: p for p, idx in enumerate(mono)}
        image = {}
        for i in range(n):
            if i in position and i + n in position:
                rest = tuple(x for x in mono if x != i and x != i + n)
                image[target[rest]] = 1 if (position[i] + position[i + n]) % 2 else -1
        if image:
            out[col] = image
    return out


def H_op(space: SymplecticSpace, q: int) -> dict:
    """Matrix of [Lambda, L] on Lambda^q; equals (n - q) id."""
    return sparsemat.msub(
        sparsemat.compose(Lambda_op(space, q + 2), L_op(space, q + 2)),
        sparsemat.compose(L_op(space, q), Lambda_op(space, q)))


@functools.cache
def contract_tables(space: SymplecticSpace, q: int) -> list:
    """C_j: Lambda^q -> Lambda^(q-1), contraction with de_j, for each j.

    C_j e_mono = (-1)^p e_(mono without j), p the position of j in mono;
    int entries.  The wedge e_i ^ on Lambda^(q-1) is the transpose of C_i.
    Shared, so read-only.
    """
    target = ExtPower(space, q - 1).index
    tables = [{} for _ in range(space.dim)]
    for col, mono in enumerate(ExtPower(space, q).basis):
        for p, j in enumerate(mono):
            tables[j][col] = {target[mono[:p] + mono[p + 1:]]: -1 if p % 2 else 1}
    return tables


def wedge_circ(space: SymplecticSpace, vec: dict, elem: dict) -> dict:
    """Projection of vec wedge elem back into the primitive space.

    elem must be primitive; the correction coefficient depends on the
    degree k of each monomial, so mixed-degree elements are handled
    per degree.  Degrees above half_dim come out as exact zero.
    """
    by_degree: dict[int, dict] = {}
    for mono, c in elem.items():
        by_degree.setdefault(len(mono), {})[mono] = c
    out: dict = {}
    n = space.half_dim
    for k, part in by_degree.items():
        plain = ext_wedge_vec(vec, part)
        correction = apply_L(space, ext_contract(sharp(space, vec), part))
        res = sub(plain, scale(correction, Fraction(1, n - k + 1)))
        for mono, c in res.items():
            add_into(out, mono, c)
    return out


class NotPrimitiveError(ValueError):
    """A column handed to `PrimitiveSpace.to_coords` lies outside ker(Lambda)
    on Lambda^q, q the degree when the raiser names it."""

    def __init__(self, column, q=None):
        super().__init__(f"column {column} is not in the primitive subspace")
        self.column, self.q = column, q


class PrimitiveDimensionError(AssertionError):
    """A kernel basis of Lambda on Lambda^q E whose size is not the formula's.

    `witness` is (n, q, built, expected); `verify` reports it as a failing
    check instead of letting it escape.
    """

    def __init__(self, n: int, q: int, built: int, expected: int):
        super().__init__(f"primitive dimension {built} != {expected} "
                         f"at (n={n}, q={q})")
        self.witness = (n, q, built, expected)


class PrimitiveSpace:
    """ker(Lambda) inside Lambda^q E with an exact coordinate system.

    The kernel basis is the column-major matrix B (`matrix`) over the ambient
    basis, and `basis` lists its columns as elements for the elementwise rules.
    """

    def __init__(self, space: SymplecticSpace, q: int):
        n = space.half_dim
        if not 0 <= q <= n:
            raise ValueError(f"primitive degree {q} out of range for n={n}")
        self.space = space
        self.q = q
        self.ambient = ExtPower(space, q)
        self.lambda_op = Lambda_op(space, q)
        rows = sparsemat.transpose(self.lambda_op)
        free_cols, kernel = linalg.kernel_basis_with_free(
            [rows[t] for t in sorted(rows)], self.ambient.dim)
        self.free_cols = free_cols
        self.coord_of = {free: c for c, free in enumerate(free_cols)}
        # B is +-1 in free-column form: int entries keep products with it
        # (the 4-form's derivations in `qzero_check`) in int arithmetic
        self.matrix = sparsemat.integral(dict(enumerate(kernel)))
        self.basis = [{self.ambient.basis[k]: v for k, v in vec.items()}
                      for vec in kernel]
        self.dim = len(self.basis)
        if self.dim != primitive_dim(n, q):
            raise PrimitiveDimensionError(n, q, self.dim, primitive_dim(n, q))

    def to_coords(self, m: dict) -> dict:
        """Primitive coordinates of each column of m, over the ambient basis.

        Read off the free columns, through the map from each free column to
        its coordinate.  Membership is tested as Lambda m = 0, on the Lambda
        matrix of `__init__`: ker(Lambda) = im(B), so a column passes exactly
        when B coords gives it back.  The first column outside ker(Lambda)
        raises `NotPrimitiveError`, naming it.
        """
        lam = self.lambda_op
        for col in sorted(m):
            if sparsemat.apply_cols(lam, m[col]):
                raise NotPrimitiveError(col, self.q)
        coord_of = self.coord_of
        return {col: {coord_of[r]: v for r, v in mcol.items() if r in coord_of}
                for col, mcol in m.items()}

    # the projector, by the kernel basis and by the sl2 polynomial ----

    def projector(self) -> dict:
        """Projection onto ker(Lambda) along im(L), column-major.

        With T = [B | L(Lambda^(q-2))], P e_c is the primitive part
        sum_{k < dim} (T^-1)_{kc} b_k of e_c.
        """
        cols = dict(self.matrix)
        for k, col in L_op(self.space, self.q).items():
            cols[self.dim + k] = col
        inv = linalg.invert(cols, self.ambient.dim)
        coords = {c: part for c, col in inv.items()
                  if (part := {k: v for k, v in col.items() if k < self.dim})}
        return sparsemat.compose(self.matrix, coords)

    def scaled_projector_sl2(self) -> tuple[int, dict]:
        """(c, c P) for the sl2 projection P = prod_k (id - L Lambda / lam_k),
        lam_k = k (n - q + k + 1) over 1 <= k <= q/2, and c = prod_k lam_k:
        the int polynomial c P = prod_k (lam_k id - L Lambda)."""
        n, q, dim = self.space.half_dim, self.q, self.ambient.dim
        ll = sparsemat.compose(L_op(self.space, q), Lambda_op(self.space, q))
        c, result = 1, sparsemat.identity(dim)
        for k in range(1, q // 2 + 1):
            lam = k * (n - q + k + 1)
            step = sparsemat.identity(dim, lam)
            sparsemat.madd_into(step, ll, -1)
            result = sparsemat.compose(step, result)
            c *= lam
        return c, result

    def project(self, elem: dict) -> dict:
        amb = self.ambient
        img = sparsemat.apply_cols(self.projector(), amb.coords(elem))
        return {amb.basis[r]: v for r, v in img.items()}

    # sparse operator matrices over primitive coordinates ------------

    def contract_matrix(self, cov_index: int, target: "PrimitiveSpace") -> dict:
        """Matrix of (de_cov_index contraction): self -> target (degree q-1).

        The coordinates of C_j B, C_j the contraction table; int entries.
        """
        table = contract_tables(self.space, self.q)[cov_index]
        return target.to_coords(sparsemat.compose(table, self.matrix))

    def wedge_circ_matrix(self, vec_index: int, target: "PrimitiveSpace") -> dict:
        """Matrix of (e_vec_index wedge_circ): self -> target (degree q+1).

        e_i wedge_circ = e_i ^ - s/(n-q+1) L C_j on level q, (j, s) the
        index and sign of e_i^sharp.  The int matrix (n-q+1) W_i B - s L C_j B,
        W_i the wedge table, is read in coordinates and divided once; an
        entry that divides exactly stays an int.
        """
        space, q = self.space, self.q
        scale = space.half_dim - q + 1
        j, sg = space.sharp_basis(vec_index)
        wedge = sparsemat.transpose(contract_tables(space, q + 1)[vec_index])
        correction = sparsemat.compose(
            L_op(space, q + 1),
            sparsemat.compose(contract_tables(space, q)[j], self.matrix))
        coords = target.to_coords(sparsemat.madd(
            sparsemat.mscale(sparsemat.compose(wedge, self.matrix), scale),
            sparsemat.mscale(correction, -sg)))
        return {col: {r: v // scale if v % scale == 0 else Fraction(v, scale)
                      for r, v in ccol.items()}
                for col, ccol in coords.items()}


@functools.cache
def primitive_space(space: SymplecticSpace, q: int) -> PrimitiveSpace:
    return PrimitiveSpace(space, q)


def primitive_dim(n: int, q: int) -> int:
    return comb(2 * n, q) - (comb(2 * n, q - 2) if q >= 2 else 0)


class PrimitiveOps(Ladder):
    """The contraction / modified-wedge ladder on the primitive levels.

    contract(q, i) is de_i contraction from level q to q-1, wedge(q, i) is
    e_i wedge_circ from q to q+1, and contract_sharp and wedge_flat use
    e^sharp and de^flat.  Off the ladder, i.e. C(q) unless
    1 <= q <= n and W(q) unless 0 <= q < n, the operator is {}, so callers
    never test the level themselves.  The derivation of e_x e_y composes
    wedge_circ after the contraction.
    """

    UP, DOWN = "wedge", "contract"
    SIGNED = {"contract_sharp": ("contract", "sharp_basis"),
              "wedge_flat": ("wedge", "flat_basis")}

    def __init__(self, space: SymplecticSpace):
        super().__init__(space)
        self.n = space.half_dim

    def level(self, q: int) -> PrimitiveSpace:
        return primitive_space(self.space, q)

    def on_ladder(self, name: str, q: int) -> bool:
        return 1 <= q <= self.n if name.startswith("contract") else 0 <= q < self.n

    def _build(self, name: str, q: int, i: int) -> dict:
        if name == "contract":
            return self.level(q).contract_matrix(i, self.level(q - 1))
        return self.level(q).wedge_circ_matrix(i, self.level(q + 1))

    contract, wedge, contract_sharp, wedge_flat = map(
        reader, ("contract", "wedge", "contract_sharp", "wedge_flat"))


@functools.cache
def primitive_ops(space: SymplecticSpace) -> PrimitiveOps:
    return PrimitiveOps(space)


# -- verification reports ------------------------------------------------

class Check:
    """One verified identity: name, pass flag, witness on failure."""

    def __init__(self, name: str, ok: bool, witness=None, value=None):
        self.name = name
        self.ok = bool(ok)
        self.witness = witness
        self.value = value

    def __repr__(self):
        state = "ok" if self.ok else f"FAIL ({self.witness})"
        return f"Check({self.name}: {state})"


def check_sl2(space: SymplecticSpace) -> list[Check]:
    """[Lambda, L] = (n - k) id on Lambda^k for every degree k."""
    n = space.half_dim
    checks = []
    for k in range(space.dim + 1):
        h, v = H_op(space, k), Fraction(n - k)
        witness = next((mono for c, mono in enumerate(ExtPower(space, k).basis)
                        if h.get(c) != ({c: v} if v else None)), None)
        checks.append(Check(f"sl2 commutator on degree {k}", witness is None,
                            witness, v))
    return checks


def check_relation(name: str, cases, dim: int | None, value=None) -> Check:
    """Check that each case (key, terms, want) sums to S want id on a
    dim-dimensional level, S its scale (`sparsemat.relation_sum`), in order;
    the first failing key is the witness.  want is an int or a Fraction, and
    dim is read only when want is nonzero.  A sum relation is one case with
    key None, and its witness is the sum divided back by S.
    """
    for key, terms, want in cases:
        scale, total = sparsemat.relation_sum(terms)
        target = Fraction(scale * want.numerator, want.denominator)
        if not sparsemat.is_scalar_multiple(total, dim, target):
            return Check(name, False, key if key is not None else
                         sparsemat.mscale(total, Fraction(1, scale)), value)
    return Check(name, True, None, value)


def swap_cases(pairs, a, b, sign: int, want=lambda x, y: 0):
    """The cases A_x B_y + sign A_y B_x = want(x, y) id over pairs (x, y)."""
    return (((x, y), [(1, (a, x), (b, y)), (sign, (a, y), (b, x))], want(x, y))
            for x, y in pairs)


def check_ext_relations(space: SymplecticSpace, s: int) -> list[Check]:
    """The five contraction / modified-wedge relations on Lambda^s primitive,
    on the int levels of the ladder."""
    n = space.half_dim
    ops = primitive_ops(space)
    dim = ops.level(s).dim
    idx = range(space.dim)
    c0, c1, c2 = (ops.scaled("contract", q) for q in (s - 1, s, s + 1))
    w0, w1, w2 = (ops.scaled("wedge", q) for q in (s - 1, s, s + 1))
    sharp = ops.scaled("contract_sharp", s)
    # the coefficient 1/(n-s+1) folds into the scale of the flat wedge
    flat = ops.scaled("wedge_flat", s - 1)
    flat = ((n - s + 1) * flat[0], flat[1])
    upper = [(i, j) for i in idx for j in idx if i <= j]
    expect = Fraction((2 * n - s + 2) * (n - s), n - s + 1)
    return [
        check_relation(f"contractions anticommute (s={s})",
                       swap_cases(upper, c0, c1, 1), dim),
        check_relation(f"modified wedges anticommute (s={s})",
                       swap_cases(upper, w2, w1, 1), dim),
        # {de_i_, e_j wedge_circ} = delta_ij + de_i^flat wedge_circ e_j^sharp_ / (n-s+1)
        check_relation(f"mixed anticommutator relation (s={s})", (
            ((i, j), [(1, (c2, i), (w1, j)), (1, (w0, j), (c1, i)),
                      (-1, (flat, i), (sharp, j))], int(i == j))
            for i in idx for j in idx), dim),
        # sum_i de_i_ e_i wedge_circ = (2n-s+2)(n-s)/(n-s+1) id
        check_relation(f"number operator de_i_ e_i^circ (s={s})",
                       [(None, [(1, (c2, i), (w1, i)) for i in idx], expect)],
                       dim, expect),
        # sum_i e_i wedge_circ de_i_ = s id
        check_relation(f"number operator e_i^circ de_i_ (s={s})",
                       [(None, [(1, (w0, i), (c1, i)) for i in idx], s)],
                       dim, Fraction(s)),
    ]


def check_sym_relations(r: int) -> list[Check]:
    """The six product / normalized-contraction relations on Sym^r H.

    Each is an operator identity on the int levels of `SymOps`; a failing
    relation names its first failing index pair.  The identities
    whose right-hand side applies the normalized contraction on Sym^r
    itself need r >= 1 (on Sym^0 the 1/r normalization has no meaning);
    those are only checked for r >= 1.
    """
    ops = sym_ops(SymplecticSpace(1, name="h"))
    dim = r + 1     # dim Sym^r H
    pairs = [(i, j) for i in range(2) for j in range(2)]
    m0, m1, m2 = (ops.scaled("mul", q) for q in (r - 1, r, r + 1))
    k0, k1, k2 = (ops.scaled("contract_circ", q) for q in (r - 1, r, r + 1))
    flat, sharp = ops.scaled("mul_flat", r - 1), ops.scaled("contract_sharp", r)
    expect = Fraction(r + 2, r + 1)
    checks = [
        # [h_i., h_j.] = 0 and [dh_i_, dh_j_] = 0
        check_relation(f"symmetric products commute (r={r})",
                       swap_cases(pairs, m2, m1, -1), dim),
        check_relation(f"normalized contractions commute (r={r})",
                       swap_cases(pairs, k0, k1, -1), dim),
    ]
    if r >= 1:
        # the coefficient 1/(r+1) folds into the scale of mul_flat
        flat_r = ((r + 1) * flat[0], flat[1])
        checks += [
            # [alpha_, h.] = -1/(r+1) alpha^flat . h^sharp_, alpha = dh_i, h = h_j
            check_relation(f"contraction/product commutator (r={r})", (
                ((i, j), [(1, (k2, i), (m1, j)), (-1, (m0, j), (k1, i)),
                          (1, (flat_r, i), (sharp, j))], 0) for i, j in pairs), dim),
            # alpha(h) id = h . alpha_ - alpha^flat . h^sharp_
            check_relation(f"evaluation identity (r={r})", (
                ((i, j), [(1, (m0, j), (k1, i)), (-1, (flat, i), (sharp, j))],
                 int(i == j)) for i, j in pairs), dim),
            # sum h_i . dh_i_ = id
            check_relation(f"Euler identity (r={r})",
                           [(None, [(1, (m0, i), (k1, i)) for i in range(2)], 1)], dim),
        ]
    # sum dh_i_ h_i . = (r+2)/(r+1) id
    checks.append(check_relation(
        f"number operator dh_i_ h_i (r={r})",
        [(None, [(1, (k2, i), (m1, i)) for i in range(2)], expect)], dim, expect))
    return checks
