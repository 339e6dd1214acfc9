"""The decomposed spinor space and its split Clifford multiplication.

For quaternionic dimension n the spinor space is the direct sum over
r = 0..n of Sym^r H tensor Lambda^(n-r)_prim E; its total dimension is
2^(2n).  Clifford multiplication by a tangent vector h tensor e is

    mu(h tensor e) = sqrt2 (h mult tensor e^sharp contraction
                            + h^sharp circ-contraction tensor e wedge_circ)

which maps grade r to grades r-1 and r+1.  The four split components
mu_pm / mu_mp / mu_pp / mu_mm are defined on arbitrary bigrades (p, q).

Elements are sparse dicts keyed (p, q, h_monomial, primitive_column);
tangent vectors are sparse dicts keyed (h_index, e_index).

Every coefficient of mu is sqrt2 times a rational, so the space works with
mu = sqrt2 M and keeps M over the rationals: `clifford_matrix` returns M,
and the Scalar-valued mu methods multiply by sqrt2 once, at the end.

Where M is built: `clifford_basis_matrix(t)` assembles M(t) for a tangent
basis vector t = h_a tensor e_i from the cached ladders, one pair of
Kronecker blocks per grade r, Sym^r H tensor Lambda^(n-r)_prim E:
`SymOps.mul(r, a)` tensor `PrimitiveOps.contract_sharp(n-r, i)` to grade
r+1 and `SymOps.contract_sharp(r, a)` tensor `PrimitiveOps.wedge(n-r, i)`
to grade r-1.  The elementwise `_component` rule behind `mu` and the mu_*
methods is the reference the tests compare these matrices with.  The
primitive Gram is the sparse product B^T A J B (`primitive_gram`), with
the elementwise `extended_sigma_ext` as its reference.  The Casimir
composes the derivations of Sym^2 H off the H ladder
(`SymOps.derivation`), with the elementwise `sym2h_derivation` as their
reference.

Where the int scaling happens: `scaled_clifford` and `scaled_hermitian_gram`
clear the denominators of the basis matrices and of the Gram once per
space, as int copies with their lcm scale.  `two_form_matrix` composes the
Clifford copies and divides by the squared scale once, and
`verify.suite_clifford` runs its anticommutation and adjointness checks
on the copies, with the expected sides scaled to match.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial

from . import linalg, sparsemat
from .lefschetz import primitive_ops, primitive_space
from .powers import (
    SymPower,
    extended_sigma_sym,
    gram_det,
    gram_perm,
    j_ext,
    j_sym,
    sym_contract_circ,
    sym_insert,
    sym_ops,
)
from .scalar import SQRT2, Scalar
from .symplectic import SymplecticSpace, add_into, scale, sharp

# the Gram entry of two primitive vectors that do not pair, shared
_ZERO = Fraction(0)


def rank_formula(n: int, r: int) -> int:
    """(r+1) (C(2n, n-r) - C(2n, n-r-2))."""
    low = comb(2 * n, n - r - 2) if n - r - 2 >= 0 else 0
    return (r + 1) * (comb(2 * n, n - r) - low)


class SpinorSpace:
    def __init__(self, n: int):
        if n < 1:
            raise ValueError("quaternionic dimension must be at least 1")
        self.n = n
        self.H = SymplecticSpace(1, name="h")
        self.E = SymplecticSpace(n, name="e")
        self.eops = primitive_ops(self.E)

    # value semantics, so equal spaces share the cached bases and matrices
    def __eq__(self, other):
        return isinstance(other, SpinorSpace) and self.n == other.n

    def __hash__(self):
        return hash(self.n)

    # -- bases --------------------------------------------------------

    def grade_basis(self, r: int) -> list:
        """Basis keys (r, n-r, h_mono, col) of the grade-r summand."""
        if not 0 <= r <= self.n:
            return []
        q = self.n - r
        prim = primitive_space(self.E, q)
        return [(r, q, hm, c)
                for hm in SymPower(self.H, r).basis for c in range(prim.dim)]

    def grade_dim(self, r: int) -> int:
        q = self.n - r
        return (r + 1) * primitive_space(self.E, q).dim

    @functools.cache
    def flat_basis(self) -> list:
        """The basis keys of every grade, in grade order; shared, not to be modified."""
        return [key for r in range(self.n + 1) for key in self.grade_basis(r)]

    @functools.cache
    def _flat_index(self) -> dict:
        return {key: k for k, key in enumerate(self.flat_basis())}

    def coords(self, psi: dict) -> dict:
        """Coordinates of a spinor over the flat basis."""
        index = self._flat_index()
        return {index[key]: v for key, v in psi.items()}

    @property
    def dim(self) -> int:
        return len(self.flat_basis())

    # -- tangent vectors ----------------------------------------------

    def tangent_basis(self) -> list:
        return [(a, i) for a in range(2) for i in range(self.E.dim)]

    def metric(self, x: dict, y: dict):
        """g = sigma_H tensor sigma_E on complexified tangent vectors."""
        total = Fraction(0)
        for (a, i), cx in x.items():
            for (b, j), cy in y.items():
                s = self.H.sigma_basis(a, b) * self.E.sigma_basis(i, j)
                if s:
                    total = total + cx * cy * s
        return total

    def conjugate_tangent(self, x: dict) -> dict:
        """Real structure: J tensor J applied factorwise, coefficients conjugated."""
        out = {}
        for (a, i), c in x.items():
            a2, sa = self.H.j_basis(a)
            i2, si = self.E.j_basis(i)
            add_into(out, (a2, i2), sa * si * c.conjugate())
        return out

    # -- split Clifford components -------------------------------------

    def _component(self, x: dict, psi: dict, h_raise: bool, e_raise: bool) -> dict:
        """sum over x of (h-part tensor e-part) applied to psi, without sqrt2.

        This is the split component of M with mu = sqrt2 M; its coefficients
        are rational whenever x and psi are.
        """
        out: dict = {}
        for (p, q, hm, col), c in psi.items():
            for (a, i), cx in x.items():
                coeff = cx * c
                # H factor
                if h_raise:
                    h_terms = [(sym_insert(a, hm), Fraction(1))]
                else:
                    cov = sharp(self.H, {a: Fraction(1)})
                    h_terms = [(m, v) for m, v in
                               sym_contract_circ(cov, {hm: Fraction(1)}).items()]
                if not h_terms:
                    continue
                # E factor on primitive coordinates
                if e_raise:
                    emat = self.eops.wedge(q, i)
                    q2 = q + 1
                else:
                    emat = self.eops.contract_sharp(q, i)
                    q2 = q - 1
                ecol = emat.get(col)
                if not ecol:
                    continue
                for hm2, hv in h_terms:
                    p2 = len(hm2)
                    for col2, ev in ecol.items():
                        add_into(out, (p2, q2, hm2, col2), coeff * hv * ev)
        return out

    def _clifford(self, x: dict, psi: dict) -> dict:
        """M(x) psi: the grade-raising plus the grade-lowering component."""
        out = self._component(x, psi, h_raise=True, e_raise=False)
        for k, v in self._component(x, psi, h_raise=False, e_raise=True).items():
            add_into(out, k, v)
        return out

    def mu_plus_minus(self, x: dict, psi: dict) -> dict:
        """sqrt2 (h mult tensor e^sharp contraction): grade r -> r+1."""
        return scale(self._component(x, psi, h_raise=True, e_raise=False), SQRT2)

    def mu_minus_plus(self, x: dict, psi: dict) -> dict:
        """sqrt2 (h^sharp circ-contraction tensor e wedge_circ): r -> r-1."""
        return scale(self._component(x, psi, h_raise=False, e_raise=True), SQRT2)

    def mu_plus_plus(self, x: dict, psi: dict) -> dict:
        """sqrt2 (h mult tensor e wedge_circ): bigrade (p, q) -> (p+1, q+1)."""
        return scale(self._component(x, psi, h_raise=True, e_raise=True), SQRT2)

    def mu_minus_minus(self, x: dict, psi: dict) -> dict:
        """sqrt2 (h^sharp circ-contraction tensor e^sharp contraction)."""
        return scale(self._component(x, psi, h_raise=False, e_raise=False), SQRT2)

    def mu(self, x: dict, psi: dict) -> dict:
        """Full Clifford multiplication: mu_plus_minus + mu_minus_plus."""
        return scale(self._clifford(x, psi), SQRT2)

    @functools.cache
    def _grade_blocks(self) -> list:
        """(flat index of its first key, dim Lambda^(n-r)_prim E) per grade r."""
        blocks, start = [], 0
        for r in range(self.n + 1):
            edim = primitive_space(self.E, self.n - r).dim
            blocks.append((start, edim))
            start += (r + 1) * edim
        return blocks

    @functools.cache
    def clifford_basis_matrix(self, t) -> dict:
        """M of the tangent basis vector t = (a, i) over the flat spinor basis.

        Grade r is Sym^r H tensor Lambda^(n-r)_prim E with the H monomial
        as the outer index, so each component of M(t) is a Kronecker
        product of the cached H and E ladders, placed at the grade offsets:
        h_a mult tensor e_i^sharp contraction from grade r to r+1, and
        h_a^sharp circ-contraction tensor e_i wedge_circ from r to r-1.
        Off the ladders a factor is the zero matrix, so no block is placed.
        Built on first use and shared by equal spaces, so callers must not
        modify it; `_clifford` is the elementwise reference.
        """
        a, i = t
        hops, eops = sym_ops(self.H), self.eops
        grades = self._grade_blocks()
        out: dict = {}
        for r, (start, edim) in enumerate(grades):
            q = self.n - r
            blocks = ((hops.mul(r, a), eops.contract_sharp(q, i), r + 1),
                      (hops.contract_sharp(r, a), eops.wedge(q, i), r - 1))
            for hmat, emat, r2 in blocks:
                if hmat and emat:
                    start2, edim2 = grades[r2]
                    sparsemat.kron_into(out, hmat, emat, (edim2, edim),
                                        (start2, start))
        return out

    @functools.cache
    def scaled_clifford(self) -> tuple[int, dict]:
        """(s, {t: s M(t)}) over the tangent basis, with int entries.

        s is the lcm of the basis matrices' denominators.  Cached per
        space; the copies are shared, so callers must not modify them.
        """
        return sparsemat.int_copies({t: self.clifford_basis_matrix(t)
                                     for t in self.tangent_basis()})

    def clifford_matrix(self, x: dict) -> dict:
        """M(x) with mu(x) = sqrt2 M(x); rational entries for rational x."""
        return sparsemat.madd(*(
            sparsemat.mscale(self.clifford_basis_matrix(t), c)
            for t, c in x.items()))

    def mu_matrix(self, x: dict) -> dict:
        """Matrix of mu(x) = sqrt2 M(x) over the flat spinor basis."""
        return sparsemat.mscale(self.clifford_matrix(x), SQRT2)

    # -- twisted Hermitian form -----------------------------------------

    def hermitian(self, psi1: dict, psi2: dict):
        """(1/p!) sigma_H(A1, J A2) sigma_E(w1, J w2), summed over bigrades."""
        total = Scalar(0)
        for (p, q, hm, col), c1 in psi1.items():
            for (p2, q2, hm2, col2), c2 in psi2.items():
                if (p, q) != (p2, q2):
                    continue
                gh = sym_gram(self.H, p)[hm][hm2]
                ge = primitive_gram(self.E, q)[col][col2]
                if gh and ge:
                    total = total + Scalar.coerce(c1) \
                        * Scalar.coerce(c2).conjugate() * gh * ge \
                        * Fraction(1, factorial(p))
        return total

    def hermitian_gram(self) -> dict:
        """h(e_k1, e_k2) over the flat basis, column-major and rational.

        No two grades pair; `hermitian` is the elementwise reference.
        """
        cols, start = {}, 0
        for r in range(self.n + 1):
            block = self.grade_basis(r)
            gh, ge = sym_gram(self.H, r), primitive_gram(self.E, self.n - r)
            for k2, (_, _, hm2, c2) in enumerate(block, start):
                cols[k2] = {k1: gh[hm1][hm2] * ge[c1][c2] / factorial(r)
                            for k1, (_, _, hm1, c1) in enumerate(block, start)
                            if gh[hm1][hm2] and ge[c1][c2]}
            start += len(block)
        return cols

    @functools.cache
    def scaled_hermitian_gram(self) -> tuple[int, dict]:
        """(s, s G) for the Gram G of `hermitian_gram`, with int entries.

        s is the lcm of G's denominators; cached per space and shared.
        """
        s, (gram,) = sparsemat.int_copies([self.hermitian_gram()])
        return s, gram

    def bigrade_basis(self, p: int, q: int) -> list:
        """Basis keys of Sym^p H tensor Lambda^q_prim E (any bigrade)."""
        if p < 0 or not 0 <= q <= self.n:
            return []
        prim = primitive_space(self.E, q)
        return [(p, q, hm, c) for hm in SymPower(self.H, p).basis
                for c in range(prim.dim)]

    # -- two-forms, Casimir, Kraines -------------------------------------

    def sym2h_derivation(self, pair: tuple, hm: tuple) -> dict:
        """Derivation action of h_pair[0] h_pair[1] in Sym^2 H on a monomial.

        The elementwise reference for `SymOps.derivation`, the matrices
        that `casimir_matrix` and the Weitzenboeck families compose.
        """
        i, j = pair
        out: dict = {}
        for pos, a in enumerate(hm):
            # (h_i h_j)(h_a) = sigma(h_i, h_a) h_j + sigma(h_j, h_a) h_i
            for src, tgt in ((i, j), (j, i)):
                s = self.H.sigma_basis(src, a)
                if s:
                    add_into(out, sym_insert(tgt, hm[:pos] + hm[pos + 1:]), s)
        return out

    def two_form_matrix(self, pair: tuple) -> dict:
        """Brute-force Clifford action of (h_i h_j) tensor sigma_E on spinors.

        The symmetric product is realized inside Lambda^2 TM as the
        two-vector sum_k (h_i tensor de_k^flat) wedge (h_j tensor e_k), and
        mu(X wedge Y) = mu(X) mu(Y) + g(X, Y).  With mu = sqrt2 M each term
        is 2 sg M(h_i tensor e_kf) M(h_j tensor e_k) + g.  The products are
        taken in int arithmetic on the scaled copies s M of
        `scaled_clifford`, and the sum is divided by s^2 once, so the
        result is rational.
        """
        i, j = pair
        s, mats = self.scaled_clifford()
        total: dict = {}
        g = Fraction(0)
        for k in range(self.E.dim):
            kf, sg = self.E.flat_basis(k)
            prod = sparsemat.compose(mats[(i, kf)], mats[(j, k)])
            sparsemat.madd_into(total, prod, 2 * sg)
            g += self.metric({(i, kf): Fraction(sg)}, {(j, k): Fraction(1)})
        if g:
            sparsemat.madd_into(total, sparsemat.identity(self.dim, s * s * g))
        return sparsemat.mscale(total, Fraction(1, s * s))

    def casimir_matrix(self, p: int) -> dict:
        """sum_k der(A_k) der(B_k) over a sigma-dual basis of Sym^2 H.

        The A_k and B_k are monomials of Sym^2 H, so each monomial's
        derivation is built once and read in both roles.
        """
        pairs = sym2h_dual_pairs(self.H)
        der = {a: sym_ops(self.H).derivation(p, *a) for a, _ in pairs}
        total: dict = {}
        for a, bs in pairs:
            for b, coeff in bs:
                sparsemat.compose_into(total, der[a],
                                       sparsemat.mscale(der[b], coeff))
        return total


@functools.cache
def sym2h_dual_pairs(H: SymplecticSpace) -> list:
    """Pairs (A_k, B_k) of Sym^2 H basis elements with sigma(A_k, B_l) = delta.

    The Gram of Sym^2 H is built and inverted once per space.
    """
    basis = SymPower(H, 2).basis
    gram = {j: {i: v for i, a in enumerate(basis) if (v := gram_perm(H, a, b))}
            for j, b in enumerate(basis)}
    inv = linalg.invert(gram, len(basis))
    return [(a, [(basis[l], v) for l, v in sorted(inv[k].items())])
            for k, a in enumerate(basis)]


@functools.cache
def sym_gram(space: SymplecticSpace, p: int) -> dict:
    """sigma(m1, J m2) on Sym^p, keyed {m1: {m2: value}} by monomial."""
    basis = SymPower(space, p).basis
    jbasis = [j_sym(space, {m: Fraction(1)}) for m in basis]
    return {m1: {m2: extended_sigma_sym(space, {m1: Fraction(1)}, jb)
                 for m2, jb in zip(basis, jbasis)} for m1 in basis}


@functools.cache
def primitive_gram(space: SymplecticSpace, q: int) -> list:
    """sigma(b1, J b2) on the primitive basis of Lambda^q, indexed by column.

    The table is B^T A J B: B is the primitive basis (`PrimitiveSpace.matrix`),
    J the matrix of `j_ext` on the monomials of Lambda^q, and A sigma on the
    monomials.  sigma(e_k, e_l) vanishes unless l = k +- n, so each column
    of A holds one entry, the Gram determinant with the monomial's sigma
    partner.  The elementwise `extended_sigma_ext(b1, j_ext(b2))` is the
    reference the tests compare with.
    """
    prim = primitive_space(space, q)
    amb = prim.ambient
    jmat = sparsemat.from_images(
        (j_ext(space, {m: Fraction(1)}) for m in amb.basis), amb.coords)
    sigma = {}
    for k, m in enumerate(amb.basis):
        partner = tuple(sorted((x + space.half_dim) % space.dim for x in m))
        sigma[k] = {amb.index[partner]: gram_det(space, partner, m)}
    gram = sparsemat.compose(sparsemat.transpose(prim.matrix), sparsemat.compose(
        sigma, sparsemat.compose(jmat, prim.matrix)))
    return [[gram.get(c2, {}).get(c1, _ZERO) for c2 in range(prim.dim)]
            for c1 in range(prim.dim)]


def kraines_eigenvalue(n: int, r: int) -> Fraction:
    return Fraction(6 * n - 4 * r * (r + 2))
