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
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

from . import linalg, sparsemat
from .lefschetz import primitive_ops, primitive_space
from .powers import (
    extended_sigma_ext,
    extended_sigma_sym,
    gram_perm,
    j_ext,
    j_sym,
    sym_contract_circ,
    sym_insert,
)
from .scalar import SQRT2, Scalar
from .symplectic import SymplecticSpace, add_into, scale, sharp


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
        self._flat = None
        self._clifford_basis = {}   # tangent basis key -> M of that vector

    # -- bases --------------------------------------------------------

    def sym_basis(self, p: int) -> list:
        return list(combinations_with_replacement(range(2), p))

    def grade_basis(self, r: int) -> list:
        """Basis keys (r, n-r, h_mono, col) of the grade-r summand."""
        if not 0 <= r <= self.n:
            return []
        q = self.n - r
        prim = primitive_space(self.E, q)
        return [(r, q, hm, c)
                for hm in self.sym_basis(r) for c in range(prim.dim)]

    def grade_dim(self, r: int) -> int:
        q = self.n - r
        return (r + 1) * primitive_space(self.E, q).dim

    def flat_basis(self) -> list:
        if self._flat is None:
            flat = []
            for r in range(self.n + 1):
                flat.extend(self.grade_basis(r))
            self._flat = flat
        return self._flat

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

    def clifford_basis_matrix(self, t) -> dict:
        """M of the tangent basis vector t over the flat spinor basis.

        Built on first use and cached on the space; the returned matrix is
        shared, so callers must not modify it.
        """
        m = self._clifford_basis.get(t)
        if m is None:
            flat = self.flat_basis()
            index = {k: i for i, k in enumerate(flat)}
            x = {t: Fraction(1)}
            m = {}
            for ci, key in enumerate(flat):
                img = self._clifford(x, {key: Fraction(1)})
                if img:
                    m[ci] = {index[k]: v for k, v in img.items()}
            self._clifford_basis[t] = m
        return m

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

    def bigrade_basis(self, p: int, q: int) -> list:
        """Basis keys of Sym^p H tensor Lambda^q_prim E (any bigrade)."""
        if p < 0 or not 0 <= q <= self.n:
            return []
        prim = primitive_space(self.E, q)
        return [(p, q, hm, c) for hm in self.sym_basis(p)
                for c in range(prim.dim)]

    # -- two-forms, Casimir, Kraines -------------------------------------

    def sym2h_derivation(self, pair: tuple, hm: tuple) -> dict:
        """Derivation action of h_pair[0] h_pair[1] in Sym^2 H on a monomial."""
        i, j = pair
        out: dict = {}
        for pos, a in enumerate(hm):
            # (h_i h_j)(h_a) = sigma(h_i, h_a) h_j + sigma(h_j, h_a) h_i
            for src, tgt in ((i, j), (j, i)):
                s = self.H.sigma_basis(src, a)
                if s:
                    add_into(out, sym_insert(tgt, hm[:pos] + hm[pos + 1:]), s)
        return out

    def derivation_matrix(self, pair: tuple, p: int) -> dict:
        basis = self.sym_basis(p)
        index = {m: k for k, m in enumerate(basis)}
        cols = {}
        for ci, hm in enumerate(basis):
            img = self.sym2h_derivation(pair, hm)
            if img:
                cols[ci] = {index[m]: v for m, v in img.items()}
        return cols

    def two_form_matrix(self, pair: tuple) -> dict:
        """Brute-force Clifford action of (h_i h_j) tensor sigma_E on spinors.

        The symmetric product is realized inside Lambda^2 TM as the
        two-vector sum_k (h_i tensor de_k^flat) wedge (h_j tensor e_k), and
        mu(X wedge Y) = mu(X) mu(Y) + g(X, Y).  With mu = sqrt2 M each term
        is 2 sg M(h_i tensor e_kf) M(h_j tensor e_k) + g, built from the
        cached basis matrices and rational throughout.
        """
        i, j = pair
        total: dict = {}
        g = Fraction(0)
        for k in range(self.E.dim):
            kf, sg = self.E.flat_basis(k)
            prod = sparsemat.compose(self.clifford_basis_matrix((i, kf)),
                                     self.clifford_basis_matrix((j, k)))
            total = sparsemat.madd(total, sparsemat.mscale(prod, 2 * sg))
            g += self.metric({(i, kf): Fraction(sg)}, {(j, k): Fraction(1)})
        if g:
            total = sparsemat.madd(total, sparsemat.identity(self.dim, g))
        return total

    def sym2h_dual_pairs(self) -> list:
        """Pairs (A_k, B_k) of Sym^2 H basis elements with sigma(A_k, B_l) = delta."""
        basis = list(combinations_with_replacement(range(2), 2))
        gram = [[gram_perm(self.H, a, b) for b in basis] for a in basis]
        inv = linalg.invert(gram)
        duals = []
        for k, a in enumerate(basis):
            duals.append((a, [(basis[l], inv[l][k]) for l in range(len(basis))
                              if inv[l][k]]))
        return duals

    def casimir_matrix(self, p: int) -> dict:
        """sum_k der(A_k) der(B_k) over a sigma-dual basis of Sym^2 H."""
        total: dict = {}
        for a, bs in self.sym2h_dual_pairs():
            da = self.derivation_matrix(a, p)
            for b, coeff in bs:
                db = sparsemat.mscale(self.derivation_matrix(b, p), coeff)
                total = sparsemat.madd(total, sparsemat.compose(da, db))
        return total


@functools.cache
def sym_gram(space: SymplecticSpace, p: int) -> dict:
    """sigma(m1, J m2) on Sym^p, keyed {m1: {m2: value}} by monomial."""
    basis = list(combinations_with_replacement(range(space.dim), p))
    jbasis = [j_sym(space, {m: Fraction(1)}) for m in basis]
    return {m1: {m2: extended_sigma_sym(space, {m1: Fraction(1)}, jb)
                 for m2, jb in zip(basis, jbasis)} for m1 in basis}


@functools.cache
def primitive_gram(space: SymplecticSpace, q: int) -> list:
    """sigma(b1, J b2) on the primitive basis of Lambda^q, indexed by column."""
    prim = primitive_space(space, q)
    jbasis = [j_ext(space, b) for b in prim.basis]
    return [[extended_sigma_ext(space, b1, jb) for jb in jbasis]
            for b1 in prim.basis]


def kraines_eigenvalue(n: int, r: int) -> Fraction:
    return Fraction(6 * n - 4 * r * (r + 2))
