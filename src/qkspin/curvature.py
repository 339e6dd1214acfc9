"""Curvature-tensor spaces, the Bianchi identity, and the model tensors.

Everything here is rational: elements of Sym^2 Lambda^2 V* are sparse dicts
over multiset pairs of exterior 2-form keys, with Fraction coefficients.

Conventions for the block decomposition of Sym^2 Lambda^2 (H* tensor E*):

  * a 2-form on V = H tensor E splits as
        (a tensor i) wedge (b tensor j)
          -> 1/2 [ a.b tensor i^j  (+)  a^b tensor i.j ]
  * Sym^2 of a tensor product splits with the analogous 1/2,
  * Sym^2 tensor Lambda^2 -> Lambda^2 Sym^2 (+) Lambda^2 Lambda^2 splits
    with 1/2 and is written once, in `split_sym_ext`, which serves both
    the maps i_Sym / i_Lambda and the mixed block of the Bianchi system,
  * Sym^2 Sym^2 -> Curv (+) Sym^4 and Sym^2 Lambda^2 -> Curv (+) Lambda^4
    use the 1/3 maps, whose explicit inverses are verified in the tests.

The five Bianchi equations compare projections of the same element arriving
through different blocks, so these normalizations matter; the subspace
equality with ker(m) is the oracle that validates them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

from . import linalg, sparsemat
from .powers import ExtPower, sort_sign
from .symplectic import SymplecticSpace, add_into, scale


# -- key algebra ----------------------------------------------------------

def ekey(x, y):
    """Ordered exterior pair; (sign, key) or None on collision."""
    if x == y:
        return None
    return (1, (x, y)) if x < y else (-1, (y, x))


def skey(x, y):
    """Unordered symmetric pair."""
    return (x, y) if x <= y else (y, x)


def ext2_basis(nlabels: int) -> list:
    return list(combinations(range(nlabels), 2))


def sym2_basis(nlabels: int) -> list:
    return list(combinations_with_replacement(range(nlabels), 2))


def s2l2_basis(N: int) -> list:
    """Basis keys of Sym^2 Lambda^2 on an N-dimensional space."""
    l2 = ext2_basis(N)
    return [(F, G) for a, F in enumerate(l2) for G in l2[a:]]


def dim_s2l2(N: int) -> int:
    m = comb(N, 2)
    return m * (m + 1) // 2


# -- covector-level constructions ----------------------------------------

def wedge_cov(alpha: dict, beta: dict) -> dict:
    """Exterior product of two covectors as a Lambda^2 element."""
    out = {}
    for i, x in alpha.items():
        for j, y in beta.items():
            e = ekey(i, j)
            if e:
                sg, key = e
                add_into(out, key, sg * x * y)
    return out


def sym_prod_2forms(x: dict, y: dict) -> dict:
    """Symmetric product of two Lambda^2 elements inside Sym^2 Lambda^2."""
    out = {}
    for F, cf in x.items():
        for G, cg in y.items():
            add_into(out, skey(F, G), cf * cg)
    return out


def curv_generator(alpha: dict, beta: dict, gamma: dict, delta: dict) -> dict:
    """(alpha.beta)x(gamma.delta) = (a^c)(b^d) + (a^d)(b^c)."""
    out = sym_prod_2forms(wedge_cov(alpha, gamma), wedge_cov(beta, delta))
    for k, v in sym_prod_2forms(wedge_cov(alpha, delta),
                                wedge_cov(beta, gamma)).items():
        add_into(out, k, v)
    return out


def basis_cov(i: int) -> dict:
    return {i: Fraction(1)}


# -- multiplication and comultiplication ----------------------------------

def mult_m(elem: dict) -> dict:
    """Sym^2 Lambda^2 -> Lambda^4, (F)(G) -> F wedge G."""
    out = {}
    for (F, G), c in elem.items():
        merged = sort_sign(F + G)
        if merged:
            sg, key = merged
            add_into(out, key, sg * c)
    return out


def comult_delta(elem: dict) -> dict:
    """Lambda^4 -> Sym^2 Lambda^2, the three-term comultiplication."""
    out = {}
    for (i, j, k, l), c in elem.items():
        add_into(out, skey((i, j), (k, l)), c)
        add_into(out, skey((j, k), (i, l)), c)
        add_into(out, skey((i, k), (j, l)), -c)
    return out


# -- the two isomorphisms of the curvature splitting ----------------------

def s2l2_curv_part(elem: dict) -> dict:
    """Curv component of Sym^2 Lambda^2, valued in the same ambient space.

    (a^b)(c^d) -> 1/3 [ 2 (a^b)(c^d) + (a^c)(b^d) - (a^d)(b^c) ].
    """
    out = {}
    third = Fraction(1, 3)
    for ((a, b), (c, d)), coeff in elem.items():
        add_into(out, skey((a, b), (c, d)), 2 * third * coeff)
        for (p, q, sg) in (((a, c), (b, d), 1), ((a, d), (b, c), -1)):
            e1 = ekey(*p)
            e2 = ekey(*q)
            if e1 and e2:
                s1, k1 = e1
                s2, k2 = e2
                add_into(out, skey(k1, k2), sg * s1 * s2 * third * coeff)
    return out


def s2l2_lambda4_part(elem: dict) -> dict:
    """Lambda^4 component: (a^b)(c^d) -> 1/3 a^b^c^d."""
    return scale(mult_m(elem), Fraction(1, 3))


def s2s2_curv_part(elem: dict) -> dict:
    """Curv component of Sym^2 Sym^2, valued in Sym^2 Lambda^2.

    (a.b)(c.d) -> 1/3 [ (a^c)(b^d) + (a^d)(b^c) ].
    """
    out = {}
    third = Fraction(1, 3)
    for ((a, b), (c, d)), coeff in elem.items():
        for first, second in (((a, c), (b, d)), ((a, d), (b, c))):
            e1, e2 = ekey(*first), ekey(*second)
            if e1 and e2:
                s1, k1 = e1
                s2, k2 = e2
                add_into(out, skey(k1, k2), s1 * s2 * third * coeff)
    return out


def s2s2_sym4_part(elem: dict) -> dict:
    """Sym^4 component: (a.b)(c.d) -> 1/3 abcd as a sorted multiset."""
    out = {}
    for ((a, b), (c, d)), coeff in elem.items():
        add_into(out, tuple(sorted((a, b, c, d))), Fraction(1, 3) * coeff)
    return out


def delta_sym(elem: dict) -> dict:
    """Sym^4 -> Sym^2 Sym^2: abcd -> (ab)(cd) + (ac)(db) + (ad)(bc)."""
    out = {}
    for (a, b, c, d), coeff in elem.items():
        add_into(out, skey(skey(a, b), skey(c, d)), coeff)
        add_into(out, skey(skey(a, c), skey(d, b)), coeff)
        add_into(out, skey(skey(a, d), skey(b, c)), coeff)
    return out


def cr_star(elem: dict) -> dict:
    """Sym^2 Lambda^2 -> Sym^2 Sym^2: (a^b)(c^d) -> (a.c)(b.d) - (a.d)(b.c)."""
    out = {}
    for ((a, b), (c, d)), coeff in elem.items():
        add_into(out, skey(skey(a, c), skey(b, d)), coeff)
        add_into(out, skey(skey(a, d), skey(b, c)), -coeff)
    return out


# -- rank computations: Curv dimension and the injectivity lemma ----------

def curv_span_rank(N: int) -> int:
    """Rank of the span of all basis generators (alpha.beta)x(gamma.delta)."""
    basis = {k: idx for idx, k in enumerate(s2l2_basis(N))}
    ech = linalg.Echelon()
    for a in range(N):
        for b in range(a, N):
            for c in range(N):
                for d in range(c, N):
                    gen = curv_generator(basis_cov(a), basis_cov(b),
                                         basis_cov(c), basis_cov(d))
                    if gen:
                        ech.add({basis[k]: v for k, v in gen.items()})
    return ech.rank


def m_rows(basis: list) -> list:
    """Sparse rows of m over the given Sym^2 Lambda^2 keys, by Lambda^4 key."""
    rows = sparsemat.transpose({idx: mult_m({key: Fraction(1)})
                                for idx, key in enumerate(basis)})
    return [rows[t] for t in sorted(rows)]


def ker_m_rank(N: int) -> int:
    """dim ker(m) inside Sym^2 Lambda^2 by exact elimination."""
    basis = s2l2_basis(N)
    return len(basis) - linalg.rank(m_rows(basis))


def generators_span_ker_m(N: int) -> bool:
    """ker(m) equals the span of all basis generators, by double inclusion.

    Every basis generator lies in ker(m) (checked quadruple by quadruple),
    and the two subspaces have equal dimension.
    """
    for a in range(N):
        for b in range(a, N):
            for c in range(N):
                for d in range(c, N):
                    gen = curv_generator(basis_cov(a), basis_cov(b),
                                         basis_cov(c), basis_cov(d))
                    if mult_m(gen):
                        return False
    return curv_span_rank(N) == ker_m_rank(N)


def split_sym_ext(a, b, c, d) -> tuple[list, list]:
    """Split (a.b) tensor (c^d) into Lambda^2 Sym^2 (+) Lambda^2 Lambda^2.

    (a.b) tensor (c^d) -> 1/2 [ (a.c)^(b.d) + (b.c)^(a.d) ]
                      (+) 1/2 [ (a^c)^(b^d) + (b^c)^(a^d) ].
    Returns (sym_terms, ext_terms), each a list of (key, coeff) with keys
    as ordered pairs of symmetric resp. exterior pair keys.
    """
    half = Fraction(1, 2)
    sym_terms, ext_terms = [], []
    for x, y in ((a, b), (b, a)):
        e = ekey(skey(x, c), skey(y, d))
        if e:
            sg, key = e
            sym_terms.append((key, half * sg))
        e1, e2 = ekey(x, c), ekey(y, d)
        if e1 and e2:
            s1, k1 = e1
            s2, k2 = e2
            e = ekey(k1, k2)
            if e:
                sg, key = e
                ext_terms.append((key, half * sg * s1 * s2))
    return sym_terms, ext_terms


def i_sym_matrix(space: SymplecticSpace) -> list:
    """Columns of i_Sym: Sym^2 V* -> Lambda^2 Sym^2 V* (rows as dicts)."""
    return _i_matrix(space, 0)


def i_lambda_matrix(space: SymplecticSpace) -> list:
    """Columns of i_Lambda: Sym^2 V* -> Lambda^2 Lambda^2 V*."""
    return _i_matrix(space, 1)


def _i_matrix(space: SymplecticSpace, part: int) -> list:
    """Column a.b is part `part` of split_sym_ext of (a.b) tensor sigma.

    sigma = sum_g 1/2 sg dg ^ dg^sharp; part 0 is the Lambda^2 Sym^2 image,
    part 1 the Lambda^2 Lambda^2 image.
    """
    N = space.dim
    sigma_terms = []
    for i in range(N):
        j, sg = space.sharp_basis(i)
        sigma_terms.append((i, j, Fraction(sg, 2)))
    cols = []
    for (a, b) in sym2_basis(N):
        col: dict = {}
        for (g, d, w) in sigma_terms:
            for key, c in split_sym_ext(a, b, g, d)[part]:
                add_into(col, key, w * c)
        cols.append(col)
    return cols


def injectivity_report(half_dim: int) -> dict:
    """Ranks of i_Sym and i_Lambda on a symplectic space of dim 2*half_dim."""
    space = SymplecticSpace(half_dim)
    n_sym2 = len(sym2_basis(space.dim))
    rank_sym = _rank_of_columns(i_sym_matrix(space))
    rank_lam = _rank_of_columns(i_lambda_matrix(space))
    return {
        "dim_sym2": n_sym2,
        "rank_i_sym": rank_sym,
        "rank_i_lambda": rank_lam,
        "i_sym_injective": rank_sym == n_sym2,
        "i_lambda_injective": rank_lam == n_sym2,
    }


def _rank_of_columns(cols) -> int:
    return linalg.rank(sparsemat.transpose(dict(enumerate(cols))).values())


# -- the Bianchi block chain on V = H tensor E ----------------------------

class BianchiSystem:
    """Projection chain for Sym^2 Lambda^2 (H* tensor E*) and equations I-III'.

    H has dimension 2 and E dimension 2n.  Flat covector indices on V are
    a * 2n + i.  Doubled components are labelled by the block they arrive
    through: 'H' (Sym^2 of Sym^2 H tensor Lambda^2 E), 'E' (Sym^2 of
    Lambda^2 H tensor Sym^2 E) and 'M' (the mixed product block).
    """

    MAX_N = 2   # the largest n the system is built for

    def __init__(self, n: int):
        if n > self.MAX_N:
            raise ValueError(f"Bianchi system limited to n <= {self.MAX_N} "
                             "(dimension grows too fast beyond)")
        self.n = n
        self.N = 2 * n
        self.V = 4 * n
        self.basis = s2l2_basis(self.V)
        self.index = {k: i for i, k in enumerate(self.basis)}

    def split_v(self, v: int) -> tuple[int, int]:
        return divmod(v, self.N)

    def _split_2form(self, F: tuple):
        """F = (v1, v2) -> (H-part term, E-part term), each possibly None.

        H-part: 1/2 (a.b) tensor (i^j);  E-part: 1/2 (a^b) tensor (i.j).
        Returns ((sym2H key, ext2E key, coeff) | None,
                 (ext2H key, sym2E key, coeff) | None).
        """
        (a, i), (b, j) = self.split_v(F[0]), self.split_v(F[1])
        half = Fraction(1, 2)
        h_part = None
        eij = ekey(i, j)
        if eij:
            sg, kij = eij
            h_part = (skey(a, b), kij, half * sg)
        e_part = None
        eab = ekey(a, b)
        if eab:
            sg, kab = eab
            e_part = (kab, skey(i, j), half * sg)
        return h_part, e_part

    def column_components(self, key) -> dict:
        """All labelled component contributions of one basis element."""
        F, G = key
        fh, fe = self._split_2form(F)
        gh, ge = self._split_2form(G)
        half = Fraction(1, 2)
        out: dict = {}

        def put(label, ckey, coeff):
            if coeff:
                add_into(out.setdefault(label, {}), ckey, coeff)

        # H block: (p1 (x) q1).(p2 (x) q2) -> 1/2 p1p2 (x) q1q2 (+) 1/2 p1^p2 (x) q1^q2
        if fh and gh:
            p1, q1, c1 = fh
            p2, q2, c2 = gh
            c = c1 * c2
            put("s2s2H_s2l2E", (skey(p1, p2), skey(q1, q2)), half * c)
            e1, e2 = ekey(p1, p2), ekey(q1, q2)
            if e1 and e2:
                s1, k1 = e1
                s2, k2 = e2
                put("l2s2H_l2l2E_H", (k1, k2), half * c * s1 * s2)
        # E block
        if fe and ge:
            u1, v1, c1 = fe
            u2, v2, c2 = ge
            c = c1 * c2
            put("s2l2H_s2s2E", (skey(u1, u2), skey(v1, v2)), half * c)
            e1, e2 = ekey(u1, u2), ekey(v1, v2)
            if e1 and e2:
                s1, k1 = e1
                s2, k2 = e2
                put("l2l2H_l2s2E_E", (k1, k2), half * c * s1 * s2)
        # M block: F_H (x) G_E + G_H (x) F_E
        for (hterm, eterm) in ((fh, ge), (gh, fe)):
            if not (hterm and eterm):
                continue
            p, q, cp = hterm          # p in Sym2 H, q in Ext2 E
            u, v, cu = eterm          # u in Ext2 H, v in Sym2 E
            c = cp * cu
            h_sym, h_lam = split_sym_ext(*p, *u)
            # E side: reorder v (x) q into Sym2 (x) Lambda2 before splitting
            e_sym, e_lam = split_sym_ext(*v, *q)
            for kh, ch in h_sym:
                for ke, ce in e_sym:
                    put("l2s2H_l2s2E", (kh, ke), c * ch * ce)
                for ke, ce in e_lam:
                    put("l2s2H_l2l2E_M", (kh, ke), c * ch * ce)
            for kh, ch in h_lam:
                for ke, ce in e_sym:
                    put("l2l2H_l2s2E_M", (kh, ke), c * ch * ce)
                for ke, ce in e_lam:
                    put("l2l2H_l2l2E", (kh, ke), c * ch * ce)
        return out

    def equation_rows(self) -> dict:
        """Sparse rows of equations I, II, II', III, III' over the basis."""
        comp_rows: dict = {}

        def accumulate(label, ckey, col_idx, coeff):
            comp_rows.setdefault(label, {}).setdefault(ckey, {})
            add_into(comp_rows[label][ckey], col_idx, coeff)

        for idx, key in enumerate(self.basis):
            comps = self.column_components(key)
            # equation I needs the Curv (x) Curv parts of both doubled blocks
            for (hk, ek), c in comps.get("s2s2H_s2l2E", {}).items():
                curv_h = s2s2_curv_part({hk: Fraction(1)})
                curv_e = s2l2_curv_part({ek: Fraction(1)})
                for kh, vh in curv_h.items():
                    for ke, ve in curv_e.items():
                        accumulate("I", (kh, ke), idx, c * vh * ve)
                # equation II: Sym^4 H (x) Lambda^4 E
                s4 = s2s2_sym4_part({hk: Fraction(1)})
                l4 = s2l2_lambda4_part({ek: Fraction(1)})
                for k4, v4 in s4.items():
                    for ke4, ve4 in l4.items():
                        accumulate("II", (k4, ke4), idx, c * v4 * ve4)
            for (hk, ek), c in comps.get("s2l2H_s2s2E", {}).items():
                curv_h = s2l2_curv_part({hk: Fraction(1)})
                curv_e = s2s2_curv_part({ek: Fraction(1)})
                for kh, vh in curv_h.items():
                    for ke, ve in curv_e.items():
                        accumulate("I", (kh, ke), idx, -c * vh * ve)
                # equation II': Lambda^4 H (x) Sym^4 E
                l4 = s2l2_lambda4_part({hk: Fraction(1)})
                s4 = s2s2_sym4_part({ek: Fraction(1)})
                for k4, v4 in l4.items():
                    for ke4, ve4 in s4.items():
                        accumulate("IIp", (k4, ke4), idx, c * v4 * ve4)
            for ckey, c in comps.get("l2s2H_l2l2E_H", {}).items():
                accumulate("III", ckey, idx, c)
            for ckey, c in comps.get("l2s2H_l2l2E_M", {}).items():
                accumulate("III", ckey, idx, -c)
            for ckey, c in comps.get("l2l2H_l2s2E_E", {}).items():
                accumulate("IIIp", ckey, idx, c)
            for ckey, c in comps.get("l2l2H_l2s2E_M", {}).items():
                accumulate("IIIp", ckey, idx, -c)
        return comp_rows

    def constraint_rows(self) -> list:
        rows = []
        for label, per_key in self.equation_rows().items():
            for ckey in sorted(per_key):
                row = per_key[ckey]
                if row:
                    rows.append(row)
        return rows

    def ker_m_basis(self) -> list:
        return linalg.kernel_basis(m_rows(self.basis), len(self.basis))

    def solution_equals_ker_m(self) -> dict:
        """Subspace equality by double inclusion: dim count + containment."""
        constraints = self.constraint_rows()
        kernel = self.ker_m_basis()
        sol_dim = len(self.basis) - linalg.rank(constraints)
        contained = True
        witness = None
        for vec in kernel:
            for row in constraints:
                total = Fraction(0)
                for col, v in row.items():
                    x = vec.get(col)
                    if x:
                        total += v * x
                if total:
                    contained = False
                    witness = (vec, row)
                    break
            if not contained:
                break
        return {
            "dim_ker_m": len(kernel),
            "dim_solutions": sol_dim,
            "kernel_satisfies_equations": contained,
            "equal": contained and sol_dim == len(kernel),
            "witness": witness,
        }


# -- model curvature tensors ---------------------------------------------

class ModelCurvature:
    """The End(H tensor E)-valued 2-forms R^H, R^E, R^hyper on basis pairs.

    R^hyper is parametrized by a symmetric 4-form on E, stored as a dict
    from sorted index 4-multisets to Fractions.
    """

    def __init__(self, n: int, rform: dict | None = None):
        self.n = n
        self.H = SymplecticSpace(1, name="h")
        self.E = SymplecticSpace(n, name="e")
        self.rform = rform or {}

    def rvalue(self, i, j, k, l) -> Fraction:
        return self.rform.get(tuple(sorted((i, j, k, l))), Fraction(0))

    def r_endo(self, i: int, j: int) -> dict:
        """e_k -> rform(e_i, e_j, e_k, .)^flat, as {in: {out: coeff}}."""
        endo: dict = {}
        for k in range(self.E.dim):
            img: dict = {}
            for l in range(self.E.dim):
                v = self.rvalue(i, j, k, l)
                if v:
                    t, sg = self.E.flat_basis(l)
                    add_into(img, t, sg * v)
            if img:
                endo[k] = img
        return endo

    def apply(self, kind: str, x: tuple, y: tuple) -> dict:
        """R^kind_{X,Y} for basis tangent vectors; {(a,i): {(b,j): coeff}}."""
        (a, i), (b, j) = x, y
        endo: dict = {}
        if kind == "H":
            s = self.E.sigma_basis(i, j)
            if not s:
                return {}
            for c in range(2):
                img_h = {}
                for src, tgt in ((a, b), (b, a)):
                    v = self.H.sigma_basis(src, c)
                    if v:
                        add_into(img_h, tgt, v)
                for k in range(self.E.dim):
                    col = {}
                    for hh, v in img_h.items():
                        add_into(col, (hh, k), s * v)
                    if col:
                        endo[(c, k)] = col
        elif kind == "E":
            s = self.H.sigma_basis(a, b)
            if not s:
                return {}
            for k in range(self.E.dim):
                img_e = {}
                for src, tgt in ((i, j), (j, i)):
                    v = self.E.sigma_basis(src, k)
                    if v:
                        add_into(img_e, tgt, v)
                for c in range(2):
                    col = {}
                    for ee, v in img_e.items():
                        add_into(col, (c, ee), s * v)
                    if col:
                        endo[(c, k)] = col
        elif kind == "hyper":
            s = self.H.sigma_basis(a, b)
            if not s:
                return {}
            rend = self.r_endo(i, j)
            for k, img_e in rend.items():
                for c in range(2):
                    endo[(c, k)] = {(c, ee): s * v for ee, v in img_e.items()}
        else:
            raise ValueError(f"unknown model tensor {kind!r}")
        return endo

    def tangent_basis(self) -> list:
        return [(a, i) for a in range(2) for i in range(self.E.dim)]

    def metric(self, x: tuple, y: tuple) -> Fraction:
        return self.H.sigma_basis(x[0], y[0]) * self.E.sigma_basis(x[1], y[1])

    def ricci(self, kind: str) -> dict:
        """Ric(X, Y) = tr(Z -> R_{Z,X} Y) on all basis pairs."""
        out: dict = {}
        basis = self.tangent_basis()
        for xx in basis:
            acc: dict = {}
            for zz in basis:
                endo = self.apply(kind, zz, xx)
                for yy, col in endo.items():
                    v = col.get(zz)
                    if v:
                        add_into(acc, yy, v)
            for yy, total in acc.items():
                out[(xx, yy)] = total
        return out

    def ricci_coefficient(self, kind: str) -> Fraction:
        """Assert Ric^kind = c sigma_H tensor sigma_E and return c."""
        ric = self.ricci(kind)
        basis = self.tangent_basis()
        coeff = None
        for xx in basis:
            for yy in basis:
                g = self.metric(xx, yy)
                v = ric.get((xx, yy), Fraction(0))
                if not g:
                    if v:
                        raise AssertionError(
                            f"Ric^{kind} not proportional to the metric at {xx},{yy}")
                    continue
                c = v / g
                if coeff is None:
                    coeff = c
                elif coeff != c:
                    raise AssertionError(
                        f"Ric^{kind} not proportional: {coeff} vs {c}")
        return Fraction(0) if coeff is None else coeff


def einstein_report(n: int, rform: dict) -> dict:
    """Ricci constants and the Einstein coefficient with formal kappa.

    For R = -kappa/(8n(n+2)) (R^H + R^E) + R^hyper the Ricci form is
    kappa/(4n) g exactly; the report carries the verified pieces.
    """
    model = ModelCurvature(n, rform)
    c_h = model.ricci_coefficient("H")
    c_e = model.ricci_coefficient("E")
    c_hyper = model.ricci_coefficient("hyper")
    einstein = Fraction(-(c_h + c_e), 8 * n * (n + 2))
    return {
        "ricci_H": c_h,                      # expected -3
        "ricci_E": c_e,                      # expected -(2n+1)
        "ricci_hyper": c_hyper,              # expected 0
        "einstein_coefficient": einstein,    # expected 1/(4n), times kappa
        "einstein_ok": einstein == Fraction(1, 4 * n),
    }


def sym4_extraction(model: ModelCurvature, kind: str,
                    h_quad: list, e_quad: tuple) -> Fraction:
    """Recover a symmetric 4-form value from a curvature tensor.

    h_quad: four H vectors as sparse dicts, e_quad: four E basis indices.
    The symmetrization over S4 divided by 24 sigma_H(h1,h2) sigma_H(h3,h4)
    is independent of the h-choice whenever the prefactor is nonzero.
    """
    from itertools import permutations as perms
    from .symplectic import sigma

    h1, h2, h3, h4 = h_quad
    pref = sigma(model.H, h1, h2) * sigma(model.H, h3, h4)
    if not pref:
        raise ValueError("vanishing sigma_H prefactor")
    total = Fraction(0)
    for tau in perms(range(4)):
        e = [e_quad[t] for t in tau]
        # < R_{h1 (x) e0', h2 (x) e1'} h3 (x) e2', h4 (x) e3' > with g-pairing
        for (a1, c1) in h1.items():
            for (a2, c2) in h2.items():
                endo = model.apply(kind, (a1, e[0]), (a2, e[1]))
                for (a3, c3) in h3.items():
                    col = endo.get((a3, e[2]))
                    if not col:
                        continue
                    for (b, k), v in col.items():
                        for (a4, c4) in h4.items():
                            g = model.H.sigma_basis(b, a4) * \
                                model.E.sigma_basis(k, e[3])
                            if g:
                                total += c1 * c2 * c3 * c4 * v * g
    return total / (24 * pref)


# -- Sym^4 triviality and the primitive-space operator identity -----------

def derivation_ext_matrix(space: SymplecticSpace, endo: dict, q: int) -> dict:
    """Derivation extension of an E-endomorphism to Lambda^q, column-major."""
    amb = ExtPower(space, q)
    cols = {}
    for ci, mono in enumerate(amb.basis):
        col: dict = {}
        for pos in range(q):
            img = endo.get(mono[pos])
            if not img:
                continue
            rest = mono[:pos] + mono[pos + 1:]
            for tgt, v in img.items():
                res = sort_sign(rest[:pos] + (tgt,) + rest[pos:])
                if res:
                    sg, key = res
                    add_into(col, amb.index[key], sg * v)
        if col:
            cols[ci] = col
    return cols


def sym2_endo(space: SymplecticSpace, i: int, j: int) -> dict:
    """de_i . de_j as an endomorphism: e -> de_i(e) de_j^flat + de_j(e) de_i^flat."""
    out: dict = {}
    ti, si = space.flat_basis(i)
    tj, sj = space.flat_basis(j)
    add_into(out.setdefault(i, {}), tj, Fraction(sj))
    add_into(out.setdefault(j, {}), ti, Fraction(si))
    return {k: v for k, v in out.items() if v}


def sym4_acts_trivially(n: int, rform: dict) -> dict:
    """The induced endomorphism of Lambda E vanishes degree by degree."""
    model = ModelCurvature(n, rform)
    E = model.E
    report = {"ok": True, "witness": None}
    for q in range(E.dim + 1):
        total: dict = {}
        for i in range(E.dim):
            for j in range(E.dim):
                rend = model.r_endo(i, j)
                if not rend:
                    continue
                d_r = derivation_ext_matrix(E, rend, q)
                d_b = derivation_ext_matrix(E, sym2_endo(E, i, j), q)
                term = sparsemat.compose(d_b, d_r)
                total = sparsemat.madd(total, sparsemat.mscale(term, Fraction(1, 2)))
        if total:
            report["ok"] = False
            report["witness"] = (q, next(iter(total.items())))
            break
    return report


def qzero_check(n: int, r: int, rform: dict) -> dict:
    """The operator sum de_j^flat wedge_circ de_i_ + (i <-> j) after the
    4-form action vanishes on the primitive space of degree n - r."""
    from .lefschetz import primitive_ops, primitive_space

    model = ModelCurvature(n, rform)
    E = model.E
    ops = primitive_ops(E)
    q = n - r
    prim = primitive_space(E, q)
    total: dict = {}
    for i in range(E.dim):
        for j in range(E.dim):
            rend = model.r_endo(i, j)
            if not rend:
                continue
            # derivation action restricted to the primitive level
            d_amb = derivation_ext_matrix(E, rend, q)
            d_prim = {}
            for c in range(prim.dim):
                img_amb: dict = {}
                for mono, v in prim.basis[c].items():
                    col = d_amb.get(prim.ambient.index[mono])
                    if col:
                        for ridx, w in col.items():
                            add_into(img_amb, prim.ambient.basis[ridx], w * v)
                if img_amb:
                    d_prim[c] = prim.to_coords(img_amb)
            combo = sparsemat.madd(
                sparsemat.compose(ops.wedge_flat(q - 1, j), ops.contract(q, i)),
                sparsemat.compose(ops.wedge_flat(q - 1, i), ops.contract(q, j)))
            total = sparsemat.madd(total, sparsemat.compose(combo, d_prim))
    ok = not total
    return {"ok": ok, "witness": None if ok else next(iter(total.items()))}


def random_sym4(n: int, rng: random.Random, height: int = 4) -> dict:
    """A random symmetric 4-form on E with small rational values."""
    out = {}
    for key in combinations_with_replacement(range(2 * n), 4):
        v = Fraction(rng.randint(-height, height), rng.randint(1, 3))
        if v:
            out[key] = v
    return out


def alpha_fourth(n: int, alpha: dict) -> dict:
    """The 4th power of a covector as a symmetric 4-form."""
    out = {}
    for key in combinations_with_replacement(range(2 * n), 4):
        v = Fraction(1)
        for idx in key:
            v *= alpha.get(idx, Fraction(0))
            if not v:
                break
        if v:
            out[key] = v
    return out
