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
equality with ker(m) is the oracle that validates them.  The equations are
built as int rows, each scaled by one fixed int per equation (72 for I, II
and II', 16 for III and III'), which keeps its row space.  The equality is
checked as row(C) = row(m): every constraint row reduces to zero against
m's echelon, and the two ranks agree.

The Sym^4 checks on a model, `sym4_acts_trivially` and `qzero_check`, and
the derivation extension `derivation_ext_matrix` that `ModelCurvature`
builds its derivations with, live in `sym4`; every public name there is
reachable here as well.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, lcm

from . import linalg, sparsemat
from .powers import sort_sign
from .sym4 import (  # noqa: F401  (the Sym^4 checks, reachable from here)
    derivation_ext_matrix,
    qzero_check,
    qzero_total,
    sym2_endo,
    sym4_acts_trivially,
    sym4_total,
)
from .symplectic import SymplecticSpace, add_into, scale

# the value of a 4-form off its support, shared so no lookup builds a Fraction
_ZERO = Fraction(0)

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
    return {i: 1}


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
    return generator_span(N)[0]


def generator_span(N: int) -> tuple[int, tuple | None]:
    """Rank of the span of all basis generators, and the first one outside
    ker(m).

    Each generator is built once: the loop that feeds it to the echelon also
    tests m(g) = 0.  The second value is the (a, b, c, d) of the first
    generator with m(g) != 0, or None when every generator lies in ker(m).
    """
    basis = {k: idx for idx, k in enumerate(s2l2_basis(N))}
    ech = linalg.Echelon()
    outside = None
    for a in range(N):
        for b in range(a, N):
            for c in range(N):
                for d in range(c, N):
                    gen = curv_generator(basis_cov(a), basis_cov(b),
                                         basis_cov(c), basis_cov(d))
                    if not gen:
                        continue
                    if outside is None and mult_m(gen):
                        outside = (a, b, c, d)
                    ech.add({basis[k]: v for k, v in gen.items()})
    return ech.rank, outside


def m_rows(basis: list) -> list:
    """Sparse rows of m over the given Sym^2 Lambda^2 keys, by Lambda^4 key."""
    rows = sparsemat.transpose({idx: mult_m({key: 1})
                                for idx, key in enumerate(basis)})
    return [rows[t] for t in sorted(rows)]


def ker_m_rank(N: int) -> int:
    """dim ker(m) inside Sym^2 Lambda^2 by exact elimination."""
    basis = s2l2_basis(N)
    return len(basis) - linalg.rank(m_rows(basis))


def generators_span_ker_m(N: int) -> dict:
    """ker(m) against the span of all basis generators, by double inclusion.

    The two are equal exactly when every generator lies in ker(m) and the
    two subspaces have the same dimension.
    """
    span_rank, outside = generator_span(N)
    kernel_rank = ker_m_rank(N)
    return {"N": N, "span_rank": span_rank, "ker_m_rank": kernel_rank,
            "outside": outside,
            "equal": outside is None and span_rank == kernel_rank}


def split_sym_ext(a, b, c, d) -> tuple[list, list]:
    """Split (a.b) tensor (c^d) into Lambda^2 Sym^2 (+) Lambda^2 Lambda^2.

    (a.b) tensor (c^d) -> 1/2 [ (a.c)^(b.d) + (b.c)^(a.d) ]
                      (+) 1/2 [ (a^c)^(b^d) + (b^c)^(a^d) ].
    Returns (sym_terms, ext_terms), each a list of (key, sign) with keys
    as ordered pairs of symmetric resp. exterior pair keys.  The int sign
    is twice the term's coefficient: the common 1/2 is the caller's.
    """
    sym_terms, ext_terms = [], []
    for x, y in ((a, b), (b, a)):
        e = ekey(skey(x, c), skey(y, d))
        if e:
            sg, key = e
            sym_terms.append((key, sg))
        e1, e2 = ekey(x, c), ekey(y, d)
        if e1 and e2:
            s1, k1 = e1
            s2, k2 = e2
            e = ekey(k1, k2)
            if e:
                sg, key = e
                ext_terms.append((key, sg * s1 * s2))
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
    part 1 the Lambda^2 Lambda^2 image.  Each term's weight is sigma's 1/2
    times the split's 1/2.
    """
    N = space.dim
    sigma_terms = []
    for i in range(N):
        j, sg = space.sharp_basis(i)
        sigma_terms.append((i, j, Fraction(sg, 4)))
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

    # the largest n measured: solution_equals_ker_m takes 1.07-1.37 s at
    # 32.4-32.6 MB peak RSS in process, imports included, on a 2-vCPU VM
    # (Python 3.11.7, three runs)
    MAX_N = 5

    def __init__(self, n: int):
        if n > self.MAX_N:
            raise ValueError(f"Bianchi system limited to n <= {self.MAX_N} "
                             "(dimension grows too fast beyond)")
        self.n = n
        self.N = 2 * n
        self.V = 4 * n
        self.basis = s2l2_basis(self.V)

    def split_v(self, v: int) -> tuple[int, int]:
        return divmod(v, self.N)

    def _split_2form(self, F: tuple):
        """F = (v1, v2) -> (H-part term, E-part term), each possibly None.

        H-part: 1/2 (a.b) tensor (i^j);  E-part: 1/2 (a^b) tensor (i.j).
        Returns ((sym2H key, ext2E key, sign) | None,
                 (ext2H key, sym2E key, sign) | None), the int sign twice
        the part's coefficient.
        """
        (a, i), (b, j) = self.split_v(F[0]), self.split_v(F[1])
        eij, eab = ekey(i, j), ekey(a, b)
        h_part = (skey(a, b), eij[1], eij[0]) if eij else None
        e_part = (eab[1], skey(i, j), eab[0]) if eab else None
        return h_part, e_part

    def column_components(self, key) -> dict:
        """The labelled component contributions of one basis element that
        equations I-III' read, as ints: 8 times the exact value on the H-
        and E-block labels (two part halves and the block's 1/2), 16 times
        on the mixed 'M' labels (two part halves and two split halves)."""
        F, G = key
        fh, fe = self._split_2form(F)
        gh, ge = self._split_2form(G)
        out: dict = {}

        def put(label, ckey, coeff):
            add_into(out.setdefault(label, {}), ckey, coeff)

        # H block: (p1 (x) q1).(p2 (x) q2) -> 1/2 p1p2 (x) q1q2 (+) 1/2 p1^p2 (x) q1^q2
        if fh and gh:
            p1, q1, c1 = fh
            p2, q2, c2 = gh
            c = c1 * c2
            put("s2s2H_s2l2E", (skey(p1, p2), skey(q1, q2)), c)
            e1, e2 = ekey(p1, p2), ekey(q1, q2)
            if e1 and e2:
                put("l2s2H_l2l2E_H", (e1[1], e2[1]), c * e1[0] * e2[0])
        # E block
        if fe and ge:
            u1, v1, c1 = fe
            u2, v2, c2 = ge
            c = c1 * c2
            put("s2l2H_s2s2E", (skey(u1, u2), skey(v1, v2)), c)
            e1, e2 = ekey(u1, u2), ekey(v1, v2)
            if e1 and e2:
                put("l2l2H_l2s2E_E", (e1[1], e2[1]), c * e1[0] * e2[0])
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
                for ke, ce in e_lam:
                    put("l2s2H_l2l2E_M", (kh, ke), c * ch * ce)
            for kh, ch in h_lam:
                for ke, ce in e_sym:
                    put("l2l2H_l2s2E_M", (kh, ke), c * ch * ce)
        return out

    def equation_rows(self) -> dict:
        """Sparse int rows of equations I, II, II', III, III' over the basis.

        I, II and II' are 72 times the exact rows: 8 from the components
        and 3 from each 1/3 map.  III and III' are 16 times, where the H- or
        E-block term weighs 2 against the mixed term's 1.
        """
        comp_rows: dict = {}

        def accumulate(label, ckey, col_idx, coeff):
            add_into(comp_rows.setdefault(label, {}).setdefault(ckey, {}),
                     col_idx, coeff)

        @functools.cache
        def thrice(part, key):
            # 3 part(key): int, as each 1/3 map has thirds for values
            return {k: w.numerator if (w := 3 * v).denominator == 1 else w
                    for k, v in part({key: Fraction(1)}).items()}

        for idx, key in enumerate(self.basis):
            comps = self.column_components(key)
            # equation I needs the Curv (x) Curv parts of both doubled blocks
            for (hk, ek), c in comps.get("s2s2H_s2l2E", {}).items():
                curv_e = thrice(s2l2_curv_part, ek)
                for kh, vh in thrice(s2s2_curv_part, hk).items():
                    for ke, ve in curv_e.items():
                        accumulate("I", (kh, ke), idx, c * vh * ve)
                # equation II: Sym^4 H (x) Lambda^4 E
                l4 = thrice(s2l2_lambda4_part, ek)
                for k4, v4 in thrice(s2s2_sym4_part, hk).items():
                    for ke4, ve4 in l4.items():
                        accumulate("II", (k4, ke4), idx, c * v4 * ve4)
            for (hk, ek), c in comps.get("s2l2H_s2s2E", {}).items():
                curv_e = thrice(s2s2_curv_part, ek)
                for kh, vh in thrice(s2l2_curv_part, hk).items():
                    for ke, ve in curv_e.items():
                        accumulate("I", (kh, ke), idx, -c * vh * ve)
                # equation II': Lambda^4 H (x) Sym^4 E
                s4 = thrice(s2s2_sym4_part, ek)
                for k4, v4 in thrice(s2l2_lambda4_part, hk).items():
                    for ke4, ve4 in s4.items():
                        accumulate("IIp", (k4, ke4), idx, c * v4 * ve4)
            for ckey, c in comps.get("l2s2H_l2l2E_H", {}).items():
                accumulate("III", ckey, idx, 2 * c)
            for ckey, c in comps.get("l2s2H_l2l2E_M", {}).items():
                accumulate("III", ckey, idx, -c)
            for ckey, c in comps.get("l2l2H_l2s2E_E", {}).items():
                accumulate("IIIp", ckey, idx, 2 * c)
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

    def solution_equals_ker_m(self) -> dict:
        """Subspace equality as row spaces: ker C = ker m exactly when
        row(C) = row(m).

        Containment row(C) in row(m) (that is, ker m in ker C): every
        constraint row reduces to zero against m's echelon.  Equality: the
        ranks agree as well.  The witness is the first constraint row
        outside row(m), as (its index, its residue).
        """
        m_echelon = linalg.Echelon()
        for row in m_rows(self.basis):
            m_echelon.add(row)
        constraints = self.constraint_rows()
        witness = next(((k, res) for k, row in enumerate(constraints)
                        if (res := m_echelon.reduce(row))), None)
        rank_c = linalg.rank(constraints)
        contained = witness is None
        return {
            "dim_ker_m": len(self.basis) - m_echelon.rank,
            "dim_solutions": len(self.basis) - rank_c,
            "kernel_satisfies_equations": contained,
            "equal": contained and rank_c == m_echelon.rank,
            "witness": witness,
        }


# -- model curvature tensors ---------------------------------------------

@functools.cache
def _rform_index(space: SymplecticSpace) -> list:
    """Where a 4-form's entries sit in its endomorphisms R(e_i, e_j).

    [((i, j), [(k, [(flat(l), sign, key) for each l]) for each k]) for each
    ordered i, j], all in ascending order, with (flat(l), sign) =
    `flat_basis(l)` and key the sorted (i, j, k, l) under which a symmetric
    4-form stores its value.  The table depends only on the space, so the
    keys are sorted once per run, not once per form.
    """
    labels = range(space.dim)
    flats = [space.flat_basis(l) for l in labels]
    return [((i, j), [(k, [(t, sign, tuple(sorted((i, j, k, l))))
                           for l, (t, sign) in zip(labels, flats)])
                      for k in labels])
            for i in labels for j in labels]


def _pair_endo(space: SymplecticSpace, x: int, y: int) -> dict:
    """e_x e_y as an endomorphism, e_c -> sigma(e_x, e_c) e_y +
    sigma(e_y, e_c) e_x, with int entries."""
    out: dict = {}
    for src, tgt in ((x, y), (y, x)):
        c, sign = space.sharp_basis(src)
        add_into(out.setdefault(c, {}), tgt, sign)
    return {c: img for c, img in out.items() if img}


class ModelCurvature:
    """The End(H tensor E)-valued 2-forms R^H, R^E, R^hyper on basis pairs.

    R^hyper is parametrized by a symmetric 4-form on E, stored as a dict
    from sorted index 4-multisets to Fractions, with `scale` the lcm of
    their denominators.  Its endomorphisms R(e_i, e_j): e_k ->
    rform(e_i, e_j, e_k, .)^flat are read off through `_rform_index`, once,
    at construction, as `scaled_endos`: the nonzero scale R(e_i, e_j) with
    int entries, keyed (i, j) in (i, j) order.  The Sym^4 checks read
    `paired_endos`, the nonzero scale P_ij over the unordered pairs i <= j,
    in that order: P_ij = R(e_i, e_j) + R(e_j, e_i) for i < j and
    P_ii = R(e_i, e_i).  The `tensors` are int too, R^H and R^E from the
    int signs of sigma (the numerators of `sigma_basis`) and R^hyper scaled
    by `tensor_scale`: Ricci and the extraction sum ints and divide once,
    and `apply` is exact.
    """

    KINDS = ("H", "E", "hyper")

    def __init__(self, n: int, rform: dict | None = None):
        self.n = n
        self.H = SymplecticSpace(1, name="h")
        self.E = SymplecticSpace(n, name="e")
        self.rform = rform or {}
        self.scale = lcm(*(v.denominator for v in self.rform.values()))
        self.scaled_endos = self._endos({
            key: v.numerator * (self.scale // v.denominator)
            for key, v in self.rform.items() if v})
        get = self.scaled_endos.get
        self.paired_endos = {
            (i, j): paired for i, j in sym2_basis(self.E.dim)
            if (paired := sparsemat.madd(get((i, j), {}), get((j, i), {}))
                if i < j else get((i, i)))}

    def _endos(self, values: dict) -> dict:
        """{(i, j): {k: {flat(l): sign values[key]}}} over `_rform_index`,
        the nonzero ones only.

        l -> flat(l) is a bijection of the basis, so each entry is stored
        once, never accumulated.
        """
        get = values.get
        out = {}
        for ij, rows in _rform_index(self.E):
            endo = {}
            for k, entries in rows:
                img = {t: v if sign == 1 else -v
                       for t, sign, key in entries if (v := get(key))}
                if img:
                    endo[k] = img
            if endo:
                out[ij] = endo
        return out

    @functools.cached_property
    def r_derivations(self) -> dict:
        """{q: {(i, j): der(scale P_ij) on Lambda^q}} for q = 1..n, i <= j.

        These levels are read twice, by `sym4_acts_trivially` and
        `qzero_check`, so they are built on first use and held until the
        model is freed; shared, so callers must not modify them.  Lambda^0,
        where every derivation vanishes, and a level above n are read at
        most once, and `derivations` builds them afresh.
        """
        return {q: self.derivations(q) for q in range(1, self.n + 1)}

    def derivations(self, q: int) -> dict:
        """{(i, j): der(scale P_ij)} on Lambda^q for i <= j, with int entries."""
        return {ij: derivation_ext_matrix(self.E, endo, q)
                for ij, endo in self.paired_endos.items()}

    def rvalue(self, i, j, k, l) -> Fraction:
        return self.rform.get(tuple(sorted((i, j, k, l))), _ZERO)

    def tensor_scale(self, kind: str) -> int:
        """The int s with `tensors` holding s R^kind: `scale` for R^hyper,
        1 for R^H and R^E."""
        if kind not in self.KINDS:
            raise ValueError(f"unknown model tensor {kind!r}")
        return self.scale if kind == "hyper" else 1

    @functools.cached_property
    def tensors(self) -> dict:
        """{(kind, X, Y): tensor_scale(kind) R^kind_{X,Y}}, with int entries,
        over every kind and basis pair.

        `ricci_coefficient` and `sym4_extraction` both read it, so it is
        built once, on first use, and held until the model is freed; zero
        tensors are left out.  Shared, so callers must not modify it.
        """
        basis = self.tangent_basis()
        return {(kind, x, y): endo for kind in self.KINDS
                for x in basis for y in basis
                if (endo := self._tensor(kind, x, y))}

    def apply(self, kind: str, x: tuple, y: tuple) -> dict:
        """R^kind_{X,Y} for basis tangent vectors; {(a,i): {(b,j): coeff}},
        with exact Fraction coefficients."""
        s = self.tensor_scale(kind)
        return {key: {row: Fraction(v, s) for row, v in col.items()}
                for key, col in self.tensors.get((kind, x, y), {}).items()}

    def _tensor(self, kind: str, x: tuple, y: tuple) -> dict:
        """tensor_scale(kind) R^kind_{X,Y}: sigma_E(e_i, e_j) (e_a e_b) (x) id
        for H, sigma_H(e_a, e_b) id (x) (e_i e_j) for E, and
        sigma_H(e_a, e_b) id (x) scale R(e_i, e_j) for hyper."""
        (a, i), (b, j) = x, y
        if kind == "H":
            s = self.E.sigma_basis(i, j).numerator
            h_endo = _pair_endo(self.H, a, b) if s else {}
            return {(c, k): {(h, k): s * v for h, v in img.items()}
                    for c, img in h_endo.items() for k in range(self.E.dim)}
        s = self.H.sigma_basis(a, b).numerator
        e_endo = ({} if not s else _pair_endo(self.E, i, j) if kind == "E"
                  else self.scaled_endos.get((i, j), {}))
        return {(c, k): {(c, e): s * v for e, v in img.items()}
                for k, img in e_endo.items() for c in range(2)}

    def tangent_basis(self) -> list:
        return [(a, i) for a in range(2) for i in range(self.E.dim)]

    def ricci_coefficient(self, kind: str) -> tuple:
        """(c, None) with Ric^kind = c sigma_H tensor sigma_E, else (None, witness).

        Ric(X, Y) = tr(Z -> R_{Z,X} Y) is summed in ints over `tensors`.
        The metric is +-1 where it is nonzero, so the coefficient at such a
        pair is the int Ric g, compared across pairs, and divided by
        `tensor_scale` once.  The witness (kind, X, Y) is the first tangent
        pair at which Ric^kind leaves the line of the metric.
        """
        s = self.tensor_scale(kind)
        basis = self.tangent_basis()
        tensors = self.tensors
        coeff = None
        for xx in basis:
            ric: dict = {}
            for zz in basis:
                for yy, col in tensors.get((kind, zz, xx), {}).items():
                    if v := col.get(zz):
                        ric[yy] = ric.get(yy, 0) + v
            for yy in basis:
                v = ric.get(yy, 0)
                g = (self.H.sigma_basis(xx[0], yy[0]).numerator *
                     self.E.sigma_basis(xx[1], yy[1]).numerator)
                if not g:
                    if v:
                        return None, (kind, xx, yy)
                elif coeff is None:
                    coeff = v * g
                elif coeff != v * g:
                    return None, (kind, xx, yy)
        return Fraction(coeff or 0, s), None


def einstein_report(model: ModelCurvature) -> dict:
    """Ricci constants and the Einstein coefficient with formal kappa.

    For R = -kappa/(8n(n+2)) (R^H + R^E) + R^hyper the Ricci form is
    kappa/(4n) g exactly; the report carries the verified pieces.  A Ricci
    form off the line of the metric leaves its constant None and names the
    first such tangent pair in "ricci_witness".
    """
    n = model.n
    (c_h, w_h), (c_e, w_e), (c_hyper, w_hyper) = (
        model.ricci_coefficient(kind) for kind in ("H", "E", "hyper"))
    einstein = None if None in (c_h, c_e) else \
        Fraction(-(c_h + c_e), 8 * n * (n + 2))
    return {
        "ricci_H": c_h,                      # expected -3
        "ricci_E": c_e,                      # expected -(2n+1)
        "ricci_hyper": c_hyper,              # expected 0
        "ricci_witness": w_h or w_e or w_hyper,
        "einstein_coefficient": einstein,    # expected 1/(4n), times kappa
        "einstein_ok": einstein == Fraction(1, 4 * n),
    }


def sym4_extraction(model: ModelCurvature, kind: str,
                    h_quad: list, e_quad: tuple) -> Fraction:
    """Recover a symmetric 4-form value from a curvature tensor.

    h_quad: four H vectors as sparse dicts, with int or Fraction values;
    e_quad: four E basis indices.  The symmetrization over S4 divided by
    24 sigma_H(h1,h2) sigma_H(h3,h4) is independent of the h-choice
    whenever the prefactor is nonzero.

    Each term pairs R_{h1 (x) e0', h2 (x) e1'} h3 (x) e2' with h4 (x) e3'
    through g = sigma_H sigma_E.  sigma_H(e_b, h4) is found once per call,
    only the one e_k with sigma_E(e_k, e3') != 0 is read, and each distinct
    arrangement (e0', .., e3') of e_quad is summed once, weighted by the
    number of the 24 permutations that give it.  The terms are read off
    the int `tensors` and sigma's int signs, so int h-vectors give an int
    sum, divided once, by 24, the prefactor and `tensor_scale`.
    """
    s = model.tensor_scale(kind)
    tensors = model.tensors

    def sigma_h(v, w):
        return sum(x * y * model.H.sigma_basis(b, c).numerator
                   for b, x in v.items() for c, y in w.items())

    h1, h2, h3, h4 = h_quad
    pref = sigma_h(h1, h2) * sigma_h(h3, h4)
    if not pref:
        raise ValueError("vanishing sigma_H prefactor")
    sigma_h4 = [(b, v) for b in range(2) if (v := sigma_h({b: 1}, h4))]
    total = 0
    for e, weight in Counter(permutations(e_quad)).items():
        # sigma_E(e_k, e_l) is nonzero only at k = flat(l), where it is the sign
        k, sigma_e = model.E.flat_basis(e[3])
        part = 0
        for (a1, c1) in h1.items():
            for (a2, c2) in h2.items():
                endo = tensors.get((kind, (a1, e[0]), (a2, e[1])), {})
                for (a3, c3) in h3.items():
                    col = endo.get((a3, e[2]))
                    if not col:
                        continue
                    c123 = c1 * c2 * c3
                    for b, v4 in sigma_h4:
                        v = col.get((b, k))
                        if v:
                            part += c123 * v * v4
        if part:
            total += weight * sigma_e * part
    return Fraction(total, 24 * pref * s)


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
