"""Lefschetz sl2 operators and primitive subspaces of Lambda^q E.

L wedges with the canonical bivector L_E = 1/2 sum de_i^flat wedge e_i,
its adjoint Lambda contracts with the symplectic form, and H = [Lambda, L]
acts as (n-k) id on Lambda^k E.  The primitive space is ker(Lambda); it is
realized by an explicitly computed kernel basis in free-column-pivot form,
so membership and coordinates are read off exactly.

Two independent projector constructions (kernel/image splitting and the
sl2 eigenvalue polynomial in L Lambda) are kept side by side; the test
suite checks they produce identical matrices.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb

from . import linalg, sparsemat
from .powers import ExtPower, ext_contract, ext_product, ext_wedge_vec
from .symplectic import (
    SymplecticSpace,
    add_into,
    flat,
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


def _ext_matrix(space: SymplecticSpace, fn, degree_in: int) -> dict:
    """Column-major matrix of an ambient exterior operator on Lambda^degree_in."""
    dom = ExtPower(space, degree_in)
    cols = {}
    for k, mono in enumerate(dom.basis):
        img = fn({mono: Fraction(1)})
        if img:
            deg_out = len(next(iter(img)))
            codom = ExtPower(space, deg_out)
            cols[k] = {codom.index[m]: v for m, v in img.items()}
    return cols


def L_op(space: SymplecticSpace, q: int) -> dict:
    """Matrix of L: Lambda^(q-2) -> Lambda^q."""
    return _ext_matrix(space, lambda x: apply_L(space, x), q - 2)


def Lambda_op(space: SymplecticSpace, q: int) -> dict:
    """Matrix of Lambda: Lambda^q -> Lambda^(q-2)."""
    return _ext_matrix(space, lambda x: apply_Lambda(space, x), q)


def H_op(space: SymplecticSpace, q: int) -> dict:
    """Matrix of [Lambda, L] on Lambda^q; equals (n - q) id."""
    def fn(x):
        return sub(apply_Lambda(space, apply_L(space, x)),
                   apply_L(space, apply_Lambda(space, x)))
    return _ext_matrix(space, fn, q)


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


class PrimitiveSpace:
    """ker(Lambda) inside Lambda^q E with an exact coordinate system."""

    def __init__(self, space: SymplecticSpace, q: int):
        n = space.half_dim
        if not 0 <= q <= n:
            raise ValueError(f"primitive degree {q} out of range for n={n}")
        self.space = space
        self.q = q
        self.ambient = ExtPower(space, q)
        rows = self._lambda_rows()
        free_cols, kernel = linalg.kernel_basis_with_free(rows, self.ambient.dim)
        self.free_cols = free_cols
        self.basis = [{self.ambient.basis[k]: v for k, v in vec.items()}
                      for vec in kernel]
        self.dim = len(self.basis)
        if self.dim != primitive_dim(n, q):
            raise AssertionError(
                f"primitive dimension {self.dim} != {primitive_dim(n, q)} "
                f"at (n={n}, q={q})")
        self._proj = None

    def _lambda_rows(self):
        rows: dict = {}
        for k, mono in enumerate(self.ambient.basis):
            img = apply_Lambda(self.space, {mono: Fraction(1)})
            for tgt, val in img.items():
                rows.setdefault(tgt, {})[k] = val
        return [rows[t] for t in sorted(rows)]

    def to_coords(self, elem: dict) -> dict:
        """Coordinates over the kernel basis; raises if elem is not primitive."""
        coords = {}
        for c, free in enumerate(self.free_cols):
            v = elem.get(self.ambient.basis[free])
            if v:
                coords[c] = v
        recon = self.from_coords(coords)
        if recon != {m: v for m, v in elem.items() if v}:
            raise ValueError("element is not in the primitive subspace")
        return coords

    def from_coords(self, coords: dict) -> dict:
        out: dict = {}
        for c, v in coords.items():
            for mono, b in self.basis[c].items():
                add_into(out, mono, v * b)
        return out

    # two independent projector constructions ------------------------

    def projector(self) -> list[list]:
        """Dense matrix of the projection onto ker(Lambda) along im(L)."""
        if self._proj is None:
            amb = self.ambient
            cols = [[e.get(m, Fraction(0)) for m in amb.basis] for e in self.basis]
            if self.q >= 2:
                for mono in ExtPower(self.space, self.q - 2).basis:
                    img = apply_L(self.space, {mono: Fraction(1)})
                    cols.append([img.get(m, Fraction(0)) for m in amb.basis])
            mat = [[cols[c][r] for c in range(len(cols))] for r in range(amb.dim)]
            inv = linalg.invert(mat)
            n_prim = self.dim
            self._proj = [
                [sum((mat[r][k] * inv[k][c] for k in range(n_prim)), Fraction(0))
                 for c in range(amb.dim)]
                for r in range(amb.dim)]
        return self._proj

    def projector_sl2(self) -> list[list]:
        """The projection as the polynomial prod_k (lam_k - L Lambda)/lam_k."""
        n = self.space.half_dim
        amb = self.ambient
        ll = [[Fraction(0)] * amb.dim for _ in range(amb.dim)]
        for c, mono in enumerate(amb.basis):
            img = apply_L(self.space, apply_Lambda(self.space, {mono: Fraction(1)}))
            for m, v in img.items():
                ll[amb.index[m]][c] = v
        result = [[Fraction(1) if r == c else Fraction(0) for c in range(amb.dim)]
                  for r in range(amb.dim)]
        for k in range(1, self.q // 2 + 1):
            lam = Fraction(k * (n - self.q + k + 1))
            step = [[(lam * (r == c) - ll[r][c]) / lam for c in range(amb.dim)]
                    for r in range(amb.dim)]
            result = [[sum((step[r][m] * result[m][c] for m in range(amb.dim)),
                           Fraction(0)) for c in range(amb.dim)]
                      for r in range(amb.dim)]
        return result

    def project(self, elem: dict) -> dict:
        proj = self.projector()
        amb = self.ambient
        out: dict = {}
        for mono, c in elem.items():
            col = amb.index[mono]
            for r in range(amb.dim):
                v = proj[r][col]
                if v:
                    add_into(out, amb.basis[r], v * c)
        return out

    # sparse operator matrices over primitive coordinates ------------

    def contract_matrix(self, cov_index: int, target: "PrimitiveSpace") -> dict:
        """Matrix of (de_cov_index contraction): self -> target (degree q-1)."""
        cols = {}
        for c, elem in enumerate(self.basis):
            img = ext_contract({cov_index: Fraction(1)}, elem)
            if img:
                cols[c] = target.to_coords(img)
        return cols

    def wedge_circ_matrix(self, vec_index: int, target: "PrimitiveSpace") -> dict:
        """Matrix of (e_vec_index wedge_circ): self -> target (degree q+1)."""
        cols = {}
        for c, elem in enumerate(self.basis):
            img = wedge_circ(self.space, {vec_index: Fraction(1)}, elem)
            if img:
                cols[c] = target.to_coords(img)
        return cols


@functools.cache
def primitive_space(space: SymplecticSpace, q: int) -> PrimitiveSpace:
    return PrimitiveSpace(space, q)


def primitive_dim(n: int, q: int) -> int:
    return comb(2 * n, q) - (comb(2 * n, q - 2) if q >= 2 else 0)


class PrimitiveOps:
    """Cached contraction / modified-wedge matrices between primitive levels.

    C(q)[i] is de_i contraction from level q to q-1, W(q)[i] is e_i
    wedge_circ from q to q+1.  Sharp and flat variants are index
    relabelings with a sign.  The ladder is total: off the ladder, i.e.
    C(q) unless 1 <= q <= n and W(q) unless 0 <= q < n, the operator is
    the zero matrix {}, so callers never test the level themselves.
    """

    def __init__(self, space: SymplecticSpace):
        self.space = space
        self.n = space.half_dim
        self._contract: dict = {}
        self._wedge: dict = {}

    def level(self, q: int) -> PrimitiveSpace:
        return primitive_space(self.space, q)

    def contract(self, q: int, i: int) -> dict:
        if not 1 <= q <= self.n:
            return {}
        key = (q, i)
        if key not in self._contract:
            self._contract[key] = self.level(q).contract_matrix(i, self.level(q - 1))
        return self._contract[key]

    def wedge(self, q: int, i: int) -> dict:
        if not 0 <= q < self.n:
            return {}
        key = (q, i)
        if key not in self._wedge:
            self._wedge[key] = self.level(q).wedge_circ_matrix(i, self.level(q + 1))
        return self._wedge[key]

    def contract_sharp(self, q: int, vec_index: int) -> dict:
        """Contraction with e_vec_index^sharp."""
        j, sg = self.space.sharp_basis(vec_index)
        m = self.contract(q, j)
        return m if sg == 1 else sparsemat.mscale(m, Fraction(-1))

    def wedge_flat(self, q: int, cov_index: int) -> dict:
        """Modified wedge with de_cov_index^flat."""
        j, sg = self.space.flat_basis(cov_index)
        m = self.wedge(q, j)
        return m if sg == 1 else sparsemat.mscale(m, Fraction(-1))


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
        amb = ExtPower(space, k)
        ok, witness = True, None
        for mono in amb.basis:
            x = {mono: Fraction(1)}
            lhs = sub(apply_Lambda(space, apply_L(space, x)),
                      apply_L(space, apply_Lambda(space, x)))
            if lhs != scale(x, Fraction(n - k)):
                ok, witness = False, mono
                break
        checks.append(Check(f"sl2 commutator on degree {k}", ok, witness,
                            Fraction(n - k)))
    return checks


def check_ext_relations(space: SymplecticSpace, s: int) -> list[Check]:
    """The five contraction / modified-wedge relations on Lambda^s primitive."""
    n = space.half_dim
    ops = primitive_ops(space)
    dim = ops.level(s).dim
    dim2 = space.dim
    checks = []

    # {de_i_, de_j_} = 0 on level s
    bad = None
    for i in range(dim2):
        for j in range(i, dim2):
            m = sparsemat.madd(
                sparsemat.compose(ops.contract(s - 1, i), ops.contract(s, j)),
                sparsemat.compose(ops.contract(s - 1, j), ops.contract(s, i)))
            if m:
                bad = (i, j)
                break
        if bad:
            break
    checks.append(Check(f"contractions anticommute (s={s})", bad is None, bad))

    # {e_i wedge_circ, e_j wedge_circ} = 0
    bad = None
    for i in range(dim2):
        for j in range(i, dim2):
            m = sparsemat.madd(
                sparsemat.compose(ops.wedge(s + 1, i), ops.wedge(s, j)),
                sparsemat.compose(ops.wedge(s + 1, j), ops.wedge(s, i)))
            if m:
                bad = (i, j)
                break
        if bad:
            break
    checks.append(Check(f"modified wedges anticommute (s={s})", bad is None, bad))

    # {de_i_, e_j wedge_circ} = delta_ij + 1/(n-s+1) de_i^flat wedge_circ e_j^sharp_
    bad = None
    for i in range(dim2):
        for j in range(dim2):
            lhs = sparsemat.madd(
                sparsemat.compose(ops.contract(s + 1, i), ops.wedge(s, j)),
                sparsemat.compose(ops.wedge(s - 1, j), ops.contract(s, i)))
            rhs = sparsemat.compose(ops.wedge_flat(s - 1, i),
                                    ops.contract_sharp(s, j))
            rhs = sparsemat.mscale(rhs, Fraction(1, n - s + 1))
            if i == j:
                rhs = sparsemat.madd(rhs, sparsemat.identity(dim, Fraction(1)))
            if sparsemat.msub(lhs, rhs):
                bad = (i, j)
                break
        if bad:
            break
    checks.append(Check(f"mixed anticommutator relation (s={s})", bad is None, bad))

    # sum_i de_i_ e_i wedge_circ = (2n-s+2)(n-s)/(n-s+1) id
    expect = Fraction((2 * n - s + 2) * (n - s), n - s + 1)
    total = {}
    for i in range(dim2):
        total = sparsemat.madd(
            total, sparsemat.compose(ops.contract(s + 1, i), ops.wedge(s, i)))
    ok = sparsemat.is_scalar_multiple(total, dim, expect)
    checks.append(Check(f"number operator de_i_ e_i^circ (s={s})", ok,
                        None if ok else total, expect))

    # sum_i e_i wedge_circ de_i_ = s id
    total = {}
    for i in range(dim2):
        total = sparsemat.madd(
            total, sparsemat.compose(ops.wedge(s - 1, i), ops.contract(s, i)))
    ok = sparsemat.is_scalar_multiple(total, dim, Fraction(s))
    checks.append(Check(f"number operator e_i^circ de_i_ (s={s})", ok,
                        None if ok else total, Fraction(s)))
    return checks


def check_sym_relations(r: int) -> list[Check]:
    """The six product / normalized-contraction relations on Sym^r H.

    The identities whose right-hand side applies the normalized contraction
    on Sym^r itself need r >= 1 (on Sym^0 the 1/r normalization has no
    meaning); those are only checked for r >= 1.
    """
    from .powers import SymPower, sym_contract_circ, sym_mul_vec

    space = SymplecticSpace(1, name="h")
    sym = SymPower(space, r)
    checks = []

    def mul(i):
        return lambda x: sym_mul_vec(space.basis_vector(i), x)

    def con(i):
        return lambda x: sym_contract_circ({i: Fraction(1)}, x)

    def commutator_zero(f, g):
        for mono in sym.basis:
            x = {mono: Fraction(1)}
            if sub(f(g(x)), g(f(x))):
                return mono
        return None

    bad = None
    for i in range(2):
        for j in range(2):
            bad = bad or commutator_zero(mul(i), mul(j))
    checks.append(Check(f"symmetric products commute (r={r})", bad is None, bad))

    bad = None
    for i in range(2):
        for j in range(2):
            bad = bad or commutator_zero(con(i), con(j))
    checks.append(Check(f"normalized contractions commute (r={r})", bad is None, bad))

    if r >= 1:
        # [alpha_, h.] = -1/(r+1) alpha^flat . h^sharp_  as operators on Sym^r
        bad = None
        for i in range(2):
            alpha = {i: Fraction(1)}
            af = flat(space, alpha)
            for j in range(2):
                h = space.basis_vector(j)
                hs = sharp(space, h)
                for mono in sym.basis:
                    x = {mono: Fraction(1)}
                    lhs = sub(sym_contract_circ(alpha, sym_mul_vec(h, x)),
                              sym_mul_vec(h, sym_contract_circ(alpha, x)))
                    rhs = scale(sym_mul_vec(af, sym_contract_circ(hs, x)),
                                Fraction(-1, r + 1))
                    if lhs != rhs:
                        bad = (i, j, mono)
        checks.append(Check(f"contraction/product commutator (r={r})", bad is None, bad))

        # alpha(h) id = h . alpha_ - alpha^flat . h^sharp_
        bad = None
        for i in range(2):
            alpha = {i: Fraction(1)}
            af = flat(space, alpha)
            for j in range(2):
                h = space.basis_vector(j)
                hs = sharp(space, h)
                for mono in sym.basis:
                    x = {mono: Fraction(1)}
                    lhs = sub(sym_mul_vec(h, sym_contract_circ(alpha, x)),
                              sym_mul_vec(af, sym_contract_circ(hs, x)))
                    if lhs != scale(x, Fraction(1 if i == j else 0)):
                        bad = (i, j, mono)
        checks.append(Check(f"evaluation identity (r={r})", bad is None, bad))

        # sum h_i . dh_i_ = id
        bad = None
        for mono in sym.basis:
            x = {mono: Fraction(1)}
            total: dict = {}
            for i in range(2):
                for m, c in mul(i)(con(i)(x)).items():
                    add_into(total, m, c)
            if total != x:
                bad = mono
        checks.append(Check(f"Euler identity (r={r})", bad is None, bad))

    # sum dh_i_ h_i . = (r+2)/(r+1) id
    expect = Fraction(r + 2, r + 1)
    bad = None
    for mono in sym.basis:
        x = {mono: Fraction(1)}
        total = {}
        for i in range(2):
            for m, c in con(i)(mul(i)(x)).items():
                add_into(total, m, c)
        if total != scale(x, expect):
            bad = mono
    checks.append(Check(f"number operator dh_i_ h_i (r={r})", bad is None, bad, expect))
    return checks
