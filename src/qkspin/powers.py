"""Monomial realizations of symmetric and exterior powers.

Elements are sparse dicts {monomial: coefficient}.  An exterior monomial
is a strictly increasing tuple of basis indices, a symmetric monomial a
sorted tuple with repetitions; no combinatorial prefactor is stored, all
normalizations live in the operations.  Degrees are read off the key
length, so one dict may hold mixed degrees where convenient.

`Ladder` owns every operator between the levels of a ladder: one cache
holding each level once, plain or sign-flipped, as an lcm scale and int
matrices, and the derivation action of a Sym^2 element on a level
composed from them.  `SymOps` is its product / contraction ladder on
Sym^r, built from the elementwise rules here, and `lefschetz.PrimitiveOps`
its contraction / modified-wedge ladder on the primitive exterior levels.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from . import sparsemat
from .symplectic import SymplecticSpace, add_into


class MonomialPower:
    """One degree of the symmetric or exterior algebra on its monomial basis.

    The two kinds differ only in the monomials they list.  A negative
    degree gives the zero space, as an exterior degree above dim does.
    """

    monomials = None    # (labels, degree) -> the basis monomials, in order

    def __init__(self, base: SymplecticSpace, degree: int):
        self.base = base
        self.degree = degree
        self.basis = list(self.monomials(range(base.dim), degree)) if degree >= 0 else []
        self.index = {m: k for k, m in enumerate(self.basis)}

    @property
    def dim(self):
        return len(self.basis)

    def coords(self, elem: dict) -> dict:
        """Coordinates of an element of this degree over the basis."""
        return {self.index[m]: v for m, v in elem.items()}


class SymPower(MonomialPower):
    """Sym^r of a symplectic space, on the sorted-multiset basis."""

    monomials = staticmethod(combinations_with_replacement)


class ExtPower(MonomialPower):
    """Lambda^q of a symplectic space, on the increasing-tuple basis."""

    monomials = staticmethod(combinations)


# -- exterior algebra ---------------------------------------------------

def ext_insert(i: int, mono: tuple) -> tuple[int, tuple] | None:
    """Insert index i into an increasing tuple; (sign, tuple) or None."""
    if i in mono:
        return None
    pos = 0
    while pos < len(mono) and mono[pos] < i:
        pos += 1
    sign = -1 if pos % 2 else 1
    return sign, mono[:pos] + (i,) + mono[pos:]


def ext_wedge_vec(v: dict, elem: dict) -> dict:
    """Wedge a vector (degree 1) onto an exterior element."""
    out = {}
    for i, x in v.items():
        for mono, c in elem.items():
            ins = ext_insert(i, mono)
            if ins:
                sign, new = ins
                add_into(out, new, sign * x * c)
    return out


def ext_contract(cov: dict, elem: dict) -> dict:
    """Contract a covector into an exterior element (degree drops by 1)."""
    out = {}
    for mono, c in elem.items():
        for pos, idx in enumerate(mono):
            x = cov.get(idx)
            if x:
                sign = -1 if pos % 2 else 1
                add_into(out, mono[:pos] + mono[pos + 1:], sign * x * c)
    return out


def ext_product(x: dict, y: dict) -> dict:
    """Wedge product of two exterior elements."""
    out = {}
    for mx, cx in x.items():
        for my, cy in y.items():
            merged = sort_sign(mx + my)
            if merged:
                sign, mono = merged
                add_into(out, mono, sign * cx * cy)
    return out


def sort_sign(seq) -> tuple[int, tuple] | None:
    """(sign, sorted tuple) of a sequence of labels, or None on a repeat.

    An insertion sort whose sign counts the transpositions.  A repeated
    label stops next to its twin when inserted, so it is caught there.
    """
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and seq[j - 1] == seq[j]:
            return None
    return sign, tuple(seq)


# -- symmetric algebra --------------------------------------------------

def sym_insert(i: int, mono: tuple) -> tuple:
    pos = 0
    while pos < len(mono) and mono[pos] < i:
        pos += 1
    return mono[:pos] + (i,) + mono[pos:]


def sym_mul_vec(v: dict, elem: dict) -> dict:
    """Symmetric product with a vector."""
    out = {}
    for i, x in v.items():
        for mono, c in elem.items():
            add_into(out, sym_insert(i, mono), x * c)
    return out


def sym_contract(cov: dict, elem: dict) -> dict:
    """Derivation contraction: each slot of the monomial is paired once."""
    out = {}
    for mono, c in elem.items():
        for pos in range(len(mono)):
            x = cov.get(mono[pos])
            if x:
                add_into(out, mono[:pos] + mono[pos + 1:], x * c)
    return out


def sym_contract_circ(cov: dict, elem: dict) -> dict:
    """Normalized contraction: (1/r) times the derivation on degree r."""
    out = {}
    for mono, c in elem.items():
        r = len(mono)
        if r == 0:
            continue
        for pos in range(r):
            x = cov.get(mono[pos])
            if x:
                add_into(out, mono[:pos] + mono[pos + 1:], x * c * Fraction(1, r))
    return out


def reader(name: str):
    """The exact per-index reader of one `Ladder` operator: the held int
    matrix divided by its level's scale, afresh on each call (at scale 1
    the held matrix itself, so read-only)."""
    def read(self, level: int, index: int) -> dict:
        s, mats = self.scaled(name, level)
        return mats[index] if s == 1 else {
            col: {row: Fraction(v, s) for row, v in mcol.items()}
            for col, mcol in mats[index].items()}
    return read


class Ladder:
    """The cached operators between the levels of one space's ladder.

    A subclass names its operators: `_build(name, level, index)` builds a
    plain one exactly, `SIGNED` maps each sign-flipped variant to (plain,
    "flat_basis" | "sharp_basis"), `on_ladder(name, level)` tells the
    levels where an operator is defined, and `UP` and `DOWN` name the
    raising and the lowering operator that `derivation` composes.

    `scaled(name, level)` is the one cache of operators: (s, [s L_x]) over
    every index x, with int entries and s the lcm of the exact entries'
    denominators, cleared once from the `_build` outputs.  A variant's
    level is the index relabeling sg plain(level, j), (j, sg) the basis map
    of the index, over the plain level's scale: it holds the plain matrix
    object itself where sg = +1 and its negation where sg = -1.  Off the
    ladder a level is (1, [{}, ...]), and no such key is cached.  The held
    matrices are shared and must not be modified.  Each subclass names its
    per-index `reader`s, exact reads for the elementwise references.
    """

    def __init__(self, space: SymplecticSpace):
        self.space = space

    def scaled(self, name: str, level: int) -> tuple[int, list]:
        """(s, [s L_x]) of one level; shared, so callers must not modify it."""
        if not self.on_ladder(name, level):
            return 1, [{}] * self.space.dim
        return self._held(name, level)

    @functools.cache
    def _held(self, name: str, level: int) -> tuple[int, list]:
        if name not in self.SIGNED:
            return sparsemat.int_copies([self._build(name, level, x)
                                         for x in range(self.space.dim)])
        plain, basis = self.SIGNED[name]
        s, mats = self._held(plain, level)
        flips = map(getattr(self.space, basis), range(self.space.dim))
        return s, [mats[j] if sg == 1 else sparsemat.mscale(mats[j], -1)
                   for j, sg in flips]

    def derivation(self, level: int, x: int, y: int) -> tuple[int, dict]:
        """(s, s D) for the action D of x y on one level: UP(level-1, y)
        after sg DOWN(level, j), (j, sg) = sharp_basis(x), plus (x <-> y),
        composed afresh from the int levels; s is their scales' product."""
        up, down = self.scaled(self.UP, level - 1), self.scaled(self.DOWN, level)
        return sparsemat.relation_sum(
            (sg, (up, b), (down, j)) for a, b in ((x, y), (y, x))
            for j, sg in [self.space.sharp_basis(a)])


class SymOps(Ladder):
    """The product / contraction ladder on the levels of Sym^r.

    mul(r, i) is h_i . from Sym^r to Sym^(r+1); contract(r, i) is the plain
    (derivation) contraction with dh_i and contract_circ(r, i) the
    normalized one, both from Sym^r to Sym^(r-1), and mul_flat and
    contract_sharp use dh^flat and h^sharp.  Each applies the elementwise
    rule above to every basis monomial.  Off the ladder, below degree 0 or
    a contraction at degree 0, the operator is {}.  The derivation of
    h_x h_y composes mul after the plain contraction.
    """

    UP, DOWN = "mul", "contract"
    SIGNED = {"mul_flat": ("mul", "flat_basis"),
              "contract_sharp": ("contract_circ", "sharp_basis")}

    def on_ladder(self, name: str, r: int) -> bool:
        return r >= (0 if name.startswith("mul") else 1)

    def _build(self, name: str, r: int, i: int) -> dict:
        # the rules are read at call time, so a patched rule is seen
        rule, shift = {"mul": (sym_mul_vec, 1), "contract": (sym_contract, -1),
                       "contract_circ": (sym_contract_circ, -1)}[name]
        unit = {i: Fraction(1)}
        return sparsemat.from_images(
            (rule(unit, {mono: Fraction(1)}) for mono in SymPower(self.space, r).basis),
            SymPower(self.space, r + shift).coords)

    mul, contract, contract_circ, mul_flat, contract_sharp = map(
        reader, ("mul", "contract", "contract_circ", "mul_flat", "contract_sharp"))


@functools.cache
def sym_ops(space: SymplecticSpace) -> SymOps:
    return SymOps(space)


# -- extended symplectic forms and J ------------------------------------

def _gram_sum(space: SymplecticSpace, a: tuple, b: tuple, signed: bool):
    """Sum over permutations p of sign(p)^signed prod_k sigma(a_k, b_p(k)).

    Only nonzero Gram entries are walked, so for a symplectic basis, where
    each row holds at most one nonzero entry, this costs O(q^2) rather than
    q! products.
    """
    if len(a) != len(b):
        raise ValueError("degree mismatch")
    rows = [[(col, s) for col, y in enumerate(b) if (s := space.sigma_basis(x, y))]
            for x in a]

    def walk(k: int, used: tuple, prod: Fraction) -> Fraction:
        if k == len(rows):
            return prod
        total = Fraction(0)
        for col, s in rows[k]:
            if col in used:
                continue
            term = prod * s
            # each used column to the right of col is one inversion
            if signed and sum(u > col for u in used) % 2:
                term = -term
            total += walk(k + 1, used + (col,), term)
        return total

    return walk(0, (), Fraction(1))


def gram_det(space: SymplecticSpace, a: tuple, b: tuple):
    return _gram_sum(space, a, b, signed=True)


def gram_perm(space: SymplecticSpace, a: tuple, b: tuple):
    return _gram_sum(space, a, b, signed=False)


def extended_sigma_ext(space: SymplecticSpace, x: dict, y: dict):
    """sigma on Lambda^q via the Gram determinant, bilinear."""
    total = Fraction(0)
    for ma, ca in x.items():
        for mb, cb in y.items():
            g = gram_det(space, ma, mb)
            if g:
                total = total + ca * cb * g
    return total


def extended_sigma_sym(space: SymplecticSpace, x: dict, y: dict):
    """sigma on Sym^r via the (unnormalized) Gram permanent."""
    total = Fraction(0)
    for ma, ca in x.items():
        for mb, cb in y.items():
            g = gram_perm(space, ma, mb)
            if g:
                total = total + ca * cb * g
    return total


def _j_images(space: SymplecticSpace, mono: tuple) -> tuple[int, list]:
    sign = 1
    images = []
    for i in mono:
        j, sg = space.j_basis(i)
        sign *= sg
        images.append(j)
    return sign, images


def j_ext(space: SymplecticSpace, elem: dict) -> dict:
    """Factorwise antilinear J on an exterior element."""
    out = {}
    for mono, c in elem.items():
        sign, images = _j_images(space, mono)
        acc = {tuple(): Fraction(sign)}
        # left-insertion: build the product by wedging factors right to left
        for i in reversed(images):
            nxt = {}
            for m, cc in acc.items():
                ins = ext_insert(i, m)
                if ins:
                    sg, new = ins
                    add_into(nxt, new, sg * cc)
            acc = nxt
        cj = c.conjugate()
        for m, cc in acc.items():
            add_into(out, m, cc * cj)
    return out


def j_sym(space: SymplecticSpace, elem: dict) -> dict:
    """Factorwise antilinear J on a symmetric element."""
    out = {}
    for mono, c in elem.items():
        sign, images = _j_images(space, mono)
        add_into(out, tuple(sorted(images)), sign * c.conjugate())
    return out
