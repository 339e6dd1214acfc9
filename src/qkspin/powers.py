"""Monomial realizations of symmetric and exterior powers.

Elements are sparse dicts {monomial: coefficient}.  An exterior monomial
is a strictly increasing tuple of basis indices, a symmetric monomial a
sorted tuple with repetitions; no combinatorial prefactor is stored, all
normalizations live in the operations.  Degrees are read off the key
length, so one dict may hold mixed degrees where convenient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .symplectic import SymplecticSpace, add_into


class SymPower:
    """Sym^r of a symplectic space, on the sorted-multiset basis."""

    def __init__(self, base: SymplecticSpace, degree: int):
        self.base = base
        self.degree = degree
        self.basis = list(combinations_with_replacement(range(base.dim), degree))
        self.index = {m: k for k, m in enumerate(self.basis)}

    @property
    def dim(self):
        return len(self.basis)


class ExtPower:
    """Lambda^q of a symplectic space, on the increasing-tuple basis.

    A negative degree gives the zero space, as a degree above dim does.
    """

    def __init__(self, base: SymplecticSpace, degree: int):
        self.base = base
        self.degree = degree
        self.basis = list(combinations(range(base.dim), degree)) if degree >= 0 else []
        self.index = {m: k for k, m in enumerate(self.basis)}

    @property
    def dim(self):
        return len(self.basis)


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
