"""Model symplectic spaces with quaternionic structure.

A space of half-dimension m has basis e_0 .. e_{2m-1} with
sigma(e_i, e_{m+i}) = 1 and all other basis pairings zero.  The antilinear
structure J sends e_i -> e_{m+i} -> -e_i and satisfies both compatibility
conditions sigma(Jv, Jw) = conj(sigma(v, w)) and sigma(v, Jv) > 0.

Vectors and covectors are sparse maps from basis index to coefficient;
coefficients may be Fractions or Scalars (mixing is fine).
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import Scalar


class SymplecticSpace:
    def __init__(self, half_dim: int, name: str = "e"):
        if half_dim < 1:
            raise ValueError("half_dim must be positive")
        self.half_dim = half_dim
        self.dim = 2 * half_dim
        self.name = name

    def __repr__(self):
        return f"SymplecticSpace({self.half_dim}, {self.name!r})"

    # value semantics, so caches keyed on a space key on (half_dim, name)
    def __eq__(self, other):
        return isinstance(other, SymplecticSpace) and \
            (self.half_dim, self.name) == (other.half_dim, other.name)

    def __hash__(self):
        return hash((self.half_dim, self.name))

    def sigma_basis(self, i: int, j: int) -> Fraction:
        m = self.half_dim
        if j == i + m:
            return Fraction(1)
        if i == j + m:
            return Fraction(-1)
        return Fraction(0)

    def sharp_basis(self, i: int) -> tuple[int, int]:
        """e_i^sharp = sign * d e_index; returns (index, sign)."""
        m = self.half_dim
        return (i + m, 1) if i < m else (i - m, -1)

    def flat_basis(self, i: int) -> tuple[int, int]:
        """(d e_i)^flat = sign * e_index; inverse of sharp."""
        m = self.half_dim
        return (i + m, -1) if i < m else (i - m, 1)

    def j_basis(self, i: int) -> tuple[int, int]:
        """J e_i = sign * e_index (same table for covectors)."""
        m = self.half_dim
        return (i + m, 1) if i < m else (i - m, -1)

    def basis_vector(self, i: int) -> dict:
        return {i: Fraction(1)}


def check_same_space(a: SymplecticSpace, b: SymplecticSpace):
    if a is not b:
        raise ValueError(f"mismatched spaces {a} and {b}")


def sigma(space: SymplecticSpace, v: dict, w: dict):
    """Symplectic form; bilinear and antisymmetric."""
    total = Fraction(0)
    for i, x in v.items():
        for j, y in w.items():
            s = space.sigma_basis(i, j)
            if s:
                total = total + x * y * s
    return total


def sharp(space: SymplecticSpace, v: dict) -> dict:
    out = {}
    for i, x in v.items():
        j, sg = space.sharp_basis(i)
        out[j] = x if sg == 1 else -x
    return out


def flat(space: SymplecticSpace, c: dict) -> dict:
    out = {}
    for i, x in c.items():
        j, sg = space.flat_basis(i)
        out[j] = x if sg == 1 else -x
    return out


def j_apply(space: SymplecticSpace, v: dict) -> dict:
    """Antilinear quaternionic structure: coefficients are conjugated."""
    out = {}
    for i, x in v.items():
        j, sg = space.j_basis(i)
        x = x.conjugate()
        out[j] = x if sg == 1 else -x
    return out


def hermitian(space: SymplecticSpace, v: dict, w: dict):
    """sigma(v, Jw); positive definite, antilinear in the second slot."""
    return sigma(space, v, j_apply(space, w))


def pairing(c: dict, v: dict):
    """Evaluate a covector on a vector."""
    total = Fraction(0)
    for i, x in c.items():
        y = v.get(i)
        if y:
            total = total + x * y
    return total


# -- generic sparse element helpers, shared by all modules -------------

def add_into(acc: dict, key, val):
    if not val:
        return
    new = acc.get(key, 0) + val
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)


def scale(elem: dict, factor) -> dict:
    if not factor:
        return {}
    return {k: factor * v for k, v in elem.items()}


def add(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, v in y.items():
        add_into(out, k, v)
    return out


def sub(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, v in y.items():
        add_into(out, k, -v)
    return out


def is_positive(x) -> bool:
    """Positivity in the real subfield, for Fraction or Scalar values."""
    if isinstance(x, Scalar):
        return x.is_positive_real()
    return x > 0
