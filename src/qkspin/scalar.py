"""Exact arithmetic in the field Q(i, sqrt2).

Every coefficient appearing in the constructions of this package lives in
the field generated over the rationals by i and sqrt(2).  A `Scalar` stores
the four rational coordinates with respect to the basis {1, sqrt2, i,
i*sqrt2}, which makes equality, hashing and conjugation trivial.  There is
no floating point anywhere: `complex(x)` exists for display only.
"""

from __future__ import annotations

from fractions import Fraction

_SQRT2 = 2 ** 0.5


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build a rational from {x!r}")


class Scalar:
    """a + b*sqrt2 + c*i + d*i*sqrt2 with rational a, b, c, d."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = _frac(a)
        self.b = _frac(b)
        self.c = _frac(c)
        self.d = _frac(d)

    # -- constructors ------------------------------------------------

    @classmethod
    def coerce(cls, x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return cls(_frac(x))

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Inverse of `encode`; accepts 'a|b|c|d' with rational components."""
        parts = text.split("|")
        if len(parts) != 4:
            raise ValueError(f"expected 4 components in {text!r}")
        return cls(*[Fraction(p) for p in parts])

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        o = Scalar.coerce(other)
        return Scalar(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = Scalar.coerce(other)
        return Scalar(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __neg__(self):
        return Scalar(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        o = Scalar.coerce(other)
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = o.a, o.b, o.c, o.d
        # (a + b s + c i + d i s)(e + f s + g i + h i s), s^2 = 2, i^2 = -1
        return Scalar(
            a * e + 2 * b * f - c * g - 2 * d * h,
            a * f + b * e - c * h - d * g,
            a * g + c * e + 2 * (b * h + d * f),
            a * h + b * g + c * f + d * e,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Scalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.coerce(other) * self.inverse()

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(i, sqrt2)")
        conj = self.conjugate()
        # self * conj lies in the real subfield Q(sqrt2)
        norm = self * conj
        u, v = norm.a, norm.b
        den = u * u - 2 * v * v  # norm of u + v*sqrt2 down to Q
        return conj * Scalar(Fraction(u, den), Fraction(-v, den))

    def conjugate(self) -> "Scalar":
        """Complex conjugation: fixes sqrt2, negates i."""
        return Scalar(self.a, self.b, -self.c, -self.d)

    # -- predicates --------------------------------------------------

    def __bool__(self):
        return bool(self.a or self.b or self.c or self.d)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        # a rational Scalar equals its Fraction, so it must hash like one
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d))

    @property
    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    @property
    def is_real(self) -> bool:
        return not (self.c or self.d)

    def rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.a

    def is_positive_real(self) -> bool:
        """Exact positivity of a + b*sqrt2 in the ordered subfield Q(sqrt2)."""
        if self.c or self.d:
            return False
        a, b = self.a, self.b
        if b == 0:
            return a > 0
        if a == 0:
            return b > 0
        if a > 0 and b > 0:
            return True
        if a < 0 and b < 0:
            return False
        # opposite signs: compare a^2 with 2 b^2
        return (a * a > 2 * b * b) if a > 0 else (a * a < 2 * b * b)

    # -- rendering ---------------------------------------------------

    def encode(self) -> str:
        """Canonical text form 'a|b|c|d', each component in lowest terms p/q."""
        def comp(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"
        return "|".join(comp(x) for x in (self.a, self.b, self.c, self.d))

    def __complex__(self):
        return complex(float(self.a) + float(self.b) * _SQRT2,
                       float(self.c) + float(self.d) * _SQRT2)

    def __repr__(self):
        terms = []
        for coeff, unit in ((self.a, ""), (self.b, "*s2"), (self.c, "*i"), (self.d, "*i*s2")):
            if coeff:
                terms.append(f"{coeff}{unit}")
        return " + ".join(terms) if terms else "0"


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT2 = Scalar(0, 1)
I = Scalar(0, 0, 1)


def rational(p, q=1) -> Scalar:
    return Scalar(Fraction(p, q))
