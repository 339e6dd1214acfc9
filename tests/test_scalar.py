"""Field axioms and canonical encoding for Q(i, sqrt2)."""

import random
from fractions import Fraction

import pytest

from qkspin.scalar import I, ONE, SQRT2, Scalar


def rand_scalar(rng, height=12, rational=False):
    def f():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))
    if rational:
        return Scalar(f())
    return Scalar(f(), f(), f(), f())


def test_defining_relations():
    assert SQRT2 * SQRT2 == Scalar(2)
    assert I * I == Scalar(-1)
    assert (ONE + SQRT2) * (SQRT2 - ONE) == ONE


def test_inverse_examples():
    assert Scalar(2).inverse() == Scalar(Fraction(1, 2))
    assert SQRT2.inverse() == Scalar(0, Fraction(1, 2))
    assert SQRT2 * SQRT2.inverse() == ONE
    assert I.inverse() == -I
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def test_conjugate_examples():
    assert (I * SQRT2).conjugate() == -(I * SQRT2)
    assert Scalar(Fraction(3, 4)).conjugate() == Scalar(Fraction(3, 4))


def test_field_axioms_random():
    rng = random.Random(20_240_401)
    for _ in range(200):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x + y == y + x
        assert x * (y + z) == x * y + x * z
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        if x:
            assert x * x.inverse() == ONE
            assert x.inverse().inverse() == x


def test_real_subfield_closed():
    rng = random.Random(7)
    for _ in range(100):
        x = rand_scalar(rng)
        x = Scalar(x.a, x.b)  # force c = d = 0
        y = rand_scalar(rng)
        y = Scalar(y.a, y.b)
        for res in (x + y, x - y, x * y):
            assert res.is_real
        if y:
            assert (x / y).is_real


def test_positivity():
    assert Scalar(1).is_positive_real()
    assert SQRT2.is_positive_real()
    assert (Scalar(3) - SQRT2).is_positive_real()       # 3 > sqrt2
    assert not (SQRT2 - Scalar(2)).is_positive_real()   # sqrt2 < 2
    assert (SQRT2 - Scalar(1)).is_positive_real()
    assert not I.is_positive_real()
    assert not Scalar(0).is_positive_real()


def test_encoding_round_trip():
    rng = random.Random(99)
    for _ in range(50):
        x = rand_scalar(rng)
        assert Scalar.parse(x.encode()) == x
    assert Scalar(Fraction(1, 2), 0, -3, 0).encode() == "1/2|0/1|-3/1|0/1"
    for bad in ("1/2|0/1|-3/1", "1|2|3|4|5", "a|b|c|d"):
        with pytest.raises(ValueError):
            Scalar.parse(bad)


def test_mixed_arithmetic_with_rationals():
    x = Scalar(1, 1)
    assert x + 1 == Scalar(2, 1)
    assert 2 * x == Scalar(2, 2)
    assert Fraction(1, 2) * x == Scalar(Fraction(1, 2), Fraction(1, 2))
    assert (x / 2) * 2 == x


def test_rational_scalar_hashes_like_fraction():
    assert len({Scalar(1), Fraction(1)}) == 1
    assert len({Scalar(Fraction(-3, 4)), Fraction(-3, 4), Scalar(1)}) == 2
    assert {Fraction(2): "two"}[Scalar(2)] == "two"


def test_equal_values_hash_equal():
    for v in (0, 1, -7, Fraction(1, 3), Fraction(-5, 2)):
        s = Scalar(v)
        for twin in (v, Fraction(v), Scalar.parse(s.encode())):
            assert twin == s and hash(twin) == hash(s)
    for x in (SQRT2, I, Scalar(Fraction(1, 2), 3, 0, -1), I * SQRT2):
        twin = Scalar.parse(x.encode())
        assert twin == x and hash(twin) == hash(x)
        unit = x * x.inverse()   # rational, though built from irrational parts
        assert unit == 1 and hash(unit) == hash(1)
