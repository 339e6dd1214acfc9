"""Symplectic form, musical isomorphisms and quaternionic structure."""

import random
from fractions import Fraction

import pytest

from qkspin.scalar import I, Scalar
from qkspin.symplectic import (
    SymplecticSpace,
    flat,
    hermitian,
    is_positive,
    j_apply,
    sharp,
    sigma,
)


def rand_vec(rng, space, complex_coeffs=True):
    v = {}
    for i in range(space.dim):
        if rng.random() < 0.6:
            c = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                       0,
                       Fraction(rng.randint(-5, 5)) if complex_coeffs else 0,
                       0)
            if c:
                v[i] = c
    return v


def test_standard_form():
    E = SymplecticSpace(2)
    assert sigma(E, {0: Fraction(1)}, {2: Fraction(1)}) == 1
    assert sigma(E, {0: Fraction(1)}, {1: Fraction(1)}) == 0
    assert sigma(E, {2: Fraction(1)}, {0: Fraction(1)}) == -1


def test_sigma_antisymmetric_random():
    rng = random.Random(3)
    for m in (1, 2, 3):
        V = SymplecticSpace(m)
        for _ in range(20):
            v, w = rand_vec(rng, V), rand_vec(rng, V)
            assert sigma(V, v, v) == 0
            assert sigma(V, v, w) == -sigma(V, w, v)


def test_sharp_flat_inverse():
    rng = random.Random(5)
    for m in (1, 2, 3, 4):
        V = SymplecticSpace(m)
        for _ in range(10):
            v = rand_vec(rng, V)
            assert flat(V, sharp(V, v)) == v
        # sharp(e_0) pairs to +1 against e_m
        c = sharp(V, {0: Fraction(1)})
        assert c == {m: Fraction(1)}
    assert sharp(SymplecticSpace(2), {}) == {}


def test_sharp_is_sigma_pairing():
    rng = random.Random(8)
    for m in (1, 2, 3):
        V = SymplecticSpace(m)
        for _ in range(10):
            v, w = rand_vec(rng, V), rand_vec(rng, V)
            pair = sum((sharp(V, v).get(i, Scalar(0)) * w.get(i, Scalar(0))
                        for i in range(V.dim)), Scalar(0))
            assert pair == sigma(V, v, w)


def test_j_table_and_antilinearity():
    H = SymplecticSpace(1, name="h")
    assert j_apply(H, {0: Fraction(1)}) == {1: Fraction(1)}
    assert j_apply(H, {1: Fraction(1)}) == {0: Fraction(-1)}
    assert j_apply(H, {0: I}) == {1: -I}
    rng = random.Random(11)
    for m in (1, 2, 3, 4):
        V = SymplecticSpace(m)
        for _ in range(10):
            v = rand_vec(rng, V)
            jj = j_apply(V, j_apply(V, v))
            assert jj == {i: -c for i, c in v.items()}


def test_j_sigma_compatibility():
    rng = random.Random(13)
    for m in (1, 2, 3, 4):
        V = SymplecticSpace(m)
        # on all basis pairs
        for i in range(V.dim):
            for j in range(V.dim):
                lhs = sigma(V, j_apply(V, {i: Scalar(1)}), j_apply(V, {j: Scalar(1)}))
                rhs = sigma(V, {i: Scalar(1)}, {j: Scalar(1)})
                lhs = Scalar.coerce(lhs)
                assert lhs == Scalar.coerce(rhs).conjugate()
        for _ in range(10):
            v = rand_vec(rng, V)
            if v:
                assert is_positive(Scalar.coerce(sigma(V, v, j_apply(V, v))))


def test_hermitian():
    rng = random.Random(17)
    E = SymplecticSpace(2)
    assert hermitian(E, {0: Fraction(1)}, {0: Fraction(1)}) == 1
    assert Scalar.coerce(hermitian(E, {0: I}, {0: I})) == Scalar(1)
    for _ in range(20):
        v, w = rand_vec(rng, E), rand_vec(rng, E)
        assert Scalar.coerce(hermitian(E, v, w)) == \
            Scalar.coerce(hermitian(E, w, v)).conjugate()
        if v:
            assert is_positive(Scalar.coerce(hermitian(E, v, v)))


def test_mismatched_spaces_rejected():
    E, F = SymplecticSpace(2), SymplecticSpace(2)
    from qkspin.symplectic import check_same_space
    with pytest.raises(ValueError):
        check_same_space(E, F)


def test_space_equality_is_by_half_dim_and_name():
    E, F = SymplecticSpace(2), SymplecticSpace(2)
    assert E is not F and E == F and hash(E) == hash(F)
    assert E != SymplecticSpace(2, "h")
    assert E != SymplecticSpace(3)
