"""sl2 triple, primitive subspaces and the operator relation suites."""

import random
from fractions import Fraction

import pytest

from qkspin import sparsemat
from qkspin.lefschetz import (
    apply_L,
    apply_Lambda,
    canonical_bivector,
    check_ext_relations,
    check_sl2,
    check_sym_relations,
    primitive_dim,
    primitive_ops,
    primitive_space,
    wedge_circ,
)
from qkspin.powers import ExtPower, ext_contract, ext_wedge_vec
from qkspin.symplectic import SymplecticSpace


def test_lowest_weight():
    for n in (1, 2, 3, 4):
        E = SymplecticSpace(n)
        assert apply_Lambda(E, apply_L(E, {(): Fraction(1)})) == {(): Fraction(n)}


def test_sl2_commutators():
    for n in (1, 2, 3):
        assert all(c.ok for c in check_sl2(SymplecticSpace(n)))


def test_primitive_dimensions():
    assert primitive_space(SymplecticSpace(2), 2).dim == 5
    assert primitive_space(SymplecticSpace(2), 1).dim == 4
    assert primitive_space(SymplecticSpace(3), 3).dim == 14
    for n in (1, 2, 3):
        E = SymplecticSpace(n)
        for q in range(n + 1):
            assert primitive_space(E, q).dim == primitive_dim(n, q)


def test_primitive_degree_out_of_range():
    with pytest.raises(ValueError):
        primitive_space(SymplecticSpace(2), 3)


def test_contraction_preserves_primitivity():
    rng = random.Random(41)
    for n in (2, 3):
        E = SymplecticSpace(n)
        for q in range(1, n + 1):
            prim = primitive_space(E, q)
            for _ in range(10):
                coords = {rng.randrange(prim.dim): Fraction(rng.randint(-3, 3))}
                elem = prim.from_coords(coords)
                eta = {rng.randrange(E.dim): Fraction(1)}
                assert not apply_Lambda(E, ext_contract(eta, elem))


def test_wedge_circ_is_projection_of_wedge():
    # the modified wedge equals projector(plain wedge) on primitive input
    rng = random.Random(43)
    for n in (2, 3):
        E = SymplecticSpace(n)
        for q in range(0, n):
            prim = primitive_space(E, q)
            target = primitive_space(E, q + 1)
            for _ in range(5):
                coords = {rng.randrange(prim.dim): Fraction(rng.randint(-3, 3))}
                elem = prim.from_coords(coords)
                vec = {rng.randrange(E.dim): Fraction(rng.randint(-2, 2))}
                via_formula = wedge_circ(E, vec, elem)
                via_proj = target.project(ext_wedge_vec(vec, elem))
                assert via_formula == via_proj
                assert not apply_Lambda(E, via_formula)


def test_projector_constructions_agree():
    for n in (1, 2, 3, 4):
        E = SymplecticSpace(n)
        for q in range(n + 1):
            prim = primitive_space(E, q)
            assert prim.projector() == prim.projector_sl2()
            if q < 2:
                assert prim.projector() == sparsemat.identity(prim.dim, Fraction(1))


def test_projector_idempotent_and_fixes_subspace():
    for n in (2, 3):
        E = SymplecticSpace(n)
        for q in range(n + 1):
            prim = primitive_space(E, q)
            for elem in prim.basis:
                assert prim.project(elem) == elem
            # projector kills im(L)
            if q >= 2:
                lower = primitive_space(E, q - 2)
                for elem in lower.basis:
                    assert prim.project(apply_L(E, elem)) == {}


def test_ext_relations_small():
    for n in (1, 2):
        E = SymplecticSpace(n)
        for s in range(n + 1):
            checks = check_ext_relations(E, s)
            assert all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_ext_relation_constants():
    # (2n-s+2)(n-s)/(n-s+1) at n=2, s=1 -> 5/2;  e_i^circ de_i_ = s id at s=2
    E = SymplecticSpace(2)
    checks = {c.name: c for c in check_ext_relations(E, 1)}
    assert checks["number operator de_i_ e_i^circ (s=1)"].value == Fraction(5, 2)
    checks = {c.name: c for c in check_ext_relations(E, 2)}
    assert checks["number operator e_i^circ de_i_ (s=2)"].value == 2


def test_sym_relations():
    for r in range(0, 5):
        checks = check_sym_relations(r)
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    checks = {c.name: c for c in check_sym_relations(3)}
    assert checks["number operator dh_i_ h_i (r=3)"].value == Fraction(5, 4)


def test_operator_matrices():
    from qkspin.lefschetz import H_op, L_op, Lambda_op
    for n in (1, 2, 3):
        E = SymplecticSpace(n)
        for q in range(2 * n + 1):
            h = H_op(E, q)
            want = Fraction(n - q)
            dim = len(ExtPower(E, q).basis)
            if want:
                assert sparsemat.is_scalar_multiple(h, dim, want)
            else:
                assert not h
        # lowest-weight identity through the matrix interface
        assert sparsemat.compose(Lambda_op(E, 2), L_op(E, 2)) == \
            {0: {0: Fraction(n)}}


def test_caches_key_on_space_value():
    # two distinct but equal spaces share every cached object
    E, F = SymplecticSpace(2), SymplecticSpace(2)
    assert E is not F
    assert primitive_space(E, 1) is primitive_space(F, 1)
    assert primitive_ops(E) is primitive_ops(F)
    assert canonical_bivector(E) is canonical_bivector(F)
    assert primitive_ops(E) is not primitive_ops(SymplecticSpace(2, "h"))


def test_ladder_is_total():
    # off the primitive ladder every operator is the zero matrix
    ops = primitive_ops(SymplecticSpace(2))
    for i in range(4):
        assert ops.contract(0, i) == {}
        assert ops.contract(3, i) == {}
        assert ops.wedge(-1, i) == {}
        assert ops.wedge(2, i) == {}
        assert ops.contract_sharp(3, i) == {}
        assert ops.wedge_flat(-1, i) == {}
        assert ops.contract(1, i) is ops.contract(1, i)
        assert ops.wedge(1, i) is ops.wedge(1, i)
    # off-ladder keys are never cached
    assert all(1 <= q <= 2 for q, _ in ops._contract)
    assert all(0 <= q < 2 for q, _ in ops._wedge)
