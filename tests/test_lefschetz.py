"""sl2 triple, primitive subspaces and the operator relation suites."""

import json
import random
import sys
from fractions import Fraction

import pytest

from qkspin import lefschetz, sparsemat
from qkspin.cli import main
from qkspin.lefschetz import (
    L_op,
    NotPrimitiveError,
    PrimitiveDimensionError,
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
from qkspin.powers import ExtPower, Ladder, ext_contract, ext_wedge_vec
from qkspin.sym4 import derivation_ext_matrix
from qkspin.symplectic import SymplecticSpace, add_into, sub
from qkspin.verify import run_suite


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


def _clear_caches():
    """Empty every functools cache of the package, so the next use rebuilds."""
    for name, module in list(sys.modules.items()):
        if name != "qkspin" and not name.startswith("qkspin."):
            continue
        for obj in vars(module).values():
            members = list(vars(obj).values()) if isinstance(obj, type) else []
            for member in [obj] + members:
                if hasattr(member, "cache_clear"):
                    member.cache_clear()


def _expect_one_more_primitive_vector(monkeypatch):
    # the formula claims one primitive 1-vector more than ker(Lambda) holds;
    # with the caches cleared, every primitive level is rebuilt and checked
    real = lefschetz.primitive_dim
    monkeypatch.setattr(lefschetz, "primitive_dim",
                        lambda n, q: real(n, q) + (q == 1))
    _clear_caches()


def test_wrong_primitive_dimension_raises_with_a_witness(monkeypatch):
    _expect_one_more_primitive_vector(monkeypatch)
    with pytest.raises(PrimitiveDimensionError) as exc:
        primitive_space(SymplecticSpace(2), 1)
    assert exc.value.witness == (2, 1, 4, 5)
    assert isinstance(exc.value, AssertionError)


def test_verify_reports_a_wrong_primitive_dimension(monkeypatch, capsys):
    _expect_one_more_primitive_vector(monkeypatch)
    checks = run_suite("clifford", 2)
    assert [(c.name, c.ok, c.witness) for c in checks] == [
        ("spinor ranks match formula (n=2)", False, (2, 1, 4, 5))]
    checks = run_suite("all", 2)
    failed = [c for c in checks if not c.ok]
    assert [c.name for c in failed] == [
        "spinor ranks match formula (n=2)",
        "primitive subspace dimensions in the lemmas suite (n=2)",
        "primitive subspace dimensions in the curvature suite (n=2)",
        "primitive subspace dimensions in the weitzenboeck suite (n=2)",
    ]
    assert all(c.witness == (2, 1, 4, 5) for c in failed)
    assert [c.name for c in checks if c.ok] == [
        "Bianchi solution space dimension (n=2)",
        "solutions of I-III' equal ker(m) as subspaces"]
    code = main(["verify", "--n", "2", "--suite", "clifford", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["checks"] == [{"name": "spinor ranks match formula (n=2)",
                              "status": "fail", "witness": [2, 1, 4, 5]}]


def test_dims_reports_a_wrong_primitive_dimension(monkeypatch, capsys):
    _expect_one_more_primitive_vector(monkeypatch)
    code = main(["dims", "--n", "2", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["checks"] == [
        {"name": "total rank equals 4^2", "status": "pass", "witness": None},
        {"name": "constructed dimensions match the formula", "status": "fail",
         "witness": [2, 1, 4, 5]}]
    assert all("constructed" not in row for row in rep["values"]["rows"])


def test_weitzenboeck_oracle_reports_a_wrong_primitive_dimension(
        monkeypatch, capsys):
    _expect_one_more_primitive_vector(monkeypatch)
    for r in (1, 0):
        code = main(["weitzenboeck", "--n", "2", "--r", str(r), "--oracle",
                     "--format", "json"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 1
        assert rep["checks"] == [{"name": "closed form = oracle",
                                  "status": "fail", "witness": [2, 1, 4, 5]}]


def test_primitive_degree_out_of_range():
    with pytest.raises(ValueError):
        primitive_space(SymplecticSpace(2), 3)


def test_contraction_preserves_primitivity():
    # complete on a basis: every primitive basis element, every covector
    for n in (2, 3):
        E = SymplecticSpace(n)
        for q in range(1, n + 1):
            for elem in primitive_space(E, q).basis:
                for i in range(E.dim):
                    assert not apply_Lambda(E, ext_contract({i: Fraction(1)}, elem))


def test_wedge_circ_is_projection_of_wedge():
    # the modified wedge equals projector(plain wedge) on primitive input,
    # checked on every primitive basis element and every basis vector
    for n in (2, 3):
        E = SymplecticSpace(n)
        for q in range(0, n):
            prim = primitive_space(E, q)
            target = primitive_space(E, q + 1)
            for elem in prim.basis:
                for i in range(E.dim):
                    vec = {i: Fraction(1)}
                    via_formula = wedge_circ(E, vec, elem)
                    via_proj = target.project(ext_wedge_vec(vec, elem))
                    assert via_formula == via_proj
                    assert not apply_Lambda(E, via_formula)


def test_to_coords_of_the_kernel_basis_is_the_identity():
    for n in (1, 2, 3):
        E = SymplecticSpace(n)
        for q in range(n + 1):
            prim = primitive_space(E, q)
            assert prim.to_coords(prim.matrix) == \
                sparsemat.identity(prim.dim, Fraction(1))


def test_to_coords_rejects_the_image_of_L():
    # L(1) = L_E is the one column of L: Lambda^0 -> Lambda^2, not primitive
    E = SymplecticSpace(2)
    with pytest.raises(ValueError, match="column 0 ") as info:
        primitive_space(E, 2).to_coords(L_op(E, 2))
    assert info.value.column == 0


def _coords_by_reconstruction(prim, m):
    """The B coords = m membership test, kept as the reference for the
    Lambda m = 0 one in `to_coords`."""
    coords = {col: {prim.coord_of[r]: v for r, v in mcol.items()
                    if r in prim.coord_of} for col, mcol in m.items()}
    recon = sparsemat.compose(prim.matrix, coords)
    for col in sorted(m):
        if recon.get(col, {}) != m[col]:
            raise NotPrimitiveError(col)
    return coords


def _outcome(to_coords, m):
    try:
        return to_coords(m)
    except NotPrimitiveError as exc:
        return ("raised", exc.column)


@pytest.mark.parametrize("n", [2, 3])
def test_to_coords_raises_where_the_reconstruction_differs(n):
    # columns mixing primitive ones (int combinations of the kernel basis)
    # with non-primitive ones (a primitive column plus an ambient basis
    # vector outside ker(Lambda)), in shuffled column order
    rng = random.Random(113 + n)
    E = SymplecticSpace(n)
    raised = set()
    for q in range(n + 1):
        prim = primitive_space(E, q)
        outside = [k for k in range(prim.ambient.dim)
                   if k in prim.lambda_op]
        for _ in range(30):
            m = {}
            for col in rng.sample(range(8), rng.randint(1, 8)):
                combo = {k: rng.randint(-2, 2) for k in range(prim.dim)}
                vec = sparsemat.apply_cols(prim.matrix, combo)
                if outside and rng.random() < 0.3:
                    add_into(vec, rng.choice(outside), 1)
                if vec:
                    m[col] = vec
            got = _outcome(prim.to_coords, m)
            assert got == _outcome(lambda m: _coords_by_reconstruction(prim, m), m)
            if isinstance(got, tuple):
                raised.add(q)
    # the non-primitive case is reached at every level that has one
    assert raised == {q for q in range(n + 1) if q >= 2}


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
    # off the primitive ladder every operator is the zero matrix; the level
    # is tested before the `Ladder.matrix` lookup, so no off-ladder key is
    # cached.  The sign-flipped sharp and flat variants are cached there too.
    ops = primitive_ops(SymplecticSpace(2))
    cache = Ladder.matrix
    before = cache.cache_info()
    for i in range(4):
        assert ops.contract(0, i) == {}
        assert ops.contract(3, i) == {}
        assert ops.wedge(-1, i) == {}
        assert ops.wedge(2, i) == {}
        assert ops.contract_sharp(3, i) == {}
        assert ops.wedge_flat(-1, i) == {}
    assert cache.cache_info() == before
    for i in range(4):
        assert ops.contract(1, i) is ops.contract(1, i)
        assert ops.wedge(1, i) is ops.wedge(1, i)
        assert ops.contract_sharp(1, i) is ops.contract_sharp(1, i)
        assert ops.wedge_flat(1, i) is ops.wedge_flat(1, i)
        assert ops.contract_sharp(0, i) == {} and ops.wedge_flat(2, i) == {}
    assert cache.cache_info().hits >= before.hits + 16
    # each matrix and each variant is built once: reading them again only hits
    built = cache.cache_info()
    for i in range(4):
        for name in ("contract", "wedge", "contract_sharp", "wedge_flat"):
            assert getattr(ops, name)(1, i) is ops.matrix(name, 1, i)
    after = cache.cache_info()
    assert after.misses == built.misses and after.hits == built.hits + 32
    for i in range(4):
        # e_i^sharp = sg de_j: the flipped copy is sg times the plain one
        j, sg = ops.space.sharp_basis(i)
        assert ops.contract_sharp(1, i) == \
            {c: {k: sg * v for k, v in col.items()}
             for c, col in ops.contract(1, j).items()}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_primitive_derivation_is_the_restricted_derivation(n):
    # the ladder's derivation of e_x e_y, wedge_circ after the contraction,
    # is the derivation extension of e -> sigma(e_x, e) e_y + sigma(e_y, e) e_x
    # restricted to the primitive level: the coordinates of its product with B
    E = SymplecticSpace(n)
    ops = primitive_ops(E)
    for q in range(n + 1):
        prim = primitive_space(E, q)
        for x in range(E.dim):
            for y in range(E.dim):
                endo = {}
                for k in range(E.dim):
                    img: dict = {}
                    for a, b in ((x, y), (y, x)):
                        add_into(img, b, E.sigma_basis(a, k))
                    if img:
                        endo[k] = img
                want = prim.to_coords(sparsemat.compose(
                    derivation_ext_matrix(E, endo, q), prim.matrix))
                assert ops.derivation(q, x, y) == want, (q, x, y)
                assert bool(want) == (q > 0)


def test_operator_tables_equal_the_elementwise_rules():
    # every table-built operator against the matrix of its elementwise rule,
    # for every degree and index at n <= 4
    from qkspin.lefschetz import H_op, Lambda_op
    one = Fraction(1)
    for n in (1, 2, 3, 4):
        E = SymplecticSpace(n)

        def rule_matrix(rule, q_in, q_out):
            return sparsemat.from_images(
                (rule({mono: one}) for mono in ExtPower(E, q_in).basis),
                ExtPower(E, q_out).coords)

        def commutator(x):
            return sub(apply_Lambda(E, apply_L(E, x)), apply_L(E, apply_Lambda(E, x)))

        for q in range(2 * n + 1):
            assert L_op(E, q) == rule_matrix(lambda x: apply_L(E, x), q - 2, q)
            assert Lambda_op(E, q) == rule_matrix(
                lambda x: apply_Lambda(E, x), q, q - 2)
            assert H_op(E, q) == rule_matrix(commutator, q, q)
        for q in range(n + 1):
            prim = primitive_space(E, q)
            for i in range(E.dim):
                if q >= 1:
                    lower = primitive_space(E, q - 1)
                    assert prim.contract_matrix(i, lower) == lower.to_coords(
                        sparsemat.from_images(
                            (ext_contract({i: one}, b) for b in prim.basis),
                            lower.ambient.coords))
                if q < n:
                    upper = primitive_space(E, q + 1)
                    assert prim.wedge_circ_matrix(i, upper) == upper.to_coords(
                        sparsemat.from_images(
                            (wedge_circ(E, {i: one}, b) for b in prim.basis),
                            upper.ambient.coords))
