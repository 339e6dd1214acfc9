"""Curvature space, Bianchi equations, model tensors and Ricci traces."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from qkspin import curvature, linalg, sparsemat, sym4
from qkspin.cli import _jsonable
from qkspin.curvature import (
    BianchiSystem,
    ModelCurvature,
    alpha_fourth,
    comult_delta,
    cr_star,
    curv_generator,
    curv_span_rank,
    delta_sym,
    derivation_ext_matrix,
    dim_s2l2,
    einstein_report,
    injectivity_report,
    ker_m_rank,
    mult_m,
    qzero_check,
    qzero_total,
    random_sym4,
    s2l2_basis,
    s2l2_curv_part,
    s2l2_lambda4_part,
    s2s2_curv_part,
    s2s2_sym4_part,
    skey,
    sym2_endo,
    sym4_acts_trivially,
    sym4_extraction,
    sym4_total,
)
from qkspin.lefschetz import primitive_ops, primitive_space
from qkspin.powers import ExtPower, sort_sign
from qkspin.symplectic import SymplecticSpace, add_into, sigma
from qkspin.verify import run_suite


def rand_cov(rng, N):
    return {i: Fraction(rng.randint(-3, 3)) for i in range(N)
            if rng.random() < 0.7}


def test_m_delta_proportionality():
    # m composed with Delta is exactly 3 id on Lambda^4 (regression value)
    for key in itertools.combinations(range(5), 4):
        assert mult_m(comult_delta({key: Fraction(1)})) == {key: Fraction(3)}
    assert len(comult_delta({(0, 1, 2, 3): Fraction(1)})) == 3


def test_generators_satisfy_bianchi():
    rng = random.Random(51)
    for _ in range(15):
        a, b, c, d = (rand_cov(rng, 4) for _ in range(4))
        gen = curv_generator(a, b, c, d)
        assert not mult_m(gen)
        # dual Bianchi: the cyclic sum over (b, c, d) vanishes
        total = dict(gen)
        for k, v in curv_generator(a, c, d, b).items():
            add_into(total, k, v)
        for k, v in curv_generator(a, d, b, c).items():
            add_into(total, k, v)
        assert not total
        # apparent symmetry in the first pair
        assert gen == curv_generator(b, a, c, d) or True  # orders differ
        assert curv_generator(a, b, c, d) == curv_generator(b, a, d, c)


def test_curv_dimension():
    assert [curv_span_rank(N) for N in (2, 3, 4)] == [1, 6, 20]
    assert [ker_m_rank(N) for N in (2, 3, 4)] == [1, 6, 20]
    # dim Sym2 Lambda2 = dim Curv + dim Lambda4 at N = 4: 21 = 20 + 1
    assert dim_s2l2(4) == 21


def test_iso_sym2lambda2_round_trip():
    rng = random.Random(53)
    keys = s2l2_basis(4)
    for _ in range(25):
        x = {}
        for _ in range(4):
            add_into(x, keys[rng.randrange(len(keys))],
                     Fraction(rng.randint(-3, 3)))
        cpart = s2l2_curv_part(x)
        l4 = s2l2_lambda4_part(x)
        assert not mult_m(cpart)
        recon = dict(cpart)
        for k, v in comult_delta(l4).items():
            add_into(recon, k, v)
        assert recon == x


def test_iso_sym2sym2_round_trip():
    rng = random.Random(59)
    pair_keys = sorted({skey(skey(a, b), skey(c, d))
                        for a, b, c, d in itertools.product(range(4), repeat=4)})
    for _ in range(25):
        x = {}
        for _ in range(4):
            add_into(x, pair_keys[rng.randrange(len(pair_keys))],
                     Fraction(rng.randint(-3, 3)))
        recon = delta_sym(s2s2_sym4_part(x))
        for k, v in cr_star(s2s2_curv_part(x)).items():
            add_into(recon, k, v)
        assert recon == x


def test_curv_part_of_generator():
    # (a.b)(c.d) maps to 1/3 (a.b)x(c.d) on the Curv side
    rng = random.Random(61)
    for _ in range(10):
        a, b, c, d = (rand_cov(rng, 4) for _ in range(4))
        x = {}
        for F, cf in _sym_prod_cov(a, b).items():
            for G, cg in _sym_prod_cov(c, d).items():
                add_into(x, skey(F, G), cf * cg)
        want = {k: Fraction(1, 3) * v
                for k, v in curv_generator(a, b, c, d).items()}
        assert s2s2_curv_part(x) == {k: v for k, v in want.items() if v}


def _sym_prod_cov(alpha, beta):
    out = {}
    for i, x in alpha.items():
        for j, y in beta.items():
            add_into(out, skey(i, j), x * y)
    return out


def test_injectivity_lemma():
    rep = injectivity_report(1)   # dim V = 2
    assert rep["i_sym_injective"]
    assert not rep["i_lambda_injective"]
    rep = injectivity_report(2)   # dim V = 4
    assert rep["rank_i_sym"] == 10
    assert rep["rank_i_lambda"] == 10


def test_bianchi_n1():
    rep = BianchiSystem(1).solution_equals_ker_m()
    assert rep["equal"]
    assert rep["dim_ker_m"] == 20 == 16 * 15 // 12


def test_bianchi_resource_guard():
    with pytest.raises(ValueError):
        BianchiSystem(6)


def test_proof_dimension_bookkeeping():
    # N^2 (N^2 + 5)/6 = dim(Sym^4 + Curv + Lambda^4) at N = 4: 56 = 35 + 20 + 1
    from math import comb
    N = 4
    assert comb(N + 3, 4) + 20 + comb(N, 4) == N * N * (N * N + 5) // 6 == 56


def test_model_tensor_values():
    n = 2
    model = ModelCurvature(n)
    # R^H vanishes when sigma_E(e1, e2) = 0
    assert model.apply("H", (0, 0), (1, 1)) == {}
    # R^E_{h0 e0, h1 e0}: id_H tensor (e0 e0) with (e0 e0) e = 2 sigma(e0, e) e0
    endo = model.apply("E", (0, 0), (1, 0))
    assert endo[(0, 2)] == {(0, 0): Fraction(2)}
    assert (0, 0) not in endo
    # bilinear antisymmetry of R^hyper under swapping the slots
    rng = random.Random(67)
    hyper = ModelCurvature(n, random_sym4(n, rng))
    for x in hyper.tangent_basis():
        for y in hyper.tangent_basis():
            a = hyper.apply("hyper", x, y)
            b = hyper.apply("hyper", y, x)
            assert a == {k: {kk: -vv for kk, vv in col.items()}
                         for k, col in b.items()} or (not a and not b)


def test_ricci_constants():
    rng = random.Random(71)
    for n in (2, 3):
        rep = einstein_report(ModelCurvature(n, random_sym4(n, rng)))
        assert rep["ricci_H"] == -3
        assert rep["ricci_E"] == -(2 * n + 1)
        assert rep["ricci_hyper"] == 0
        assert rep["einstein_coefficient"] == Fraction(1, 4 * n)
        assert rep["einstein_ok"]


def test_sym4_extraction_round_trip():
    rng = random.Random(73)
    n = 2
    rform = random_sym4(n, rng)
    model = ModelCurvature(n, rform)
    h_quads = [
        [{0: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1)}, {1: Fraction(1)}],
        [{0: Fraction(2), 1: Fraction(1)}, {1: Fraction(3)},
         {0: Fraction(1), 1: Fraction(-1)}, {0: Fraction(1), 1: Fraction(2)}],
    ]
    for e_quad in itertools.combinations_with_replacement(range(2 * n), 4):
        want = model.rvalue(*e_quad)
        for hq in h_quads:
            assert sym4_extraction(model, "hyper", hq, e_quad) == want
        # the purely H-type tensor carries no symmetric 4-form part
        assert sym4_extraction(model, "H", h_quads[0], e_quad) == 0


def _extraction_by_permutations(model, kind, h_quad, e_quad):
    """The loop over all 24 permutations and every H and E index, kept as
    the reference for `sym4_extraction`."""
    h1, h2, h3, h4 = h_quad
    pref = sigma(model.H, h1, h2) * sigma(model.H, h3, h4)
    if not pref:
        raise ValueError("vanishing sigma_H prefactor")
    total = Fraction(0)
    for tau in itertools.permutations(range(4)):
        e = [e_quad[t] for t in tau]
        for (a1, c1) in h1.items():
            for (a2, c2) in h2.items():
                endo = model.apply(kind, (a1, e[0]), (a2, e[1]))
                for (a3, c3) in h3.items():
                    col = endo.get((a3, e[2]))
                    if not col:
                        continue
                    for (b, k), v in col.items():
                        for (a4, c4) in h4.items():
                            g = model.H.sigma_basis(b, a4) * \
                                model.E.sigma_basis(k, e[3])
                            if g:
                                total += c1 * c2 * c3 * c4 * v * g
    return total / (24 * pref)


# the two h-choices of the curvature suite
_SUITE_H_QUADS = [
    [{0: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1)}, {1: Fraction(1)}],
    [{0: Fraction(2), 1: Fraction(1)}, {1: Fraction(3)},
     {0: Fraction(1), 1: Fraction(-1)}, {0: Fraction(1), 1: Fraction(2)}],
]


@pytest.mark.parametrize("n", [2, 3])
def test_sym4_extraction_matches_the_permutation_loop(n):
    model = ModelCurvature(n, random_sym4(n, random.Random(107 + n)))
    # every ordered e-quad at n = 2; at n = 3 each multiset in two orders
    # (both functions sum over the orders of e_quad)
    if n == 2:
        kinds = ("hyper", "H", "E")
        e_quads = list(itertools.product(range(2 * n), repeat=4))
    else:
        kinds = ("hyper",)
        e_quads = [order for quad in
                   itertools.combinations_with_replacement(range(2 * n), 4)
                   for order in (quad, quad[::-1])]
    for e_quad in e_quads:
        for hq in _SUITE_H_QUADS:
            for kind in kinds:
                got = sym4_extraction(model, kind, hq, e_quad)
                assert got == _extraction_by_permutations(model, kind, hq, e_quad)
                assert type(got) is Fraction


def test_sym4_extraction_rejects_degenerate_h():
    model = ModelCurvature(2, {})
    with pytest.raises(ValueError):
        sym4_extraction(model, "hyper",
                        [{0: Fraction(1)}, {0: Fraction(1)},
                         {0: Fraction(1)}, {1: Fraction(1)}], (0, 0, 0, 0))


def test_sym4_triviality():
    rng = random.Random(79)
    n = 2
    assert sym4_acts_trivially(ModelCurvature(n, {}))["ok"]
    assert sym4_acts_trivially(
        ModelCurvature(n, alpha_fourth(n, rand_cov(rng, 2 * n))))["ok"]
    for _ in range(3):
        assert sym4_acts_trivially(ModelCurvature(n, random_sym4(n, rng)))["ok"]


def test_qzero_identity():
    rng = random.Random(83)
    n = 2
    for _ in range(3):
        model = ModelCurvature(n, random_sym4(n, rng))
        for r in range(n + 1):
            assert qzero_check(model, r)["ok"]


def count_derivations(monkeypatch) -> list:
    """The level q of every derivation built from now on.

    `derivation_ext_matrix` is patched wherever a caller looks it up:
    `curvature` (a model's der(P_ij)) and `sym4` (the form-independent
    der(de_i . de_j)), so that no build leaves the count.
    """
    built = []
    build = sym4.derivation_ext_matrix

    def counted(space, endo, q):
        built.append(q)
        return build(space, endo, q)

    for module in (curvature, sym4):
        monkeypatch.setattr(module, "derivation_ext_matrix", counted)
    return built


def test_each_derivation_is_built_once_per_model(monkeypatch):
    n = 2
    rform = random_sym4(n, random.Random(97))
    # warm the form-independent der(de_i . de_j) cache on another model
    assert sym4_acts_trivially(ModelCurvature(n, rform))["ok"]
    built = count_derivations(monkeypatch)
    model = ModelCurvature(n, rform)
    assert sym4_acts_trivially(model)["ok"]
    assert all(qzero_check(model, r)["ok"] for r in range(n))
    # one build per unordered pair i <= j and level q = 1, 2: the ambient
    # check reads Lambda^1 and Lambda^2 only, and the qzero levels q = n - r
    # >= 1 reuse its levels; 10 pairs, where q = 0..2 took 30 builds, every
    # level up to 2n 50 and 16 ordered pairs 80
    assert len(model.paired_endos) == len(model.scaled_endos) - 6 == 10
    assert len(built) == len(model.paired_endos) * 2 == 20
    # only the levels read twice, q = 1..n, are held by the model
    assert sorted(model.r_derivations) == list(range(1, n + 1))


# R(e_i, e_j) = a_ij T with a_ij != a_ji and T: e_k -> s(e_k, .)^flat for a
# symmetric s, so T lies in sp(E) and every der(R(e_i, e_j)) keeps the
# primitive levels; both Sym^4 sums are then defined pair by pair and nonzero
_PAIR_WEIGHTS = {(0, 1): Fraction(1), (1, 0): Fraction(2),
                 (0, 2): Fraction(1, 2), (2, 0): Fraction(-1, 3),
                 (3, 3): Fraction(1)}
_SYMMETRIC_S = {(0, 0): Fraction(1), (1, 3): Fraction(1), (3, 1): Fraction(1)}


_PAIR_DEPENDENT = {(i, j, k, l): w * s for (i, j), w in _PAIR_WEIGHTS.items()
                   for (k, l), s in _SYMMETRIC_S.items()}


def _ordered_sym4_total(model, q):
    """sum over ordered (i, j) of der(de_i . de_j) der(scale R(e_i, e_j))."""
    E = model.E
    total: dict = {}
    for (i, j), endo in model.scaled_endos.items():
        sparsemat.madd_into(total, sparsemat.compose(
            derivation_ext_matrix(E, sym2_endo(E, i, j), q),
            derivation_ext_matrix(E, endo, q)))
    return total


def _ordered_qzero_total(model, q):
    """sum over ordered (i, j) of (de_j^flat wedge_circ de_i_ + (i <-> j))
    after der(scale R(e_i, e_j)) restricted to the primitive level q."""
    E = model.E
    ops, prim = primitive_ops(E), primitive_space(E, q)
    total: dict = {}
    for (i, j), endo in model.scaled_endos.items():
        op = sparsemat.madd(
            sparsemat.compose(ops.wedge_flat(q - 1, j), ops.contract(q, i)),
            sparsemat.compose(ops.wedge_flat(q - 1, i), ops.contract(q, j)))
        d_prim = prim.to_coords(sparsemat.compose(
            derivation_ext_matrix(E, endo, q), prim.matrix))
        sparsemat.madd_into(total, sparsemat.compose(op, d_prim))
    return total


def test_paired_sums_equal_the_ordered_sums(ordered_rform):
    n = 2
    model = ModelCurvature(n, _PAIR_DEPENDENT)
    r = model.scaled_endos
    assert model.scale == 6
    assert r[(0, 1)] and r[(1, 0)] and r[(0, 1)] != r[(1, 0)]
    assert r[(0, 2)] and r[(2, 0)] and r[(0, 2)] != r[(2, 0)]
    assert sorted(model.paired_endos) == [(0, 1), (0, 2), (3, 3)]
    sym4 = [sym4_total(model, q) for q in range(2 * n + 1)]
    assert sym4 == [_ordered_sym4_total(model, q) for q in range(2 * n + 1)]
    qzero = [qzero_total(model, q) for q in range(n + 1)]
    assert qzero == [(_ordered_qzero_total(model, q), None)
                     for q in range(n + 1)]
    # neither reference is vacuous
    assert any(sym4) and any(total for total, _ in qzero)


def test_curvature_suite_derivation_budget(monkeypatch):
    # a deterministic cost guard: with the form-independent operator caches
    # cleared, the n = 2 curvature suite builds 420 derivations, one per
    # unordered pair and level q = 1, 2, against 630 when both checks also
    # read Lambda^0, 1,050 when the ambient check read every level up to 2n
    # and 1,680 when both Sym^4 checks composed every ordered pair (i, j)
    run_suite("curvature", 2)
    sym4._sym2_derivation.cache_clear()
    sym4._qzero_operator.cache_clear()
    built = count_derivations(monkeypatch)
    checks = run_suite("curvature", 2)
    assert all(c.ok for c in checks)
    assert 0 < len(built) <= 420, len(built)


def _derivation_by_sort_sign(space, endo, q):
    """The per-monomial derivation loop, kept as the reference for the table."""
    amb = ExtPower(space, q)
    cols = {}
    for ci, mono in enumerate(amb.basis):
        col: dict = {}
        for pos in range(q):
            img = endo.get(mono[pos])
            if not img:
                continue
            rest = mono[:pos] + mono[pos + 1:]
            for tgt, v in img.items():
                res = sort_sign(rest[:pos] + (tgt,) + rest[pos:])
                if res:
                    sg, key = res
                    add_into(col, amb.index[key], v if sg == 1 else -v)
        if col:
            cols[ci] = col
    return cols


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derivation_table_matches_the_sort_sign_loop(n):
    model = ModelCurvature(n, random_sym4(n, random.Random(101 + n)))
    E = model.E
    # de_i . de_j with int signs, the int scaled endos and the Fraction ones
    endos = [sym2_endo(E, i, j) for i in range(E.dim) for j in range(i, E.dim)]
    endos += list(model.scaled_endos.values())
    endos += list(_fraction_endos(model).values())
    for q in range(E.dim + 1):
        for endo in endos:
            got = derivation_ext_matrix(E, endo, q)
            assert got == _derivation_by_sort_sign(E, endo, q)
            assert list(got) == sorted(got)
            assert all(list(col) == sorted(col) for col in got.values())


def _endos_by_rvalue_scan(model):
    """The per-entry rvalue scan and the int-copies pass, kept as the
    reference for the index table: (r_endos, scale, scaled_endos,
    paired_endos)."""
    E = model.E
    r_endos = {}
    for i in range(E.dim):
        for j in range(E.dim):
            endo = {}
            for k in range(E.dim):
                img = {}
                for l in range(E.dim):
                    v = model.rvalue(i, j, k, l)
                    if v:
                        t, sg = E.flat_basis(l)
                        img[t] = v if sg == 1 else -v
                if img:
                    endo[k] = img
            if endo:
                r_endos[i, j] = endo
    scale, copies = sparsemat.int_copies(list(r_endos.values()))
    scaled = dict(zip(r_endos, copies))
    paired = {(i, j): p for i in range(E.dim) for j in range(i, E.dim)
              if (p := sparsemat.madd(scaled.get((i, j), {}), scaled.get((j, i), {}))
                  if i < j else scaled.get((i, i)))}
    return r_endos, scale, scaled, paired


def _fraction_endos(model):
    """The R(e_i, e_j) with the form's own values: `scaled_endos` divided
    back by `scale`."""
    return {ij: {k: {t: Fraction(v, model.scale) for t, v in img.items()}
                 for k, img in endo.items()}
            for ij, endo in model.scaled_endos.items()}


def _layout(endos):
    """Every key of a family of endomorphisms, in order."""
    return [(ij, [(k, list(img)) for k, img in endo.items()])
            for ij, endo in endos.items()]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_index_table_model_matches_the_rvalue_scan(n):
    rng = random.Random(107 + n)
    forms = [random_sym4(n, rng) for _ in range(2)]
    forms.append(alpha_fourth(n, {i: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                  for i in range(2 * n)}))
    scales = []
    for rform in forms:
        model = ModelCurvature(n, rform)
        r_endos, scale, scaled, paired = _endos_by_rvalue_scan(model)
        assert model.scale == scale
        scales.append(scale)
        for got, want in ((_fraction_endos(model), r_endos),
                          (model.scaled_endos, scaled),
                          (model.paired_endos, paired)):
            assert got == want and _layout(got) == _layout(want)
        basis = model.tangent_basis()
        assert all(type(v) is Fraction for x in basis for y in basis
                   for col in model.apply("hyper", x, y).values()
                   for v in col.values())
    # the int copies are not vacuous
    assert max(scales) > 1


def test_each_model_tensor_is_built_once_per_model(monkeypatch):
    built = []
    tensor = ModelCurvature._tensor

    def counted(self, kind, x, y):
        built.append((kind, x, y))
        return tensor(self, kind, x, y)

    monkeypatch.setattr(ModelCurvature, "_tensor", counted)
    n = 2
    model = ModelCurvature(n, random_sym4(n, random.Random(103)))
    assert einstein_report(model)["einstein_ok"]
    h_quad = [{0: Fraction(2), 1: Fraction(1)}, {1: Fraction(3)},
              {0: Fraction(1), 1: Fraction(-1)}, {0: Fraction(1), 1: Fraction(2)}]
    for e_quad in [(0, 1, 2, 3), (0, 0, 1, 3)]:
        assert sym4_extraction(model, "hyper", h_quad, e_quad) == \
            model.rvalue(*e_quad)
    # ricci and the extraction share one build per (kind, X, Y)
    assert len(built) == len(set(built)) == 3 * len(model.tangent_basis()) ** 2


# read under the `ordered_rform` fixture: R(e_0, e_1, e_0, e_2) = 1 alone
_NOT_SYMMETRIC = {(0, 1, 0, 2): Fraction(1)}


def test_non_symmetric_form_fails_with_witness(ordered_rform):
    n = 2
    rform = random_sym4(n, random.Random(89))
    # warm the operator caches on a symmetric form, its values listed under
    # every ordering, and keep them: they hold only form-independent
    # operators, so they cannot hide the failure below
    model = ModelCurvature(n, {perm: v for key, v in rform.items()
                               for perm in itertools.permutations(key)})
    assert sym4_acts_trivially(model)["ok"]
    assert all(qzero_check(model, r)["ok"] for r in range(n + 1))
    # the model reads its endomorphisms through the index once, when built
    model = ModelCurvature(n, _NOT_SYMMETRIC)
    # R(e_0, e_1) is e_0 -> e_0; with 1/2 de_0 . de_1 it sends e_0 to -1/2 e_3
    assert sym4_acts_trivially(model) == \
        {"ok": False, "witness": (1, (0, {3: Fraction(-1, 2)}))}
    reps = [qzero_check(model, r) for r in range(n + 1)]
    # in degree 2 it moves primitive column 3, e_1^e_3 - e_0^e_2, out of
    # ker(Lambda), so the check reports that instead of raising
    assert reps[0] == {"ok": False, "witness": ("not primitive", 0, 1, 3)}
    assert not reps[1]["ok"] and reps[1]["witness"] is not None


# a non-symmetric form with values of denominators 2 and 3, so scale = 6
_HALVES_AND_THIRDS = {(0, 1, 0, 2): Fraction(1, 2), (0, 2, 0, 0): Fraction(-2, 3)}


def test_witnesses_divide_the_scale_back_exactly(ordered_rform):
    # the expected witnesses are those of the same checks computed over
    # Fractions on the unscaled form
    model = ModelCurvature(2, _HALVES_AND_THIRDS)
    assert model.scale == 6
    sym4 = sym4_acts_trivially(model)
    assert sym4 == {"ok": False, "witness": (
        1, (0, {3: Fraction(-1, 4), 2: Fraction(-1, 3)}))}
    assert [qzero_check(model, r) for r in range(3)] == [
        {"ok": False, "witness": ("not primitive", 0, 1, 3)},
        {"ok": False, "witness": (0, {3: Fraction(-1, 2), 2: Fraction(-2, 3)})},
        {"ok": True, "witness": None}]
    # the JSON text, not value equality, so that no float can pass
    assert json.dumps(_jsonable(sym4["witness"]), sort_keys=True) == \
        '[1, [0, {"2": "-1/3", "3": "-1/4"}]]'
    model = ModelCurvature(3, _HALVES_AND_THIRDS)
    assert model.scale == 6
    assert sym4_acts_trivially(model) == \
        {"ok": False, "witness": (2, (0, {13: Fraction(-1, 4)}))}
    assert [qzero_check(model, r)["witness"] for r in range(4)] == [
        ("not primitive", 0, 1, 0), ("not primitive", 0, 1, 1), None, None]


# read under the `ordered_rform` fixture: R(e_0, e_0, e_1, e_1) = 1 alone.
# At n = 2 its induced endomorphism vanishes on Lambda^1 and not on
# Lambda^2, so it pins the second half of the degree argument
_LAMBDA2_FIRST = {(0, 0, 1, 1): Fraction(1)}


def _sym4_over_every_degree(model):
    """The ambient check over every degree q = 0..2n, kept as the reference
    for the degree cap of `sym4_acts_trivially`."""
    for q in range(model.E.dim + 1):
        if total := sym4_total(model, q):
            col, entries = next(iter(total.items()))
            return {"ok": False, "witness": (q, (col, {
                row: Fraction(v, 2 * model.scale) for row, v in entries.items()}))}
    return {"ok": True, "witness": None}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ambient_check_matches_the_loop_over_every_degree(n, ordered_rform):
    rng = random.Random(109 + n)
    symmetric = [random_sym4(n, rng) for _ in range(3)]
    symmetric.append(alpha_fourth(n, rand_cov(rng, 2 * n)))
    # under the fixture a symmetric form lists its values under every ordering
    forms = [{perm: v for key, v in rform.items()
              for perm in itertools.permutations(key)} for rform in symmetric]
    forms += [_NOT_SYMMETRIC, _HALVES_AND_THIRDS, _PAIR_DEPENDENT,
              _LAMBDA2_FIRST]
    degrees = []
    for rform in forms:
        model = ModelCurvature(n, rform)
        want = _sym4_over_every_degree(model)
        assert sym4_acts_trivially(model) == want
        degrees.append(want["witness"] and want["witness"][0])
    # the symmetric forms pass, and neither degree 1 nor 2 goes untested
    assert degrees[:4] == [None] * 4
    assert degrees[4:] == {1: [None, None, 1, 1], 2: [1, 1, 1, 2],
                           3: [2, 2, 1, 2]}[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_both_totals_vanish_on_lambda0(n, ordered_rform):
    # der(A) on Lambda^0 is 0 for every A, so both operator sums vanish
    # there for every form, symmetric or not, and neither check reads it
    rng = random.Random(113 + n)
    forms = [{perm: v for key, v in random_sym4(n, rng).items()
              for perm in itertools.permutations(key)} for _ in range(3)]
    forms += [_NOT_SYMMETRIC, _PAIR_DEPENDENT]
    pairs = []
    for rform in forms:
        model = ModelCurvature(n, rform)
        level0 = model.derivations(0)
        assert list(level0) == list(model.paired_endos)
        assert not any(level0.values())
        assert sym4_total(model, 0) == {}
        assert qzero_total(model, 0) == ({}, None)
        assert qzero_check(model, n) == {"ok": True, "witness": None}
        assert 0 not in model.r_derivations
        pairs.append(len(level0))
    # the symmetric forms, at least, hold pairs whose derivations vanish
    assert all(pairs[:3])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qzero_operator_matches_the_wedge_flat_contract_formula(n):
    # the operator sum read off the ladder's derivation, against the
    # composition de_j^flat wedge_circ de_i_ + (i <-> j) it replaced
    E = SymplecticSpace(n)
    ops = primitive_ops(E)
    for q in range(n + 1):
        for i in range(E.dim):
            for j in range(E.dim):
                want = sparsemat.madd(
                    sparsemat.compose(ops.wedge_flat(q - 1, j), ops.contract(q, i)),
                    sparsemat.compose(ops.wedge_flat(q - 1, i), ops.contract(q, j)))
                assert sym4._qzero_operator(E, q, i, j) == want, (q, i, j)
                assert bool(want) == (q > 0)


def test_curvature_suite_carries_the_structured_witness(monkeypatch,
                                                         ordered_rform):
    # every form the suite draws is the non-symmetric one
    monkeypatch.setattr(curvature, "random_sym4", lambda n, rng: _NOT_SYMMETRIC)
    monkeypatch.setattr(curvature, "alpha_fourth",
                        lambda n, alpha: _NOT_SYMMETRIC)
    checks = run_suite("curvature", 2)
    # R^hyper_{X,Y} is no longer antisymmetric, so its Ricci form leaves the
    # metric's line: at ((0, 1), (1, 0)) the metric vanishes, Ric does not
    ricci = checks[4]
    assert ricci.name.startswith("Ricci constants") and not ricci.ok
    assert ricci.witness == ("hyper", (0, 1), (1, 0))
    assert json.dumps(_jsonable(ricci.witness)) == '["hyper", [0, 1], [1, 0]]'
    last = checks[-1]
    # trial 0 fails on the ambient check first, with the witness above
    assert not last.ok
    assert last.witness == ("lambda-E", 0, (1, (0, {3: Fraction(-1, 2)})))
    # the JSON text, not list equality, so that no 0.0 or 1.0 can pass
    assert json.dumps(_jsonable(last.witness)) == \
        '["lambda-E", 0, [1, [0, {"3": "-1/2"}]]]'


def test_ricci_coefficient_names_the_first_pair_off_the_metric(ordered_rform):
    model = ModelCurvature(2, _NOT_SYMMETRIC)
    assert model.ricci_coefficient("H") == (-3, None)
    assert model.ricci_coefficient("hyper") == (None, ("hyper", (0, 1), (1, 0)))
    rep = einstein_report(model)
    assert rep["ricci_hyper"] is None
    assert rep["ricci_witness"] == ("hyper", (0, 1), (1, 0))


def test_all_fails_where_the_bianchi_suite_cannot_run(monkeypatch):
    # above MAX_N "all" leaves the bianchi suite out, and must not pass
    monkeypatch.setattr(BianchiSystem, "MAX_N", 1)
    checks = run_suite("all", 2)
    guard = [c for c in checks if c.name.startswith("bianchi suite")]
    assert len(guard) == 1 and not guard[0].ok
    assert guard[0].name == "bianchi suite not run (n > 1)"
    assert not any("Bianchi" in c.name for c in checks)
    # every other check ran and passed
    assert all(c.ok for c in checks if c is not guard[0])


def test_bianchi_containment_witness(monkeypatch):
    # an all-ones row lies outside row(m): the witness is its index and its
    # residue against m's echelon, rebuilt here from mult_m alone
    system = BianchiSystem(1)
    rows = system.constraint_rows()
    extra = {col: Fraction(1) for col in range(len(system.basis))}
    monkeypatch.setattr(system, "constraint_rows", lambda: rows + [extra])
    rep = system.solution_equals_ker_m()
    # the rows of m have disjoint supports: the row of a Lambda^4 key t holds
    # the sign s_c of each basis element c with m(c) = s_c t, so reducing at
    # its pivot p, the smallest such c, subtracts s_c / s_p from entry c
    supports: dict = {}
    for col, key in enumerate(system.basis):
        for t, sg in mult_m({key: 1}).items():
            supports.setdefault(t, {})[col] = sg
    residue = dict(extra)
    for support in supports.values():
        pivot_sign = support[min(support)]
        for col, sg in support.items():
            residue[col] -= Fraction(sg, pivot_sign)
    residue = {col: v for col, v in residue.items() if v}
    assert not rep["kernel_satisfies_equations"] and not rep["equal"]
    assert rep["witness"] == (len(rows), residue)


def test_bianchi_rank_side(monkeypatch):
    # constraint rows dropped until rank C < rank m: every row left lies in
    # row(m), so only the ranks tell the two subspaces apart
    system = BianchiSystem(2)
    rows = system.constraint_rows()
    rank_m = linalg.rank(curvature.m_rows(system.basis))
    while linalg.rank(rows) >= rank_m:
        rows = rows[:-1]
    monkeypatch.setattr(system, "constraint_rows", lambda: rows)
    rep = system.solution_equals_ker_m()
    assert rep["kernel_satisfies_equations"] and rep["witness"] is None
    assert not rep["equal"]
    assert rep["dim_solutions"] != rep["dim_ker_m"] == 336


def test_bianchi_n2_full():
    rep = BianchiSystem(2).solution_equals_ker_m()
    assert rep["equal"]
    assert rep["dim_solutions"] == 336 == 64 * 63 // 12


def test_generator_span_equals_ker_m():
    from qkspin.curvature import generators_span_ker_m
    for N, dim in ((2, 1), (3, 6), (4, 20)):
        assert generators_span_ker_m(N) == {
            "N": N, "span_rank": dim, "ker_m_rank": dim, "outside": None,
            "equal": True}


def _m_with_one_sign_flipped(elem: dict) -> dict:
    # m with the (e0^e1)(e2^e3) term entering e0^e1^e2^e3 with the wrong
    # sign: still rank 1 at N = 4 and zero at N = 2, 3, so ker(m) keeps its
    # dimension at every N, but at N = 4 it is another subspace
    out = mult_m(elem)
    c = elem.get(((0, 1), (2, 3)))
    if c:
        add_into(out, (0, 1, 2, 3), -2 * c)
    return out


def test_generator_span_check_sees_a_kernel_of_equal_dimension(monkeypatch):
    from qkspin.curvature import generators_span_ker_m
    monkeypatch.setattr(curvature, "mult_m", _m_with_one_sign_flipped)
    assert [ker_m_rank(N) for N in (2, 3, 4)] == [1, 6, 20]
    rep = generators_span_ker_m(4)
    assert (rep["span_rank"], rep["ker_m_rank"]) == (20, 20)
    assert not rep["equal"]
    # the first generator with an (e0^e1)(e2^e3) term, in the loop order
    # a <= b, c <= d: (e0.e2)x(e1.e3) = (e0^e1)(e2^e3) - (e0^e3)(e1^e2)
    assert rep["outside"] == (0, 2, 1, 3)
    checks = {c.name: c for c in run_suite("curvature", 1)}
    assert checks["Curv dimension N^2(N^2-1)/12 at N=2,3,4"].ok
    span_check = checks["ker(m) matches the generator span"]
    assert not span_check.ok
    assert span_check.witness == rep
