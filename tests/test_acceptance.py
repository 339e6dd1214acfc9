"""Acceptance criteria: the exactly checkable algebraic content, end to end.

Every criterion asserts exact equality (tolerance zero: all arithmetic is
in Q(i, sqrt2) or Q) and prints one pass/fail line; the three criteria
with stated runtime budgets assert them too.  Run with `pytest -s
tests/test_acceptance.py` to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction

from qkspin import sparsemat
from qkspin.curvature import (
    BianchiSystem,
    ModelCurvature,
    alpha_fourth,
    curv_span_rank,
    einstein_report,
    injectivity_report,
    ker_m_rank,
    qzero_check,
    random_sym4,
    sym4_acts_trivially,
)
from qkspin.lefschetz import check_ext_relations, check_sym_relations
from qkspin.spinor import SpinorSpace, kraines_eigenvalue, rank_formula
from qkspin.symplectic import SymplecticSpace
from qkspin.weitzenboeck import (
    OP_SLOTS,
    curvature_scalar_identities,
    eq51_vector,
    estimate_bound,
    lichnerowicz_vector,
    recover_matches_closed_form,
    recover_we,
    recover_wh,
    row_combination,
    twistor_elimination_vector,
    we_closed,
    wh_closed,
    w_full,
)


def _passed(num, label):
    print(f"ACCEPTANCE {num:2d} ({label}): PASS")


def test_01_clifford_relation():
    start = time.monotonic()
    for n in (2, 3):
        spin = SpinorSpace(n)
        mats = {t: spin.mu_matrix({t: Fraction(1)})
                for t in spin.tangent_basis()}
        for tx in spin.tangent_basis():
            for ty in spin.tangent_basis():
                anti = sparsemat.madd(
                    sparsemat.compose(mats[tx], mats[ty]),
                    sparsemat.compose(mats[ty], mats[tx]))
                g = spin.metric({tx: Fraction(1)}, {ty: Fraction(1)})
                expect = {k: {k: -2 * g} for k in range(spin.dim)} if g else {}
                assert not sparsemat.msub(anti, expect), (n, tx, ty)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"Clifford relation took {elapsed:.1f}s"
    _passed(1, f"Clifford relation, n=2,3, exact, {elapsed:.1f}s")


def test_02_spinor_dimensions():
    for n in (1, 2, 3, 4):
        spin = SpinorSpace(n)
        for r in range(n + 1):
            assert spin.grade_dim(r) == rank_formula(n, r), (n, r)
        assert spin.dim == 4 ** n
    assert [rank_formula(2, r) for r in range(3)] == [5, 8, 3]
    for n in range(1, 7):
        assert sum(rank_formula(n, r) for r in range(n + 1)) == 4 ** n
    _passed(2, "spinor ranks, constructed = formula, n <= 4")


def test_03_kraines_casimir():
    assert [kraines_eigenvalue(2, r) for r in range(3)] == [12, 0, -20]
    for n in (2, 3):
        spin = SpinorSpace(n)
        for r in range(n + 1):
            cas = spin.casimir_matrix(r)
            scalar = Fraction(-r * (r + 2))
            if scalar:
                assert sparsemat.is_scalar_multiple(cas, r + 1, scalar), (n, r)
            else:
                assert not cas
            combined = sparsemat.madd(
                sparsemat.identity(r + 1, Fraction(6 * n)),
                sparsemat.mscale(cas, Fraction(4)))
            assert sparsemat.is_scalar_multiple(
                combined, r + 1, kraines_eigenvalue(n, r)), (n, r)
        # Clifford action of Sym^2 H two-forms equals twice the derivation
        flat = spin.flat_basis()
        idx = {k: m for m, k in enumerate(flat)}
        for pair in [(0, 0), (0, 1), (1, 1)]:
            mat = spin.two_form_matrix(pair)
            expect = {}
            for key in flat:
                p, q, hm, col = key
                colm = {idx[(p, q, hm2, col)]: 2 * v
                        for hm2, v in spin.sym2h_derivation(pair, hm).items()}
                if colm:
                    expect[idx[key]] = colm
            diff = sparsemat.msub(mat, expect)
            assert not {c: v for c, v in diff.items() if flat[c][0] >= 1}, \
                (n, pair)
    _passed(3, "Casimir -r(r+2), Kraines 6n-4r(r+2), two-form action")


def test_04_operator_lemmas():
    from qkspin.lefschetz import check_sl2
    for n in (1, 2, 3, 4):
        E = SymplecticSpace(n)
        assert all(c.ok for c in check_sl2(E))
        for s in range(n + 1):
            checks = check_ext_relations(E, s)
            assert all(c.ok for c in checks), \
                (n, s, [c for c in checks if not c.ok])
    for r in range(0, 6):
        checks = check_sym_relations(r)
        assert all(c.ok for c in checks), (r, [c for c in checks if not c.ok])
    # the two number-operator constants at sample degrees
    named = {c.name: c for c in check_ext_relations(SymplecticSpace(2), 1)}
    assert named["number operator de_i_ e_i^circ (s=1)"].value == Fraction(5, 2)
    named = {c.name: c for c in check_sym_relations(2)}
    assert named["number operator dh_i_ h_i (r=2)"].value == Fraction(4, 3)
    _passed(4, "contraction/wedge operator relations, n <= 4, all degrees")


def test_05_curvature_space():
    assert [curv_span_rank(N) for N in (2, 3, 4)] == [1, 6, 20]
    assert [ker_m_rank(N) for N in (2, 3, 4)] == [1, 6, 20]
    rep = injectivity_report(1)
    assert rep["i_sym_injective"] and not rep["i_lambda_injective"]
    rep = injectivity_report(2)
    assert rep["i_sym_injective"] and rep["i_lambda_injective"]
    # round trips are asserted in depth by the unit suite; spot-check here
    from qkspin.curvature import (comult_delta, mult_m, s2l2_curv_part,
                                  s2l2_lambda4_part)
    from qkspin.symplectic import add_into
    rng = random.Random(5)
    from qkspin.curvature import s2l2_basis
    keys = s2l2_basis(4)
    for _ in range(10):
        x = {}
        for _ in range(4):
            add_into(x, keys[rng.randrange(len(keys))],
                     Fraction(rng.randint(-3, 3)))
        recon = dict(s2l2_curv_part(x))
        for k, v in comult_delta(s2l2_lambda4_part(x)).items():
            add_into(recon, k, v)
        assert recon == x
        assert not mult_m(s2l2_curv_part(x))
    _passed(5, "Curv dims {1,6,20}, isomorphisms, injectivity switch")


def test_06_bianchi_equivalence():
    start = time.monotonic()
    for n in (1, 2):
        rep = BianchiSystem(n).solution_equals_ker_m()
        expected = (4 * n) ** 2 * ((4 * n) ** 2 - 1) // 12
        assert rep["equal"], (n, rep)
        assert rep["dim_solutions"] == expected, (n, rep)
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"Bianchi check took {elapsed:.1f}s"
    _passed(6, f"Bianchi I-III' = ker(m), dims 20/336, {elapsed:.1f}s")


def test_07_einstein_ricci():
    rng = random.Random(7)
    for n in (2, 3):
        for trial in range(20):
            rform = random_sym4(n, rng)
            model = ModelCurvature(n, rform)
            assert model.ricci_coefficient("hyper") == (0, None), (n, trial)
        rep = einstein_report(ModelCurvature(n, random_sym4(n, rng)))
        assert rep["ricci_H"] == -3
        assert rep["ricci_E"] == -(2 * n + 1)
        assert rep["einstein_coefficient"] == Fraction(1, 4 * n)
    _passed(7, "Ricci constants -3 / -(2n+1) / 0 (20 seeded forms), "
               "Einstein kappa/(4n)")


def test_08_sym4_triviality():
    rng = random.Random(8)
    for n in (2, 3):
        forms = [alpha_fourth(n, {i: Fraction(rng.randint(-3, 3))
                                  for i in range(2 * n)})]
        forms += [random_sym4(n, rng) for _ in range(3 if n == 3 else 6)]
        for k, rform in enumerate(forms):
            model = ModelCurvature(n, rform)
            assert sym4_acts_trivially(model)["ok"], (n, k)
            for r in range(n + 1):
                assert qzero_check(model, r)["ok"], (n, k, r)
    _passed(8, "symmetric 4-forms act trivially, ambient and primitive")


def test_09_weitzenboeck_recovery():
    start = time.monotonic()
    for n in (2, 3):
        for r in range(1, n):
            assert recover_wh(n, r) == wh_closed(r), r
            assert recover_we(n, r) == we_closed(n, r), (n, r)
        for r in range(n + 1):
            rep = recover_matches_closed_form(n, r)
            assert rep["ok"], (n, r, rep["mismatches"])
            if 1 <= r <= n - 1:
                assert rep["alive"] == [0, 1, 2, 3, 4, 5]
    # symbolic spot entries of the Kronecker product
    for n in range(2, 6):
        for r in range(n + 1):
            w = w_full(n, r)
            assert w.entries[0][0] == Fraction(1, n - r + 1)
            assert w.entries[0][1] == Fraction(-r, (n - r + 1) * (r + 1))
            we, wh = we_closed(n, r), wh_closed(r)
            for i, a, j, b in itertools.product(range(3), range(2),
                                                range(3), range(2)):
                assert w.entries[2 * i + a][2 * j + b] == we[i][j] * wh[a][b]
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"recovery took {elapsed:.1f}s"
    _passed(9, f"Weitzenboeck matrices recovered by brute force, {elapsed:.1f}s")


def test_10_curvature_scalar_identities():
    for n in (2, 3):
        for r in range(n + 1):
            rep = curvature_scalar_identities(n, r)
            assert rep["h_identity_ok"] and rep["e_identity_ok"], (n, r)
            assert rep["h_eigenvalue"] == -r * (r + 2)
            assert rep["e_eigenvalue"] == -(n - r) * (n + r + 2)
            assert rep["kappa4_coefficient_h"] == Fraction(r * (r + 2), n + 2)
            assert rep["kappa4_coefficient_e"] == \
                Fraction((n + r + 2) * (n - r), n * (n + 2))
    _passed(10, "curvature-scalar operator sums -r(r+2) and -(n-r)(n+r+2)")


def test_11_row_combinations():
    for n in (2, 3):
        for r in range(1, n):
            combo = row_combination(n, r, lichnerowicz_vector(n, r))
            ops = combo["operator_coefficients"]
            assert ops["D+- D-+"] == 1 and ops["D-+ D+-"] == 1
            assert all(ops[k] == 0 for k in
                       ("D-- D++", "D++ D--", "T+* T+", "T-* T-"))
            assert combo["lhs_kappa4"] == 1   # nabla*nabla + kappa/4 = D^2

            combo = row_combination(n, r, eq51_vector(n, r))
            halved = [x * OP_SLOTS[j][0] for j, x in enumerate(combo["atW"])]
            assert halved[:4] == [
                Fraction(r, 2), Fraction(r * (r + 2), 2 * (r + 1)),
                Fraction(r * r, 2 * (r + 1)),
                Fraction(r * r * (r + 2), 2 * (r + 1) ** 2)]
            assert combo["atW"][4] == combo["atW"][5] == 0
            assert combo["lhs_kappa4"] == Fraction(r * r * (r + 2),
                                                   n * (n + 2))
        for r in range(0, n):
            combo = row_combination(n, r, twistor_elimination_vector(n, r))
            assert combo["atW"][3] == 0 and combo["atW"][5] == 0
            assert combo["lhs_kappa4"] == \
                Fraction((r + 2) * (n + r + 2), n + 2)
    _passed(11, "Lichnerowicz / twistor-free / estimate row combinations")


def test_12_bound_values():
    for n in range(2, 7):
        rep = estimate_bound(n, 0, Fraction(4))
        assert rep["coefficient"] == Fraction(n + 3, n + 2)
        assert rep["ratio_rederived"] == rep["coefficient"]
        assert rep["agree"]
    for n in (2, 3):
        for r in range(0, n):
            rep = estimate_bound(n, r, Fraction(4))
            assert rep["coefficient"] == Fraction(n + r + 3, n + 2)
            assert rep["agree"]
    assert estimate_bound(2, 0, 16)["bound"] == 5
    assert estimate_bound(3, 1, 4)["ratio_rederived"] == Fraction(7, 5)
    _passed(12, "bound (n+r+3)/(n+2) kappa/4, re-derived from row vectors")
