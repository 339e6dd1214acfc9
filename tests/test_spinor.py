"""Spinor decomposition, Clifford relation, Kraines/Casimir, adjointness."""

import random
from fractions import Fraction

from qkspin import sparsemat, spinor
from qkspin.lefschetz import primitive_space
from qkspin.powers import SymPower, extended_sigma_ext, j_ext, sym_ops
from qkspin.scalar import SQRT2, Scalar
from qkspin.spinor import (
    SpinorSpace,
    kraines_eigenvalue,
    primitive_gram,
    rank_formula,
)
from qkspin.symplectic import SymplecticSpace
from qkspin.verify import run_suite


def rand_spinor(space, bigrades, rng, complex_coeffs=True):
    out = {}
    for key in space.flat_basis():
        if (key[0], key[1]) in bigrades and rng.random() < 0.5:
            c = Scalar(rng.randint(-3, 3), 0,
                       rng.randint(-2, 2) if complex_coeffs else 0, 0)
            if c:
                out[key] = c
    return out


def rand_tangent(space, rng):
    return {(rng.randrange(2), rng.randrange(space.E.dim)):
            Scalar(rng.randint(-2, 2), 0, rng.randint(-2, 2), 0)}


def test_rank_formula_and_construction():
    assert [rank_formula(2, r) for r in range(3)] == [5, 8, 3]
    assert rank_formula(3, 3) == 4
    S = SpinorSpace(2)
    for r in range(3):
        assert S.grade_dim(r) == rank_formula(2, r)
    assert S.dim == 16
    for n in range(1, 7):
        assert sum(rank_formula(n, r) for r in range(n + 1)) == 4 ** n


def test_equal_spinor_spaces_share_cached_matrices():
    S, T = SpinorSpace(2), SpinorSpace(2)
    assert S is not T and S == T and hash(S) == hash(T)
    assert S != SpinorSpace(3)
    assert S.flat_basis() is T.flat_basis()
    for t in S.tangent_basis():
        assert S.clifford_basis_matrix(t) is T.clifford_basis_matrix(t)


def test_clifford_relation_n2_all_pairs():
    S = SpinorSpace(2)
    mats = {t: S.mu_matrix({t: Fraction(1)}) for t in S.tangent_basis()}
    for tx in S.tangent_basis():
        for ty in S.tangent_basis():
            anti = sparsemat.madd(sparsemat.compose(mats[tx], mats[ty]),
                                  sparsemat.compose(mats[ty], mats[tx]))
            g = S.metric({tx: Fraction(1)}, {ty: Fraction(1)})
            expect = {k: {k: -2 * g} for k in range(S.dim)} if g else {}
            assert not sparsemat.msub(anti, expect), (tx, ty)


def test_clifford_on_null_vector():
    S = SpinorSpace(2)
    x = {(0, 0): Fraction(1)}  # g(X, X) = 0
    m = S.mu_matrix(x)
    assert not sparsemat.madd(sparsemat.compose(m, m), sparsemat.compose(m, m))


def test_grading():
    S = SpinorSpace(2)
    rng = random.Random(2)
    for _ in range(20):
        x = rand_tangent(S, rng)
        r = rng.randrange(0, 3)
        psi = rand_spinor(S, {(r, 2 - r)}, rng)
        img = S.mu(x, psi)
        assert all(k[0] in (r - 1, r + 1) for k in img)


def test_mu_components_degenerate_grades():
    S = SpinorSpace(2)
    rng = random.Random(3)
    x = rand_tangent(S, rng)
    psi0 = rand_spinor(S, {(0, 2)}, rng)
    assert S.mu_minus_plus(x, psi0) == {}          # Sym^-1 H is empty
    psin = rand_spinor(S, {(2, 0)}, rng)
    assert S.mu_plus_minus(x, psin) == {}          # Lambda^-1 E is empty


def test_hermitian_positive_on_basis():
    for n in (2, 3):
        S = SpinorSpace(n)
        for key in S.flat_basis():
            v = S.hermitian({key: Fraction(1)}, {key: Fraction(1)})
            assert v.is_positive_real(), key


def test_hermitian_gram_matches_the_elementwise_form():
    for n in (1, 2):
        S = SpinorSpace(n)
        flat = S.flat_basis()
        gram = S.hermitian_gram()
        for k1, b1 in enumerate(flat):
            for k2, b2 in enumerate(flat):
                want = S.hermitian({b1: Fraction(1)}, {b2: Fraction(1)})
                got = gram.get(k2, {}).get(k1, Fraction(0))
                assert isinstance(got, Fraction) and got == want, (b1, b2)


def test_hermitian_sesquilinear():
    S = SpinorSpace(2)
    rng = random.Random(7)
    for _ in range(20):
        r = rng.randrange(0, 3)
        psi1 = rand_spinor(S, {(r, 2 - r)}, rng)
        psi2 = rand_spinor(S, {(r, 2 - r)}, rng)
        assert S.hermitian(psi1, psi2) == S.hermitian(psi2, psi1).conjugate()
        if psi1:
            assert S.hermitian(psi1, psi1).is_positive_real()


def test_adjointness_relations():
    S = SpinorSpace(2)
    rng = random.Random(11)
    for _ in range(40):
        x = rand_tangent(S, rng)
        xbar = S.conjugate_tangent(x)
        r = rng.randrange(0, 3)
        psi1 = rand_spinor(S, {(r, 2 - r)}, rng)
        up = rand_spinor(S, {(r + 1, 1 - r)}, rng) if r + 1 <= 2 else {}
        lhs = S.hermitian(S.mu_plus_minus(x, psi1), up)
        rhs = S.hermitian(psi1, S.mu_minus_plus(xbar, up))
        assert lhs == -rhs
        aux = rand_spinor(S, {(r + 1, 3 - r)}, rng) if 3 - r <= 2 else {}
        lhs = S.hermitian(S.mu_plus_plus(x, psi1), aux)
        rhs = S.hermitian(psi1, S.mu_minus_minus(xbar, aux))
        assert lhs == rhs


def test_adjointness_exact_on_all_basis_triples():
    # both relations are C-linear in the tangent slot, so checking every
    # basis tangent vector against every pair of basis spinors is exhaustive
    S = SpinorSpace(2)
    n = S.n
    for t in S.tangent_basis():
        x = {t: Fraction(1)}
        xbar = S.conjugate_tangent(x)
        for r in range(n + 1):
            source = S.grade_basis(r)
            raised = S.grade_basis(r + 1)
            for b1 in source:
                img = S.mu_plus_minus(x, {b1: Fraction(1)})
                for b2 in raised:
                    lhs = S.hermitian(img, {b2: Fraction(1)})
                    rhs = S.hermitian({b1: Fraction(1)},
                                      S.mu_minus_plus(xbar, {b2: Fraction(1)}))
                    assert lhs == -rhs, (t, b1, b2)
            outside = S.bigrade_basis(r + 1, n - r + 1)
            for b1 in source:
                img = S.mu_plus_plus(x, {b1: Fraction(1)})
                for b2 in outside:
                    lhs = S.hermitian(img, {b2: Fraction(1)})
                    rhs = S.hermitian({b1: Fraction(1)},
                                      S.mu_minus_minus(xbar, {b2: Fraction(1)}))
                    assert lhs == rhs, (t, b1, b2)


def test_real_structure_involution():
    S = SpinorSpace(2)
    rng = random.Random(13)
    for _ in range(20):
        x = rand_tangent(S, rng)
        xx = S.conjugate_tangent(S.conjugate_tangent(x))
        assert xx == x


def test_two_form_action():
    S = SpinorSpace(2)
    flat = S.flat_basis()
    idx = {k: m for m, k in enumerate(flat)}
    for pair in [(0, 0), (0, 1), (1, 1)]:
        M = S.two_form_matrix(pair)
        expect = {}
        for key in flat:
            p, q, hm, col = key
            colm = {}
            for hm2, v in S.sym2h_derivation(pair, hm).items():
                colm[idx[(p, q, hm2, col)]] = 2 * v
            if colm:
                expect[idx[key]] = colm
        assert not sparsemat.msub(M, expect), pair


def test_sym_ladder_derivation_is_the_elementwise_sym2h_action():
    # the Sym^2 H member of the oracle and the Casimir read the ladder's
    # derivation, mul after the plain contraction; sym2h_derivation is the
    # elementwise reference
    S = SpinorSpace(1)
    hops = sym_ops(S.H)
    for r in range(6):
        sym = SymPower(S.H, r)
        for pair in [(a, b) for a in range(2) for b in range(2)]:
            want = sparsemat.from_images(
                (S.sym2h_derivation(pair, hm) for hm in sym.basis), sym.coords)
            assert hops.derivation(r, *pair) == want, (r, pair)
            assert bool(want) == (r > 0)


def test_two_form_antisymmetry():
    # mu(X wedge Y) = -mu(Y wedge X) via the defining formula
    S = SpinorSpace(2)
    rng = random.Random(17)
    for _ in range(10):
        x, y = rand_tangent(S, rng), rand_tangent(S, rng)
        mx, my = S.mu_matrix(x), S.mu_matrix(y)
        g = Scalar.coerce(S.metric(x, y))
        ident = sparsemat.identity(S.dim, Scalar(1))
        xy = sparsemat.madd(sparsemat.compose(mx, my), sparsemat.mscale(ident, g))
        yx = sparsemat.madd(sparsemat.compose(my, mx), sparsemat.mscale(ident, g))
        assert not sparsemat.madd(xy, yx)


def test_casimir_and_kraines():
    S = SpinorSpace(2)
    for r in range(3):
        C = S.casimir_matrix(r)
        want = Fraction(-r * (r + 2))
        if want:
            assert sparsemat.is_scalar_multiple(C, r + 1, want)
        else:
            assert not C
    assert [kraines_eigenvalue(2, r) for r in range(3)] == [12, 0, -20]
    # 6n id + 4 C gives the Kraines eigenvalue gradewise
    for r in range(3):
        C = S.casimir_matrix(r)
        op = sparsemat.madd(sparsemat.identity(r + 1, Fraction(6 * S.n)),
                            sparsemat.mscale(C, Fraction(4)))
        assert sparsemat.is_scalar_multiple(op, r + 1, kraines_eigenvalue(2, r))


def test_clifford_matrix_is_rational():
    rng = random.Random(19)
    for n in (2, 3):
        S = SpinorSpace(n)
        xs = [{t: Fraction(1)} for t in S.tangent_basis()]
        xs.append({t: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for t in S.tangent_basis()})
        for x in xs:
            M = S.clifford_matrix(x)
            assert M
            assert all(type(v) is Fraction
                       for col in M.values() for v in col.values()), (n, x)


def test_mu_matrix_is_sqrt2_times_clifford_matrix():
    S = SpinorSpace(2)
    flat = S.flat_basis()
    rng = random.Random(29)
    for _ in range(10):
        x = {}
        for _ in range(3):
            t = (rng.randrange(2), rng.randrange(S.E.dim))
            x[t] = Scalar(rng.randint(-2, 2), 0, rng.choice((-2, -1, 1, 2)), 0)
        M, mu = S.clifford_matrix(x), S.mu_matrix(x)
        assert mu.keys() == M.keys()
        for col, mcol in M.items():
            assert mu[col].keys() == mcol.keys()
            for row, v in mcol.items():
                assert mu[col][row] == SQRT2 * v
            # and against mu applied to the basis spinor directly
            img = S.mu(x, {flat[col]: Fraction(1)})
            assert img == {flat[row]: w for row, w in mu[col].items()}


def test_two_form_matrix_matches_mu_products():
    # the defining sum_k mu(x_k) mu(y_k) + g(x_k, y_k) id, from mu_matrix
    S = SpinorSpace(2)
    for i, j in [(0, 0), (0, 1), (1, 1)]:
        total = {}
        for k in range(S.E.dim):
            kf, sg = S.E.flat_basis(k)
            x = {(i, kf): Fraction(sg)}
            y = {(j, k): Fraction(1)}
            prod = sparsemat.compose(S.mu_matrix(x), S.mu_matrix(y))
            g = S.metric(x, y)
            if g:
                prod = sparsemat.madd(
                    prod, sparsemat.identity(S.dim, Scalar.coerce(g)))
            total = sparsemat.madd(total, prod)
        assert not sparsemat.msub(S.two_form_matrix((i, j)), total), (i, j)


def test_clifford_basis_matrix_matches_the_elementwise_rule():
    # the Kronecker-built matrix against the elementwise _clifford rule
    for n in (1, 2, 3):
        S = SpinorSpace(n)
        for t in S.tangent_basis():
            want = sparsemat.from_images(
                (S._clifford({t: Fraction(1)}, {key: Fraction(1)})
                 for key in S.flat_basis()), S.coords)
            got = S.clifford_basis_matrix(t)
            assert got == want, (n, t)
            assert all(type(v) is Fraction
                       for col in got.values() for v in col.values()), (n, t)


def test_primitive_gram_matches_the_elementwise_table():
    for n in range(1, 5):
        E = SymplecticSpace(n)
        for q in range(n + 1):
            basis = primitive_space(E, q).basis
            want = [[extended_sigma_ext(E, b1, j_ext(E, b2)) for b2 in basis]
                    for b1 in basis]
            got = primitive_gram(E, q)
            assert got == want, (n, q)
            assert all(type(v) is Fraction for row in got for v in row), (n, q)


def test_clifford_suite_multiplication_budget(monkeypatch):
    # a deterministic cost guard: with the primitive and Sym^r H ladders
    # built and the spinor caches cleared, the n = 3 clifford suite took
    # 1,375 Fraction products, against 14,312 when every basis matrix was
    # built spinor by spinor, the Gram pair by pair, and the checks
    # composed Fraction matrices
    run_suite("clifford", 3)
    S = SpinorSpace
    for cached in (S.flat_basis, S._flat_index, S._grade_blocks,
                   S.clifford_basis_matrix, S.scaled_clifford,
                   S.scaled_hermitian_gram, spinor.sym_gram,
                   spinor.primitive_gram, spinor.sym2h_dual_pairs):
        cached.cache_clear()
    count = [0]
    mul = Fraction.__mul__

    def counting(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Fraction, "__mul__", counting)
    checks = run_suite("clifford", 3)
    assert all(c.ok for c in checks)
    assert 0 < count[0] <= 1510, count[0]
