"""The relation checker against elementwise Fraction references.

`check_relation` evaluates every operator identity of the suites on int
copies at one lcm scale: the lemma relations, the Clifford relation, the
adjointness, Casimir, two-form action and projector checks, and the
curvature-scalar sums.  The references below are the per-relation loops
it replaced; each test injects a fault through a fresh, uncached owner or
a patch undone after it, so the shared matrices stay intact, and asserts
that both give the same verdicts and witnesses.
"""

from fractions import Fraction

import pytest

from qkspin import lefschetz, powers, sparsemat, spinor, weitzenboeck
from qkspin.lefschetz import (
    Check,
    PrimitiveOps,
    check_ext_relations,
    check_relation,
    check_sym_relations,
)
from qkspin.powers import Ladder, SymOps, sym_contract_circ
from qkspin.symplectic import SymplecticSpace
from qkspin.verify import run_suite, suite_clifford

compose, madd, msub = sparsemat.compose, sparsemat.madd, sparsemat.msub


def reference_ext_relations(space, s):
    n = space.half_dim
    ops = lefschetz.primitive_ops(space)
    dim = ops.level(s).dim
    dim2 = space.dim
    checks = []
    bad = next(((i, j) for i in range(dim2) for j in range(i, dim2)
                if madd(compose(ops.contract(s - 1, i), ops.contract(s, j)),
                        compose(ops.contract(s - 1, j), ops.contract(s, i)))),
               None)
    checks.append(Check(f"contractions anticommute (s={s})", bad is None, bad))
    bad = next(((i, j) for i in range(dim2) for j in range(i, dim2)
                if madd(compose(ops.wedge(s + 1, i), ops.wedge(s, j)),
                        compose(ops.wedge(s + 1, j), ops.wedge(s, i)))),
               None)
    checks.append(Check(f"modified wedges anticommute (s={s})", bad is None, bad))
    one = sparsemat.identity(dim, Fraction(1))

    def mixed_defect(i, j):
        lhs = madd(compose(ops.contract(s + 1, i), ops.wedge(s, j)),
                   compose(ops.wedge(s - 1, j), ops.contract(s, i)))
        rhs = sparsemat.mscale(compose(ops.wedge_flat(s - 1, i),
                                       ops.contract_sharp(s, j)),
                               Fraction(1, n - s + 1))
        return msub(lhs, madd(rhs, one) if i == j else rhs)

    bad = next(((i, j) for i in range(dim2) for j in range(dim2)
                if mixed_defect(i, j)), None)
    checks.append(Check(f"mixed anticommutator relation (s={s})", bad is None, bad))
    expect = Fraction((2 * n - s + 2) * (n - s), n - s + 1)
    total = madd(*(compose(ops.contract(s + 1, i), ops.wedge(s, i))
                   for i in range(dim2)))
    ok = sparsemat.is_scalar_multiple(total, dim, expect)
    checks.append(Check(f"number operator de_i_ e_i^circ (s={s})", ok,
                        None if ok else total, expect))
    total = madd(*(compose(ops.wedge(s - 1, i), ops.contract(s, i))
                   for i in range(dim2)))
    ok = sparsemat.is_scalar_multiple(total, dim, Fraction(s))
    checks.append(Check(f"number operator e_i^circ de_i_ (s={s})", ok,
                        None if ok else total, Fraction(s)))
    return checks


def reference_sym_relations(r):
    ops = lefschetz.sym_ops(SymplecticSpace(1, name="h"))
    mul, circ = ops.mul, ops.contract_circ
    dim = r + 1
    pairs = [(i, j) for i in range(2) for j in range(2)]
    checks = []
    bad = next(((i, j) for i, j in pairs
                if msub(compose(mul(r + 1, i), mul(r, j)),
                        compose(mul(r + 1, j), mul(r, i)))), None)
    checks.append(Check(f"symmetric products commute (r={r})", bad is None, bad))
    bad = next(((i, j) for i, j in pairs
                if msub(compose(circ(r - 1, i), circ(r, j)),
                        compose(circ(r - 1, j), circ(r, i)))), None)
    checks.append(Check(f"normalized contractions commute (r={r})", bad is None, bad))
    if r >= 1:
        def commutator_defect(i, j):
            lhs = msub(compose(circ(r + 1, i), mul(r, j)),
                       compose(mul(r - 1, j), circ(r, i)))
            rhs = compose(ops.mul_flat(r - 1, i), ops.contract_sharp(r, j))
            return msub(lhs, sparsemat.mscale(rhs, Fraction(-1, r + 1)))

        bad = next(((i, j) for i, j in pairs if commutator_defect(i, j)), None)
        checks.append(Check(f"contraction/product commutator (r={r})",
                            bad is None, bad))

        def evaluation(i, j):
            return msub(compose(mul(r - 1, j), circ(r, i)),
                        compose(ops.mul_flat(r - 1, i), ops.contract_sharp(r, j)))

        bad = next(((i, j) for i, j in pairs if not sparsemat.is_scalar_multiple(
            evaluation(i, j), dim, Fraction(int(i == j)))), None)
        checks.append(Check(f"evaluation identity (r={r})", bad is None, bad))
        total = madd(*(compose(mul(r - 1, i), circ(r, i)) for i in range(2)))
        ok = sparsemat.is_scalar_multiple(total, dim, Fraction(1))
        checks.append(Check(f"Euler identity (r={r})", ok, None if ok else total))
    expect = Fraction(r + 2, r + 1)
    total = madd(*(compose(circ(r + 1, i), mul(r, i)) for i in range(2)))
    ok = sparsemat.is_scalar_multiple(total, dim, expect)
    checks.append(Check(f"number operator dh_i_ h_i (r={r})", ok,
                        None if ok else total, expect))
    return checks


def reference_clifford(spin):
    """The first (tx, ty), unordered, with M_x M_y + M_y M_x != -g(x, y) id."""
    tangent = spin.tangent_basis()
    s, mats = spin.scaled_clifford()
    for a, tx in enumerate(tangent):
        for ty in tangent[a:]:
            anti = madd(compose(mats[tx], mats[ty]), compose(mats[ty], mats[tx]))
            g = spin.metric({tx: 1}, {ty: 1})
            if not sparsemat.is_scalar_multiple(anti, spin.dim, -s * s * g):
                return tx, ty
    return None


def as_records(checks):
    return [(c.name, c.ok, c.witness, c.value) for c in checks]


def test_the_relations_match_the_references_on_working_code():
    for n in (1, 2, 3):
        E = SymplecticSpace(n)
        for s in range(n + 1):
            assert as_records(check_ext_relations(E, s)) == \
                as_records(reference_ext_relations(E, s))
    for r in range(5):
        assert as_records(check_sym_relations(r)) == \
            as_records(reference_sym_relations(r))


class _BrokenWedge(PrimitiveOps):
    """A fresh primitive ladder whose wedge_circ (q=1, i=2) is doubled."""

    def _build(self, name, q, i):
        m = super()._build(name, q, i)
        return sparsemat.mscale(m, 2) if (name, q, i) == ("wedge", 1, 2) else m


@pytest.mark.parametrize("n", [2, 3])
def test_a_primitive_ladder_fault_gives_the_reference_witnesses(monkeypatch, n):
    monkeypatch.setattr(lefschetz, "primitive_ops", _BrokenWedge)
    E = SymplecticSpace(n)
    for s in range(n + 1):
        got = check_ext_relations(E, s)
        assert as_records(got) == as_records(reference_ext_relations(E, s))
    checks = {c.name: c for c in check_ext_relations(E, 1)}
    mixed = checks["mixed anticommutator relation (s=1)"]
    assert not mixed.ok and isinstance(mixed.witness, tuple)
    # a sum relation's witness is the sum itself, in Fractions
    total = checks["number operator de_i_ e_i^circ (s=1)"]
    assert not total.ok and total.witness
    assert all(type(v) is Fraction for col in total.witness.values()
               for v in col.values())


def test_a_sym_ladder_fault_gives_the_reference_witnesses(monkeypatch):
    def broken(cov, elem):
        # the normalized contraction, scaled by 2 on degree 2
        out = sym_contract_circ(cov, elem)
        if any(len(m) == 2 for m in elem):
            out = {m: 2 * v for m, v in out.items()}
        return out

    monkeypatch.setattr(powers, "sym_contract_circ", broken)
    monkeypatch.setattr(lefschetz, "sym_ops", SymOps)
    for r in range(5):
        got = check_sym_relations(r)
        assert as_records(got) == as_records(reference_sym_relations(r))
    checks = {c.name: c for c in check_sym_relations(2)}
    assert checks["evaluation identity (r=2)"].witness == (0, 0)
    euler = checks["Euler identity (r=2)"]
    assert not euler.ok and euler.witness == reference_sym_relations(2)[4].witness


@pytest.mark.parametrize("n", [1, 2])
def test_a_clifford_fault_gives_the_first_failing_pair(monkeypatch, n):
    spin = spinor.SpinorSpace(n)
    s, mats = spin.scaled_clifford()
    tangent = spin.tangent_basis()
    # doubling M(t) for the last tangent vector breaks every pair with a
    # vector it pairs with, but not the earlier ones
    last = tangent[-1]
    broken = (s, {t: sparsemat.mscale(m, 2) if t == last else m
                  for t, m in mats.items()})
    monkeypatch.setattr(spinor.SpinorSpace, "scaled_clifford", lambda self: broken)
    want = reference_clifford(spin)
    assert want not in (None, (tangent[0], tangent[0]))
    name = f"Clifford anticommutation relation (n={n}, all {(4 * n) ** 2} basis pairs)"
    check = {c.name: c for c in suite_clifford(n)}[name]
    assert not check.ok and check.witness == want


def test_the_clifford_relation_passes_on_working_code():
    for n in (1, 2):
        assert reference_clifford(spinor.SpinorSpace(n)) is None


def test_check_relation_folds_a_rational_coefficient_into_a_scale():
    # A = 1/2 and B = 3 on a 1-dimensional space: A B - 3 (B/3) A = 0, with
    # the 1/3 carried in the scale of the second term's first factor
    a, b = (2, [{0: {0: 1}}]), (1, [{0: {0: 3}}])
    b3 = (3, b[1])
    cases = [(None, [(1, (a, 0), (b, 0)), (-3, (b3, 0), (a, 0))], 0)]
    assert check_relation("zero", cases, 1).ok
    cases = [(None, [(1, (a, 0), (b, 0))], Fraction(3, 2))]
    assert check_relation("three halves", cases, 1).ok
    check = check_relation("one", [(None, [(1, (a, 0), (b, 0))], 1)], 1, 1)
    assert not check.ok and check.witness == {0: {0: Fraction(3, 2)}}
    assert check.value == 1


def test_the_ext_relations_multiply_no_fractions(monkeypatch):
    E = SymplecticSpace(3)
    for s in range(4):      # warm the ladders and the primitive levels
        check_ext_relations(E, s)
    counts = {"mul": 0}
    for name in ("__mul__", "__rmul__"):
        plain = getattr(Fraction, name)

        def counted(self, other, plain=plain):
            counts["mul"] += 1
            return plain(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    for s in range(4):
        assert all(c.ok for c in check_ext_relations(E, s))
    assert counts["mul"] == 0
    # the counter sees the Fraction reference's products
    reference_ext_relations(E, 1)
    assert counts["mul"] > 0


def test_a_second_lemmas_suite_builds_no_level(monkeypatch):
    # the relations read the held int levels: once the suite has run, a
    # second run in the process clears no denominators and builds no level
    run_suite("lemmas", 3)
    calls = []
    int_copies = sparsemat.int_copies

    def counted(family):
        calls.append(1)
        return int_copies(family)

    monkeypatch.setattr(sparsemat, "int_copies", counted)
    misses = Ladder._held.cache_info().misses
    assert all(c.ok for c in run_suite("lemmas", 3))
    assert calls == []
    assert Ladder._held.cache_info().misses == misses


class _UncorrectedWedge(PrimitiveOps):
    """A fresh primitive ladder whose wedge drops the correction term, so
    its images leave the primitive levels."""

    def _build(self, name, q, i):
        if name != "wedge":
            return super()._build(name, q, i)
        table = lefschetz.contract_tables(self.space, q + 1)[i]
        return self.level(q + 1).to_coords(
            compose(sparsemat.transpose(table), self.level(q).matrix))


def test_a_ladder_image_outside_the_primitive_level_is_a_failing_check(monkeypatch):
    monkeypatch.setattr(lefschetz, "primitive_ops", _UncorrectedWedge)
    checks = run_suite("lemmas", 2)
    assert [(c.name, c.ok) for c in checks] == \
        [("ladder images stay primitive in the lemmas suite (n=2)", False)]
    q, column = checks[0].witness
    assert q == 2 and column >= 0


# -- the identities moved onto the checker ---------------------------------

def reference_adjointness(spin):
    """The first t with A^T G + G B != 0, A the grade-raising part of M(t)
    and B the grade-lowering part of M(tbar)."""
    flat = spin.flat_basis()
    _, mats = spin.scaled_clifford()
    _, gram = spin.scaled_hermitian_gram()

    def grade_part(m, step):
        return {c: rows for c, col in m.items() if (rows := {
            k: v for k, v in col.items() if flat[k][0] == flat[c][0] + step})}

    for t in spin.tangent_basis():
        raising = sparsemat.transpose(grade_part(mats[t], 1))
        tbar = spin.conjugate_tangent({t: 1})
        lowering = grade_part(madd(*(sparsemat.mscale(mats[u], c)
                                     for u, c in tbar.items())), -1)
        if madd(compose(raising, gram), compose(gram, lowering)):
            return t
    return None


def reference_casimir(spin):
    """The first r where the Casimir is not -r(r+2) id or 6n + 4 C is not
    the Kraines eigenvalue."""
    n = spin.n
    for r in range(n + 1):
        C = spin.casimir_matrix(r)
        op = madd(sparsemat.identity(r + 1, Fraction(6 * n)), sparsemat.mscale(C, 4))
        kraines = spinor.kraines_eigenvalue(n, r)
        if not (sparsemat.is_scalar_multiple(C, r + 1, Fraction(-r * (r + 2))) and
                sparsemat.is_scalar_multiple(op, r + 1, kraines)):
            return r
    return None


def reference_two_form(spin):
    """The first pair whose two-form matrix is not twice the elementwise
    derivation on a column of grade r >= 1, and the grade-0 block of (1, 1)."""
    flat = spin.flat_basis()
    bad = None
    for pair in [(0, 0), (0, 1), (1, 1)]:
        M = spin.two_form_matrix(pair)
        expect = sparsemat.from_images(
            ({(p, q, hm2, col): 2 * v
              for hm2, v in spin.sym2h_derivation(pair, hm).items()}
             for p, q, hm, col in flat), spin.coords)
        if bad is None and any(flat[c][0] >= 1 for c in msub(M, expect)):
            bad = pair
    r0 = "nonzero" if any(flat[c][0] == 0 for c in M) else "zero"
    return bad, r0


def reference_projectors(E):
    """The first q where the kernel-basis projector times c is not c P."""
    for q in range(E.half_dim + 1):
        prim = lefschetz.primitive_space(E, q)
        c, cp = prim.scaled_projector_sl2()
        if sparsemat.mscale(prim.projector(), c) != cp:
            return q
    return None


def clifford_checks(n):
    return {c.name: c for c in suite_clifford(n)}


ADJOINT = "adjointness of the two Clifford components"
CASIMIR = "Casimir scalar -r(r+2) and Kraines eigenvalue 6n - 4r(r+2)"
TWO_FORM = "two-form action is twice the derivation (grades r>=1)"
GRADE0 = "two-form action on grade 0 (reported, not asserted)"
PROJECTORS = "kernel-basis and sl2 projectors agree"


def test_the_moved_checks_match_the_references_on_working_code():
    for n in (1, 2, 3):
        spin = spinor.SpinorSpace(n)
        checks = clifford_checks(n)
        assert reference_adjointness(spin) is None and checks[ADJOINT].ok
        assert reference_casimir(spin) is None
        assert as_records([checks[CASIMIR]]) == [(CASIMIR, True, None, [
            spinor.kraines_eigenvalue(n, r) for r in range(n + 1)])]
        assert reference_two_form(spin) == (None, checks[GRADE0].value)
        assert checks[TWO_FORM].ok and checks[GRADE0].ok
        assert reference_projectors(SymplecticSpace(n)) is None


def test_a_gram_fault_names_its_tangent_vector(monkeypatch):
    spin = spinor.SpinorSpace(2)
    s, gram = spin.scaled_hermitian_gram()
    col = next(iter(gram[5]))
    broken = {c: dict(rows) for c, rows in gram.items()}
    broken[5][col] += s
    monkeypatch.setattr(spinor.SpinorSpace, "scaled_hermitian_gram",
                        lambda self: (s, broken))
    want = reference_adjointness(spin)
    assert want is not None
    check = clifford_checks(2)[ADJOINT]
    assert not check.ok and check.witness == want


def test_a_sym_derivation_scale_fault_names_its_level(monkeypatch):
    plain = SymOps.derivation

    def broken(self, level, x, y):
        s, m = plain(self, level, x, y)
        return (2 * s if level == 2 else s), m

    monkeypatch.setattr(SymOps, "derivation", broken)
    spin = spinor.SpinorSpace(3)
    assert reference_casimir(spin) == 2
    check = clifford_checks(3)[CASIMIR]
    assert not check.ok and check.witness == 2
    assert check.value == [spinor.kraines_eigenvalue(3, r) for r in range(4)]


@pytest.mark.parametrize("n", [1, 2])
def test_a_clifford_block_fault_names_its_pair(monkeypatch, n):
    spin = spinor.SpinorSpace(n)
    s, mats = spin.scaled_clifford()
    last = spin.tangent_basis()[-1]
    broken = (s, {t: sparsemat.mscale(m, 2) if t == last else m
                  for t, m in mats.items()})
    monkeypatch.setattr(spinor.SpinorSpace, "scaled_clifford", lambda self: broken)
    want, r0 = reference_two_form(spin)
    assert want is not None
    checks = clifford_checks(n)
    assert not checks[TWO_FORM].ok and checks[TWO_FORM].witness == want
    assert checks[GRADE0].ok and checks[GRADE0].value == r0


def _wrong_sl2_polynomial(self):
    """`scaled_projector_sl2` with lam_k = k (n - q + k + 2)."""
    n, q, dim = self.space.half_dim, self.q, self.ambient.dim
    ll = compose(lefschetz.L_op(self.space, q), lefschetz.Lambda_op(self.space, q))
    c, result = 1, sparsemat.identity(dim)
    for k in range(1, q // 2 + 1):
        lam = k * (n - q + k + 2)
        step = sparsemat.identity(dim, lam)
        sparsemat.madd_into(step, ll, -1)
        result, c = compose(step, result), c * lam
    return c, result


@pytest.mark.parametrize("n", [4, 5])
def test_a_wrong_sl2_eigenvalue_names_its_degree(monkeypatch, n):
    monkeypatch.setattr(lefschetz.PrimitiveSpace, "scaled_projector_sl2",
                        _wrong_sl2_polynomial)
    E = SymplecticSpace(n)
    want = reference_projectors(E)
    assert want is not None
    check = {c.name: c for c in run_suite("lemmas", n)}[PROJECTORS]
    assert not check.ok and check.witness == want


def test_a_sym2e_factor_fault_fails_the_e_identity(monkeypatch):
    plain = weitzenboeck.ProjectorFamily.factor

    def broken(self, side, label, x, y):
        m = plain(self, side, label, x, y)
        return sparsemat.mscale(m, 2) if (label, x, y) == ("Sym2E", 0, 2) else m

    monkeypatch.setattr(weitzenboeck.ProjectorFamily, "factor", broken)
    weitzenboeck.projector_family.cache_clear()
    rep = weitzenboeck.curvature_scalar_identities(2, 1)
    assert rep["h_identity_ok"] and not rep["e_identity_ok"]
    check = {c.name: c for c in run_suite("weitzenboeck", 2)}[
        "curvature-scalar operator identities at r=1"]
    assert not check.ok and check.witness == ["e_identity_ok"]
    weitzenboeck.projector_family.cache_clear()


# -- the checker's term shapes ---------------------------------------------

def test_a_three_factor_term_and_a_generator_match_the_two_factor_form():
    a = (1, [{0: {0: 1, 1: 2}, 1: {1: 3}}])
    b = (2, [{0: {1: 1}, 1: {0: 1}}])
    c = (3, [{0: {0: 1}, 1: {0: 1, 1: 1}}])
    bc = (6, [compose(b[1][0], c[1][0])])
    for want in (0, Fraction(1, 6), 5):
        three = [(None, [(2, (a, 0), (b, 0), (c, 0))], want)]
        two = [(None, [(2, (a, 0), (bc, 0))], want)]
        streamed = [(None, ((2, (a, 0), (b, 0), (c, 0)) for _ in range(1)), want)]
        got = [as_records([check_relation("r", cases, 2)])
               for cases in (three, two, streamed)]
        assert got[0] == got[1] == got[2]
    assert not got[0][0][1] and got[0][0][2]


def test_terms_of_different_scales_are_summed_at_their_lcm():
    # A / 2 + B / 3 - C / 4, streamed, so the sum is rescaled twice
    a, b, c = ((s, [{0: {0: v}}]) for s, v in ((2, 1), (3, 1), (4, 1)))
    terms = lambda: iter([(1, (a, 0)), (1, (b, 0)), (-1, (c, 0))])
    assert sparsemat.relation_sum(terms()) == (12, {0: {0: 6 + 4 - 3}})
    assert check_relation("sum", [(None, terms(), Fraction(7, 12))], 1).ok
    check = check_relation("sum", [(None, terms(), 1)], 1)
    assert not check.ok and check.witness == {0: {0: Fraction(7, 12)}}
