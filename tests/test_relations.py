"""The relation checker against elementwise Fraction references.

`check_relation` evaluates every lemma relation and the Clifford relation
on int copies at one lcm scale.  The references below are the per-relation
loops it replaced, run on the exact `Fraction` ladder matrices; each test
injects a fault through a fresh, uncached owner, so the shared matrices
stay intact, and asserts that both give the same verdicts and witnesses.
"""

from fractions import Fraction

import pytest

from qkspin import lefschetz, powers, sparsemat, spinor
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
