"""Exterior/symmetric operations, extended sigma, adjunction identities."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

from qkspin import sparsemat
from qkspin.lefschetz import PrimitiveOps
from qkspin.powers import (
    ExtPower,
    Ladder,
    SymOps,
    SymPower,
    ext_contract,
    ext_product,
    ext_wedge_vec,
    extended_sigma_ext,
    extended_sigma_sym,
    gram_det,
    gram_perm,
    j_ext,
    sym_contract,
    sym_contract_circ,
    sym_mul_vec,
    sym_ops,
)
from qkspin.scalar import Scalar
from qkspin.symplectic import SymplecticSpace, is_positive, j_apply, sharp


def rand_elem(rng, space_basis, maxterms=4):
    elem = {}
    for mono in rng.sample(space_basis, min(maxterms, len(space_basis))):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            elem[mono] = c
    return elem


def test_wedge_contract_basics():
    E = SymplecticSpace(2)
    # de_0 contracted into e_0 ^ e_1 -> e_1
    assert ext_contract({0: Fraction(1)}, {(0, 1): Fraction(1)}) == {(1,): Fraction(1)}
    # e_0 ^ (e_0 ^ e_1) = 0
    assert ext_wedge_vec({0: Fraction(1)}, {(0, 1): Fraction(1)}) == {}
    # antisymmetry of the product
    x, y = {(0,): Fraction(1)}, {(1,): Fraction(1)}
    assert ext_product(x, y) == {(0, 1): Fraction(1)}
    assert ext_product(y, x) == {(0, 1): Fraction(-1)}


def test_adjunction_wedge_contract():
    # sigma(e ^ n1, n2) = sigma(n1, e_sharp contracted into n2), exterior case
    rng = random.Random(23)
    E = SymplecticSpace(2)
    for s in (1, 2, 3):
        P, Q = ExtPower(E, s - 1), ExtPower(E, s)
        for _ in range(15):
            e = {rng.randrange(E.dim): Fraction(rng.randint(-3, 3))}
            n1 = rand_elem(rng, P.basis)
            n2 = rand_elem(rng, Q.basis)
            lhs = extended_sigma_ext(E, ext_wedge_vec(e, n1), n2)
            rhs = extended_sigma_ext(E, n1, ext_contract(sharp(E, e), n2))
            assert lhs == rhs


def test_adjunction_symmetric():
    from qkspin.powers import sym_contract
    rng = random.Random(29)
    H = SymplecticSpace(1, name="h")
    for r in (1, 2, 3):
        P, Q = SymPower(H, r - 1), SymPower(H, r)
        for _ in range(15):
            h = {rng.randrange(2): Fraction(rng.randint(-3, 3))}
            n1 = rand_elem(rng, P.basis)
            n2 = rand_elem(rng, Q.basis)
            lhs = extended_sigma_sym(H, sym_mul_vec(h, n1), n2)
            rhs = extended_sigma_sym(H, n1, sym_contract(sharp(H, h), n2))
            assert lhs == rhs


def test_extended_sigma_examples():
    E = SymplecticSpace(2)
    # Gram determinant on a standard pair of 2-forms
    v = extended_sigma_ext(E, {(0, 1): Fraction(1)}, {(2, 3): Fraction(1)})
    assert v == 1
    H = SymplecticSpace(1, name="h")
    # Gram permanent: sigma(h0 h0, h1 h1) = 2
    assert extended_sigma_sym(H, {(0, 0): Fraction(1)}, {(1, 1): Fraction(1)}) == 2


def test_sym_contract_circ():
    # dh_0 contracted-circ into h0 h0 -> h0
    assert sym_contract_circ({0: Fraction(1)}, {(0, 0): Fraction(1)}) == \
        {(0,): Fraction(1)}


def test_hermitian_adjoint_of_wedge():
    # The adjoint of wedging is contraction with the J-image up to one
    # global sign: <e ^ x, y> = -<x, (Je)^sharp contracted into y> for
    # the form sigma(., J.), uniformly in the degree.  The sign is forced
    # by J^2 = (-1)^q on degree q together with the sigma-adjunction.
    rng = random.Random(31)
    E = SymplecticSpace(2)
    for s in (1, 2, 3):
        P, Q = ExtPower(E, s - 1), ExtPower(E, s)
        for _ in range(15):
            e = {rng.randrange(E.dim): Scalar(rng.randint(-3, 3), 0, rng.randint(-2, 2))}
            x = rand_elem(rng, P.basis)
            y = rand_elem(rng, Q.basis)
            lhs = extended_sigma_ext(E, ext_wedge_vec(e, x), j_ext(E, y))
            je = j_apply(E, e)
            rhs = extended_sigma_ext(E, x, j_ext(E, ext_contract(sharp(E, je), y)))
            assert Scalar.coerce(lhs) == -Scalar.coerce(rhs)


def test_extended_hermitian_positive():
    rng = random.Random(37)
    E = SymplecticSpace(2)
    for s in (1, 2, 3):
        P = ExtPower(E, s)
        for _ in range(10):
            x = rand_elem(rng, P.basis)
            if x:
                v = extended_sigma_ext(E, x, j_ext(E, x))
                assert is_positive(Scalar.coerce(v))
    H = SymplecticSpace(1, name="h")
    from qkspin.powers import j_sym
    for r in (1, 2, 3):
        P = SymPower(H, r)
        for _ in range(10):
            x = rand_elem(rng, P.basis)
            if x:
                v = extended_sigma_sym(H, x, j_sym(H, x))
                assert is_positive(Scalar.coerce(v))


def _gram_by_permutations(space, a, b, signed):
    total = Fraction(0)
    for perm in permutations(range(len(a))):
        inversions = sum(perm[k] > perm[l] for k, l in combinations(range(len(a)), 2))
        term = Fraction(-1 if signed and inversions % 2 else 1)
        for k, col in enumerate(perm):
            term *= space.sigma_basis(a[k], b[col])
        total += term
    return total


def test_gram_sums_match_permutation_expansion():
    # every index tuple of degree <= 3 over a 4-dimensional space, repeats
    # and unsorted orders included
    E = SymplecticSpace(2)
    for q in range(4):
        tuples = list(product(range(E.dim), repeat=q))
        for a in tuples:
            for b in tuples:
                assert gram_det(E, a, b) == _gram_by_permutations(E, a, b, True)
                assert gram_perm(E, a, b) == _gram_by_permutations(E, a, b, False)


def test_sym_ladder_is_total():
    # off the Sym^r ladder every level is (1, [{}, {}]) and every operator
    # the zero matrix; the degree is tested before the `Ladder._held`
    # lookup, so no off-ladder key is cached
    ops = SymOps(SymplecticSpace(1, name="h"))
    cache = Ladder._held
    before = cache.cache_info()
    for name, r in (("mul", -1), ("mul_flat", -1), ("contract", -1), ("contract", 0),
                    ("contract_circ", -1), ("contract_circ", 0),
                    ("contract_sharp", -1), ("contract_sharp", 0)):
        assert ops.scaled(name, r) == (1, [{}, {}])
        for i in range(2):
            assert getattr(ops, name)(r, i) == {}
    assert cache.cache_info() == before
    for name in ("mul", "contract_circ", "contract"):
        assert ops.scaled(name, 3) is ops.scaled(name, 3)
    after = cache.cache_info()
    assert after.hits == before.hits + 3 and after.misses == before.misses + 3
    # each sign-flipped level is built once, from the held plain level, and
    # shared: one miss per variant, and hits for its plain level and for
    # its second read
    for name in ("mul_flat", "contract_sharp"):
        assert ops.scaled(name, 3) is ops.scaled(name, 3)
    flipped = cache.cache_info()
    assert flipped.hits == after.hits + 4 and flipped.misses == after.misses + 2


def test_every_held_level_is_int_at_its_minimal_scale(monkeypatch):
    # every level the suites read at n = 2 is held as int matrices over the
    # lcm of its exact entries' denominators, and a sign variant holds its
    # plain level's matrix objects where sg = +1
    from qkspin.verify import run_suite

    held = Ladder._held
    read = []

    def recording(self, name, level):
        read.append((self, name, level))
        return held(self, name, level)

    monkeypatch.setattr(Ladder, "_held", recording)
    assert all(c.ok for c in run_suite("all", 2))
    assert {type(ops) for ops, _, _ in read} == {SymOps, PrimitiveOps}
    for ops, name, level in read:
        s, mats = held(ops, name, level)
        entries = [v for m in mats for col in m.values() for v in col.values()]
        assert all(type(v) is int for v in entries), (name, level)
        assert lcm(*(Fraction(v, s).denominator for v in entries)) == s, (name, level)
        if name in ops.SIGNED:
            plain, basis = ops.SIGNED[name]
            s_plain, plain_mats = held(ops, plain, level)
            assert s == s_plain
            for x, m in enumerate(mats):
                j, sg = getattr(ops.space, basis)(x)
                if sg == 1:
                    assert m is plain_mats[j], (name, level, x)
                else:
                    assert m == sparsemat.mscale(plain_mats[j], -1), (name, level, x)


def test_sym_ops_match_the_elementwise_rules():
    from qkspin.lefschetz import check_sym_relations
    from qkspin.weitzenboeck import curvature_scalar_identities

    H = SymplecticSpace(1, name="h")
    # the shared instance, after the callers that compose its matrices
    for r in range(6):
        check_sym_relations(r)
    curvature_scalar_identities(3, 2)
    ops = sym_ops(H)
    assert ops is sym_ops(SymplecticSpace(1, name="h"))
    for r in range(6):
        dom, up, down = SymPower(H, r), SymPower(H, r + 1), SymPower(H, max(r - 1, 0))
        for i in range(2):
            unit = {i: Fraction(1)}
            for op, rule, codom in ((ops.mul, sym_mul_vec, up),
                                    (ops.contract, sym_contract, down),
                                    (ops.contract_circ, sym_contract_circ, down)):
                m = op(r, i)
                for k, mono in enumerate(dom.basis):
                    img = rule(unit, {mono: Fraction(1)})
                    assert m.get(k, {}) == {codom.index[x]: v for x, v in img.items()}, \
                        (rule.__name__, r, i, mono)
            j, sg = H.flat_basis(i)
            assert ops.mul_flat(r, i) == {c: {k: sg * v for k, v in col.items()}
                                          for c, col in ops.mul(r, j).items()}
            j, sg = H.sharp_basis(i)
            assert ops.contract_sharp(r, i) == \
                {c: {k: sg * v for k, v in col.items()}
                 for c, col in ops.contract_circ(r, j).items()}


def test_sym_relation_witness_is_the_first_failing_pair(monkeypatch):
    from qkspin import lefschetz, powers

    def broken(cov, elem):
        # the normalized contraction, scaled by 2 on degree 2
        out = sym_contract_circ(cov, elem)
        if any(len(m) == 2 for m in elem):
            out = {m: 2 * v for m, v in out.items()}
        return out

    monkeypatch.setattr(powers, "sym_contract_circ", broken)
    # a fresh, uncached owner, so that the shared matrices stay intact
    monkeypatch.setattr(lefschetz, "sym_ops", SymOps)
    checks = {c.name: c for c in lefschetz.check_sym_relations(2)}
    check = checks["contraction/product commutator (r=2)"]
    assert not check.ok and check.witness == (0, 0)
    assert not checks["Euler identity (r=2)"].ok
