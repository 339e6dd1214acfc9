"""Exactness: no float reaches a value or witness that a suite reports."""

import random
from fractions import Fraction

import pytest

from qkspin.curvature import (
    ModelCurvature,
    einstein_report,
    qzero_check,
    random_sym4,
    sym4_acts_trivially,
    sym4_extraction,
)
from qkspin.lefschetz import primitive_space
from qkspin.scalar import Scalar
from qkspin.spinor import SpinorSpace
from qkspin.sym4 import _qzero_operator, _sym2_derivation
from qkspin.verify import run_suite
from qkspin.weitzenboeck import recover_w, recover_we, recover_wh


def _floats(obj, path=()):
    """Paths to every float inside nested dicts (keys too), lists and tuples."""
    if isinstance(obj, float):
        yield path
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _floats(k, path + ("key",))
            yield from _floats(v, path + (k,))
    elif isinstance(obj, (list, tuple)):
        for k, v in enumerate(obj):
            yield from _floats(v, path + (k,))


def test_walker_finds_nested_floats():
    assert list(_floats({"a": [1, (2, {3: 0.5})], 1.5: None})) == \
        [("a", 1, 1, 3), ("key",)]


@pytest.mark.parametrize("n", [1, 2])
def test_no_float_in_values_or_witnesses(n):
    checks = run_suite("all", n)
    assert checks
    for check in checks:
        for part in ("value", "witness"):
            found = list(_floats(getattr(check, part)))
            assert not found, (check.name, part, found)


@pytest.mark.parametrize("n", [1, 2])
def test_suites_construct_no_scalar(n, monkeypatch):
    # every suite runs over Q; Scalar is left to the public mu API, the
    # twisted Hermitian form, J and the JSON codec
    made = []
    init = Scalar.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Scalar, "__init__", counting)
    checks = run_suite("all", n)
    assert all(c.ok for c in checks)
    assert len(made) == 0, made[:5]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_curvature_operators_have_int_entries(n):
    # every operator the Sym^4 checks compose, the paired endomorphisms
    # scale P_ij over the unordered pairs i <= j included, and every model
    # tensor that Ricci and the extraction sum, is stored with int entries,
    # so no int/int division can turn one into a float unseen
    model = ModelCurvature(n, random_sym4(n, random.Random(5)))
    E = model.E
    pairs = [(i, j) for i in range(E.dim) for j in range(i, E.dim)]
    mats = list(model.scaled_endos.values()) + list(model.paired_endos.values())
    mats += [d for level in model.r_derivations.values() for d in level.values()]
    mats += [d for q in (0, *range(n + 1, E.dim + 1))
             for d in model.derivations(q).values()]
    mats += [_sym2_derivation(E, i, j, q)
             for q in range(E.dim + 1) for i, j in pairs]
    mats += [_qzero_operator(E, q, i, j) for q in range(n + 1) for i, j in pairs]
    mats += [primitive_space(E, q).matrix for q in range(n + 1)]
    mats += list(model.tensors.values())
    assert model.scale > 1 and len(model.tensors) > 0
    bad = [v for m in mats for col in m.values() for v in col.values()
           if type(v) is not int]
    assert not bad, bad[:5]


_H_QUADS = [[{0: 1}, {1: 1}, {0: 1}, {1: 1}],
            [{0: 2, 1: 1}, {1: 3}, {0: 1, 1: -1}, {0: 1, 1: 2}]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_curvature_values_are_fractions(n):
    # Ricci and the extraction sum the int tensors and divide once; an
    # int/int division there would give a float that still compares equal,
    # so the types are checked, not the values
    model = ModelCurvature(n, random_sym4(n, random.Random(6)))
    assert model.scale > 1
    for kind in model.KINDS:
        coeff, witness = model.ricci_coefficient(kind)
        assert type(coeff) is Fraction and witness is None, kind
    rep = einstein_report(model)
    assert all(type(rep[key]) is Fraction for key in (
        "ricci_H", "ricci_E", "ricci_hyper", "einstein_coefficient"))
    fraction_quads = [[{a: Fraction(v) for a, v in h.items()} for h in hq]
                      for hq in _H_QUADS]
    rng = random.Random(7)
    for _ in range(4):
        e_quad = tuple(rng.randrange(2 * n) for _ in range(4))
        for hq in _H_QUADS + fraction_quads:
            got = {kind: sym4_extraction(model, kind, hq, e_quad)
                   for kind in model.KINDS}
            assert all(type(v) is Fraction for v in got.values()), (hq, got)
            assert got["hyper"] == model.rvalue(*e_quad)
    # apply() returns the exact tensor, scale R^hyper divided back
    basis = model.tangent_basis()
    values = [v for kind in model.KINDS for x in basis for y in basis
              for col in model.apply(kind, x, y).values() for v in col.values()]
    assert values and all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clifford_suite_copies_have_int_entries(n):
    # the clifford suite composes the scaled copies of the basis matrices
    # and of the Gram; an int/int division in the scaling would make them
    # floats, which the exact checks would still compare equal
    spin = SpinorSpace(n)
    s, mats = spin.scaled_clifford()
    s_gram, gram = spin.scaled_hermitian_gram()
    assert s >= 1 and s_gram >= 1 and len(mats) == 4 * n
    copies = list(mats.values()) + [gram]
    bad = [v for m in copies for col in m.values() for v in col.values()
           if type(v) is not int]
    assert not bad, bad[:5]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_recovered_weitzenboeck_entries_are_fractions(n):
    # the span solver's entry vectors hold int 0 where a factor has no
    # entry; no such int, and no float, may reach a recovered entry
    matrices = [recover_w(n, r)["matrix"] for r in range(n + 1)]
    matrices += [recover_wh(n, r) for r in range(n + 1)]
    matrices += [recover_we(n, r) for r in range(1, n)]
    bad = [v for m in matrices for row in m for v in row
           if v is not None and type(v) is not Fraction]
    assert not bad, bad[:5]
    assert all(v is not None for m in matrices[n + 1:] for row in m for v in row)


def test_no_float_in_sym4_witnesses(ordered_rform):
    # a non-symmetric form with denominators 2 and 3 (scale 6) fails both
    # checks; their witnesses are divided back by the scale as Fractions
    values = {(0, 1, 0, 2): Fraction(1, 2), (0, 2, 0, 0): Fraction(-2, 3)}
    model = ModelCurvature(2, values)
    reps = [sym4_acts_trivially(model), qzero_check(model, 1)]
    for rep in reps:
        assert not rep["ok"]
        assert not list(_floats(rep["witness"])), rep
