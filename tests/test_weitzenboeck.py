"""Closed-form matrices, recovery oracle, operator identities, row vectors."""

import gc
import json
import math
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from qkspin import linalg, sparsemat, weitzenboeck
from qkspin.cli import main
from qkspin.powers import Ladder
from qkspin.symplectic import add_into
from qkspin.verify import run_suite
from qkspin.weitzenboeck import (
    OP_SLOTS,
    ProjectorFamily,
    RecoveryError,
    _MEMBERS,
    _SUMS,
    contraction_composite,
    curvature_scalar_identities,
    eq51_vector,
    estimate_bound,
    kernel_projection,
    lichnerowicz_vector,
    multiplication_composite,
    projector_family,
    recover_matches_closed_form,
    recover_w,
    recover_we,
    recover_wh,
    row_combination,
    solve_in_span,
    span_basis,
    twistor_elimination_vector,
    we_closed,
    wh_closed,
    w_full,
)


def F(p, q=1):
    return Fraction(p, q)


def test_wh_closed_values():
    assert wh_closed(1) == [[F(1), F(-1, 2)], [F(1), F(3, 2)]]
    assert wh_closed(0) == [[F(1), F(0)], [F(0), F(0)]]
    assert wh_closed(2) == [[F(1), F(-2, 3)], [F(2), F(8, 3)]]


def test_we_closed_values():
    assert we_closed(2, 1) == [[F(1, 2), F(-1, 4), F(1)],
                               [F(-1, 2), F(5, 4), F(1)],
                               [F(-3, 4), F(-5, 8), F(1, 2)]]
    for n in (2, 3, 4):
        assert we_closed(n, 0)[0] == [F(1, n + 1), F(-2, n + 3), F(1)]
    assert we_closed(3, 1)[2][2] == F(1, 3)


def test_w_full_is_kronecker_with_symbolic_entries():
    for n in (2, 3):
        for r in range(n + 1):
            w = w_full(n, r)
            we, wh = we_closed(n, r), wh_closed(r)
            for i in range(3):
                for a in range(2):
                    for j in range(3):
                        for b in range(2):
                            assert w.entries[2 * i + a][2 * j + b] == \
                                we[i][j] * wh[a][b]
            # displayed symbolic spot entries
            assert w.entries[0][0] == F(1, n - r + 1)
            assert w.entries[0][1] == F(-r, (n - r + 1) * (r + 1))
            assert w.entries[1][0] == F(r, n - r + 1)
            assert w.entries[5][5] == F(r * r * (r + 2), n * (r + 1))


def test_w_json_serialization():
    data = w_full(2, 1).to_json()
    assert data["entries"][0][0] == "1/2|0/1|0/1|0/1"
    assert data["row_labels"][0] == "C.C"
    assert len(data["operator_slots"]) == 6


def test_recover_generic_grades():
    for n, r in [(2, 1), (4, 1), (4, 2), (4, 3)]:
        rep = recover_matches_closed_form(n, r)
        assert rep["ok"] and rep["alive"] == [0, 1, 2, 3, 4, 5], (n, r)


def test_recover_degenerate_grades():
    for n in (2, 4):
        rep = recover_matches_closed_form(n, 0)
        assert rep["ok"] and rep["alive"] == [2, 4], n
        rep = recover_matches_closed_form(n, n)
        assert rep["ok"] and rep["alive"] == [0, 1], n


def test_sub_oracles():
    for r in range(4):
        assert recover_wh(r) == wh_closed(r)
    for n in (2, 3):
        for r in range(1, n):
            assert recover_we(n, r) == we_closed(n, r)


# synthetic systems for the span solver.  A side lists one tuple of member
# factors per side index; the first systems have 2x2 H factors and the 1x1
# identity as their one E factor
_ONE = {0: {0: F(1)}}
_DIAG = {0: {0: F(1)}, 1: {1: F(1)}}           # identity on a 2-dim space
_SWAP = {0: {1: F(1)}, 1: {0: F(1)}}


def _unit(size: int) -> list:
    """A side with one index, where every one of `size` members is 1x1 identity."""
    return [(_ONE,) * size]


def _copy(factors: tuple) -> tuple:
    """Equal-valued copies of factors, sharing no dict with them."""
    return tuple({col: dict(entries) for col, entries in m.items()}
                 for m in factors)


def _solve(h_side: list, e_side: list, width: int, where: str, scales=None):
    """`solve_in_span` on a system given by its two sides, each a list with
    one tuple of the members' factors per side index: each side is reduced
    by `span_basis`, H first, and every member's scale is 1 if scales is
    None."""
    return solve_in_span(span_basis(h_side), span_basis(e_side), width, where,
                         scales or [1] * len(h_side[0]))


def test_solve_in_span_recovers_a_multiple():
    members = (_DIAG, sparsemat.mscale(_DIAG, F(3)))
    assert _solve([members], _unit(2), 1, "in a test") == [[F(3)]]
    assert _solve(_unit(2), [members], 1, "in a test") == [[F(3)]]


def test_solve_in_span_marks_a_zero_right_member():
    members = (_DIAG, {}, sparsemat.mscale(_DIAG, F(-2)))
    assert _solve([members], _unit(3), 2, "in a test") == \
        [[F(-2), None]]


def test_solve_in_span_rejects_a_left_member_outside_the_span():
    for h_side, e_side in (([(_DIAG, _SWAP)], _unit(2)),
                           (_unit(2), [(_DIAG, _SWAP)])):
        with pytest.raises(RecoveryError, match="not in the span.*in a test"):
            _solve(h_side, e_side, 1, "in a test")


# X = [[2, 5]]: left = 2 DIAG + 5 SWAP; its four Kronecker rows are two
# distinct rows, each twice
_M = sparsemat.madd(sparsemat.mscale(_DIAG, F(2)), sparsemat.mscale(_SWAP, F(5)))
_MIXED = (_DIAG, _SWAP, _M)
# the same members at an index where the second right member vanishes
_PART = (_DIAG, {}, sparsemat.mscale(_DIAG, F(2)))


def test_solve_in_span_ignores_a_repeated_block():
    # a repeated side index repeats every block it sits in
    def solve(h_side, e_side=_unit(3)):
        return _solve(h_side, e_side, 2, "in a test")

    assert solve([_PART]) == solve([_PART, _PART]) == [[F(2), None]]
    assert solve([_MIXED]) == solve([_MIXED] * 3) == [[F(2), F(5)]]
    assert solve([_MIXED], _unit(3) * 3) == [[F(2), F(5)]]
    assert solve([_PART, _MIXED, _PART, _MIXED]) == \
        solve([_PART, _MIXED]) == [[F(2), F(5)]]


def _record_fed(monkeypatch) -> list:
    """Every row fed to an `Echelon`, as (echelon, row) in feed order."""
    fed = []
    add = linalg.Echelon.add

    def recording_add(self, row):
        fed.append((self, frozenset(row.items())))
        return add(self, row)

    monkeypatch.setattr(linalg.Echelon, "add", recording_add)
    return fed


def _echelons(fed) -> list:
    """The echelons fed, each with the rows fed to it, in order of first
    feed: the side echelons, H before E, then the joint one."""
    rows: dict = {}
    for ech, row in fed:
        rows.setdefault(ech, []).append(row)
    return list(rows.items())


def _rref(rows, scales=None) -> dict:
    """{pivot: row} of the reduced echelon form of rows, read in the
    members' unscaled columns: column k divided by scales[k]."""
    ech = linalg.Echelon()
    for row in rows:
        ech.add({col: F(v) / (scales[col] if scales else 1) for col, v in row})
    return dict(zip(ech.pivots, ech.rows))


def _check_joint_rows(fed, reference, scales=None) -> list:
    """The joint echelon's rows, after checking them against the reference.

    Each side echelon is fed each distinct entry vector once; the joint
    echelon is fed at most rank(H basis) * rank(E basis) rows, and they
    have the reduced echelon form of the reference rows (in exact columns).
    A sub-oracle feeds no echelon for the side it leaves out, whose basis
    is the one row of 1s, of rank 1.
    """
    *sides, (_, joint) = _echelons(fed)
    assert all(len(rows) == len(set(rows)) for _, rows in sides)
    assert len(joint) <= math.prod(side.rank for side, _ in sides)
    assert _rref(joint, scales) == _rref(reference)
    return joint


def test_solve_in_span_feeds_each_distinct_row_once(monkeypatch):
    # repeated indices and equal-valued copies on both sides
    fed = _record_fed(monkeypatch)
    h_side = [_MIXED, _copy(_MIXED), _MIXED]
    e_side = _unit(3) + [_copy(_unit(3)[0])]
    _solve(h_side, e_side, 2, "in a test")
    joint = _check_joint_rows(fed, _kronecker_rows(_blocks(h_side, e_side, 2)))
    assert joint == [frozenset({0: F(1), 2: F(2)}.items()),
                     frozenset({1: F(1), 2: F(5)}.items())]


def test_solve_in_span_rejects_a_repeated_block_outside_the_span():
    with pytest.raises(RecoveryError, match="not in the span.*in a test"):
        _solve([(_DIAG, _SWAP)] * 3, _unit(2), 1, "in a test")


def test_solve_in_span_witness_does_not_depend_on_the_feed_order():
    # both left members leave the span, through different residual rows.
    # Read in insertion order, the first row with a left pivot would be
    # {2: 1} for this side and {1: 1} for its reverse
    side = [(_DIAG, {}, _ONE), (_DIAG, _SWAP, {})]
    witnesses = []
    for h_side, e_side in ((side, _unit(3)), (side[::-1], _unit(3)),
                           (_unit(3), side), (_unit(3), side[::-1])):
        with pytest.raises(RecoveryError) as exc:
            _solve(h_side, e_side, 1, "in a test")
        witnesses.append(exc.value.witness)
    assert witnesses == [{1: F(1)}] * 4


# two-sided members.  Right members DIAG.P, SWAP.P and DIAG.Q; left members
# (2 DIAG + 5 SWAP).P and 3 DIAG.Q, so X = [[2, 5, 0], [0, 0, 3]].  The H
# entry vectors are (1,0,1,2,3) and (0,1,0,5,0), the E entry vectors
# (1,1,0,1,0) and (0,0,1,0,1); the product of the second H and second E
# vector vanishes.  _E_MOVED holds the same E entry vectors in other
# positions and other factor objects.
_P = {0: {0: F(1)}}
_Q = {1: {0: F(1)}}
_H = (_DIAG, _SWAP, _DIAG, _M, sparsemat.mscale(_DIAG, F(3)))
_E = (_P, _P, _Q, _P, _Q)
_S = {1: {0: F(1)}}
_T = {0: {0: F(1)}, 1: {1: F(1)}}
_E_MOVED = (_S, _S, _T, _S, _T)


def _blocks(h_side, e_side, width) -> list:
    """The blocks of a two-sided system, each a (rights, lefts) pair of
    lists of (H, E) factor pairs, one block per pair of side indices."""
    blocks = []
    for h_factors in h_side:
        for e_factors in e_side:
            members = list(zip(h_factors, e_factors))
            blocks.append((members[:width], members[width:]))
    return blocks


def _kronecker_rows(blocks, scales=None) -> set:
    """The distinct rows of the direct Kronecker loop: one row per matrix
    entry of every block, H entry times E entry, member by member, each
    member divided by its scale (1 if scales is None)."""
    rows = set()
    for rights, lefts in blocks:
        entries: dict = {}
        for col, (hm, em) in enumerate(rights + lefts):
            scale = scales[col] if scales else 1
            for hc, hcol in hm.items():
                for hr, hv in hcol.items():
                    for ec, ecol in em.items():
                        for er, ev in ecol.items():
                            add_into(entries.setdefault((hr, hc, er, ec), {}),
                                     col, F(hv * ev, scale))
        rows.update(frozenset(row.items()) for row in entries.values())
    return rows


def test_solve_in_span_with_two_sided_factors(monkeypatch):
    fed = _record_fed(monkeypatch)
    want = [[F(2), F(5), F(0)], [F(0), F(0), F(3)]]
    assert _solve([_H], [_E], 3, "in a test") == want
    rows = [{0: F(1), 3: F(2)}, {2: F(1), 4: F(3)}, {1: F(1), 3: F(5)}]
    joint = _check_joint_rows(fed, _kronecker_rows(_blocks([_H], [_E], 3)))
    assert len(joint) == 3
    assert set(joint) == {frozenset(row.items()) for row in rows}
    fed.clear()
    h_side, e_side = [_H, _copy(_H)], [_E, _E_MOVED, _E]
    assert _solve(h_side, e_side, 3, "in a test") == want
    joint = _check_joint_rows(fed, _kronecker_rows(_blocks(h_side, e_side, 3)))
    assert len(joint) == 3


# member scales other than 1: member k's H factor is _A[k] times the one
# above and its E factor _B[k] times, so its scale is _A[k] _B[k].  The
# off-span system has SWAP.Q in place of 3 DIAG.Q and one more left
# member, 3 SWAP.Q: both leave the span, and the witness row {4: 1, 5: 3}
# reads {4: 1, 5: 4} in the scaled columns, of scales 15 and 20
_A = (2, 3, 1, 6, 5, 4)
_B = (1, 4, 7, 2, 3, 5)
_OFF_H = _H[:4] + (_SWAP, sparsemat.mscale(_SWAP, F(3)))
_OFF_E = _E + (_Q,)


def _scaled(side: list, weights: tuple) -> list:
    return [tuple(sparsemat.mscale(m, w) for m, w in zip(factors, weights))
            for factors in side]


def _solution_or_witness(*args):
    try:
        return _solve(*args)
    except RecoveryError as exc:
        return exc.witness


def test_solve_in_span_undoes_member_scales():
    outcomes = []
    for h_side, e_side in (([_H], [_E]), ([_OFF_H], [_OFF_E])):
        scales = [a * b for a, b in zip(_A, _B)][:len(h_side[0])]
        plain = _solution_or_witness(h_side, e_side, 3, "in a test")
        scaled = _solution_or_witness(_scaled(h_side, _A), _scaled(e_side, _B),
                                      3, "in a test", scales)
        assert scaled == plain
        outcomes.append(plain)
    assert outcomes == [[[F(2), F(5), F(0)], [F(0), F(0), F(3)]],
                        {4: F(1), 5: F(3)}]


def test_solve_in_span_rejects_two_sided_members_outside_the_span():
    # with P and Q exchanged between the left members, they leave the span;
    # the witness is a residual row with its pivot among the left columns
    with pytest.raises(RecoveryError, match="not in the span") as exc:
        _solve([_H], [_E[:3] + (_Q, _P)], 3, "in a test")
    assert min(exc.value.witness) >= 3


def _oracle_blocks(recover, *args) -> tuple:
    """The tangent blocks of one recovery, read member by member from its
    projector family, and the members' scales: all (4n)^2 tangent pairs
    for `recover_w`, whose member pairs an H and an E label, E label major,
    the right members first; the index pairs of one side, with the 1x1
    identity as the other, for the sub-oracles."""
    if recover is recover_wh:
        (r,) = args
        fam = projector_family(max(r + 1, 2), r)
        return [([(m, _ONE) for m in fam.right_factors("h", a, b)],
                 [(m, _ONE) for m in fam.left_factors("h", a, b)])
                for a in range(2) for b in range(2)], fam.scales("h")
    fam = projector_family(*args)
    dim = fam.E.dim
    if recover is recover_we:
        return [([(_ONE, m) for m in fam.right_factors("e", i, j)],
                 [(_ONE, m) for m in fam.left_factors("e", i, j)])
                for i in range(dim) for j in range(dim)], fam.scales("e")
    e = {(i, j): {lbl: fam.factor("e", lbl, i, j) for lbl in fam.E_RIGHT + fam.E_LEFT}
         for i in range(dim) for j in range(dim)}

    def members(hs, es, a, i, b, j):
        return [(fam.factor("h", hb, a, b), e[i, j][eb]) for eb in es for hb in hs]

    tangent = [(a, i) for a in range(2) for i in range(dim)]
    return [(members(fam.H_RIGHT, fam.E_RIGHT, a, i, b, j),
             members(fam.H_LEFT, fam.E_LEFT, a, i, b, j))
            for (a, i) in tangent for (b, j) in tangent], fam.member_scales()


def test_solve_in_span_feeds_the_direct_kronecker_rows(monkeypatch):
    # the joint echelon's rows span the rows of the direct Kronecker loop
    # over the exact members; at n <= 4 the side bases have rank <= 2 (H)
    # and <= 3 (E), so it is fed at most 6 rows
    fed = _record_fed(monkeypatch)
    runs = [(recover_w, n, r) for n in (1, 2, 3) for r in range(n + 1)]
    runs += [(recover_w, 4, 2)]
    runs += [(recover_wh, r) for r in range(3)]
    runs += [(recover_we, n, r) for n in (1, 2, 3) for r in range(n + 1)]
    for recover, *args in runs:
        recover(*args)             # builds the ladders, which feed echelons
        projector_family.cache_clear()
        fed.clear()
        recover(*args)             # a new family reduces its sides again
        blocks, scales = _oracle_blocks(recover, *args)
        joint = _check_joint_rows(fed, _kronecker_rows(blocks, scales), scales)
        assert len(joint) <= 6, (recover.__name__, args)


def test_recover_w_multiplication_budget(monkeypatch):
    # a deterministic cost guard: with the family's side bases held,
    # recovering W at (n, r) = (3, 1) again takes 78 Fraction products (93
    # when each recovery reduced its two sides again), against 2,270 when the
    # joint echelon was fed every distinct product of an H and an E entry
    # vector over rational factors, 2,430 when the solver walked the
    # tangent blocks and 15,070 when every block formed its own Kronecker
    # rows
    recover_w(3, 1)
    count = [0]
    mul = Fraction.__mul__

    def counting(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Fraction, "__mul__", counting)
    recover_w(3, 1)
    assert 0 < count[0] <= 2670, count[0]


def _left_member_off_span(monkeypatch):
    # the first left member's H factor becomes a fixed projection, which no
    # combination of the right family matches on every tangent block.
    # `recover_w` reads its H side spread over its twelve members, so the
    # fault is there: that side is read member by member, with the first
    # left member's factor replaced at every index pair.  The sub-oracles
    # read the family's own bases and still pass
    spread = weitzenboeck._member_basis

    def off_span(fam, side):
        if side != "h":
            return spread(fam, side)
        return span_basis(
            tuple({0: {0: 1}} if k == 6 else factors[hc]
                  for k, (hc, _) in enumerate(_MEMBERS))
            for factors in (fam.right_factors("h", a, b) + fam.left_factors("h", a, b)
                            for a in range(2) for b in range(2)))

    monkeypatch.setattr(weitzenboeck, "_member_basis", off_span)


def test_weitzenboeck_suite_reports_a_recovery_error(monkeypatch):
    passing = [c.name for c in run_suite("weitzenboeck", 2)]
    _left_member_off_span(monkeypatch)
    with pytest.raises(RecoveryError) as exc:
        recover_w(2, 1)
    checks = run_suite("weitzenboeck", 2)
    assert [c.name for c in checks] == passing
    failed = [c for c in checks if not c.ok]
    assert [c.name for c in failed] == [
        "recovered matrix equals closed form at r=0 (surviving columns [2, 4])",
        "recovered matrix equals closed form at r=1 (full 6x6)",
        "recovered matrix equals closed form at r=2 (surviving columns [0, 1])",
    ]
    assert failed[1].witness == exc.value.witness == {6: F(1)}


def test_weitzenboeck_oracle_command_reports_a_recovery_error(monkeypatch,
                                                              capsys):
    _left_member_off_span(monkeypatch)
    code = main(["weitzenboeck", "--n", "2", "--r", "1", "--oracle",
                 "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["checks"] == [{"name": "closed form = oracle",
                              "status": "fail", "witness": {"6": "1"}}]
    assert rep["values"]["W_E"][0] == ["1/2", "-1/4", "1"]


def test_sub_oracle_recovery_error_is_a_failing_check(monkeypatch):
    # the H side's C factor becomes a fixed projection at every pair; the
    # families are built afresh, so their bases read the faulted table
    projector_family.cache_clear()
    table = ProjectorFamily.table

    def off_span(self, side, label):
        s, factors = table(self, side, label)
        if (side, label) == ("h", "C"):
            return s, {pair: {0: {0: F(1)}} for pair in factors}
        return s, factors

    monkeypatch.setattr(ProjectorFamily, "table", off_span)
    checks = {c.name: c for c in run_suite("weitzenboeck", 2)}
    h_part = checks["H-part sub-oracle at r=1"]
    assert not h_part.ok and h_part.witness == {2: F(1)}
    assert checks["E-part sub-oracle at r=1"].ok


def test_shared_factors_are_never_modified():
    # every caller of the shared factors runs first; a caller that wrote
    # into one would leave it unequal to a fresh family's build.  The held
    # tables are read twice as one object; a summed label is built afresh
    # at each read, from the held tables
    recover_w(3, 1)
    recover_we(3, 1)
    curvature_scalar_identities(3, 1)
    kernel_projection(3, 1)
    fam = projector_family(3, 1)
    assert fam is projector_family(3, 1)
    fresh = ProjectorFamily(3, 1)
    for side, labels in (("h", fam.H_RIGHT + fam.H_LEFT),
                         ("e", fam.E_RIGHT + fam.E_LEFT)):
        dim = (fam.H if side == "h" else fam.E).dim
        pairs = [(x, y) for x in range(dim) for y in range(dim)]
        for label in labels:
            if label not in _SUMS:
                shared = fam.table(side, label)
                assert fam.table(side, label) is shared
                assert shared == fresh.table(side, label), (side, label)
            factors = [fam.factor(side, label, x, y) for x, y in pairs]
            assert factors == [fresh.factor(side, label, x, y) for x, y in pairs]
            assert fam.scale(side, label) == fresh.scale(side, label)
            assert all(type(v) is int for m in factors
                       for col in m.values() for v in col.values())
        assert fam.side_basis(side) == fresh.side_basis(side)
    # the int ladders the factors and the identities are built from
    for ops, up, level in ((fam.hops, "mul", fam.r), (fam.eops, "wedge", fam.q)):
        flat = "mul_flat" if up == "mul" else "wedge_flat"
        for name, lvl in (("contract_sharp", level + 1), (up, level),
                          (up, level - 1), ("contract_sharp", level),
                          (flat, level - 1), ("contract", level)):
            shared = ops.scaled(name, lvl)
            assert ops.scaled(name, lvl) is shared
            assert shared == Ladder.scaled.__wrapped__(ops, name, lvl), (name, lvl)


def test_int_ladders_are_cleared_once_per_process():
    # once the suite's recoveries and identities have run at n, a second
    # family at that n and the identities read only cached int ladders
    n = 3
    for r in range(n + 1):
        recover_w(n, r)
        curvature_scalar_identities(n, r)
    misses = Ladder.scaled.cache_info().misses
    for r in range(n + 1):
        fam = ProjectorFamily(n, r)
        assert fam is not projector_family(n, r)
        fam.member_scales()
        curvature_scalar_identities(n, r)
    assert Ladder.scaled.cache_info().misses == misses


def test_a_dropped_family_is_freed_with_its_tables():
    # the family owns its tables: no cache outside it keeps it alive, and
    # it holds no reference cycle, so dropping it frees it at once
    enabled = gc.isenabled()
    gc.disable()
    try:
        fam = ProjectorFamily(2, 1)
        fam.member_scales()
        ref = weakref.ref(fam)
        del fam
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_the_weitzenboeck_suite_releases_every_family():
    # a family that an earlier test left in a reference cycle (a caught
    # RecoveryError's traceback holds its frames) is not the suite's, so
    # such garbage is collected first; the check itself collects nothing
    gc.collect()
    projector_family(2, 1)
    assert all(c.ok for c in run_suite("weitzenboeck", 3))
    assert not [o for o in gc.get_objects() if isinstance(o, ProjectorFamily)]


def test_the_weitzenboeck_suite_holds_one_grade_at_a_time():
    # memory held once the suite returns, traced in a fresh interpreter:
    # 1.49 MB at n = 4, against 6.08 MB when every family and its tables
    # lived for the whole process; what is held is the process-wide ladders
    projector_family.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        checks = run_suite("weitzenboeck", 4)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(c.ok for c in checks)
    assert held < 2 * 2 ** 20, held


def test_a_family_holds_no_summed_table():
    # Sym2E, K and Lambda2E are built at one index pair when read and then
    # dropped: once every reader has run on a cached family, it holds the
    # tables of C, -+ and +- on both sides and of Sym2H, and no other
    held = {("h", "C"), ("h", "-+"), ("h", "+-"), ("h", "Sym2H"),
            ("e", "C"), ("e", "-+"), ("e", "+-")}
    for n, r in ((2, 1), (3, 1), (3, 2), (4, 2)):
        recover_w(n, r)
        recover_we(n, r)
        curvature_scalar_identities(n, r)
        kernel_projection(n, r)
        assert set(projector_family(n, r)._tables) == held


def test_a_family_read_on_its_h_side_builds_nothing_of_e(monkeypatch):
    # `recover_wh(r)` reads only the H side of the family (max(r+1, 2), r):
    # the primitive ladder and the primitive level of E are looked up when
    # the E side is read, so that family builds neither
    built = []
    for name in ("primitive_ops", "primitive_space"):
        monkeypatch.setattr(weitzenboeck, name,
                            lambda *args, name=name: built.append((name, args)))
    # a fresh family on each call, so the shared ones stay as they are
    monkeypatch.setattr(weitzenboeck, "projector_family", ProjectorFamily)
    for r in (1, 2, 3):
        assert recover_wh(r) == wh_closed(r)
    fam = ProjectorFamily(4, 2)
    fam.side_basis("h")
    fam.scales("h")
    assert built == []


def test_each_side_is_reduced_once_per_family(monkeypatch):
    # at (n, r) = (3, 2) `recover_w` reads both sides, `recover_wh(2)` the
    # H side of the same family and `recover_we` its E side: each side is
    # streamed once, and its entry vectors fed to a side echelon once
    calls = []
    stream = weitzenboeck.span_basis

    def counting(tuples):
        calls.append(1)
        return stream(tuples)

    monkeypatch.setattr(weitzenboeck, "span_basis", counting)
    recover_w(3, 2)                    # builds the ladders
    projector_family.cache_clear()
    calls.clear()
    fed = _record_fed(monkeypatch)
    for _ in range(2):
        recover_w(3, 2)
        recover_wh(2)
        recover_we(3, 2)
    assert len(calls) == 2
    # two side echelons, both fed in the first `recover_w`, and one joint
    # echelon per solve
    assert len(_echelons(fed)) == 2 + 6
    projector_family.cache_clear()
    recover_we(3, 2)
    assert len(calls) == 3


def test_member_classes_are_the_labels():
    # the sides are read over their labels, one factor each, and
    # `recover_w` spreads each side's basis over the members holding a
    # label: the classes of members sharing a side factor are the labels,
    # 4 on the H side of `recover_w` and 6 on its E side, whatever factor
    # objects the labels share (the C label's pairs share one sigma id
    # per value)
    P = ProjectorFamily
    labels = [(hb, eb) for hs, es in ((P.H_RIGHT, P.E_RIGHT), (P.H_LEFT, P.E_LEFT))
              for eb in es for hb in hs]
    for n in (1, 2, 3):
        for r in range(n + 1):
            fam = ProjectorFamily(n, r)
            for pos, side in enumerate("he"):
                columns = [lbl for lbls in fam.LABELS[side] for lbl in lbls]
                assert len(fam.right_factors(side, 0, 0) +
                           fam.left_factors(side, 0, 0)) == len(columns)
                by_label: dict = {}
                for k, label in enumerate(labels):
                    by_label.setdefault(label[pos], []).append(k)
                classes: dict = {}
                for k, member in enumerate(_MEMBERS):
                    classes.setdefault(columns[member[pos]], []).append(k)
                assert list(classes.values()) == list(by_label.values()), (n, r)
                assert len(classes) == (4 if side == "h" else 6)


def test_the_weitzenboeck_suite_peak_at_n5():
    # traced peak of the n = 5 suite after an n = 4 run, measured in a
    # fresh interpreter: 8.53 MB, against 14.87 MB when the families held
    # their Sym2E, K and Lambda2E tables over every index pair
    run_suite("weitzenboeck", 4)
    projector_family.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        checks = run_suite("weitzenboeck", 5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(c.ok for c in checks)
    assert peak < 10 * 2 ** 20, peak


def test_kernel_projection_properties():
    for (n, r) in [(n, r) for n in (2, 3) for r in range(n + 1)]:
        P = kernel_projection(n, r)
        assert not sparsemat.msub(sparsemat.compose(P, P), P)
        assert not sparsemat.compose(multiplication_composite(n, r), P)
        assert not sparsemat.compose(contraction_composite(n, r), P)


def test_kernel_projection_fixes_joint_kernel():
    from qkspin import linalg
    n, r = 2, 1
    P = kernel_projection(n, r)
    rows: dict = {}
    for m in (multiplication_composite(n, r), contraction_composite(n, r)):
        for col, colv in m.items():
            for row, v in colv.items():
                rows.setdefault((id(m), row), {})[col] = v
    dim = 2 * n * 4  # E dim times primitive dim at (2,1)
    kernel = linalg.kernel_basis_with_free(list(rows.values()), dim)[1]
    for vec in kernel:
        assert sparsemat.apply_cols(P, vec) == vec


def test_curvature_scalar_identities():
    for n in (2, 3):
        for r in range(n + 1):
            rep = curvature_scalar_identities(n, r)
            assert rep["h_identity_ok"], (n, r)
            assert rep["e_identity_ok"], (n, r)
            assert rep["h_eigenvalue"] == -r * (r + 2)
            assert rep["e_eigenvalue"] == -(n - r) * (n + r + 2)
            assert rep["sigma_trace_E"] == 2 * n
            assert rep["sigma_trace_H"] == 2
            assert rep["kappa4_coefficient_h"] == F(r * (r + 2), n + 2)
            assert rep["kappa4_coefficient_e"] == \
                F((n + r + 2) * (n - r), n * (n + 2))


def test_eq51_row_combination():
    for n in (2, 3):
        for r in range(1, n):
            combo = row_combination(n, r, eq51_vector(n, r))
            half = [x * OP_SLOTS[j][0] for j, x in enumerate(combo["atW"])]
            assert half[:4] == [F(r, 2), F(r * (r + 2), 2 * (r + 1)),
                                F(r * r, 2 * (r + 1)),
                                F(r * r * (r + 2), 2 * (r + 1) ** 2)]
            assert combo["atW"][4] == combo["atW"][5] == 0
            assert combo["lhs_kappa4"] == F(r * r * (r + 2), n * (n + 2))


def test_lichnerowicz_row_combination():
    for n in (2, 3):
        for r in range(1, n):
            combo = row_combination(n, r, lichnerowicz_vector(n, r))
            ops = combo["operator_coefficients"]
            assert ops["D+- D-+"] == 1 and ops["D-+ D+-"] == 1
            assert ops["D-- D++"] == 0 and ops["D++ D--"] == 0
            assert ops["T+* T+"] == 0 and ops["T-* T-"] == 0
            # with a_1 = -1 the first slot contributes +nabla*nabla, so the
            # combination reads nabla*nabla + kappa/4 = D^2
            assert combo["lhs_kappa4"] == 1


def test_estimate_row_combination():
    for n in (2, 3):
        for r in range(0, n):
            combo = row_combination(n, r, twistor_elimination_vector(n, r))
            assert combo["atW"][3] == 0 and combo["atW"][5] == 0
            assert combo["lhs_kappa4"] == F((r + 2) * (n + r + 2), n + 2)


def test_estimate_bound_values():
    assert estimate_bound(2, 0, 16)["bound"] == 5
    assert estimate_bound(2, 1, 16)["bound"] == 6
    assert estimate_bound(5, 0, F(28, 5))["bound"] == F(8, 5)
    for n in range(2, 7):
        rep = estimate_bound(n, 0, 4)
        assert rep["coefficient"] == F(n + 3, n + 2)
        assert rep["agree"]
    assert estimate_bound(3, 1, 4)["ratio_rederived"] == F(7, 5)
    assert estimate_bound(3, 1, 4)["witness"] is None


def test_estimate_bound_reports_an_uneliminated_column(monkeypatch):
    # a vector that leaves the D++ D-- column fails `agree` with a witness,
    # under python -O as well
    good = weitzenboeck.twistor_elimination_vector(3, 1)
    monkeypatch.setattr(weitzenboeck, "twistor_elimination_vector",
                        lambda n, r: [F(1)] + good[1:])
    rep = estimate_bound(3, 1, 4)
    assert not rep["agree"]
    # row C.C of W adds we[0][1] wh[0][1] = 3/28 and we[0][2] wh[0][1] = -1/2
    assert rep["witness"] == {"columns not eliminated":
                              {"(+-,+-)": F(3, 28), "(+-,K)": F(-1, 2)}}


def test_estimate_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_bound(1, 0, 4)
    with pytest.raises(ValueError):
        estimate_bound(2, 0, 0)
    with pytest.raises(ValueError):
        estimate_bound(2, 0, -3)


def test_exact_api_rejects_floats():
    # Fraction(0.1) would be the binary float, 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="float"):
        estimate_bound(2, 0, 0.1)
    with pytest.raises(TypeError, match="float"):
        row_combination(2, 1, [0.5, 0, 0, 0, 0, 0])
    # the exact spellings still work, the CLI's strings among them
    assert estimate_bound(2, 0, "1/10")["bound"] == F(1, 32)
    assert row_combination(2, 1, ["1/2", 0, 0, 0, 0, 0])["a"][0] == F(1, 2)


def test_degenerate_members_flagged():
    # the right members that vanish on every tangent block are exactly the
    # complement of the closed-form surviving columns that recover_w uses
    from qkspin.weitzenboeck import _surviving_columns
    for n in (2, 3):
        for r in range(n + 1):
            fam = projector_family(n, r)
            # a right member h tensor e is nonzero on some tangent block
            # exactly when its H label's factor is nonzero at some (a, b)
            # and its E label's at some (i, j)
            nonzero = {}
            for side in "he":
                dim = (fam.H if side == "h" else fam.E).dim
                nonzero[side] = {col for x in range(dim) for y in range(dim)
                                 for col, m in enumerate(fam.right_factors(side, x, y))
                                 if m}
            alive = {col for col, (hc, ec) in enumerate(_MEMBERS[:6])
                     if hc in nonzero["h"] and ec in nonzero["e"]}
            assert sorted(alive) == _surviving_columns(n, r), (n, r)
