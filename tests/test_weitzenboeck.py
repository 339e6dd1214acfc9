"""Closed-form matrices, recovery oracle, operator identities, row vectors."""

import json
from fractions import Fraction

import pytest

from qkspin import linalg, sparsemat, weitzenboeck
from qkspin.cli import main
from qkspin.symplectic import add_into
from qkspin.verify import run_suite
from qkspin.weitzenboeck import (
    OP_SLOTS,
    ProjectorFamily,
    RecoveryError,
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


# synthetic one-block families for the span solver: 2x2 H factors times the
# 1x1 identity E factor
_ONE = {0: {0: F(1)}}
_DIAG = {0: {0: F(1)}, 1: {1: F(1)}}           # identity on a 2-dim space
_SWAP = {0: {1: F(1)}, 1: {0: F(1)}}


def test_solve_in_span_recovers_a_multiple():
    blocks = [([(_DIAG, _ONE)], [(sparsemat.mscale(_DIAG, F(3)), _ONE)])]
    assert solve_in_span(blocks, "in a test") == [[F(3)]]


def test_solve_in_span_marks_a_zero_right_member():
    blocks = [([(_DIAG, _ONE), ({}, _ONE)],
               [(sparsemat.mscale(_DIAG, F(-2)), _ONE)])]
    assert solve_in_span(blocks, "in a test") == [[F(-2), None]]


def test_solve_in_span_rejects_a_left_member_outside_the_span():
    blocks = [([(_DIAG, _ONE)], [(_SWAP, _ONE)])]
    with pytest.raises(RecoveryError, match="not in the span.*in a test"):
        solve_in_span(blocks, "in a test")


# X = [[2, 5]]: left = 2 DIAG + 5 SWAP; its four Kronecker rows are two
# distinct rows, each twice
_MIXED = ([(_DIAG, _ONE), (_SWAP, _ONE)],
          [(sparsemat.madd(sparsemat.mscale(_DIAG, F(2)),
                           sparsemat.mscale(_SWAP, F(5))), _ONE)])
# the same family on a block where the second right member vanishes
_PART = ([(_DIAG, _ONE), ({}, _ONE)], [(sparsemat.mscale(_DIAG, F(2)), _ONE)])


def test_solve_in_span_ignores_a_repeated_block():
    assert solve_in_span([_PART], "in a test") == [[F(2), None]]
    assert solve_in_span([_PART, _PART], "in a test") == [[F(2), None]]
    assert solve_in_span([_MIXED], "in a test") == [[F(2), F(5)]]
    assert solve_in_span([_MIXED] * 3, "in a test") == [[F(2), F(5)]]
    assert solve_in_span([_PART, _MIXED, _PART, _MIXED], "in a test") == \
        solve_in_span([_PART, _MIXED], "in a test") == [[F(2), F(5)]]


def test_solve_in_span_feeds_each_distinct_row_once(monkeypatch):
    fed = []
    add = linalg.Echelon.add

    def counting_add(self, row):
        fed.append(dict(row))
        return add(self, row)

    monkeypatch.setattr(linalg.Echelon, "add", counting_add)
    solve_in_span([_MIXED] * 3, "in a test")
    assert fed == [{0: F(1), 2: F(2)}, {1: F(1), 2: F(5)}]


def test_solve_in_span_rejects_a_repeated_block_outside_the_span():
    blocks = [([(_DIAG, _ONE)], [(_SWAP, _ONE)])] * 3
    with pytest.raises(RecoveryError, match="not in the span.*in a test"):
        solve_in_span(blocks, "in a test")


# synthetic blocks whose E factors are 2x2 as well.  Right members DIAG.P,
# SWAP.P and DIAG.Q; left members (2 DIAG + 5 SWAP).P and 3 DIAG.Q, so
# X = [[2, 5, 0], [0, 0, 3]].  Block 1's H entry vectors are (1,0,1,2,3) and
# (0,1,0,5,0), its E entry vectors (1,1,0,1,0) and (0,0,1,0,1); the product
# of the second H and second E vector vanishes.  Block 2 holds the same
# entry vectors in other positions and other factor objects.
_P = {0: {0: F(1)}}
_Q = {1: {0: F(1)}}
_M = sparsemat.madd(sparsemat.mscale(_DIAG, F(2)), sparsemat.mscale(_SWAP, F(5)))
_KRON = ([(_DIAG, _P), (_SWAP, _P), (_DIAG, _Q)],
         [(_M, _P), (sparsemat.mscale(_DIAG, F(3)), _Q)])
_S = {1: {0: F(1)}}
_T = {0: {0: F(1)}, 1: {1: F(1)}}
_KRON_MOVED = ([(dict(_DIAG), _S), (dict(_SWAP), _S), (dict(_DIAG), _T)],
               [(dict(_M), _S), (sparsemat.mscale(_DIAG, F(3)), _T)])


def _kronecker_rows(blocks) -> set:
    """The distinct rows of the direct Kronecker loop: one row per matrix
    entry of every block, H entry times E entry, member by member."""
    rows = set()
    for rights, lefts in blocks:
        entries: dict = {}
        for col, (hm, em) in enumerate(rights + lefts):
            for hc, hcol in hm.items():
                for hr, hv in hcol.items():
                    for ec, ecol in em.items():
                        for er, ev in ecol.items():
                            add_into(entries.setdefault((hr, hc, er, ec), {}),
                                     col, hv * ev)
        rows.update(frozenset(row.items()) for row in entries.values())
    return rows


def _record_fed(monkeypatch) -> list:
    fed = []
    add = linalg.Echelon.add

    def recording_add(self, row):
        fed.append(frozenset(row.items()))
        return add(self, row)

    monkeypatch.setattr(linalg.Echelon, "add", recording_add)
    return fed


def test_solve_in_span_with_two_sided_factors(monkeypatch):
    fed = _record_fed(monkeypatch)
    want = [[F(2), F(5), F(0)], [F(0), F(0), F(3)]]
    assert solve_in_span([_KRON], "in a test") == want
    rows = [{0: F(1), 3: F(2)}, {2: F(1), 4: F(3)}, {1: F(1), 3: F(5)}]
    assert len(fed) == 3
    assert set(fed) == {frozenset(row.items()) for row in rows} == \
        _kronecker_rows([_KRON])
    fed.clear()
    blocks = [_KRON, _KRON_MOVED, _KRON]
    assert solve_in_span(blocks, "in a test") == want
    assert len(fed) == 3 and set(fed) == _kronecker_rows(blocks)


def test_solve_in_span_rejects_two_sided_members_outside_the_span():
    # with P and Q exchanged between the left members, they leave the span;
    # the witness is a residual row with its pivot among the left columns
    rights, lefts = _KRON
    swapped = [(lefts[0][0], _Q), (lefts[1][0], _P)]
    with pytest.raises(RecoveryError, match="not in the span") as exc:
        solve_in_span([(rights, swapped)], "in a test")
    assert min(exc.value.witness) >= len(rights)


def test_solve_in_span_feeds_the_direct_kronecker_rows(monkeypatch):
    fed = _record_fed(monkeypatch)
    solve = weitzenboeck.solve_in_span
    direct: list = []

    def recording_solve(blocks, where):
        blocks = list(blocks)
        direct.append(_kronecker_rows(blocks))
        return solve(blocks, where)

    monkeypatch.setattr(weitzenboeck, "solve_in_span", recording_solve)
    runs = [(recover_w, n, r) for n in (1, 2, 3) for r in range(n + 1)]
    runs += [(recover_wh, r) for r in (1, 2)]
    runs += [(recover_we, n, r) for n in (2, 3) for r in range(1, n)]
    for recover, *args in runs:
        recover(*args)             # builds the factors, which feed echelons
        fed.clear()
        direct.clear()
        recover(*args)
        assert len(fed) == len(set(fed)), (recover.__name__, args)
        assert direct == [set(fed)], (recover.__name__, args)


def test_recover_w_multiplication_budget(monkeypatch):
    # a deterministic cost guard: with the factors built, recovering W at
    # (n, r) = (3, 1) took 2,430 Fraction products, against 15,070 when
    # every block formed its own Kronecker rows
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
    # combination of the right family matches on every tangent block
    left = ProjectorFamily.left_factors

    def off_span(self, a, i, b, j):
        members = left(self, a, i, b, j)
        return [({0: {0: F(1)}}, members[0][1])] + members[1:]

    monkeypatch.setattr(ProjectorFamily, "left_factors", off_span)


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
    h_left = ProjectorFamily.h_left

    def off_span(self, label, a, b):
        return {0: {0: F(1)}} if label == "C" else h_left(self, label, a, b)

    monkeypatch.setattr(ProjectorFamily, "h_left", off_span)
    checks = {c.name: c for c in run_suite("weitzenboeck", 2)}
    h_part = checks["H-part sub-oracle at r=1"]
    assert not h_part.ok and h_part.witness == {2: F(1)}
    assert checks["E-part sub-oracle at r=1"].ok


def test_shared_factors_are_never_modified():
    # every caller of the shared factors runs first; a caller that wrote
    # into one would leave it unequal to a fresh, uncached build
    recover_w(3, 1)
    recover_we(3, 1)
    curvature_scalar_identities(3, 1)
    fam = projector_family(3, 1)
    assert fam is projector_family(3, 1)
    builders = [(ProjectorFamily.h_right, fam.H_RIGHT, 2),
                (ProjectorFamily.h_left, fam.H_LEFT, 2),
                (ProjectorFamily.e_right, fam.E_RIGHT, fam.E.dim),
                (ProjectorFamily.e_left, fam.E_LEFT, fam.E.dim)]
    for builder, labels, dim in builders:
        for label in labels:
            for i in range(dim):
                for j in range(dim):
                    shared = builder(fam, label, i, j)
                    assert builder(fam, label, i, j) is shared
                    assert shared == builder.__wrapped__(fam, label, i, j), \
                        (builder.__name__, label, i, j)


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
    kernel = linalg.kernel_basis(list(rows.values()), dim)
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
            tangent = [(a, i) for a in range(2) for i in range(fam.E.dim)]
            alive = set()
            for (a, i) in tangent:
                for (b, j) in tangent:
                    for col, (hm, em) in enumerate(fam.right_factors(a, i, b, j)):
                        if hm and em:
                            alive.add(col)
            assert sorted(alive) == _surviving_columns(n, r), (n, r)
