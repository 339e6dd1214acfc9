"""Closed-form matrices, recovery oracle, operator identities, row vectors."""

from fractions import Fraction

import pytest

from qkspin import sparsemat
from qkspin.weitzenboeck import (
    OP_SLOTS,
    RecoveryError,
    contraction_composite,
    curvature_scalar_identities,
    eq51_vector,
    estimate_bound,
    kernel_projection,
    lichnerowicz_vector,
    multiplication_composite,
    recover_matches_closed_form,
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
    assert recover_matches_closed_form(2, 1)["ok"]


def test_recover_degenerate_grades():
    rep = recover_matches_closed_form(2, 0)
    assert rep["ok"] and rep["alive"] == [2, 4]
    rep = recover_matches_closed_form(2, 2)
    assert rep["ok"] and rep["alive"] == [0, 1]


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


def test_kernel_projection_properties():
    for (n, r) in [(2, 1), (2, 0), (3, 2)]:
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


def test_estimate_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_bound(1, 0, 4)
    with pytest.raises(ValueError):
        estimate_bound(2, 0, 0)
    with pytest.raises(ValueError):
        estimate_bound(2, 0, -3)


def test_degenerate_members_flagged():
    from qkspin.weitzenboeck import ProjectorFamily
    assert ProjectorFamily(2, 1).zero_right_members() == []
    # four summands vanish at each boundary grade
    assert ProjectorFamily(2, 0).zero_right_members() == \
        ["(-+,-+)", "(+-,-+)", "(+-,+-)", "(+-,K)"]
    assert ProjectorFamily(2, 2).zero_right_members() == \
        ["(-+,+-)", "(+-,+-)", "(-+,K)", "(+-,K)"]
