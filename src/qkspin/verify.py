"""Named verification suites aggregating the exact checks of each module.

Each suite returns a list of Check records (name, ok, witness, value); the
command line front end renders them and derives its exit code from the
conjunction.  Only the curvature suite reads the seed: its random 4-forms
are drawn through `random.Random(seed)`, using only integer draws, so runs
are reproducible bit for bit.  Every other suite checks basis elements and
is the same at every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

# curvature, spinor and weitzenboeck are loaded lazily (see the package
# docstring), so that a suite compiles them only if it reads them: their
# names are read through the module at call time.  The two Sym^4 checks
# come from `sym4`, which every verify command compiles.
from . import SUITES, curvature, sparsemat, spinor, weitzenboeck
from .lefschetz import (
    Check,
    L_op,
    NotPrimitiveError,
    PrimitiveDimensionError,
    check_ext_relations,
    check_relation,
    check_sl2,
    check_sym_relations,
    primitive_space,
    swap_cases,
)
from .sym4 import qzero_check, sym4_acts_trivially
from .symplectic import SymplecticSpace


def suite_clifford(n: int, seed: int = 0) -> list[Check]:
    checks = []
    spin = spinor.SpinorSpace(n)

    ranks = [spinor.rank_formula(n, r) for r in range(n + 1)]
    name = f"spinor ranks match formula (n={n})"
    try:
        dims = [spin.grade_dim(r) for r in range(n + 1)]
    except PrimitiveDimensionError as exc:
        # every later check is built on the primitive levels
        return [Check(name, False, exc.witness, value=ranks)]
    checks.append(Check(name, dims == ranks, value=ranks))
    checks.append(Check(f"total spinor dimension 4^{n}", spin.dim == 4 ** n,
                        value=spin.dim))

    # mu = sqrt2 M with M rational, so mu_x mu_y + mu_y mu_x = -2 g(x, y) id
    # reads M_x M_y + M_y M_x = -g(x, y) id, checked on the int matrices s M;
    # both sides are symmetric in (x, y), so the unordered pairs cover all
    # (4n)^2 basis pairs
    tangent = spin.tangent_basis()
    scaled = spin.scaled_clifford()
    checks.append(check_relation(
        f"Clifford anticommutation relation (n={n}, all {(4 * n) ** 2} basis pairs)",
        swap_cases([(x, y) for a, x in enumerate(tangent) for y in tangent[a:]],
                   scaled, scaled, 1, lambda x, y: -spin.metric({x: 1}, {y: 1})),
        spin.dim))
    s, mats = scaled

    flat = spin.flat_basis()
    bad = next(((key, t) for ci, key in enumerate(flat) for t in tangent
                if any(abs(flat[row][0] - key[0]) != 1 for row in mats[t].get(ci, {}))),
               None)
    checks.append(Check("Clifford multiplication shifts the grade by one",
                        bad is None, bad))

    s_gram, gram = spin.scaled_hermitian_gram()
    bad = next((key for k, key in enumerate(flat)
                if not gram.get(k, {}).get(k, 0) > 0), None)
    checks.append(Check("twisted Hermitian form positive on the basis",
                        bad is None, bad))

    # h(mu+-(t) psi1, psi2) = -h(psi1, mu-+(tbar) psi2).  The sqrt2 of
    # mu = sqrt2 M is real and cancels, and the relation is linear in t and
    # psi1 and antilinear in psi2, so basis triples prove it for every
    # input: A^T G + G B = 0, with A the grade-raising part of M(t) and B
    # the grade-lowering part of M(tbar), on the int matrices of M and G.
    def grade_part(m, step):
        return {c: rows for c, col in m.items() if (rows := {
            k: v for k, v in col.items() if flat[k][0] == flat[c][0] + step})}

    gram_factor = (s_gram, [gram]), 0

    def adjoint_terms(t):
        raising = sparsemat.transpose(grade_part(mats[t], 1))
        yield 1, ((s, [raising]), 0), gram_factor
        for u, c in spin.conjugate_tangent({t: 1}).items():
            yield c, gram_factor, ((s, [grade_part(mats[u], -1)]), 0)

    checks.append(check_relation("adjointness of the two Clifford components",
                                 ((t, adjoint_terms(t), 0) for t in tangent),
                                 spin.dim))

    # sum_k der(A_k) der(B_k) - lam id = 0 on Sym^r H, lam = -r(r+2); the
    # Kraines value 6n + 4 lam is read off it
    casimir = [-r * (r + 2) for r in range(n + 1)]
    checks.append(check_relation(
        "Casimir scalar -r(r+2) and Kraines eigenvalue 6n - 4r(r+2)",
        ((r, [(-lam, ((1, [sparsemat.identity(r + 1)]), 0)), *spin.casimir_terms(r)], 0)
         for r, lam in enumerate(casimir)), None,
        value=[Fraction(6 * n + 4 * lam) for lam in casimir]))

    # the two-form action of h_i h_j is twice its elementwise derivation on
    # the Sym H factor; a block of grades is read through the identity on
    # its columns, applied first
    def block_terms(pair, block):
        on_block = (1, [{k: {k: 1} for k in block}]), 0
        for term in spin.two_form_terms(pair):
            yield *term, on_block
        yield -2, (sparsemat.int_copies([{k: spin.coords(
            {(p, q, hm2, col): v for hm2, v in spin.sym2h_derivation(pair, hm).items()})
            for k in block for p, q, hm, col in [flat[k]]}]), 0)

    grade0, upper = range(spin.grade_dim(0)), range(spin.grade_dim(0), spin.dim)
    checks.append(check_relation(
        "two-form action is twice the derivation (grades r>=1)",
        ((pair, block_terms(pair, upper), 0) for pair in [(0, 0), (0, 1), (1, 1)]),
        spin.dim))
    r0 = check_relation("two-form action on grade 0 (reported, not asserted)",
                        [(None, block_terms((1, 1), grade0), 0)], spin.dim)
    checks.append(Check(r0.name, True, value="zero" if r0.ok else "nonzero"))
    return checks


def suite_lemmas(n: int, seed: int = 0) -> list[Check]:
    E = SymplecticSpace(n)
    checks = list(check_sl2(E))
    for s in range(n + 1):
        checks.extend(check_ext_relations(E, s))
    for r in range(n + 2):
        checks.extend(check_sym_relations(r))
    # c P = prod_k (lam_k id - L Lambda) is the kernel-basis projector times c
    # exactly when Lambda (c P) = 0 and (c P) L = 0 (see `lefschetz`)
    def projector_cases(q):
        prim = primitive_space(E, q)
        cp = (1, [prim.scaled_projector_sl2()[1]]), 0
        yield q, [(1, ((1, [prim.lambda_op]), 0), cp)], 0
        yield q, [(1, cp, ((1, [L_op(E, q)]), 0))], 0

    checks.append(check_relation(
        "kernel-basis and sl2 projectors agree",
        (case for q in range(n + 1) for case in projector_cases(q)), None))
    return checks


def suite_curvature(n: int, seed: int = 0) -> list[Check]:
    checks = []
    spans = [curvature.generators_span_ker_m(N) for N in (2, 3, 4)]
    dims = [rep["span_rank"] for rep in spans]
    checks.append(Check("Curv dimension N^2(N^2-1)/12 at N=2,3,4",
                        dims == [1, 6, 20], dims, value=dims))
    bad = next((rep for rep in spans if not rep["equal"]), None)
    checks.append(Check("ker(m) matches the generator span", bad is None, bad))

    rep = curvature.injectivity_report(1)
    checks.append(Check("i_Lambda fails exactly at dim V = 2",
                        rep["i_sym_injective"] and not rep["i_lambda_injective"],
                        rep))
    rep = curvature.injectivity_report(2)
    checks.append(Check("i_Sym and i_Lambda injective at dim V = 4",
                        rep["i_sym_injective"] and rep["i_lambda_injective"],
                        rep))

    rng = random.Random(seed)
    model = curvature.ModelCurvature(n, curvature.random_sym4(n, rng))
    rep = curvature.einstein_report(model)
    checks.append(Check("Ricci constants (-3, -(2n+1), 0)",
                        rep["ricci_H"] == -3 and
                        rep["ricci_E"] == -(2 * n + 1) and
                        rep["ricci_hyper"] == 0, rep["ricci_witness"] or rep,
                        value=[rep["ricci_H"], rep["ricci_E"], rep["ricci_hyper"]]))
    checks.append(Check("Einstein coefficient kappa/(4n)", rep["einstein_ok"],
                        value=rep["einstein_coefficient"]))

    h_quads = [[{0: 1}, {1: 1}, {0: 1}, {1: 1}],
               [{0: 2, 1: 1}, {1: 3}, {0: 1, 1: -1}, {0: 1, 1: 2}]]
    bad = None
    for _ in range(10):
        e_quad = tuple(rng.randrange(2 * n) for _ in range(4))
        want = model.rvalue(*e_quad)
        vals = [curvature.sym4_extraction(model, "hyper", hq, e_quad)
                for hq in h_quads]
        if any(v != want for v in vals):
            bad = e_quad
            break
    checks.append(Check("symmetric 4-form extraction round-trip, "
                        "h-choice independent", bad is None, bad))

    bad = None
    for trial in range(20):
        rf = (curvature.random_sym4(n, rng) if trial else curvature.alpha_fourth(
            n, {i: Fraction(rng.randint(-3, 3)) for i in range(2 * n)}))
        # rebinding `model` frees the first form's model and its tensors
        model = curvature.ModelCurvature(n, rf)
        rep = sym4_acts_trivially(model)
        if not rep["ok"]:
            bad = ("lambda-E", trial, rep["witness"])
            break
        # r = n is primitive level 0, where every derivation vanishes
        for r in range(n):
            rep = qzero_check(model, r)
            if not rep["ok"]:
                bad = ("primitive", trial, r, rep["witness"])
                break
        if bad:
            break
    checks.append(Check("symmetric 4-forms act trivially (20 seeded forms, "
                        "ambient and primitive)", bad is None, bad))
    return checks


def suite_bianchi(n: int, seed: int = 0) -> list[Check]:
    system = curvature.BianchiSystem(n)
    rep = system.solution_equals_ker_m()
    expected = (4 * n) ** 2 * ((4 * n) ** 2 - 1) // 12
    return [
        Check(f"Bianchi solution space dimension (n={n})",
              rep["dim_solutions"] == expected, rep["dim_solutions"],
              value=rep["dim_solutions"]),
        Check("solutions of I-III' equal ker(m) as subspaces", rep["equal"],
              None if rep["equal"] else rep["witness"]),
    ]


def _sub_oracle_check(name: str, recover, closed: list) -> Check:
    """A sub-oracle compared with its closed form; a `RecoveryError` fails
    the check with the error's witness, a mismatch with the recovered matrix."""
    try:
        got = recover()
    except weitzenboeck.RecoveryError as exc:
        return Check(name, False, exc.witness)
    return Check(name, got == closed, None if got == closed else got)


def suite_weitzenboeck(n: int, seed: int = 0) -> list[Check]:
    # no check reads the projector families of two grades, so the suite
    # runs grade by grade and releases each grade's family once its checks
    # are done; the checks are still reported by kind, then by r
    recovered, sub_oracles, identities = [], [], []
    for r in range(n + 1):
        rep = weitzenboeck.recover_matches_closed_form(n, r)
        generic = 1 <= r <= n - 1
        label = "full 6x6" if generic else f"surviving columns {rep['alive']}"
        recovered.append(Check(f"recovered matrix equals closed form at r={r} "
                               f"({label})", rep["ok"], rep["witness"]))
        if generic:
            sub_oracles.append(_sub_oracle_check(
                f"H-part sub-oracle at r={r}", lambda: weitzenboeck.recover_wh(n, r),
                weitzenboeck.wh_closed(r)))
            sub_oracles.append(_sub_oracle_check(
                f"E-part sub-oracle at r={r}", lambda: weitzenboeck.recover_we(n, r),
                weitzenboeck.we_closed(n, r)))
        rep = weitzenboeck.curvature_scalar_identities(n, r)
        failed = [key for key in ("h_identity_ok", "e_identity_ok", "kappa4_h_matches",
                                  "kappa4_e_matches") if not rep[key]]
        identities.append(Check(
            f"curvature-scalar operator identities at r={r}", not failed,
            failed or None,
            value=[rep["kappa4_coefficient_h"], rep["kappa4_coefficient_e"]]))
        weitzenboeck.projector_family.cache_clear()
    checks = recovered + sub_oracles + identities
    for r in range(1, n):
        combo = weitzenboeck.row_combination(
            n, r, weitzenboeck.lichnerowicz_vector(n, r))
        ops = combo["operator_coefficients"]
        ok = (ops["D+- D-+"] == 1 and ops["D-+ D+-"] == 1 and
              combo["lhs_kappa4"] == 1 and
              all(ops[k] == 0 for k in ("D-- D++", "D++ D--", "T+* T+", "T-* T-")))
        checks.append(Check(f"Lichnerowicz combination at r={r}", ok, combo))
        combo = weitzenboeck.row_combination(
            n, r, weitzenboeck.eq51_vector(n, r))
        ok = (combo["atW"][4] == combo["atW"][5] == 0 and
              combo["lhs_kappa4"] == Fraction(r * r * (r + 2), n * (n + 2)))
        checks.append(Check(f"twistor-free combination at r={r}", ok, combo))
    for r in range(n):
        combo = weitzenboeck.row_combination(
            n, r, weitzenboeck.twistor_elimination_vector(n, r))
        ok = (combo["atW"][3] == 0 and combo["atW"][5] == 0 and
              combo["lhs_kappa4"] == Fraction((r + 2) * (n + r + 2), n + 2))
        checks.append(Check(f"estimate combination at r={r}", ok, combo))
        if n >= 2:
            rep = weitzenboeck.estimate_bound(n, r, Fraction(4))
            checks.append(Check(f"bound coefficient re-derived at r={r}",
                                rep["agree"], rep, value=rep["coefficient"]))
    return checks


def run_suite(name: str, n: int, seed: int = 0) -> list[Check]:
    """The checks of one suite, or of every suite in order for "all".

    A primitive level of the wrong dimension leaves a suite nothing sound
    to check after it, so the suite stops there with one failing check
    whose witness is (n, q, built, expected); the clifford suite reports
    it under its rank check.  So does a ladder operator whose image leaves
    the primitive level, with the witness (q, column).  Above
    `BianchiSystem.MAX_N` "all" cannot run the bianchi suite, and reports
    that as a failing check, so a run that left a suite out never passes.
    """
    if name == "all":
        checks = []
        for s in SUITES[:-1]:
            if s == "bianchi" and n > (cap := curvature.BianchiSystem.MAX_N):
                checks.append(Check(f"bianchi suite not run (n > {cap})", False,
                                    value="resource guard"))
                continue
            checks.extend(run_suite(s, n, seed))
        return checks
    try:
        return _suite(name, n, seed)
    except PrimitiveDimensionError as exc:
        return [Check(f"primitive subspace dimensions in the {name} suite "
                      f"(n={n})", False, exc.witness)]
    except NotPrimitiveError as exc:
        return [Check(f"ladder images stay primitive in the {name} suite "
                      f"(n={n})", False, (exc.q, exc.column))]


def _suite(name: str, n: int, seed: int) -> list[Check]:
    if name == "clifford":
        return suite_clifford(n, seed)
    if name == "lemmas":
        return suite_lemmas(n, seed)
    if name == "curvature":
        return suite_curvature(n, seed)
    if name == "bianchi":
        return suite_bianchi(n, seed)
    if name == "weitzenboeck":
        return suite_weitzenboeck(n, seed)
    raise ValueError(f"unknown suite {name!r}")
