"""Weitzenboeck matrices: closed forms, projector families, recovery oracle.

Two families of six projections act on (H tensor E) tensor (H tensor E)
tensor (Sym^r H tensor Lambda^(n-r)_prim E).  The left family composes
H tensor H -> {trivial, Sym^2 H} with E tensor E -> {trivial, Sym^2 E,
trace-free Lambda^2 E} actions; the right family factors through the two
Clifford-type contractions and the kernel summand K.  The change of basis
between them is the 6x6 Weitzenboeck matrix, the Kronecker product of a
3x3 E-part and a 2x2 H-part.

`recover_w` re-derives the matrix entry by entry from the twelve explicit
operators by exact linear algebra; it must agree with the closed form.
Every operator is a Kronecker product h(a, b) tensor e(i, j) over a pair
of tangent slots (a, i), (b, j): its H factor depends only on (a, b) and
its E factor only on (i, j), so the operator system has the shape of the
matrix, W_E tensor W_H.  Each side's entry vectors, read over its labels'
factors at each index pair ((a, b) on H, (i, j) on E), span a space of
rank at most 2 (H) or 3 (E).  `projector_family` builds one family per
(n, r), which streams each side's pairs through `span_basis` once and
holds the basis; the family is freed once the suite has checked its
grade and released it.  One exact span solver, `solve_in_span`, feeds
the joint echelon the products of an H and an E basis, which span the
rows of the tangent blocks.  It serves this 6x6 oracle, which spreads the
bases over its twelve members, and the 2x2 (H-part) and 3x3 (E-part)
sub-oracles `recover_wh` and `recover_we`, which read one basis and pass
the 1x1 identity as the side they leave out.
The factors are int matrices: the ladders' int copies are read off
`powers.Ladder.scaled`, cleared of their denominators once per process
and shared by every grade, and the Sym2H factors are the H ladder's
derivations.  The family holds one table over its side's index pairs for
each of the C, -+, +- and Sym2H labels; Sym2E, K and Lambda2E are sums of
those, built for one index pair when it is read and then dropped.  Each
label has one int scale, by which every int factor exceeds the exact one;
the solver undoes the members' scales once, on the reduced rows.  No
factor reads `spinor`.  A recovery that fails raises `RecoveryError`
with a structured witness; `recover_matches_closed_form` and the suite
report it as a failing check.

Row and column conventions (0-based):
  rows  (E-label major): [C.C, Sym2H.C, C.Sym2E, Sym2H.Sym2E,
                          C.Lambda2E, Sym2H.Lambda2E]
  cols  (E-label major): [(-+,-+), (+-,-+), (-+,+-), (+-,+-), (-+,K), (+-,K)]
        with the H label first in each pair.
The operator slots attached to the columns carry the factor-1/2 (or -1 for
the twistor slots) bookkeeping, centralized in OP_SLOTS below.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm

from . import linalg, sparsemat
from .lefschetz import PrimitiveOps, primitive_ops, primitive_space
from .powers import sym_ops
from .scalar import Scalar
from .symplectic import SymplecticSpace

ROW_LABELS = ["C.C", "Sym2H.C", "C.Sym2E", "Sym2H.Sym2E",
              "C.Lambda2E", "Sym2H.Lambda2E"]
COL_LABELS = ["(-+,-+)", "(+-,-+)", "(-+,+-)", "(+-,+-)", "(-+,K)", "(+-,K)"]

# operator slot attached to each column: (factor, name); the factor converts
# a matrix-level coefficient into the coefficient of the named operator
OP_SLOTS = [
    (Fraction(1, 2), "D-- D++"),    # = -1/2 (D++)* D++
    (Fraction(1, 2), "D+- D-+"),
    (Fraction(1, 2), "D-+ D+-"),
    (Fraction(1, 2), "D++ D--"),    # = -1/2 (D--)* D--
    (Fraction(-1), "T+* T+"),
    (Fraction(1), "T-* T-"),
]

# left-hand slots attached to the rows: label and, for the two curvature
# rows, the exact coefficient of kappa/4
def lhs_slots(n: int, r: int) -> list:
    return [
        ("-nabla* nabla", None),
        ("curvature H", Fraction(r * (r + 2), n + 2)),
        ("curvature E", Fraction((n + r + 2) * (n - r), n * (n + 2))),
        ("C-operator", None),
        ("L-operator", None),
        ("zero", Fraction(0)),
    ]


def wh_closed(r: int) -> list:
    """2x2 H-part: rows (C, Sym2H), columns (-+, +-)."""
    return [[Fraction(1), Fraction(-r, r + 1)],
            [Fraction(r), Fraction(r * (r + 2), r + 1)]]


def we_closed(n: int, r: int) -> list:
    """3x3 E-part: rows (C, Sym2E, Lambda2E), columns (-+, +-, K)."""
    return [
        [Fraction(1, n - r + 1),
         Fraction(-(r + 2), (n + r + 3) * (r + 1)),
         Fraction(1)],
        [Fraction(-(n - r), n - r + 1),
         Fraction((n + r + 2) * (r + 2), (n + r + 3) * (r + 1)),
         Fraction(1)],
        [Fraction(-(n - r) * (n + 1), n * (n - r + 1)),
         Fraction(-r * (n + r + 2) * (n + 1), n * (n + r + 3) * (r + 1)),
         Fraction(r, n)],
    ]


class WeitzenboeckMatrix:
    def __init__(self, n: int, r: int, entries: list):
        self.n = n
        self.r = r
        self.entries = entries
        self.row_labels = list(ROW_LABELS)
        self.col_labels = list(COL_LABELS)

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    def __eq__(self, other):
        return isinstance(other, WeitzenboeckMatrix) and \
            (self.n, self.r, self.entries) == (other.n, other.r, other.entries)

    def row(self, i: int) -> list:
        return list(self.entries[i])

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "row_labels": self.row_labels,
            "col_labels": self.col_labels,
            "entries": [[Scalar(v).encode() for v in row] for row in self.entries],
            "operator_slots": [{"factor": str(f), "operator": name}
                               for f, name in OP_SLOTS],
        }


def w_full(n: int, r: int) -> WeitzenboeckMatrix:
    """Kronecker product W_E tensor W_H with E-major block layout."""
    we, wh = we_closed(n, r), wh_closed(r)
    entries = [[we[i][j] * wh[a][b] for j in range(3) for b in range(2)]
               for i in range(3) for a in range(2)]
    return WeitzenboeckMatrix(n, r, entries)


# -- H-side and E-side projector matrices ---------------------------------

# the labels summed from the held E tables
_SUMS = ("Sym2E", "K", "Lambda2E")


class ProjectorFamily:
    """The six left and six right operators for spinor grade r at dimension n.

    H-side maps act on the monomial basis of Sym^r H, E-side maps on the
    primitive coordinates of Lambda^(n-r) E; the operator on the full
    space at a pair of tangent slots (a, i), (b, j) is the Kronecker
    product of an H factor at (a, b) and an E factor at (i, j).  Both
    sides compose the ladder matrices of their one owner, `SymOps` for H
    and `PrimitiveOps` for E.

    `factor(side, label, x, y)` is s times the exact factor of label at
    index pair (x, y), with int entries, s = `scale(side, label)`.  The
    family holds the tables of C, -+, +- and Sym2H, each built on first
    use over every index pair of its side (`table`); the int ladders come
    from `Ladder.scaled`.  Sym2E, K and Lambda2E are built at one pair
    from the held tables when they are read, and not held; the rational
    coefficients of K and Lambda2E fold into their scales.  `side_basis`
    reads each side once, pair by pair through `right_factors` and
    `left_factors`, and holds its basis, a few rows, which every oracle
    reading the family shares.  Everything is freed with the family:
    `projector_family` builds one per (n, r), which the Weitzenboeck suite
    releases once its grade is checked.
    """

    H_LEFT = ("C", "Sym2H")
    H_RIGHT = ("-+", "+-")
    E_LEFT = ("C", "Sym2E", "Lambda2E")
    E_RIGHT = ("-+", "+-", "K")
    LABELS = {"h": (H_RIGHT, H_LEFT), "e": (E_RIGHT, E_LEFT)}

    def __init__(self, n: int, r: int):
        if not 0 <= r <= n:
            raise ValueError(f"grade {r} out of range for n={n}")
        self.n = n
        self.r = r
        self.q = n - r
        self.H = SymplecticSpace(1, name="h")
        self.E = SymplecticSpace(n, name="e")
        self.hops = sym_ops(self.H)
        self._tables: dict = {}
        self._sums: dict = {}
        self._bases: dict = {}

    # looked up when the E side is read, so an H-only family builds neither
    eops = property(lambda self: primitive_ops(self.E))
    prim = property(lambda self: primitive_space(self.E, self.q))

    def table(self, side: str, label: str) -> tuple[int, dict]:
        """The table of a held label on side, built on first use and held
        by the family; the tables are shared, so callers must not modify
        them."""
        if (side, label) not in self._tables:
            self._tables[side, label] = self._build_table(side, label)
        return self._tables[side, label]

    def _build_table(self, side: str, label: str) -> tuple[int, dict]:
        """(s, {(x, y): s times the factor of label at (x, y)}) over every
        index pair of side "h" or "e", with int entries:

          C     = sigma(x, y) id;
          -+    = x^sharp_circ (y up .) and +- = x up (y^sharp_circ .),
                  up = mul at level r on H and wedge_circ at level n - r on E;
          Sym2H = the derivation action of h_x h_y (`SymOps.derivation`).
        """
        space, dim = (self.H, self.r + 1) if side == "h" else (self.E, self.prim.dim)
        pairs = [(x, y) for x in range(space.dim) for y in range(space.dim)]
        if label == "C":
            # one sigma id per nonzero value of sigma, shared by its pairs
            sigma = {(x, y): space.sigma_basis(x, y) for x, y in pairs}
            ids = {s: sparsemat.identity(dim, s.numerator)
                   for s in set(sigma.values()) if s}
            return 1, {pair: ids.get(s, {}) for pair, s in sigma.items()}
        if label in ("-+", "+-"):
            ops, up, level = ((self.hops, "mul", self.r) if side == "h"
                              else (self.eops, "wedge", self.q))
            sharp = "contract_sharp"
            if label == "-+":
                first, second = ops.scaled(sharp, level + 1), ops.scaled(up, level)
            else:
                first, second = ops.scaled(up, level - 1), ops.scaled(sharp, level)
            return first[0] * second[0], {
                (x, y): sparsemat.compose(first[1][x], second[1][y])
                for x, y in pairs}
        if label == "Sym2H":
            return sparsemat.int_copies({(a, b): self.hops.derivation(self.r, a, b)
                                         for a, b in pairs})
        raise ValueError(label)

    def _sum(self, label: str) -> tuple[int, list]:
        """(s, terms) of a summed E label, worked out once: s times its
        factor at (i, j) is the sum of w times the held table t at (j, i)
        if swap, else at (i, j), over its terms (t, swap, w), where

          Sym2E    = +-(y, x) + +-(x, y);
          K        = sigma id - -+ / (n-r+1) + (r+2) +- / ((n+r+3)(r+1));
          Lambda2E = +-(y, x) - +-(x, y) - (n-r)/n sigma id.
        """
        if label not in self._sums:
            n, r = self.n, self.r
            terms = {"Sym2E": [("+-", True, 1), ("+-", False, 1)],
                     "K": [("C", False, 1), ("-+", False, Fraction(-1, n - r + 1)),
                           ("+-", False, Fraction(r + 2, (n + r + 3) * (r + 1)))],
                     "Lambda2E": [("+-", True, 1), ("+-", False, -1),
                                  ("C", False, Fraction(-(n - r), n))]}[label]
            s, weights = _int_weights([Fraction(c, self.table("e", t)[0])
                                       for t, _, c in terms])
            self._sums[label] = s, [(t, swap, w) for (t, swap, _), w
                                    in zip(terms, weights)]
        return self._sums[label]

    def scale(self, side: str, label: str) -> int:
        return (self._sum(label) if label in _SUMS else self.table(side, label))[0]

    def factor(self, side: str, label: str, x: int, y: int) -> dict:
        """s times the factor of label at index pair (x, y), s its scale: a
        held table's entry, or a sum of them built afresh for the caller."""
        if label not in _SUMS:
            return self.table(side, label)[1][x, y]
        total: dict = {}
        for held, swap, weight in self._sum(label)[1]:
            sparsemat.madd_into(total, self.table("e", held)[1][(y, x) if swap
                                                                else (x, y)], weight)
        return total

    # assembled recovery ------------------------------------------------

    def right_factors(self, side: str, x: int, y: int) -> tuple:
        """The factors of side's right labels at index pair (x, y)."""
        return tuple(self.factor(side, label, x, y) for label in self.LABELS[side][0])

    def left_factors(self, side: str, x: int, y: int) -> tuple:
        return tuple(self.factor(side, label, x, y) for label in self.LABELS[side][1])

    def scales(self, side: str) -> list:
        """The scales of side's labels, right then left."""
        return [self.scale(side, label) for labels in self.LABELS[side]
                for label in labels]

    def side_basis(self, side: str) -> list:
        """A basis of the span of side's entry vectors (`span_basis`), over
        its labels right then left, from one pass over its index pairs, in
        order; reduced once and held by the family."""
        if side not in self._bases:
            dim = (self.H if side == "h" else self.E).dim
            self._bases[side] = span_basis(
                self.right_factors(side, x, y) + self.left_factors(side, x, y)
                for x in range(dim) for y in range(dim))
        return self._bases[side]

    def member_scales(self) -> list:
        """The scale of each of `recover_w`'s members: its H label's scale
        times its E label's."""
        h, e = self.scales("h"), self.scales("e")
        return [h[hc] * e[ec] for hc, ec in _MEMBERS]


# `recover_w`'s twelve members, the six right then the six left, E label
# major as in COL_LABELS and ROW_LABELS: the (H, E) columns of their labels
# in the side bases
_MEMBERS = [(hc, ec) for hs, es in (((0, 1), (0, 1, 2)), ((2, 3), (3, 4, 5)))
            for ec in es for hc in hs]


def _int_weights(coeffs: list) -> tuple[int, list]:
    """(s, [s c for c in coeffs]) with int entries, s the lcm of the
    denominators of the rational coefficients."""
    s = lcm(*(c.denominator for c in coeffs))
    return s, [c.numerator * (s // c.denominator) for c in coeffs]


@functools.cache
def projector_family(n: int, r: int) -> ProjectorFamily:
    """The one `ProjectorFamily` of (n, r), shared with its tables and bases
    by every oracle until `projector_family.cache_clear()` releases it."""
    return ProjectorFamily(n, r)


class RecoveryError(AssertionError):
    """A recovery that failed; `witness` is its structured evidence."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


_NO_ENTRIES: dict = {}


def span_basis(tuples) -> list:
    """A basis of the span of the entry vectors of a stream of factor tuples.

    For each tuple and each position (row, col) where one of its factors
    has an entry, the entry vector holds every factor's entry there, int 0
    where a factor has none.  Each vector not seen before is fed to an
    `Echelon`, in the order first seen; a tuple is read once and not held.
    Returns the echelon's rows, over the factors' positions in a tuple.
    """
    ech, seen = linalg.Echelon(), set()
    for factors in tuples:
        for row, col in dict.fromkeys((row, col) for m in factors
                                      for col, entries in m.items()
                                      for row in entries):
            vec = tuple(m.get(col, _NO_ENTRIES).get(row, 0) for m in factors)
            if vec not in seen:
                seen.add(vec)
                ech.add({c: x for c, x in enumerate(vec) if x})
    return ech.rows


def solve_in_span(h_basis: list, e_basis: list, width: int, where: str,
                  scales: list) -> list:
    """Solve left_k = sum_j X[k][j] right_j by exact elimination.

    Member k is a Kronecker product h tensor e of an H and an E factor,
    divided by scales[k]; the `width` right members come first, then the
    left ones.  Each matrix entry of each tangent block gives one row of
    the system, the members' entries there: the entrywise product of an H
    entry vector, the H factors' entries at one position of one H index
    pair, and an E entry vector.  The product is bilinear, so the products
    of a basis of each side's entry vectors span the same rows; the caller
    passes the two bases in member columns, and the joint echelon is fed
    only their products, at most rank(H) * rank(E) rows.  The echelon is
    reduced, so it depends only on that span: X, the None columns and the
    witness are as with one row per block entry.

    A pivot among the left columns means some left member is outside the
    span of the right family, which is a hard failure; the witness is the
    reduced row with the smallest such pivot.  Returns X with None on right
    columns without pivot.  The rows are fed as the factors give them:
    column k holds c_k times member k's entry, for c = scales.  That scales
    the columns and keeps the pivots, so the scales are undone once at the
    end: X[k][j] = X'[k][j] c_j / c_(width+k), and a reduced row w' with
    pivot p reads w[col] = w'[col] c_p / c_col.
    """
    c = scales
    ech = linalg.Echelon()
    for u in h_basis:
        for v in e_basis:
            row = {col: x * v[col] for col, x in u.items() if col in v}
            if row:
                ech.add(row)
    off_span = [piv for piv in ech.pivots if piv >= width]
    if off_span:
        piv = min(off_span)
        row = ech.rows[ech.pivot_row[piv]]
        row = {col: row[col] * c[piv] / c[col] for col in sorted(row)}
        raise RecoveryError(
            f"left family not in the span of the right family {where}: "
            f"residual row {row}", row)
    height = len(c) - width
    matrix = [[None] * width for _ in range(height)]
    for piv, row in zip(ech.pivots, ech.rows):
        for k in range(height):
            matrix[k][piv] = row.get(width + k, Fraction(0)) * c[piv] / c[width + k]
    return matrix


def _member_basis(fam: ProjectorFamily, side: str) -> list:
    """fam's basis of side spread over `recover_w`'s members: member k
    holds the column of its label on that side."""
    pos = "he".index(side)
    return [{k: row[m[pos]] for k, m in enumerate(_MEMBERS) if m[pos] in row}
            for row in fam.side_basis(side)]


def recover_w(n: int, r: int) -> dict:
    """Solve left_k = sum_j W[k][j] right_j by exact elimination.

    Returns {"matrix": entries-with-None-on-dead-columns, "alive": column
    flags, "rank": right-family rank}.  Generic grades (1 <= r <= n-1) must
    produce the full rank-6 system; at r in {0, n} only the surviving
    columns are recovered.  Inconsistency is a hard failure.
    """
    fam = projector_family(n, r)
    matrix = solve_in_span(_member_basis(fam, "h"), _member_basis(fam, "e"), 6,
                           f"at (n={n}, r={r})", fam.member_scales())
    alive = [j for j in range(6) if matrix[0][j] is not None]
    expected_alive = _surviving_columns(n, r)
    if alive != expected_alive:
        raise RecoveryError(
            f"unexpected right-family rank at (n={n}, r={r}): "
            f"pivots {alive}, expected {expected_alive}",
            {"pivots": alive, "expected": expected_alive})
    return {"matrix": matrix, "alive": alive, "rank": len(alive)}


def _surviving_columns(n: int, r: int) -> list:
    """Columns whose right operator is not identically zero (degenerate grades)."""
    if 1 <= r <= n - 1:
        return [0, 1, 2, 3, 4, 5]
    if r == 0:
        # Sym^{-1} H kills the +- H-label; Lambda^(n+1) kills the -+ E-label
        return [2, 4]
    # r == n: Lambda^{-1} kills the E +- label and K^0 = 0 kills K
    return [0, 1]


def recover_matches_closed_form(n: int, r: int) -> dict:
    """Compare `recover_w` with `w_full` on the surviving columns.

    A failed recovery is reported, not raised: "ok" is False, "alive" is
    the closed-form column set and "witness" the `RecoveryError`'s.
    """
    try:
        rec = recover_w(n, r)
    except RecoveryError as exc:
        return {"ok": False, "mismatches": [], "witness": exc.witness,
                "alive": _surviving_columns(n, r)}
    closed = w_full(n, r)
    mism = []
    for k in range(6):
        for j in rec["alive"]:
            got = rec["matrix"][k][j]
            want = closed.entries[k][j]
            # the echelon solves right*x = left with left moved across; the
            # recovered value is the coefficient itself
            if got != want:
                mism.append(((k, j), got, want))
    return {"ok": not mism, "mismatches": mism, "witness": mism or None,
            "alive": rec["alive"]}


def _zero_dead(matrix: list) -> list:
    return [[Fraction(0) if v is None else v for v in row] for row in matrix]


def _sub_oracle(fam: ProjectorFamily, side: str, where: str) -> list:
    """The sub-oracle of one side of fam, read off its basis, with the 1x1
    identity as every member's factor on the other side."""
    scales = fam.scales(side)
    bases = [fam.side_basis(side), [dict.fromkeys(range(len(scales)), 1)]]
    return _zero_dead(solve_in_span(*(bases if side == "h" else bases[::-1]),
                                    len(fam.LABELS[side][0]), where, scales))


def recover_wh(r: int) -> list:
    """2x2 sub-oracle on H tensor H tensor Sym^r H."""
    # any n >= r+1 gives the same H side
    return _sub_oracle(projector_family(max(r + 1, 2), r), "h",
                       f"on the H side at r={r}")


def recover_we(n: int, r: int) -> list:
    """3x3 sub-oracle on E tensor E tensor Lambda^(n-r)_prim E."""
    return _sub_oracle(projector_family(n, r), "e",
                       f"on the E side at (n={n}, r={r})")


# -- the kernel projection of the twistor summand --------------------------

def kernel_projection(n: int, r: int) -> dict:
    """Projection of E tensor Lambda^(n-r)_prim E onto the kernel summand K.

    Basis keys are t * prim_dim + c for E index t and primitive column c.
    Block (k, t) is sign * K(i, t), with (i, sign) = E.flat_basis(k) and K
    the family's own right operator, built at (i, t) as an int matrix by
    `ProjectorFamily.factor` and divided by its scale once here.
    """
    fam = projector_family(n, r)
    E, pdim, s = fam.E, fam.prim.dim, fam.scale("e", "K")
    cols: dict = {}
    for k in range(E.dim):
        i, sign = E.flat_basis(k)
        for t in range(E.dim):
            for c, col in fam.factor("e", "K", i, t).items():
                cols.setdefault(t * pdim + c, {}).update(
                    (k * pdim + row, Fraction(sign * v, s))
                    for row, v in col.items())
    return cols


def _stacked_ladder(n: int, r: int, ladder) -> dict:
    """E tensor Lambda^(n-r)_prim -> the next primitive level, e_t tensor w
    -> ladder(ops, n - r, t) w, with the E index t major."""
    E = SymplecticSpace(n, name="e")
    ops = primitive_ops(E)
    q = n - r
    pdim = primitive_space(E, q).dim
    cols = {}
    for t in range(E.dim):
        for c, col in ladder(ops, q, t).items():
            cols[t * pdim + c] = dict(col)
    return cols


def multiplication_composite(n: int, r: int) -> dict:
    """E tensor Lambda^(n-r)_prim -> Lambda^(n-r+1)_prim, e tensor w -> e wedge_circ w."""
    return _stacked_ladder(n, r, PrimitiveOps.wedge)


def contraction_composite(n: int, r: int) -> dict:
    """E tensor Lambda^(n-r)_prim -> Lambda^(n-r-1)_prim via e^sharp contraction."""
    return _stacked_ladder(n, r, PrimitiveOps.contract_sharp)


# -- the two curvature-scalar operator identities ---------------------------

def curvature_scalar_identities(n: int, r: int) -> dict:
    """Exact eigenvalue checks feeding the two kappa-coefficients.

    H side:  sum_ab dh_a^flat . dh_b_ (h_a . h_b^sharp_ + h_b . h_a^sharp_)
             = -r(r+2) id on Sym^r H, with plain (derivation) contractions:
             the inner bracket is the derivation action of h_a h_b, mirroring
             the exterior side, and the normalized-contraction reading fails
             for r >= 2.
    E side:  sum_ij de_i^flat wedge_circ de_j_ (e_i wedge_circ e_j^sharp_ +
             e_j wedge_circ e_i^sharp_) = -(n-r)(n+r+2) id on the primitive
             space of degree n-r.

    The inner brackets are the family's left operators, read off its
    `table("h", "Sym2H")` and built pair by pair by `factor("e", "Sym2E",
    i, j)`, so the identities check the same matrices that the recovery
    oracle feeds in.  Both sums
    are taken over int copies, of those factors and of the outer ladders
    (`Ladder.scaled`, shared with the families), so each is compared against
    its eigenvalue times the product of the three scales.

    The kappa/4 coefficients arise by multiplying the eigenvalue with the
    model-curvature prefactor -1/(8n(n+2)), the curvature antisymmetrization
    factor 1/2, a factor 2 from symmetrizing the tangent slots, and the
    computed sigma-trace of the complementary factor (2n resp. 2).
    """
    fam = projector_family(n, r)
    H, E = fam.H, fam.E

    # H side operator sum on Sym^r H (dim r + 1)
    s_flat, mul_flat = fam.hops.scaled("mul_flat", r - 1)
    s_con, contract = fam.hops.scaled("contract", r)
    s_sym, sym2h = fam.table("h", "Sym2H")
    h_total: dict = {}
    for a in range(2):
        for b in range(2):
            outer = sparsemat.compose(mul_flat[a], contract[b])
            sparsemat.compose_into(h_total, outer, sym2h[a, b])
    lam_h = Fraction(-r * (r + 2))
    h_ok = sparsemat.is_scalar_multiple(
        h_total, r + 1, lam_h * s_flat * s_con * s_sym)

    # E side operator sum on the primitive level q = n - r
    q = n - r
    s_flat, wedge_flat = fam.eops.scaled("wedge_flat", q - 1)
    s_con, contract = fam.eops.scaled("contract", q)
    e_total: dict = {}
    for i in range(E.dim):
        for j in range(E.dim):
            outer = sparsemat.compose(wedge_flat[i], contract[j])
            sparsemat.compose_into(e_total, outer, fam.factor("e", "Sym2E", i, j))
    lam_e = Fraction(-(n - r) * (n + r + 2))
    e_ok = sparsemat.is_scalar_multiple(
        e_total, fam.prim.dim, lam_e * s_flat * s_con * fam.scale("e", "Sym2E"))

    # sigma traces of the complementary factors
    trace_e = sum((_sigma_flat_flat(E, i, j) * E.sigma_basis(i, j)
                   for i in range(E.dim) for j in range(E.dim)), Fraction(0))
    trace_h = sum((_sigma_flat_flat(H, a, b) * H.sigma_basis(a, b)
                   for a in range(2) for b in range(2)), Fraction(0))

    prefactor = Fraction(-1, 8 * n * (n + 2))
    kappa4_h = prefactor * Fraction(1, 2) * 2 * trace_e * lam_h * 4
    kappa4_e = prefactor * Fraction(1, 2) * 2 * trace_h * lam_e * 4
    return {
        "h_identity_ok": h_ok,
        "e_identity_ok": e_ok,
        "h_eigenvalue": lam_h,
        "e_eigenvalue": lam_e,
        "sigma_trace_E": trace_e,              # = 2n
        "sigma_trace_H": trace_h,              # = 2
        "kappa4_coefficient_h": kappa4_h,      # = r(r+2)/(n+2)
        "kappa4_coefficient_e": kappa4_e,      # = (n+r+2)(n-r)/(n(n+2))
        "kappa4_h_matches": kappa4_h == Fraction(r * (r + 2), n + 2),
        "kappa4_e_matches": kappa4_e == Fraction((n + r + 2) * (n - r),
                                                 n * (n + 2)),
    }


def _sigma_flat_flat(space, i, j) -> Fraction:
    """sigma(de_i^flat, de_j^flat)."""
    fi, si = space.flat_basis(i)
    fj, sj = space.flat_basis(j)
    return si * sj * space.sigma_basis(fi, fj)


# -- row combinations of the matrix equation -------------------------------

def _rational(x) -> Fraction:
    """x as a Fraction; a float is refused, it is not an exact input."""
    if isinstance(x, float):
        raise TypeError(f"exact input required, got the float {x!r}")
    return Fraction(x)


def row_combination(n: int, r: int, avec: list) -> dict:
    """Multiply the matrix equation from the left by a row vector.

    Returns the combined row a^T W, its operator-level coefficients (after
    the factor-1/2 column bookkeeping) and the combined kappa/4 coefficient
    of the left-hand side.
    """
    w = w_full(n, r)
    avec = [_rational(x) for x in avec]
    atw = [sum((avec[k] * w.entries[k][j] for k in range(6)), Fraction(0))
           for j in range(6)]
    folded = [atw[j] * OP_SLOTS[j][0] for j in range(6)]
    slots = lhs_slots(n, r)
    kappa4 = sum((avec[k] * c for k, (name, c) in enumerate(slots)
                  if c is not None), Fraction(0))
    return {
        "a": avec,
        "atW": atw,
        "operator_coefficients": dict(zip((name for _, name in OP_SLOTS), folded)),
        "lhs_kappa4": kappa4,
        "lhs_labels": [name for name, _ in slots],
    }


def lichnerowicz_vector(n: int, r: int) -> list:
    if r < 1:
        raise ValueError("the Lichnerowicz combination needs r >= 1")
    return [Fraction(-1), Fraction(1, n), Fraction(1), Fraction(0),
            Fraction(0), Fraction(-1, r)]


def twistor_elimination_vector(n: int, r: int) -> list:
    """Kills the second Dirac-square column pair (T- and D--)."""
    last = Fraction(-(r + 2), r) if r >= 1 else Fraction(0)
    return [Fraction(0), Fraction(n + r + 2, n), Fraction(r + 2),
            Fraction(0), Fraction(0), last]


def eq51_vector(n: int, r: int) -> list:
    if r < 1:
        raise ValueError("needs r >= 1")
    return [Fraction(0), Fraction(r, n), Fraction(0), Fraction(0),
            Fraction(0), Fraction(-1)]


def estimate_bound(n: int, r: int, kappa: Fraction) -> dict:
    """The eigenvalue bound (n+r+3)/(n+2) kappa/4, with a ratio re-derivation.

    The closed form is cross-checked by eliminating T- and D--, dropping the
    nonnegative D++ and T+ terms, and using that the lowering Dirac
    component annihilates the grade: the ratio of the left-hand kappa/4
    coefficient to the D-+ D+- operator coefficient is the bound.
    """
    if n < 2:
        raise ValueError("the bound requires quaternionic dimension n >= 2")
    if not 0 <= r <= n:
        raise ValueError(f"grade {r} out of range")
    kappa = _rational(kappa)
    if kappa <= 0:
        raise ValueError("positive scalar curvature required")
    combo = row_combination(n, r, twistor_elimination_vector(n, r))
    # the vector must zero the D++ D-- and T-* T- columns
    kept = {COL_LABELS[j]: combo["atW"][j] for j in (3, 5) if combo["atW"][j]}
    dirac_coeff = combo["operator_coefficients"]["D-+ D+-"]
    ratio = combo["lhs_kappa4"] / dirac_coeff if dirac_coeff else None
    closed = Fraction(n + r + 3, n + 2)
    witness = None
    if kept:
        witness = {"columns not eliminated": kept}
    elif ratio != closed:
        witness = {"ratio": ratio, "closed form": closed}
    return {
        "coefficient": closed,
        "ratio_rederived": ratio,
        "agree": witness is None,
        "witness": witness,
        "bound": closed * kappa / 4,
        "kappa": kappa,
    }
