"""The curvature story at n=2: Bianchi equations, model tensors, Ricci.

The space of algebraic curvature tensors on V = H tensor E is the kernel
of the multiplication Sym^2 Lambda^2 V* -> Lambda^4 V*.  Expressed through
the block decomposition into H- and E-parts, the first Bianchi identity
becomes five projection equations; their joint solution space is exactly
that kernel, of dimension 336 for dim V = 8.  Inside it live the three
model tensors, two with fixed Ricci traces and one trace-free family
parametrized by symmetric 4-forms that the spinor bundle cannot see.
"""

import random
from fractions import Fraction

from qkspin.curvature import (
    BianchiSystem,
    ModelCurvature,
    einstein_report,
    qzero_check,
    random_sym4,
    sym4_acts_trivially,
    sym4_extraction,
)

n = 2
system = BianchiSystem(n)
report = system.solution_equals_ker_m()
print(f"dim Sym^2 Lambda^2 V* = {len(system.basis)} (dim V = {4 * n})")
print(f"solutions of the five Bianchi equations: {report['dim_solutions']}")
print(f"dim ker(m):                              {report['dim_ker_m']}")
print("subspace equality:", report["equal"])

rng = random.Random(0)
rform = random_sym4(n, rng)
model = ModelCurvature(n, rform)
rep = einstein_report(model)
print("\nRicci traces: R^H ->", rep["ricci_H"], "  R^E ->", rep["ricci_E"],
      "  R^hyper ->", rep["ricci_hyper"])
print("Einstein coefficient of -1/(8n(n+2)) (R^H + R^E):",
      rep["einstein_coefficient"], "= 1/(4n)")

# the trace-free part is recovered from the full tensor by symmetrization,
# independently of the auxiliary H-vectors
h_quads = [
    [{0: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1)}, {1: Fraction(1)}],
    [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1)},
     {0: Fraction(3)}, {1: Fraction(1), 0: Fraction(-1)}],
]
e_quad = (0, 1, 2, 3)
values = [sym4_extraction(model, "hyper", hq, e_quad) for hq in h_quads]
print("\n4-form extraction with two h-choices:", values,
      "| stored value:", model.rvalue(*e_quad))

print("acts trivially on Lambda E:", sym4_acts_trivially(model)["ok"])
print("kills the primitive operator combination at every grade:",
      all(qzero_check(model, r)["ok"] for r in range(n + 1)))
