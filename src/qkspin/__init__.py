"""Exact Sp(n)Sp(1) spinor algebra, curvature spaces and Weitzenboeck matrices.

All arithmetic happens in Q(i, sqrt2) (`qkspin.scalar.Scalar`) or its
rational subfield (`fractions.Fraction`); nothing is ever verified in
floating point.  The main entry points:

  * `symplectic`, `powers`, `lefschetz`: the model spaces H and E, their
    symmetric/exterior powers, the sl2 triple and primitive subspaces;
  * `spinor.SpinorSpace`: the graded spinor space with its split Clifford
    multiplication, twisted Hermitian form and Casimir action;
  * `curvature`: the space of algebraic curvature tensors, the Bianchi
    equations on H tensor E, the model tensors and their Ricci traces;
  * `sym4`: the Sym^4 lemma on a model tensor, checked on Lambda E and on
    each primitive level;
  * `weitzenboeck`: the closed-form 2x2 / 3x3 / 6x6 matrices, the twelve
    projectors, the brute-force recovery oracle and the eigenvalue bound;
  * `verify.run_suite` / the `qkspin` command line for batch verification.

`spinor`, `curvature`, `weitzenboeck` and `verify` are loaded lazily
(`importlib.util.LazyLoader`): each is in `sys.modules` and on the package
from the start, and its source is compiled and run on the first attribute
access, so a command compiles only the modules it uses.  The names of
`__all__` other than `Scalar` are read from their modules on each access
(a module `__getattr__`, PEP 562), which loads the module the first time.
`verify` reads `curvature` through the module when a suite calls it, so
only its curvature and bianchi suites compile that module; the two Sym^4
checks it calls sit in the small `sym4`, which it imports directly.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .scalar import Scalar

# The verification suites, in the order `--suite all` runs them.  Kept here
# so that the command line can list them without loading `verify`.
SUITES = ("clifford", "lemmas", "curvature", "bianchi", "weitzenboeck", "all")


def _lazy(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spinor = _lazy("spinor")
curvature = _lazy("curvature")
weitzenboeck = _lazy("weitzenboeck")
verify = _lazy("verify")

_EXPORTS = {
    "SpinorSpace": spinor,
    "estimate_bound": weitzenboeck,
    "kraines_eigenvalue": spinor,
    "rank_formula": spinor,
    "we_closed": weitzenboeck,
    "wh_closed": weitzenboeck,
    "w_full": weitzenboeck,
}

__all__ = ["Scalar", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_EXPORTS[name], name)
