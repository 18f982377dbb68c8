"""qzeta: exact q-deformed Dirichlet-series operators and Bernoulli-Carlitz fractions.

The package provides, over exact arithmetic:

* scalar, polynomial, rational-function, and cyclotomic-field arithmetic
  (``fields``, ``poly``, ``ratfunc``);
* truncated Puiseux q-series, quantum integers and formal Frobenius
  substitutions (``series``, ``quantum``);
* the q-zeta / Hurwitz / Dirichlet-L operators at non-positive integers,
  with three independent exact evaluation backends, one of them iterating
  the q-difference operator Delta, plus a floating-point mode for general
  complex s (``operators``);
* Bernoulli-Carlitz fractions, q-Bernoulli polynomials, their Dirichlet
  character analogues, and identity verification (``carlitz``);
* Dirichlet character enumeration with exact cyclotomic values
  (``characters``);
* numerical root surveys of Bernoulli-Carlitz numerators (``roots``).

The ``qzeta`` console script exposes all of it on the command line.
"""

from .fields import CycRat, FieldMismatchError, Rat
from .poly import Poly, cyclotomic, poly_gcd
from .ratfunc import PoleError, RatFunc
from .series import TruncSeries, series_from_ratfunc
from .quantum import QuantumInt, frobenius, quantum_int
from .characters import (
    DirichletCharacter,
    UnitGroupStructure,
    character,
    characters,
    is_primitive,
    unit_group,
)
from .operators import (
    ApplyResult,
    CheckReport,
    OperatorSpec,
    apply_delta,
    apply_geometric,
    apply_series,
    check_chi_decomposition,
    check_commute,
    check_distribution,
    euler_product_apply,
    numeric_apply,
)
from .carlitz import (
    BetaChi,
    BetaFraction,
    BetaPolynomial,
    bernoulli_number,
    beta,
    beta_chi,
    beta_poly,
    genfun_check,
    verify_chi,
    verify_hurwitz,
    verify_theorem,
)
from .roots import RootReport, beta_root_survey, classify_roots, find_roots

__version__ = "0.1.0"

__all__ = [
    "Rat",
    "CycRat",
    "FieldMismatchError",
    "Poly",
    "poly_gcd",
    "cyclotomic",
    "RatFunc",
    "PoleError",
    "TruncSeries",
    "series_from_ratfunc",
    "QuantumInt",
    "quantum_int",
    "frobenius",
    "UnitGroupStructure",
    "DirichletCharacter",
    "unit_group",
    "characters",
    "character",
    "is_primitive",
    "OperatorSpec",
    "ApplyResult",
    "CheckReport",
    "apply_geometric",
    "apply_delta",
    "apply_series",
    "euler_product_apply",
    "check_commute",
    "check_distribution",
    "check_chi_decomposition",
    "numeric_apply",
    "BetaFraction",
    "BetaPolynomial",
    "BetaChi",
    "beta",
    "bernoulli_number",
    "genfun_check",
    "verify_theorem",
    "beta_poly",
    "verify_hurwitz",
    "beta_chi",
    "verify_chi",
    "RootReport",
    "find_roots",
    "classify_roots",
    "beta_root_survey",
    "__version__",
]
