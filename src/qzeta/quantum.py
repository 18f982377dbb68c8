"""Quantum integers and formal Frobenius substitutions.

The quantum integer [y] = (q^y - 1)/(q - 1) is kept as a reduced rational
function in v = q^(1/b), so rational indices stay exact.  The q-difference
operator Delta, with Delta(q^{nr}) = [n] q^{nr}, is the kernel of
``operators.apply_delta``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .fields import exact_rational
from .poly import Poly, branch_var
from .ratfunc import RatFunc
from .series import TruncSeries


def quantum_value(c: int, b: int, var: str | None = None) -> RatFunc:
    """(v^c - 1)/(v^b - 1) in lowest terms, i.e. [c/b] on branch b (var: branch_var(b))."""
    if c < 1 or b < 1:
        raise ValueError("quantum integer requires positive exponents")
    var = var or branch_var(b)
    g = gcd(c, b)
    num = Poly([1 if i % g == 0 else 0 for i in range(c - g + 1)], var)
    if b == g:
        return RatFunc.from_poly(num)
    den = Poly([1 if i % g == 0 else 0 for i in range(b - g + 1)], var)
    return RatFunc(num, den, _canonical=True)


@dataclass(frozen=True)
class QuantumInt:
    """A quantum integer [index] represented on an explicit branch."""

    index: Fraction
    branch: int
    value: RatFunc

    def __str__(self):
        return f"[{self.index}] = {self.value}"


def quantum_int(index, branch: int | None = None) -> QuantumInt:
    """The quantum integer [index] = (q^index - 1)/(q - 1), reduced.

    For a rational index a/b the value lives on branch b (or any given
    multiple): [a/b] = (v^(a*branch/b) - 1)/(v^branch - 1) in v = q^(1/branch).

    >>> quantum_int(3).value
    RatFunc('1 + q + q^2')
    >>> quantum_int(Fraction(1, 2)).value
    RatFunc('(1) / (1 + v)')
    """
    index = exact_rational(index, "index")
    if index <= 0:
        raise ValueError("quantum integer index must be positive")
    if branch is None:
        branch = index.denominator
    if branch < 1 or (branch * index).denominator != 1:
        raise ValueError(f"index {index} is not representable on branch {branch}")
    c = int(branch * index)
    return QuantumInt(index, branch, quantum_value(c, branch))


def frobenius(f, n):
    """Formal Frobenius F_n: substitute q -> q^n; n a positive rational.

    Acts on Poly, RatFunc and TruncSeries.  On Poly/RatFunc the exponents
    are scaled by n in the representation at hand, which must stay
    integral (re-express the input on a finer branch first if not);
    TruncSeries enlarges its branch automatically.
    """
    n = exact_rational(n, "Frobenius index")
    if n <= 0:
        raise ValueError("Frobenius index must be positive")
    if isinstance(f, TruncSeries):
        return f.frobenius(n)
    if isinstance(f, RatFunc):
        return RatFunc(
            _scale_poly_exponents(f.num, n),
            _scale_poly_exponents(f.den, n),
            _canonical=True,
        )
    if isinstance(f, Poly):
        return _scale_poly_exponents(f, n)
    raise TypeError(f"cannot apply Frobenius to {type(f).__name__}")


def _scale_poly_exponents(p: Poly, n: Fraction) -> Poly:
    d = n.denominator
    bad = [i for i in range(p.degree + 1) if i % d and any(lane[i] for lane in p.lanes)]
    if bad:
        raise ValueError(f"exponent {bad[0]} * {n} leaves the current branch; rebase first")
    lanes = [lane[::d] for lane in p.lanes]
    return Poly.from_lanes(lanes, p.den, p.m, p.var).scale_exponents(n.numerator)
