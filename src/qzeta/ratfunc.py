"""Normalized rational functions over an exact coefficient field.

The canonical form is coprime numerator/denominator with a monic
denominator, which makes equality a structural comparison.  Equality is
nevertheless decided by cross-multiplication (num1*den2 == num2*den1): the
two notions coincide on canonical values, and cross-multiplication stays
robust for values assembled through the factored-denominator fast path.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm

from .arith import cyclotomic_int_coeffs, divisors, int_poly_mul, phi_factor_indices, power
from .fields import SCALARS
from .poly import (Poly, add_lanes, common_m, common_var, cyclotomic_coprime, divide_out_cyclotomic,
                   poly_gcd)


class PoleError(ZeroDivisionError):
    """Evaluation at a genuine pole of the reduced form."""


class RatFunc:
    """num / den with gcd(num, den) = 1 and den monic; zero is 0/1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, *, _canonical: bool = False):
        if not isinstance(num, Poly):
            num = Poly([num]) if not isinstance(num, (list, tuple)) else Poly(num)
        if den is None:
            den = Poly.one(num.var)
        elif not isinstance(den, Poly):
            den = Poly([den]) if not isinstance(den, (list, tuple)) else Poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _canonical:
            if num.is_zero():
                den = Poly.one(num.var)
            else:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
                if not den.is_monic():
                    inv = Fraction(1) / den.leading()
                    num = num.scale(inv)
                    den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var: str = "q") -> "RatFunc":
        return cls(Poly.zero(var), Poly.one(var), _canonical=True)

    @classmethod
    def one(cls, var: str = "q") -> "RatFunc":
        return cls(Poly.one(var), Poly.one(var), _canonical=True)

    @classmethod
    def constant(cls, c, var: str = "q") -> "RatFunc":
        return cls(Poly([c], var), Poly.one(var), _canonical=True)

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, Poly.one(p.var), _canonical=True)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @property
    def var(self) -> str:
        return self.num.var

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        if isinstance(other, SCALARS):
            return RatFunc.constant(other, self.var)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # common factor of the denominators; any common factor of the
        # resulting numerator and denominator must divide it
        g = poly_gcd(self.den, other.den)
        da = self.den.exact_div(g)
        db = other.den.exact_div(g)
        num = self.num * db + other.num * da
        if num.is_zero():
            return RatFunc.zero(self.var)
        den = self.den * db
        h = poly_gcd(num, g)
        if h.degree > 0:
            num = num.exact_div(h)
            den = den.exact_div(h)
        return RatFunc(num, den, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatFunc.zero(self.var)
        # cancel across the fraction before multiplying out
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1.degree == 0 else self.num.exact_div(g1)
        d2 = other.den if g1.degree == 0 else other.den.exact_div(g1)
        n2 = other.num if g2.degree == 0 else other.num.exact_div(g2)
        d1 = self.den if g2.degree == 0 else self.den.exact_div(g2)
        num = n1 * n2
        den = d1 * d2
        if not den.is_monic():
            inv = Fraction(1) / den.leading()
            num = num.scale(inv)
            den = den.scale(inv)
        return RatFunc(num, den, _canonical=True)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, RatFunc.one(self.var))

    def __bool__(self):
        return not self.is_zero()

    # -- evaluation -----------------------------------------------------------

    def __call__(self, p):
        """Evaluate at a point of the coefficient field (or complex/mpc).

        Raises PoleError when the reduced denominator vanishes at p: on the
        canonical form this is a genuine pole, not an unreduced common zero.
        """
        dv = self.den(p)
        if not dv:
            raise PoleError(f"pole at {p}")
        nv = self.num(p)
        if isinstance(nv, int):
            nv = Fraction(nv)
        if isinstance(dv, int):
            dv = Fraction(dv)
        return nv / dv

    # -- comparisons and rendering ---------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # a polynomial value compares equal to its numerator (a constant to
        # its scalar), so it hashes as that
        if self.den.is_one():
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc('{self}')"

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def to_json(self) -> dict:
        return {"num": self.num.json_coeffs(), "den": self.den.json_coeffs()}


class CycloFrac:
    """Fraction whose denominator is a product of cyclotomic polynomials.

    Internal workhorse for the operator and Bernoulli-fraction pipelines,
    where every denominator that ever appears is a product of factors
    (v^e - 1) = prod_{d | e} Phi_d(v).  Keeping the denominator as a
    multiset of cyclotomic indices makes common denominators and final
    reduction (trial division by each Phi_d) cheap, with no general gcd in
    the hot path.  Mutable and not thread-shared; converted to RatFunc at
    the end of a computation.  `reduced` is set only by reduce(), whose
    result to_ratfunc() can take as canonical.
    """

    __slots__ = ("num", "phi", "reduced")

    def __init__(self, num: Poly, phi: Counter | None = None):
        self.num = num if isinstance(num, Poly) else Poly([num])
        self.phi = Counter(phi) if phi else Counter()
        self.reduced = False

    @classmethod
    def zero(cls, var: str = "q") -> "CycloFrac":
        return cls(Poly.zero(var))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def times_poly(self, p: Poly) -> "CycloFrac":
        return CycloFrac(self.num * p, Counter(self.phi))

    def times_scalar(self, c) -> "CycloFrac":
        return CycloFrac(self.num.scale(c), Counter(self.phi))

    def shift(self, k: int) -> "CycloFrac":
        return CycloFrac(self.num.shift(k), Counter(self.phi))

    def div_one_minus(self, e: int) -> "CycloFrac":
        """Divide by (1 - v^e) = -prod_{d | e} Phi_d(v)."""
        return CycloFrac(-self.num, self.phi).div_pow_one_minus_var_pow(e, 1)

    def div_pow_one_minus_var_pow(self, b: int, m: int) -> "CycloFrac":
        """Divide by (v^b - 1)^m."""
        if m == 0:
            return CycloFrac(self.num, self.phi)
        phi = Counter(self.phi)
        for d in divisors(b):
            phi[d] += m
        return CycloFrac(self.num, phi)

    def scale_exponents(self, k: int, var: str) -> "CycloFrac":
        """Substitute v -> v^k and name the variable var; each Phi_d(v^k)
        splits into the Phi_e(v) for e in phi_factor_indices(d, k)."""
        phi = Counter()
        for d, m in self.phi.items():
            for e in phi_factor_indices(d, k):
                phi[e] += m
        return CycloFrac(Poly(self.num.scale_exponents(k), var), phi)

    @staticmethod
    def sum(terms, var: str = "q") -> "CycloFrac":
        """The sum over the least common denominator: raise_to_union, then add_lanes."""
        terms = [t for t in terms if not t.is_zero()]
        var = common_var((t.num for t in terms), var)
        if len(terms) <= 1:
            return CycloFrac(terms[0].num, terms[0].phi) if terms else CycloFrac.zero(var)
        raised, den, m, union = raise_to_union(terms)
        return CycloFrac(Poly.from_lanes(add_lanes(raised, [[1]] * len(terms)), den, m, var), union)

    def __add__(self, other: "CycloFrac") -> "CycloFrac":
        if not isinstance(other, CycloFrac):
            return NotImplemented
        return CycloFrac.sum((self, other), self.num.var)

    def __neg__(self) -> "CycloFrac":
        return CycloFrac(-self.num, Counter(self.phi))

    def reduce(self) -> "CycloFrac":
        """Cancel every cyclotomic factor that divides the numerator."""
        num, cancelled = divide_out_cyclotomic(self.num, self.phi)
        out = CycloFrac(num, self.phi - Counter(dict(cancelled)))
        out.reduced = True
        return out

    def to_ratfunc(self) -> RatFunc:
        """The same value as a RatFunc, reducing first unless reduce()
        produced this one.

        Cyclotomic products are monic, and over Q the trial division in
        reduce() is a complete gcd, so the pair is canonical as constructed.
        Over Q(zeta_m) a Phi_d may split; the pair is canonical when the
        norm certificate (``cyclotomic_coprime``) clears every Phi_d of the
        denominator, and otherwise RatFunc's gcd reduces it.
        """
        if not self.reduced:
            return self.reduce().to_ratfunc()
        den = Poly.from_lanes([_phi_product(self.phi)], 1, 1, self.num.var)
        canonical = self.num.m == 1 or cyclotomic_coprime(self.num, self.phi)
        return RatFunc(self.num, den, _canonical=canonical)

    def __repr__(self):
        return f"CycloFrac({self.num!r}, {dict(self.phi)})"


def raise_to_union(terms) -> tuple:
    """(raised, den, m, union) for nonzero terms over Q or one Q(zeta_m): the
    union of their Phi multisets, and a generator of each term's integer lanes
    (one over Q) times the factors it lacks, over the common denominator den."""
    m = common_m(t.num for t in terms)
    union = Counter()
    for t in terms:
        union |= t.phi
    den = lcm(*(t.num.den for t in terms))

    def raised():
        for t in terms:
            f = [c * (den // t.num.den) for c in _phi_product(union - t.phi)]
            yield [int_poly_mul(lane, f) for lane in t.num.lanes]
    return raised(), den, m, union


def _phi_product(phi: Counter) -> list[int]:
    """prod_d Phi_d^phi[d] as an integer coefficient list."""
    out = [1]
    for d in sorted(phi):
        for _ in range(phi[d]):
            out = int_poly_mul(out, cyclotomic_int_coeffs(d))
    return out
