"""Truncated Puiseux series in v = q^(1/b).

A series carries its branch b and an inclusive truncation order (in v);
binary operations rebase both operands to the lcm of the branches and
propagate the smaller valid order, so results are never silently compared
beyond their precision.  The operator domain consists of series without a
constant term; the series type itself allows one, and the operator entry
points reject it.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import SCALARS
from .poly import Poly, _json_coeff, _render_terms, branch_var, norm_lanes
from .ratfunc import RatFunc


class TruncSeries:
    __slots__ = ("branch", "order", "coeffs")

    def __init__(self, coeffs, order: int | None = None, branch: int = 1):
        if branch < 1:
            raise ValueError("branch must be a positive integer")
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = cs[: order + 1]
        cs += [0] * (order + 1 - len(cs))
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def from_poly(cls, p: Poly, order: int, branch: int = 1) -> "TruncSeries":
        return cls(list(p.coeffs), order, branch)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def constant_term(self):
        return self.coeffs[0]

    def has_constant_term(self) -> bool:
        return bool(self.coeffs[0])

    def valuation(self) -> int | None:
        """Exponent of the first nonzero coefficient, None for zero (to order)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def coeff(self, k: int):
        if k < 0 or k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    # -- branch bookkeeping ---------------------------------------------------

    def rebase(self, branch: int) -> "TruncSeries":
        """Re-express on a finer branch (a multiple of the current one)."""
        if branch == self.branch:
            return self
        if branch % self.branch:
            raise ValueError(f"cannot rebase branch {self.branch} to {branch}")
        k = branch // self.branch
        out = [0] * (self.order * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return TruncSeries(out, self.order * k, branch)

    def _align(self, other: "TruncSeries"):
        b = lcm(self.branch, other.branch)
        a = self.rebase(b)
        c = other.rebase(b)
        order = min(a.order, c.order)
        return a, c, order

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, SCALARS):
            cs = list(self.coeffs)
            cs[0] = cs[0] + other
            return TruncSeries(cs, self.order, self.branch)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a, b, order = self._align(other)
        return TruncSeries(
            [x + y for x, y in zip(a.coeffs, b.coeffs)], order, a.branch
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs], self.order, self.branch)

    def __sub__(self, other):
        if isinstance(other, SCALARS):
            return self + (-other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return TruncSeries(
                [c * other for c in self.coeffs], self.order, self.branch
            )
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a, b, order = self._align(other)
        out = [0] * (order + 1)
        for i, x in enumerate(a.coeffs[: order + 1]):
            if not x:
                continue
            for j in range(min(order - i, b.order) + 1):
                y = b.coeffs[j]
                if y:
                    out[i + j] = out[i + j] + x * y
        return TruncSeries(out, order, a.branch)

    __rmul__ = __mul__

    def frobenius(self, n) -> "TruncSeries":
        """Substitute q -> q^n for positive rational n = c/d.

        An exponent k on branch b represents q^(k/b) and maps to
        q^(kc/(bd)), i.e. exponent k*c on the enlarged branch b*d.  The
        result's order is the largest safe truncation, the input order
        scaled by c.
        """
        n = Fraction(n)
        if n <= 0:
            raise ValueError("Frobenius index must be positive")
        c, d = n.numerator, n.denominator
        out = [0] * (self.order * c + 1)
        for i, x in enumerate(self.coeffs):
            out[i * c] = x
        return TruncSeries(out, self.order * c, self.branch * d)

    # -- comparisons and rendering ---------------------------------------------

    def __eq__(self, other):
        """Mathematical equality through the smaller valid order."""
        if isinstance(other, TruncSeries):
            a, b, order = self._align(other)
            return all(
                a.coeffs[i] == b.coeffs[i] for i in range(order + 1)
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)}, order={self.order}, branch={self.branch})"

    def __str__(self):
        var = branch_var(self.branch)
        body = _render_terms(self.coeffs, var)
        return f"{body} + O({var}^{self.order + 1})"

    def to_json(self) -> dict:
        coeffs = [_json_coeff(c) for c in self.coeffs]
        return {"branch": self.branch, "order": self.order, "coeffs": coeffs}


def series_from_ratfunc(f: RatFunc, order: int, branch: int = 1) -> TruncSeries:
    """Power-series expansion of f through the given order, exactly, on
    integer lanes: the denominator's other Galois conjugates (``norm_lanes``)
    make it g D / d with D a primitive integer list, and numerator lane n
    gives y_k = out_k D_0^(k+1) = D_0^k n_k - sum_i D_i D_0^(i-1) y_(k-i).
    D_0 = 0 is a pole at the origin: a bug in the pipelines, whose values vanish there.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    conj, D = norm_lanes(f.den.lanes, f.den.m)  # f.den * conj = D / f.den.den
    num = f.num * Poly.from_lanes(conj, 1, f.den.m, f.num.var)
    g = gcd(*D)
    D = [c // g for c in D]
    if not D[0]:
        raise ZeroDivisionError("denominator vanishes at 0; no power series there")
    pw = [D[0] ** k for k in range(order + 2)]
    taps = [(i, c * pw[i - 1]) for i, c in enumerate(D[1:order + 1], 1) if c]
    out = []
    for lane in num.lanes:
        y = []
        for k in range(order + 1):
            nk = pw[k] * lane[k] if k < len(lane) else 0
            y.append(nk - sum(t * y[k - i] for i, t in taps if i <= k))
        out.append([c * f.den.den * pw[order - k] for k, c in enumerate(y)])
    value = Poly.from_lanes(out, g * num.den * pw[order + 1], num.m, f.num.var)
    return TruncSeries.from_poly(value, order, branch)
