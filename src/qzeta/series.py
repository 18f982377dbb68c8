"""Truncated Puiseux series in v = q^(1/b).

A series is a ``Poly`` in v cut at an inclusive truncation order, and its
branch b; the polynomial's variable is the branch's (``branch_var``).
Binary operations rebase both operands to the lcm of the branches and
propagate the smaller valid order, so results are never silently compared
beyond their precision.  The operator domain consists of series without a
constant term; the series type itself allows one, and the operator entry
points reject it.
"""
from __future__ import annotations

from math import gcd, lcm

from .fields import SCALARS, FieldMismatchError, exact_rational
from .poly import Poly, _json_coeff, branch_var, common_var, norm_lanes
from .ratfunc import RatFunc


class TruncSeries:
    __slots__ = ("poly", "order", "branch")

    def __init__(self, coeffs, order: int | None = None, branch: int = 1):
        cs = list(coeffs)
        _init(self, Poly(cs), len(cs) - 1 if order is None else order, branch)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def from_poly(cls, p: Poly, order: int, branch: int = 1) -> "TruncSeries":
        return _init(object.__new__(cls), p, order, branch)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients through the order, as scalars (``Poly.coeffs``)."""
        cs = self.poly.coeffs
        return cs + (0,) * (self.order + 1 - len(cs))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def constant_term(self):
        return self.poly.constant_term()

    def has_constant_term(self) -> bool:
        return bool(self.constant_term())

    def valuation(self) -> int | None:
        """Exponent of the first nonzero coefficient, None for zero (to order)."""
        return next((i for i, column in enumerate(zip(*self.poly.lanes)) if any(column)), None)

    def coeff(self, k: int):
        if k < 0 or k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.poly.coeff(k)

    # -- branch bookkeeping ---------------------------------------------------

    def rebase(self, branch: int) -> "TruncSeries":
        """Re-express on a finer branch (a multiple of the current one)."""
        if branch == self.branch:
            return self
        if branch % self.branch:
            raise ValueError(f"cannot rebase branch {self.branch} to {branch}")
        k = branch // self.branch
        return TruncSeries.from_poly(self.poly.scale_exponents(k), self.order * k, branch)

    def _align(self, other: "TruncSeries"):
        b = lcm(self.branch, other.branch)
        a = self.rebase(b)
        c = other.rebase(b)
        order = min(a.order, c.order)
        return a.poly.truncate(order), c.poly.truncate(order), order, b

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, SCALARS):
            return TruncSeries.from_poly(self.poly + other, self.order, self.branch)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a, b, order, branch = self._align(other)
        return TruncSeries.from_poly(a + b, order, branch)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries.from_poly(-self.poly, self.order, self.branch)

    def __sub__(self, other):
        if not isinstance(other, (TruncSeries, *SCALARS)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return TruncSeries.from_poly(self.poly * other, self.order, self.branch)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a, b, order, branch = self._align(other)
        return TruncSeries.from_poly(a * b, order, branch)

    __rmul__ = __mul__

    def frobenius(self, n) -> "TruncSeries":
        """Substitute q -> q^n for positive rational n = c/d.

        An exponent k on branch b represents q^(k/b) and maps to
        q^(kc/(bd)), i.e. exponent k*c on the enlarged branch b*d.  The
        result's order is the largest safe truncation, the input order
        scaled by c.
        """
        n = exact_rational(n, "Frobenius index")
        if n <= 0:
            raise ValueError("Frobenius index must be positive")
        c, d = n.numerator, n.denominator
        return TruncSeries.from_poly(self.poly.scale_exponents(c), self.order * c, self.branch * d)

    # -- comparisons and rendering ---------------------------------------------

    def __eq__(self, other):
        """Mathematical equality through the smaller valid order."""
        if isinstance(other, TruncSeries):
            a, b, _, _ = self._align(other)
            return a == b
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)}, order={self.order}, branch={self.branch})"

    def __str__(self):
        return f"{self.poly} + O({self.poly.var}^{self.order + 1})"

    def to_json(self) -> dict:
        coeffs = [_json_coeff(c) for c in self.coeffs]
        return {"branch": self.branch, "order": self.order, "coeffs": coeffs}


def _init(s: TruncSeries, p: Poly, order: int, branch: int) -> TruncSeries:
    """s as p cut at order on the branch, p relabelled to the branch's variable."""
    if branch < 1:
        raise ValueError("branch must be a positive integer")
    if order < 0:
        raise ValueError("order must be >= 0")
    p, var = p.truncate(order), branch_var(branch)
    for name, value in zip(TruncSeries.__slots__, (Poly(p, var), order, branch)):
        object.__setattr__(s, name, value)
    return s


def series_from_ratfunc(f: RatFunc, order: int, branch: int = 1) -> TruncSeries:
    """Power-series expansion of f through the given order, exactly, on
    integer lanes: the denominator's other Galois conjugates (``norm_lanes``)
    make it g D / d with D a primitive integer list, and numerator lane n
    gives y_k = out_k D_0^(k+1) = D_0^k n_k - sum_i D_i D_0^(i-1) y_(k-i).
    D_0 = 0 is a pole at the origin: a bug in the pipelines, whose values vanish there.
    A non-constant f must be a function of the branch's variable.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    var = branch_var(branch)
    found = common_var((f.num, f.den), var)
    if found != var:
        raise FieldMismatchError(f"a function of {found} has no series in {var} on branch {branch}")
    conj, D = norm_lanes(f.den.lanes, f.den.m)  # f.den * conj = D / f.den.den
    num = f.num * Poly.from_lanes(conj, 1, f.den.m, var)
    g = gcd(*D)
    D = [c // g for c in D]
    if not D[0]:
        raise ZeroDivisionError("denominator vanishes at 0; no power series there")
    pw = [D[0] ** k for k in range(order + 2)]
    taps = [(i, c * pw[i - 1]) for i, c in enumerate(D[1:order + 1], 1) if c]
    out = []
    for lane in num.lanes:
        y, live = [], 0  # taps[:live] are those with i <= k, as the i ascend
        for k in range(order + 1):
            live += live < len(taps) and taps[live][0] <= k
            nk = pw[k] * lane[k] if k < len(lane) else 0
            y.append(nk - sum(t * y[k - i] for i, t in taps[:live]))
        out.append([c * f.den.den * pw[order - k] for k, c in enumerate(y)])
    value = Poly.from_lanes(out, g * num.den * pw[order + 1], num.m, var)
    return TruncSeries.from_poly(value, order, branch)
