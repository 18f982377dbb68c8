"""Dense univariate polynomials over an exact coefficient field.

Coefficients are Python ints / Fractions (the rational field) or CycRat
values (``fields.SCALARS``).  The constructor decides the coefficient field
once and stores its conductor in ``m`` (1 for Q); every coefficient is then
of that field, and the scalar types themselves answer zero (``not c``), one
(``c == 1``) and inverse (``Fraction(1) / c``).  All polynomials arising
here are dense in practice, so a plain coefficient list, lowest degree
first, is the representation of choice.
The variable tag names the branch (``branch_var``): a sum or product of
non-constant values on two branches raises.  The hot exact paths run on
integer lanes (``split_lanes``): products and scales with a rational
factor, trial division by Phi_d, the Galois norm (``norm_lanes``),
``CycloFrac.sum``, the Delta kernel of ``operators`` and
``series_from_ratfunc``.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd as int_gcd

from .arith import (clear_denominators, cyclotomic_int_coeffs, cyclotomic_norm,
                    euler_phi, int_poly_divmod_monic, int_poly_mul)
from .fields import SCALARS, CycRat, FieldMismatchError


class Poly:
    """Immutable dense polynomial; trailing zeros are trimmed on construction.

    >>> Poly([0, 1, -3])           # q - 3q^2
    Poly('q - 3*q^2')
    >>> Poly([1, 1]) * Poly([-1, 1])
    Poly('-1 + q^2')
    """

    __slots__ = ("coeffs", "var", "m")

    def __init__(self, coeffs, var: str = "q"):
        if isinstance(coeffs, Poly):
            coeffs, var = coeffs.coeffs, coeffs.var
        cs, m = _unify_coeffs(list(coeffs))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var: str = "q") -> "Poly":
        return cls([], var)

    @classmethod
    def one(cls, var: str = "q") -> "Poly":
        return cls([1], var)

    @classmethod
    def variable(cls, var: str = "q") -> "Poly":
        return cls([0, 1], var)

    @classmethod
    def monomial(cls, k: int, c=1, var: str = "q") -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls([0] * k + [c], var)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 1

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else 0

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = [a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)]
        return Poly(out, common_var((self, other)))

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, SCALARS):
                return self.scale(other)
            return NotImplemented
        a, b, var = self.coeffs, other.coeffs, common_var((self, other))
        if not a or not b:
            return Poly.zero(var)
        if 1 in (self.m, other.m):  # multiply each lane
            (la, da, ma), (lb, db, mb) = split_lanes(self), split_lanes(other)
            lanes = [int_poly_mul(x, y) for x in la for y in lb]  # one side has one lane
            return assemble_lanes(lanes, da * db, max(ma, mb), var)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
        return Poly(out, var)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        if not c:
            return Poly.zero(self.var)
        if self.m == 1 and not isinstance(c, CycRat):
            return Poly([c * x for x in self.coeffs], self.var)
        return self * Poly([c], self.var)  # lane by lane when one side is rational

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative powers leave the polynomial ring")
        result = Poly.one(self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        den = other.coeffs
        inv = None if den[-1] == 1 else Fraction(1) / den[-1]
        quo = [0] * max(len(rem) - dn, 0)
        top = len(rem) - 1
        while top >= dn:
            c = rem[top] if inv is None else rem[top] * inv
            if c:
                k = top - dn
                quo[k] = c
                for j, d in enumerate(den):
                    if d:
                        rem[k + j] = rem[k + j] - c * d
            top -= 1
        return Poly(quo, self.var), Poly(rem, self.var)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return divmod(other, self)[1].is_zero()

    def exact_div(self, other: "Poly") -> "Poly":
        quo, rem = divmod(self, other)
        if not rem.is_zero():
            raise ArithmeticError(f"{other} does not divide {self}")
        return quo

    # -- transformations ---------------------------------------------------

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is one; monic(0) = 0."""
        if self.is_zero() or self.is_monic():
            return self
        inv = Fraction(1) / self.leading()
        return Poly([c * inv for c in self.coeffs], self.var)

    def scale_exponents(self, k: int) -> "Poly":
        """Substitute var -> var^k for a positive integer k."""
        if k < 1:
            raise ValueError("exponent scale must be a positive integer")
        if k == 1 or self.is_zero():
            return self
        out = [0] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Poly(out, self.var)

    def shift(self, k: int) -> "Poly":
        """Multiply by var^k."""
        if k == 0 or self.is_zero():
            return self
        return Poly([0] * k + list(self.coeffs), self.var)

    def __call__(self, x):
        """Evaluate by Horner's rule; x may be any ring element, complex, or mpc."""
        result = None
        for c in reversed(self.coeffs):
            result = c if result is None else result * x + c
        if result is None:
            return 0 * x if not isinstance(x, (int, float, complex)) else 0
        return result

    # -- comparisons and rendering ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            if len(self.coeffs) != len(other.coeffs):
                return False
            return all(a == b for a, b in zip(self.coeffs, other.coeffs))
        if isinstance(other, SCALARS):
            if not other:
                return self.is_zero()
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        # a constant compares equal to its scalar, so it hashes as one
        if len(self.coeffs) <= 1:
            return hash(self.constant_term())
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly('{self}')"

    def __str__(self):
        if not self.coeffs:
            return "0"
        return _render_terms(self.coeffs, self.var)

    def json_coeffs(self) -> list:
        """Coefficient array, lowest degree first, values as "p/q" strings."""
        return [_json_coeff(c) for c in self.coeffs]

    # -- internals -----------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, SCALARS):
            return Poly([other], self.var)
        return NotImplemented

    def field_key(self):
        """The coefficient field: 'rat' or ('cyc', m)."""
        return "rat" if self.m == 1 else ("cyc", self.m)


def branch_var(b: int) -> str:
    """The variable on branch b: q itself, or v = q^(1/b) for b > 1."""
    return "q" if b == 1 else "v"


def common_var(polys, var: str = "q") -> str:
    """The variable of the non-constant polys, or var; two raise FieldMismatchError."""
    found = {p.var for p in polys if p.degree > 0}
    if len(found) > 1:
        raise FieldMismatchError(f"values on different branches {', '.join(sorted(found))}")
    return found.pop() if found else var


def _json_coeff(c):
    """One coefficient in JSON form: a "p/q" string, or CycRat's own form."""
    return c.json_value() if isinstance(c, CycRat) else str(Fraction(c))


def _render_terms(coeffs, var: str) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        term = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
        cs = str(c)
        if " " in cs:
            cs = f"({cs})"
        if term and cs == "1":
            cs = ""
        elif term and cs == "-1":
            cs = "-"
        piece = cs + "*" + term if (cs not in ("", "-") and term) else cs + term
        if parts and not piece.startswith("-"):
            parts.append("+ " + piece)
        elif parts:
            parts.append("- " + piece[1:])
        else:
            parts.append(piece)
    return " ".join(parts) if parts else "0"


def _unify_coeffs(cs: list) -> tuple[list, int]:
    """The trimmed coefficient list, all in one field, and that field's
    conductor m (1 for Q).

    A type outside SCALARS raises TypeError before anything is trimmed, so
    a float zero is rejected too.  The nonzero CycRat values of conductor
    above 1 fix the field (zero lies in every field); the other values are
    promoted into it.  Over Q, CycRat values become Fractions, so the
    integer paths can read them.
    """
    m = 1
    if not set(map(type, cs)) <= {int, Fraction}:
        for c in cs:
            if not isinstance(c, SCALARS):
                raise TypeError(f"unsupported coefficient type {type(c).__name__}")
            if isinstance(c, CycRat) and c.m != m and c.m != 1 and c:
                if m != 1:
                    raise FieldMismatchError(f"mixed fields Q(zeta_{m}) and Q(zeta_{c.m})")
                m = c.m
        cs = [_promote(c, m) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs, m


def _promote(c, m: int):
    """c in Q(zeta_m): a Fraction over Q, a CycRat of conductor m otherwise."""
    if m > 1 and isinstance(c, CycRat) and c.m == m:
        return c
    r = c.rational() if isinstance(c, CycRat) else Fraction(c)
    return r if m == 1 else CycRat(m, r)


# -- gcd -------------------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0.

    Over Q the computation runs on primitive integer coefficient lists with
    pseudo-remainders, stripping integer content at every step, which keeps
    coefficient growth flat where naive fraction-field Euclid explodes.
    Other coefficient fields fall back to monic Euclid.
    """
    if not isinstance(a, Poly) or not isinstance(b, Poly):
        raise TypeError("poly_gcd expects Poly arguments")
    if a.m != b.m and 1 not in (a.m, b.m):
        raise FieldMismatchError(f"mixed fields Q(zeta_{a.m}) and Q(zeta_{b.m})")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.m == b.m == 1:
        return Poly(_gcd_rational(a.coeffs, b.coeffs), a.var)
    # monic Euclid over the field
    f, g = a, b
    while not g.is_zero():
        f, g = g, (f % g)
        if not g.is_zero():
            g = g.monic()
    return f.monic()


def _int_content(cs: list[int]) -> int:
    c = 0
    for x in cs:
        c = int_gcd(c, x)
        if c == 1:
            return 1
    return c or 1


def _to_primitive_int(coeffs) -> list[int]:
    ints, _ = clear_denominators(coeffs)
    content = _int_content(ints)
    return [c // content for c in ints]


def _gcd_rational(a, b):
    fa, fb = _to_primitive_int(a), _to_primitive_int(b)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        # pseudo-remainder: lc(fb)^(deg gap + 1) * fa mod fb
        rem = list(fa)
        lead = fb[-1]
        dn = len(fb) - 1
        while len(rem) - 1 >= dn and rem:
            c = rem[-1]
            k = len(rem) - 1 - dn
            rem = [x * lead for x in rem]
            for j, d in enumerate(fb):
                rem[k + j] -= c * d
            while rem and rem[-1] == 0:
                rem.pop()
        content = _int_content(rem)
        fa, fb = fb, [c // content for c in rem]
    lead = fa[-1]
    if lead < 0:
        fa = [-c for c in fa]
        lead = -lead
    if lead == 1:
        return fa
    return [Fraction(c, lead) for c in fa]


# -- cyclotomic polynomials --------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic(n: int, var: str = "q") -> Poly:
    """The n-th cyclotomic polynomial Phi_n over Q.  Cached.

    >>> cyclotomic(6)
    Poly('1 - q + q^2')
    """
    if n < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    return Poly(cyclotomic_int_coeffs(n), var)


def divide_out_cyclotomic(p: Poly, limits) -> tuple[Poly, list[tuple[int, int]]]:
    """Trial division of p by Phi_d, for each index d of ``limits`` in
    ascending order, as long as it divides and at most limits[d] times.

    Returns the quotient and the (d, multiplicity) pairs divided out.  Phi_d
    is monic over Z and the powers of zeta are a basis of Q(zeta_m)(q) over
    Q(q), so Phi_d divides p exactly when it divides every integer lane.
    """
    lanes, den, m = split_lanes(p)
    factors = []
    for d in sorted(limits):
        phi_d = cyclotomic_int_coeffs(d)
        mult = 0
        while mult < limits[d]:
            split = [int_poly_divmod_monic(lane, phi_d) for lane in lanes]
            if any(any(rem) for _, rem in split):
                break
            lanes = [quo for quo, _ in split]
            mult += 1
        if mult:
            factors.append((d, mult))
    return (assemble_lanes(lanes, den, m, p.var) if factors else p), factors


def cyclotomic_coprime(p: Poly, indices) -> bool:
    """True when no Phi_d, d in ``indices``, divides the rational norm
    prod_k sigma_k(p) over the units k mod m (sigma_k: zeta -> zeta^k): that
    proves p coprime to each, as Phi_d is irreducible over Q and a common
    root would be a root of the norm.  False only means "not certified".
    The norm is taken of p's residue mod Phi_d, lane by lane: Phi_d is
    rational, so each sigma_k commutes with the reduction and the two
    norms agree mod Phi_d."""
    lanes, _, m = split_lanes(p)
    for d in indices:
        phi_d = cyclotomic_int_coeffs(d)
        residue = [int_poly_divmod_monic(lane, phi_d)[1] for lane in lanes]
        if not any(int_poly_divmod_monic(norm_lanes(residue, m)[1], phi_d)[1]):
            return False
    return True


def norm_lanes(lanes, m: int) -> tuple[list[list[int]], list[int]]:
    """(conj, norm) for the integer lanes of p over Q(zeta_m) (``split_lanes``),
    with p * sum_i zeta^i conj[i] = norm / den: conj is the product of the
    conjugates sigma_k (k != 1) of the lanes (``arith.cyclotomic_norm``);
    over Q, conj = [[1]]."""
    L = len(lanes) * (max(map(len, lanes)) - 1) + 1  # past the norm's degree in q
    ints = [c for lane in lanes for c in lane + [0] * (L - len(lane))]  # zeta = x^L
    conj, norm = cyclotomic_norm(ints, m, L)
    return [conj[i * L:(i + 1) * L] for i in range(len(lanes))], norm[:L]


def split_lanes(p: Poly) -> tuple[list[list[int]], int, int]:
    """(lanes, den, m) with p = sum_i zeta_m^i lanes[i] / den, one integer
    coefficient list per power of zeta; over Q, m = 1 with one lane."""
    m, dim = p.m, euler_phi(p.m)
    ints, den = clear_denominators(p.coeffs if m == 1 else [x for c in p.coeffs for x in c.coords])
    return ([ints] if dim == 1 else [ints[i::dim] for i in range(dim)]), den, m


def assemble_lanes(lanes, den: int, m: int, var: str) -> Poly:
    """The polynomial of split_lanes' triple; shorter lanes end in zeros."""
    if m == 1:
        return Poly(lanes[0] if den == 1 else [Fraction(c, den) for c in lanes[0]], var)
    cols = zip_longest(*lanes, fillvalue=0)
    return Poly([CycRat(m, [Fraction(c, den) for c in col]) for col in cols], var)
