"""Dense univariate polynomials over Q or a cyclotomic field Q(zeta_m).

A polynomial is stored as integer lanes over one denominator,
p = sum_i zeta_m^i lanes[i] / den: one integer tuple per power of zeta_m
(the power basis), lowest degree first, and one lane over Q (m = 1).  The
form is canonical (``_normal``): den > 0 is coprime to the entries, no
trailing column is all zero, and m = 1 exactly when only the first lane is
nonzero, so equality is structural.  Sums, products, trial division by
Phi_d and the Galois norm (``norm_lanes``) run on the lanes.  ``coeffs``
is a read-only view in ``fields.SCALARS`` (ints over Q when den = 1,
Fractions otherwise, CycRat over Q(zeta_m)) for the cold paths: division
by a non-monic or Q(zeta_m) divisor, evaluation, printing, and monic
Euclid over Q(zeta_m).  The variable tag names the branch
(``branch_var``): a sum or product of non-constant values on two branches
raises.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, lcm

from .arith import (clear_denominators, cyclotomic_int_coeffs, cyclotomic_norm, cyclotomic_reduce,
                    euler_phi, int_poly_add, int_poly_divmod_monic, int_poly_mul, power)
from .fields import SCALARS, CycRat, FieldMismatchError


class Poly:
    """Immutable dense polynomial; trailing zeros are trimmed on construction.

    >>> Poly([0, 1, -3])           # q - 3q^2
    Poly('q - 3*q^2')
    >>> Poly([1, 1]) * Poly([-1, 1])
    Poly('-1 + q^2')
    """

    __slots__ = ("lanes", "den", "m", "var")

    def __init__(self, coeffs, var: str | None = None):
        """From scalars, lowest degree first, or a Poly, relabelled if var is given."""
        if isinstance(coeffs, Poly):
            state = coeffs.lanes, coeffs.den, coeffs.m
            var = coeffs.var if var is None else var
        else:
            state = _normal(*_coeff_lanes(list(coeffs)))
        _init(self, *state, "q" if var is None else var)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_lanes(cls, lanes, den: int = 1, m: int = 1, var: str = "q") -> "Poly":
        """sum_i zeta_m^i lanes[i] / den for phi(m) integer lanes (one over Q);
        shorter lanes end in zeros."""
        return _init(object.__new__(cls), *_normal(lanes, den, m), var)

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
        return len(self.lanes[0]) - 1

    @property
    def coeffs(self) -> tuple:
        """The coefficients, lowest degree first, as scalars (module docstring)."""
        if self.m == 1 and self.den == 1:
            return self.lanes[0]
        return tuple(map(self.coeff, range(len(self.lanes[0]))))

    def coeff(self, k: int):
        """The coefficient of var^k as a scalar; 0 beyond the degree."""
        if not 0 <= k < len(self.lanes[0]):
            return 0
        if self.m == 1:
            c = self.lanes[0][k]
            return c if self.den == 1 else Fraction(c, self.den)
        return CycRat(self.m, [Fraction(lane[k], self.den) for lane in self.lanes])

    def is_zero(self) -> bool:
        return not self.lanes[0]

    def is_one(self) -> bool:
        return self.lanes == ((1,),) and self.den == 1

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def constant_term(self):
        return self.coeff(0)

    def is_monic(self) -> bool:
        first, *rest = self.lanes
        return bool(first) and first[-1] == self.den and not any(lane[-1] for lane in rest)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        var, m = common_var((self, other)), common_m((self, other))
        den = lcm(self.den, other.den)
        lanes = add_lanes((self.lanes, other.lanes), ([den // self.den], [den // other.den]))
        return Poly.from_lanes(lanes, den, m, var)

    __radd__ = __add__

    def __neg__(self):
        lanes = [[-c for c in lane] for lane in self.lanes]
        return Poly.from_lanes(lanes, self.den, self.m, self.var)

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
        var, m = common_var((self, other)), common_m((self, other))
        a, b = self.lanes, other.lanes
        if not a[0] or not b[0]:
            return Poly.zero(var)
        if len(a) == 1 or len(b) == 1:  # multiply each lane
            lanes = [int_poly_mul(x, y) for x in a for y in b]
        else:  # one Kronecker product, zeta = x^L, reduced mod Phi_m
            L = len(a[0]) + len(b[0]) - 1
            prod = cyclotomic_reduce(int_poly_mul(_pack(a, L), _pack(b, L)), m, L)
            lanes = [prod[i:i + L] for i in range(0, len(prod), L)]
        return Poly.from_lanes(lanes, self.den * other.den, m, var)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        """c * self; a rational c multiplies the lanes by its numerator."""
        c = Poly([c], self.var)
        if c.m > 1:
            return self * c
        k = c.lanes[0][0] if c else 0
        lanes = [[k * x for x in lane] for lane in self.lanes]
        return Poly.from_lanes(lanes, self.den * c.den, self.m, self.var)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative powers leave the polynomial ring")
        return power(self, n, Poly.one(self.var))

    def __divmod__(self, other: "Poly"):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.lanes[0][-1] == other.den == 1 and other.m == 1:  # monic over Z: lane by lane
            split = [int_poly_divmod_monic(lane, other.lanes[0]) for lane in self.lanes]
            return tuple(Poly.from_lanes([part[i] for part in split], self.den, self.m, self.var)
                         for i in (0, 1))
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
        return self.scale(Fraction(1) / self.leading())

    def scale_exponents(self, k: int) -> "Poly":
        """Substitute var -> var^k for a positive integer k."""
        if k < 1:
            raise ValueError("exponent scale must be a positive integer")
        lanes = [[0] * (self.degree * k + 1) for _ in self.lanes]
        for out, lane in zip(lanes, self.lanes):
            out[::k] = lane
        return Poly.from_lanes(lanes, self.den, self.m, self.var)

    def shift(self, k: int) -> "Poly":
        """Multiply by var^k."""
        return Poly.from_lanes([(0,) * k + lane for lane in self.lanes], self.den, self.m, self.var)

    def truncate(self, n: int) -> "Poly":
        """The terms of degree at most n."""
        if self.degree <= n:
            return self
        return Poly.from_lanes([lane[:n + 1] for lane in self.lanes], self.den, self.m, self.var)

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
        if isinstance(other, SCALARS):
            other = Poly([other])
        if isinstance(other, Poly):
            return (self.lanes, self.den, self.m) == (other.lanes, other.den, other.m)
        return NotImplemented

    def __hash__(self):
        # a constant compares equal to its scalar, so it hashes as one
        if self.degree <= 0:
            return hash(self.constant_term())
        return hash((self.lanes, self.den, self.m))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Poly('{self}')"

    def __str__(self):
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


def _init(p: Poly, *state) -> Poly:
    """p with the canonical state (lanes, den, m, var)."""
    for name, value in zip(Poly.__slots__, state):
        object.__setattr__(p, name, value)
    return p


def _normal(lanes, den: int, m: int) -> tuple[tuple, int, int]:
    """(lanes, den, m) in canonical form: a rational value keeps one lane,
    trailing zero columns go, and den > 0 is coprime to the entries."""
    if m > 1 and not any(map(any, lanes[1:])):
        lanes, m = lanes[:1], 1
    size = max(map(len, lanes), default=0)
    while size and not any(size <= len(lane) and lane[size - 1] for lane in lanes):
        size -= 1
    if not size:
        return ((),), 1, 1
    g = abs(den)
    for lane in lanes:
        if g == 1:
            break
        g = int_gcd(g, *lane)
    g = -g if den < 0 else g
    if g == 1:
        return tuple(tuple(lane[:size]) + (0,) * (size - len(lane)) for lane in lanes), den, m
    return tuple(tuple(c // g for c in lane[:size]) + (0,) * (size - len(lane))
                 for lane in lanes), den // g, m


def _coeff_lanes(cs: list) -> tuple[list, int, int]:
    """(lanes, den, m) of a list of scalars, unnormalised.

    A type outside SCALARS raises TypeError, so a float zero is rejected
    too.  The CycRat values that are not rational fix the field Q(zeta_m),
    and two conductors raise FieldMismatchError.
    """
    if set(map(type, cs)) <= {int, Fraction}:
        ints, den = clear_denominators(cs)
        return [ints], den, 1
    m = 1
    for c in cs:
        if not isinstance(c, SCALARS):
            raise TypeError(f"unsupported coefficient type {type(c).__name__}")
        if isinstance(c, CycRat) and c.m != m and not c.is_rational():
            if m != 1:
                raise FieldMismatchError(f"mixed fields Q(zeta_{m}) and Q(zeta_{c.m})")
            m = c.m
    dim = euler_phi(m)
    pad = (0,) * (dim - 1)
    rows = [c.coords if isinstance(c, CycRat) and c.m == m
            else (c.coords[0] if isinstance(c, CycRat) else c, *pad) for c in cs]
    ints, den = clear_denominators([x for row in rows for x in row])
    return [ints[i::dim] for i in range(dim)], den, m


def _pack(lanes, L: int) -> list[int]:
    """The lanes as one integer list with zeta = x^L (Kronecker substitution)."""
    return [c for lane in lanes for c in (*lane, *[0] * (L - len(lane)))]


def add_lanes(raised, weights) -> list[list[int]]:
    """The lanes of sum_t weights[t] * raised[t], each given by its integer
    lanes; for every t one of the two has one lane (over Q)."""
    acc = []
    for lanes, w in zip(raised, weights):
        acc += [[] for _ in range(len(lanes) * len(w) - len(acc))]
        for out, lane, c in zip(acc, lanes * len(w), w * len(lanes)):
            if c:
                int_poly_add(out, lane, 0, c)
    return acc


def branch_var(b: int) -> str:
    """The variable on branch b: q itself, or v = q^(1/b) for b > 1."""
    return "q" if b == 1 else "v"


def common_var(polys, var: str = "q") -> str:
    """The variable of the non-constant polys, or var; two raise FieldMismatchError."""
    found = {p.var for p in polys if p.degree > 0}
    if len(found) > 1:
        raise FieldMismatchError(f"values on different branches {', '.join(sorted(found))}")
    return found.pop() if found else var


def common_m(polys) -> int:
    """The conductor of the polys' common field; two above 1 raise FieldMismatchError."""
    found = {p.m for p in polys} - {1}
    if len(found) > 1:
        raise FieldMismatchError(f"mixed fields {', '.join(f'Q(zeta_{m})' for m in sorted(found))}")
    return found.pop() if found else 1


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


# -- gcd -------------------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0.

    Over Q the computation runs on the primitive integer lanes with
    pseudo-remainders, stripping integer content at every step, which keeps
    coefficient growth flat where naive fraction-field Euclid explodes.
    Other coefficient fields fall back to monic Euclid.
    """
    if not isinstance(a, Poly) or not isinstance(b, Poly):
        raise TypeError("poly_gcd expects Poly arguments")
    common_m((a, b))
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.m == b.m == 1:
        g = _gcd_rational(a.lanes[0], b.lanes[0])
        return Poly.from_lanes([g], g[-1], 1, a.var)
    # monic Euclid over the field
    f, g = a, b
    while not g.is_zero():
        f, g = g, (f % g)
        if not g.is_zero():
            g = g.monic()
    return f.monic()


def _gcd_rational(a, b) -> list[int]:
    """A primitive integer gcd of two nonzero integer coefficient lists."""
    fa, fb = sorted((list(a), list(b)), key=len, reverse=True)
    while fb:
        content = int_gcd(*fb)
        fb = [c // content for c in fb]
        # pseudo-remainder: lc(fb)^(deg gap + 1) * fa mod fb
        rem, lead, dn = fa, fb[-1], len(fb) - 1
        while len(rem) > dn:
            c, k = rem[-1], len(rem) - 1 - dn
            rem = [x * lead for x in rem]
            for j, d in enumerate(fb):
                rem[k + j] -= c * d
            while rem and rem[-1] == 0:
                rem.pop()
        fa, fb = fb, rem
    return fa


# -- cyclotomic polynomials --------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic(n: int, var: str = "q") -> Poly:
    """The n-th cyclotomic polynomial Phi_n over Q.  Cached.

    >>> cyclotomic(6)
    Poly('1 - q + q^2')
    """
    if n < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    return Poly.from_lanes([cyclotomic_int_coeffs(n)], 1, 1, var)


def divide_out_cyclotomic(p: Poly, limits) -> tuple[Poly, list[tuple[int, int]]]:
    """Trial division of p by Phi_d, for each index d of ``limits`` in
    ascending order, as long as it divides and at most limits[d] times.

    Returns the quotient and the (d, multiplicity) pairs divided out.  Phi_d
    is monic over Z and the powers of zeta are a basis of Q(zeta_m)(q) over
    Q(q), so Phi_d divides p exactly when it divides every integer lane.
    """
    lanes = p.lanes
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
    return (Poly.from_lanes(lanes, p.den, p.m, p.var) if factors else p), factors


def cyclotomic_coprime(p: Poly, indices) -> bool:
    """True when no Phi_d, d in ``indices``, divides the rational norm
    prod_k sigma_k(p) over the units k mod m (sigma_k: zeta -> zeta^k): that
    proves p coprime to each, as Phi_d is irreducible over Q and a common
    root would be a root of the norm.  False only means "not certified".
    The norm is taken of p's residue mod Phi_d, lane by lane: Phi_d is
    rational, so each sigma_k commutes with the reduction and the two
    norms agree mod Phi_d."""
    for d in indices:
        phi_d = cyclotomic_int_coeffs(d)
        residue = [int_poly_divmod_monic(lane, phi_d)[1] for lane in p.lanes]
        if not any(int_poly_divmod_monic(norm_lanes(residue, p.m)[1], phi_d)[1]):
            return False
    return True


def norm_lanes(lanes, m: int) -> tuple[list[list[int]], list[int]]:
    """(conj, norm) for the integer lanes of p over Q(zeta_m) (``Poly.lanes``),
    with p * sum_i zeta^i conj[i] = norm / den: conj is the product of the
    conjugates sigma_k (k != 1) of the lanes (``arith.cyclotomic_norm``);
    over Q, conj = [[1]]."""
    L = len(lanes) * (max(map(len, lanes)) - 1) + 1  # past the norm's degree in q
    conj, norm = cyclotomic_norm(_pack(lanes, L), m, L)
    return [conj[i * L:(i + 1) * L] for i in range(len(lanes))], norm[:L]
