"""Scalar coefficient fields: rationals and cyclotomic-field elements.

The rational scalar is the standard library ``fractions.Fraction`` (exported
here as ``Rat``): it already guarantees the reduced-form invariants
(coprime numerator/denominator, positive denominator, zero as 0/1) and
serializes as "p/q".  ``CycRat`` adds elements of the cyclotomic field
Q(zeta_m), represented by their coordinates modulo the m-th cyclotomic
polynomial.  Both types are immutable and safe to share between threads.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

from .arith import cyclotomic_int_coeffs, euler_phi

Rat = Fraction

Rational = Union[int, Fraction]


class FieldMismatchError(TypeError):
    """Raised when two values from incompatible coefficient fields meet."""


class CycRat:
    """An element of Q(zeta_m), stored as coordinates of 1, z, ..., z^(phi(m)-1).

    Arithmetic is performed modulo Phi_m(z), which is irreducible over Q,
    so every nonzero element is invertible.  Conductor m = 1 embeds the
    rationals.  Elements of different conductors do not mix, except that
    rational-valued elements compare equal across conductors.
    """

    __slots__ = ("m", "coords")

    def __init__(self, m: int, coords=None):
        if m < 1:
            raise ValueError("conductor must be >= 1")
        dim = euler_phi(m)
        if coords is None:
            vec = [Fraction(0)] * dim
        elif isinstance(coords, (int, Fraction)):
            vec = [Fraction(coords)] + [Fraction(0)] * (dim - 1)
        else:
            vec = [Fraction(c) for c in coords]
            if len(vec) > dim:
                vec = _reduce_mod_phi(vec, m)
            vec += [Fraction(0)] * (dim - len(vec))
        if len(vec) != dim:
            raise ValueError(f"expected {dim} coordinates for conductor {m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coords", tuple(vec))

    def __setattr__(self, name, value):
        raise AttributeError("CycRat is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int = 1) -> "CycRat":
        return cls(m)

    @classmethod
    def one(cls, m: int = 1) -> "CycRat":
        return cls(m, 1)

    @classmethod
    def zeta_power(cls, m: int, k: int) -> "CycRat":
        """zeta_m^k as an element of Q(zeta_m)."""
        k %= m
        dim = euler_phi(m)
        if k < dim:
            coords = [Fraction(0)] * dim
            coords[k] = Fraction(1)
            return cls(m, coords)
        vec = [Fraction(0)] * k + [Fraction(1)]
        return cls(m, _reduce_mod_phi(vec, m))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def to_complex(self) -> complex:
        import cmath

        z = cmath.exp(2j * cmath.pi / self.m)
        return sum(float(c) * z**i for i, c in enumerate(self.coords))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycRat):
            if other.m == self.m:
                return self, other
            if other.is_rational():
                return self, CycRat(self.m, other.coords[0])
            if self.is_rational():
                return CycRat(other.m, self.coords[0]), other
            raise FieldMismatchError(
                f"cannot mix Q(zeta_{self.m}) and Q(zeta_{other.m})"
            )
        if isinstance(other, (int, Fraction)):
            return self, CycRat(self.m, other)
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return CycRat(a.m, [x + y for x, y in zip(a.coords, b.coords)])

    __radd__ = __add__

    def __neg__(self):
        return CycRat(self.m, [-c for c in self.coords])

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return CycRat(a.m, [x - y for x, y in zip(a.coords, b.coords)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        if b.is_rational():
            r = b.coords[0]
            return CycRat(a.m, [c * r for c in a.coords])
        prod = [Fraction(0)] * (len(a.coords) + len(b.coords) - 1)
        for i, x in enumerate(a.coords):
            if x == 0:
                continue
            for j, y in enumerate(b.coords):
                if y:
                    prod[i + j] += x * y
        return CycRat(a.m, _reduce_mod_phi(prod, a.m))

    __rmul__ = __mul__

    def inverse(self) -> "CycRat":
        """Multiplicative inverse via the extended Euclidean algorithm
        against Phi_m; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_m)")
        if self.is_rational():
            return CycRat(self.m, 1 / self.coords[0])
        # extended gcd of self (as a polynomial in z) and Phi_m over Q
        r0 = [Fraction(c) for c in cyclotomic_int_coeffs(self.m)]
        r1 = list(self.coords)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _poly_divmod_q(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is a nonzero constant gcd (Phi_m irreducible)
        _trim(r0)
        if len(r0) != 1:
            raise ArithmeticError("Phi_m was not coprime to the element")
        inv_c = 1 / r0[0]
        return CycRat(self.m, _reduce_mod_phi([c * inv_c for c in s0], self.m))

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CycRat.one(self.m)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, CycRat):
            if other.m == self.m:
                return self.coords == other.coords
            if self.is_rational() and other.is_rational():
                return self.coords[0] == other.coords[0]
            return False
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.m, self.coords))

    def __repr__(self):
        return f"CycRat({self.m}, {list(self.coords)})"

    def __str__(self):
        if self.is_rational():
            return str(self.coords[0])
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            z = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(z)
            elif c == -1:
                parts.append(f"-{z}")
            else:
                parts.append(f"{c}*{z}")
        return " + ".join(parts).replace("+ -", "- ")

    def json_value(self):
        """JSON form: a bare "p/q" string when rational, else coordinates."""
        if self.is_rational():
            return str(self.coords[0])
        return {"conductor": self.m, "coords": [str(c) for c in self.coords]}


# -- small exact polynomial helpers over Q (coefficient lists) -------------


def _trim(cs: list[Fraction]) -> None:
    while cs and cs[-1] == 0:
        cs.pop()


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    _trim(out)
    return out


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _poly_divmod_q(num, den):
    num = list(num)
    _trim(num)
    den = list(den)
    _trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dn = len(den) - 1
    lead = den[-1]
    quo = [Fraction(0)] * max(len(num) - dn, 0)
    while len(num) - 1 >= dn and num:
        c = num[-1] / lead
        k = len(num) - 1 - dn
        quo[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
        _trim(num)
        if len(num) - 1 < dn:
            break
    return quo, num


def _reduce_mod_phi(coords, m: int) -> list[Fraction]:
    phi = [Fraction(c) for c in cyclotomic_int_coeffs(m)]
    _, rem = _poly_divmod_q([Fraction(c) for c in coords], phi)
    dim = euler_phi(m)
    rem += [Fraction(0)] * (dim - len(rem))
    return rem[:dim]
