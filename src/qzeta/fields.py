"""Scalar coefficient fields: rationals and cyclotomic-field elements.

The rational scalar is the standard library ``fractions.Fraction`` (exported
here as ``Rat``): it already guarantees the reduced-form invariants
(coprime numerator/denominator, positive denominator, zero as 0/1) and
serializes as "p/q".  ``CycRat`` adds elements of the cyclotomic field
Q(zeta_m), represented by their coordinates modulo the m-th cyclotomic
polynomial.  Products and reductions run on integer lists through the
kernels of ``arith``; the inverse is the product of the other Galois
conjugates over the norm.  Both types are immutable and thread-safe.
"""
from __future__ import annotations

from fractions import Fraction

from .arith import (
    clear_denominators,
    cyclotomic_norm,
    cyclotomic_reduce,
    euler_phi,
    int_poly_mul,
    power,
)

Rat = Fraction


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
                vec = _reduce_mod_phi(*clear_denominators(vec), m)
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
        return cls(m, [0] * (k % m) + [1])

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
        ia, da = clear_denominators(a.coords)
        ib, db = clear_denominators(b.coords)
        return CycRat(a.m, _reduce_mod_phi(int_poly_mul(ia, ib), da * db, a.m))

    __rmul__ = __mul__

    def inverse(self) -> "CycRat":
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        The product of the Galois conjugates sigma_k (z -> z^k, k a unit
        mod m, k != 1) times self is the norm, a nonzero rational, so that
        product divided by the norm is the inverse.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_m)")
        if self.is_rational():
            return CycRat(self.m, 1 / self.coords[0])
        ints, den = clear_denominators(self.coords)
        conj, norm = cyclotomic_norm(ints, self.m)  # self = ints/den: conj/norm * den
        return CycRat(self.m, [Fraction(c * den, norm[0]) for c in conj])

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
        return power(self, n, CycRat.one(self.m))

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


# the coefficient types; each answers not c, c == 1 and Fraction(1) / c itself
SCALARS = (int, Fraction, CycRat)


def exact_rational(value, what: str) -> Fraction:
    """value as a Fraction; float and complex raise TypeError, as Fraction(0.1)
    is exact binary, with the denominator 2^55."""
    if isinstance(value, (float, complex)):
        raise TypeError(f"exact mode needs a rational {what}, not {type(value).__name__} {value!r}")
    return Fraction(value)


def _reduce_mod_phi(ints: list[int], den: int, m: int) -> list[Fraction]:
    """Coordinates of (sum_i ints[i] z^i) / den modulo Phi_m."""
    return [Fraction(c, den) for c in cyclotomic_reduce(ints, m)]
