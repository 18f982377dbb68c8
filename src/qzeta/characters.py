"""Dirichlet characters modulo N with exact cyclotomic values.

The unit group (Z/NZ)^x is presented as a product of cyclic groups: one
primitive root per odd prime power, the generator 3 for modulus 4, and
the pair {-1, 5} for higher powers of two, all lifted through the Chinese
remainder theorem.  A character is an exponent tuple against these
generators; its values live in Q(zeta_m) where m is the character's own
order, so real characters get plain rational arithmetic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, lcm

from .arith import euler_phi, factorize, multiplicative_order
from .fields import CycRat


@dataclass(frozen=True)
class UnitGroupStructure:
    """Generators (residue, order) of (Z/NZ)^x with a discrete-log table."""

    modulus: int
    generators: tuple[tuple[int, int], ...]
    dlog: dict[int, tuple[int, ...]] = field(repr=False, hash=False, compare=False)


_unit_group_cache: dict[int, UnitGroupStructure] = {}


def unit_group(N: int) -> UnitGroupStructure:
    if N < 1:
        raise ValueError("modulus must be >= 1")
    cached = _unit_group_cache.get(N)
    if cached is not None:
        return cached
    gens: list[tuple[int, int]] = []
    for p, e in factorize(N) if N > 1 else ():
        q = p**e
        rest = N // q
        for g, order in _local_generators(p, e):
            gens.append((_crt_lift(g, q, rest), order))
    dlog: dict[int, tuple[int, ...]] = {}
    ranges = [range(order) for _, order in gens]
    for exps in itertools.product(*ranges):
        r = 1
        for (g, _), e in zip(gens, exps):
            r = r * pow(g, e, N) % N
        dlog[r % N] = exps
    if len(dlog) != euler_phi(N):
        raise ArithmeticError(f"generators of (Z/{N}Z)^x do not reach every unit")
    structure = UnitGroupStructure(N, tuple(gens), dlog)
    _unit_group_cache.setdefault(N, structure)
    return _unit_group_cache[N]


def _local_generators(p: int, e: int) -> list[tuple[int, int]]:
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2)]
        return [(2**e - 1, 2), (5, 2 ** (e - 2))]
    q = p**e
    g = _primitive_root_mod_p(p)
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return [(g % q, euler_phi(q))]


def _primitive_root_mod_p(p: int) -> int:
    if p == 2:
        return 1
    for g in range(2, p):
        if multiplicative_order(g, p) == p - 1:
            return g
    raise ArithmeticError(f"no primitive root found mod {p}")


def _crt_lift(g: int, q: int, rest: int) -> int:
    """The residue congruent to g mod q and to 1 mod rest."""
    if rest == 1:
        return g % q
    inv = pow(rest, -1, q)
    return (1 + rest * ((g - 1) * inv % q)) % (q * rest)


class DirichletCharacter:
    """A Dirichlet character mod N, stored as an exponent tuple.

    chi(n) = 0 when gcd(n, N) > 1; on units the value is the cyclotomic
    root of unity determined by the exponents against the group
    generators.  The extension to all n >= 1 is completely multiplicative
    by periodicity.
    """

    __slots__ = ("modulus", "exponents", "group", "order", "_values")

    def __init__(self, group: UnitGroupStructure, exponents: tuple[int, ...]):
        if len(exponents) != len(group.generators):
            raise ValueError("exponent tuple does not match the group presentation")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "modulus", group.modulus)
        object.__setattr__(self, "exponents", tuple(exponents))
        order = 1
        for (_, d), e in zip(group.generators, exponents):
            if e:
                order = lcm(order, d // gcd(e, d))
        object.__setattr__(self, "order", order)
        m = order
        values: dict[int, CycRat] = {}
        for residue, exps in group.dlog.items():
            k = 0
            for (_, d), e, t in zip(group.generators, exponents, exps):
                k += t * (e * m // d)
            values[residue] = CycRat.zeta_power(m, k % m)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError("DirichletCharacter is immutable")

    @property
    def index(self) -> int:
        """Lexicographic rank of the exponent tuple: a stable CLI address."""
        rank = 0
        for (_, d), e in zip(self.group.generators, self.exponents):
            rank = rank * d + e
        return rank

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def is_real(self) -> bool:
        return self.order <= 2

    def __call__(self, n: int) -> CycRat:
        r = n % self.modulus if self.modulus > 1 else 0
        v = self._values.get(r)
        if v is None:
            return CycRat.zero(self.order)
        return v

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return self.modulus == other.modulus and self.exponents == other.exponents

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, index {self.index}, order {self.order})"

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "index": self.index,
            "order": self.order,
            "primitive": is_primitive(self),
            "values": [
                {"n": n, "value": self(n).json_value()}
                for n in range(self.modulus if self.modulus > 1 else 1)
            ],
        }


def characters(N: int) -> list[DirichletCharacter]:
    """All phi(N) Dirichlet characters mod N, ordered by index."""
    group = unit_group(N)
    ranges = [range(d) for _, d in group.generators]
    return [DirichletCharacter(group, exps) for exps in itertools.product(*ranges)]


def character(N: int, index: int) -> DirichletCharacter:
    """The character of the given lexicographic index (see characters)."""
    chars = characters(N)
    if not 0 <= index < len(chars):
        raise ValueError(f"character index must be in [0, {len(chars)}) for modulus {N}")
    chi = chars[index]
    if chi.index != index:
        raise ArithmeticError(f"character enumeration out of index order at {index}")
    return chi


def is_primitive(chi: DirichletCharacter) -> bool:
    """True when chi factors through no proper divisor of its modulus.

    chi is imprimitive exactly when some proper divisor d | N satisfies
    chi(a) = 1 for every unit a = 1 (mod d).
    """
    N = chi.modulus
    for d in range(1, N):
        if N % d:
            continue
        if all(
            chi(a) == 1
            for a in range(1, N + 1)
            if a % d == 1 % d and gcd(a, N) == 1
        ):
            return False
    return True
