"""Elementary integer arithmetic shared across the package.

Everything here is deterministic, exact, and cheap at the scales the
library targets (moduli and cyclotomic indices in the low hundreds).
"""
from __future__ import annotations

import threading
from functools import lru_cache
from math import gcd, isqrt


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a tuple of (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out = []
    m = n
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
    p = 5
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
        p += 2 if p % 3 == 2 else 4  # skip multiples of 2 and 3
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def primes_upto(n: int) -> list[int]:
    """Sieve of Eratosthenes, inclusive."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/nZ)^x; a must be a unit mod n."""
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    order = euler_phi(n)
    for p, _ in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


_cyclo_cache: dict[int, tuple[int, ...]] = {}
_cyclo_lock = threading.Lock()


def cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, lowest first.

    Computed by the exact recursion x^n - 1 = prod_{d | n} Phi_d: divide
    x^n - 1 by the product of Phi_d over proper divisors d.  Cached; the
    cache is guarded by a lock so concurrent callers see consistent state.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    cached = _cyclo_cache.get(n)
    if cached is not None:
        return cached
    if n == 1:
        coeffs: tuple[int, ...] = (-1, 1)
    else:
        num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
        for d in divisors(n):
            if d == n:
                continue
            num = _int_poly_div_exact(num, cyclotomic_int_coeffs(d))
        coeffs = tuple(num)
    with _cyclo_lock:
        _cyclo_cache.setdefault(n, coeffs)
    return _cyclo_cache[n]


def _int_poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials with monic divisor."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dn] = c
        for j, d in enumerate(den):
            num[i - dn + j] -= c * d
    if any(num[:dn]):
        raise ArithmeticError("division was not exact")
    return out


def phi_factor_indices(k: int, b: int) -> list[int]:
    """Indices d with Phi_k(x^b) = prod_d Phi_d(x).

    A root x of Phi_k(x^b) is a root of unity whose b-th power has exact
    order k, i.e. x has order d where d | kb and d / gcd(d, b) = k.  The
    factorization is squarefree, so multiplicities are all one.
    """
    out = [d for d in divisors(k * b) if d // gcd(d, b) == k]
    if sum(euler_phi(d) for d in out) != b * euler_phi(k):
        raise ArithmeticError(f"Phi_{k}(x^{b}) factors do not add up to its degree")
    return out
