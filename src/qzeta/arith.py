"""Elementary integer arithmetic shared across the package, including the
polynomial kernels on integer coefficient lists (lowest degree first) that
``poly``, ``fields`` and ``roots`` share, among them reduction modulo Phi_m
and the Galois norm, and the square-and-multiply of the exact types' powers;
it imports nothing from the package.

Everything here is deterministic, exact, and cheap at the scales the
library targets (moduli and cyclotomic indices in the low hundreds).
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, lcm


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


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, lowest first.

    Computed by the exact recursion x^n - 1 = prod_{d | n} Phi_d: divide
    x^n - 1 by the product of Phi_d over proper divisors d.  Cached.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d == n:
            continue
        num, rem = int_poly_divmod_monic(num, cyclotomic_int_coeffs(d))
        if any(rem):
            raise ArithmeticError("division was not exact")
    return tuple(num)


def clear_denominators(cs) -> tuple[list[int], int]:
    """Integers and their common denominator for the rationals cs:
    cs[i] == ints[i] / den, with den the least common denominator."""
    den = 1
    for c in cs:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in cs], den


def power(base, n: int, one):
    """base ** n for an integer n >= 0 by square-and-multiply, from one."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def int_poly_mul(a, b) -> list[int]:
    """Product of two nonempty integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def int_poly_add(out: list[int], a, k: int, c: int) -> None:
    """out += c * x^k * a in place, growing out as needed."""
    out.extend([0] * (k + len(a) - len(out)))
    for i, x in enumerate(a):
        out[k + i] += c * x


def prefix_sum(ys: list[int], k: int) -> list[int]:
    """ys / (1 - x^k) through ys's length: ys_i += ys_(i-k), in place."""
    for i in range(k, len(ys)):
        ys[i] += ys[i - k]
    return ys


def int_div_pow_minus_one(num, k: int) -> list[int]:
    """num / (x^k - 1), exactly: a nonzero remainder raises ArithmeticError."""
    ys, cut = prefix_sum([-c for c in num], k), max(len(num) - k, 0)
    if any(ys[cut:]):
        raise ArithmeticError(f"x^{k} - 1 does not divide the polynomial")
    return ys[:cut]


def int_poly_divmod_monic(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer coefficient lists by a monic den;
    the remainder is untrimmed, len(den) - 1 long unless num is shorter."""
    rem = list(num)
    dn = len(den) - 1
    quo = [0] * max(len(rem) - dn, 0)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c:
            quo[i - dn] = c
            for j in range(dn):  # den[dn] = 1 only cancels rem[i] itself
                rem[i - dn + j] -= c * den[j]
    return quo, rem[:dn]


def cyclotomic_reduce(ints, m: int, L: int = 1) -> list[int]:
    """ints modulo Phi_m(x^L), phi(m) * L long.  With zeta = x^L (Kronecker
    substitution) ints holds sum_i zeta^i lane_i(t), each lane shorter than
    L, and the reduction runs lane by lane on Phi_m's nonzero coefficients."""
    phi = cyclotomic_int_coeffs(m)
    top = (len(phi) - 1) * L
    taps = [(j * L - top, f) for j, f in enumerate(phi[:-1]) if f]
    out = list(ints) + [0] * max(top - len(ints), 0)
    for i in range(len(out) - 1, top - 1, -1):
        c = out[i]
        if c:
            for off, f in taps:
                out[i + off] -= c * f
    return out[:top]


def cyclotomic_norm(a, m: int, L: int = 1) -> tuple[list[int], list[int]]:
    """(conj, norm) for a in the form of cyclotomic_reduce: conj is the
    product of the Galois conjugates sigma_k(a) (zeta -> zeta^k) over the
    units k mod m other than 1, and norm = a * conj, a rational multiple of
    zeta^0 (its first lane).  L must exceed phi(m) times a's lane degree."""
    conj = [1]
    for k in range(2, m):
        if gcd(k, m) == 1:
            sigma = [0] * (m * L)
            for i, c in enumerate(a):  # lane i // L moves to lane (i // L) * k
                sigma[i // L * k % m * L + i % L] = c
            conj = cyclotomic_reduce(int_poly_mul(conj, sigma), m, L)
    return conj, cyclotomic_reduce(int_poly_mul(a, conj), m, L)


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
