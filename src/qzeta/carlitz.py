"""Bernoulli-Carlitz fractions and their Hurwitz / Dirichlet-character
generalizations, with machine verification of the identities relating
them to the q-zeta operators.

The fractions beta_n in Q(q) are defined by Carlitz's recurrence
q(q beta + 1)^n - beta_n = [n = 1] under the symbolic convention
beta^i = beta_i; rearranged, each step is a division by q^(n+1) - 1,
exact in Q(q).  Their value at q = 1 is the classical Bernoulli number
B_n (convention B_1 = -1/2), which serves as an independent oracle.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, inf

from .arith import int_poly_add
from .characters import DirichletCharacter
from .operators import (
    CheckReport,
    DomainError,
    OperatorSpec,
    apply_series,
    _chi_scalar,
    _delta,
    _geometric,
    _hurwitz_x,
    _is_identity,
)
from .poly import Poly, add_lanes, branch_var, divide_out_cyclotomic
from .quantum import quantum_value
from .ratfunc import CycloFrac, RatFunc, raise_to_union
from .series import series_from_ratfunc

_EXACT_BACKENDS = {"geometric": _geometric, "delta": _delta}


@dataclass(frozen=True)
class BetaFraction:
    """beta_n as a reduced rational function of q."""

    n: int
    value: RatFunc

    def factored_denominator(self) -> list[tuple[int, int]]:
        """The reduced denominator as cyclotomic factors (index, multiplicity),
        found by trial division by Phi_k for k <= n + 1."""
        limits = dict.fromkeys(range(1, self.n + 2), inf)
        den, out = divide_out_cyclotomic(self.value.den, limits)
        if not den.is_one():
            raise ArithmeticError(
                f"denominator of beta_{self.n} has a non-cyclotomic factor {den}"
            )
        return out

    def __str__(self):
        return f"beta_{self.n} = {self.value}"


@dataclass(frozen=True)
class BetaPolynomial:
    """The q-Bernoulli polynomial beta_n(x), a rational function in
    v = q^(1/branch) for x = a/branch."""

    n: int
    x: Fraction
    branch: int
    value: RatFunc

    def __str__(self):
        return f"beta_{self.n}({self.x}) = {self.value}"


@dataclass(frozen=True)
class BetaChi:
    """The character analogue beta_{chi,n}; coefficients lie in Q(zeta_m)
    for m the order of chi, hence in Q for real characters.  ``cf`` is the
    same value in reduced cyclotomic form, which verify_chi compares."""

    chi: DirichletCharacter
    n: int
    value: RatFunc
    cf: CycloFrac = field(compare=False, repr=False)

    def __str__(self):
        return f"beta_(chi mod {self.chi.modulus} #{self.chi.index}),{self.n} = {self.value}"


# ---------------------------------------------------------------------------
# the beta table
# ---------------------------------------------------------------------------

_table_lock = threading.Lock()
_beta_cf: list[CycloFrac] = []  # reduced, numerator + cyclotomic denominator
_beta_rf: list[RatFunc] = []


def _extend_beta_table(n: int) -> None:
    with _table_lock:
        if not _beta_cf:
            one = CycloFrac(1)
            _beta_cf.append(one)
            _beta_rf.append(RatFunc.one())
        while len(_beta_cf) <= n:
            k = len(_beta_cf)
            acc = _beta_sum(k, upto=k - 1)
            rhs = -acc.shift(1)  # -q * sum
            if k == 1:
                rhs = rhs + CycloFrac(1)
            bk = rhs.div_pow_one_minus_var_pow(k + 1, 1).reduce()
            _beta_cf.append(bk)
            _beta_rf.append(bk.to_ratfunc())


def _beta_sum(n: int, upto: int) -> CycloFrac:
    """sum_{i <= upto} C(n, i) q^i beta_i over one common cyclotomic denominator."""
    return CycloFrac.sum(
        _beta_cf[i].shift(i).times_scalar(comb(n, i)) for i in range(upto + 1)
    )


def beta(n: int) -> BetaFraction:
    """The n-th Bernoulli-Carlitz fraction.

    >>> beta(1).value
    RatFunc('(-1) / (1 + q)')
    """
    if n < 0:
        raise ValueError("beta index must be >= 0")
    _extend_beta_table(n)
    return BetaFraction(n, _beta_rf[n])


_bern_lock = threading.Lock()
_bern: list[Fraction] = [Fraction(1)]


def bernoulli_number(n: int) -> Fraction:
    """Classical Bernoulli number B_n via sum_{i<=n} C(n+1, i) B_i = 0.

    The convention is B_1 = -1/2, matching the value of beta_1 at q = 1.
    This recurrence is independent of the Carlitz recurrence and is used
    as the oracle for the q = 1 specialization.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    with _bern_lock:
        while len(_bern) <= n:
            k = len(_bern)
            acc = sum(comb(k + 1, i) * _bern[i] for i in range(k))
            _bern.append(Fraction(-acc, k + 1))
    return _bern[n]


# ---------------------------------------------------------------------------
# generating-function functional equation
# ---------------------------------------------------------------------------


def genfun_check(order: int) -> CheckReport:
    """Check B(t) = q e^t B(qt) + 1 - q - t coefficient-wise through t^order.

    Both sides are exponential series (coefficients of t^n / n!); the
    coefficient of t^n/n! on the right is q sum_i C(n,i) q^i beta_i plus
    (1-q) at n = 0 and -1 at n = 1.  All differences must vanish exactly.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    _extend_beta_table(order)
    edge = {0: Poly([1, -1]), 1: Poly([-1])}  # the 1 - q and the -t of the right side
    items = []
    for n in range(order + 1):
        rhs = [_beta_sum(n, upto=n).shift(1), CycloFrac(edge.get(n, 0))]
        items.append((f"t^{n}", _is_identity(rhs, _beta_cf[n])))
    passed = all(ok for _, ok in items)
    return CheckReport(f"generating-function equation through t^{order}", passed, items)


# ---------------------------------------------------------------------------
# Theorem: beta_n = zeta_q(1-n) (q - (n+1) q^2)
# ---------------------------------------------------------------------------


def _check_relation(
    name: str, lhs: CycloFrac, spec: OperatorSpec, backend: str, series_order: int
) -> CheckReport:
    """Compare lhs with spec(q - (n+1) q^2), s = 1 - n, by one backend: exactly
    for geometric and delta, by a zero numerator over the common denominator
    of lhs and the unreduced operator value, and through ``series_order`` for
    series, on the reduced lhs."""
    P = Poly([0, 1, spec.s - 2])
    if backend in _EXACT_BACKENDS:
        ok = _is_identity([_EXACT_BACKENDS[backend](spec, P)], lhs)
    elif backend == "series":
        rhs_series = apply_series(spec, P, series_order)
        ok = series_from_ratfunc(lhs.to_ratfunc(), series_order, spec.branch) == rhs_series
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return CheckReport(name, ok)


def verify_theorem(n: int, backend: str = "geometric", series_order: int = 60) -> CheckReport:
    """Check beta_n = zeta_q(1-n)(q - (n+1) q^2) for n >= 2 with one backend.

    The exact backends (geometric, delta) compare rational functions;
    the series backend compares expansions through ``series_order``.
    """
    if n < 2:
        raise DomainError("the Euler-type relation is stated for n >= 2")
    name = f"beta_{n} = zeta_q({1 - n})(q - {n + 1}q^2) [{backend}]"
    spec = OperatorSpec.riemann(1 - n)
    _extend_beta_table(n)
    return _check_relation(name, _beta_cf[n], spec, backend, series_order)


# ---------------------------------------------------------------------------
# q-Bernoulli polynomials and the Hurwitz relation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _branch_basis(n: int, b: int) -> tuple:
    """``raise_to_union`` (raised as tuples, den, m = 1, union) of the terms
    C(n,i) beta_i(v^b) / (v^b - 1)^(n-i), i <= n, shared by every x = a/b."""
    _extend_beta_table(n)
    terms = [_beta_cf[i].scale_exponents(b, branch_var(b)).times_scalar(comb(n, i))
             .div_pow_one_minus_var_pow(b, n - i) for i in range(n + 1)]
    raised, den, m, union = raise_to_union(terms)
    return tuple(tuple(lane) for (lane,) in raised), den, m, union  # one lane each, over Q


@lru_cache(maxsize=None)
def _beta_poly_cf(n: int, x: Fraction) -> CycloFrac:
    """(q^x beta + [x])^n = sum_i C(n,i) q^(xi) [x]^(n-i) beta_i on branch
    b = denominator of x: sum_i v^(ai) (v^a - 1)^(n-i) times ``_branch_basis``
    term i, added as shifts.  Cached per (n, x): its callers never mutate it."""
    a, b = x.numerator, x.denominator
    lanes, den, m, union = _branch_basis(n, b)
    out = []
    for i, lane in enumerate(lanes):
        for j in range(n - i + 1):
            int_poly_add(out, lane, a * (i + j), (-1) ** (n - i - j) * comb(n - i, j))
    return CycloFrac(Poly.from_lanes([out], den, m, branch_var(b)), union)


def beta_poly(n: int, x) -> BetaPolynomial:
    """The q-Bernoulli polynomial beta_n(x) for rational x > 0, exact on
    branch b = denominator of x; at integral arguments it reduces to a
    rational function of q alone.

    >>> beta_poly(0, Fraction(1, 2)).value
    RatFunc('1')
    """
    x = _hurwitz_x(x)
    if n < 0:
        raise ValueError("index must be >= 0")
    return BetaPolynomial(n, x, x.denominator, _beta_poly_cf(n, x).to_ratfunc())


def verify_hurwitz(
    n: int, x, backend: str = "geometric", series_order: int = 40
) -> CheckReport:
    """Check q^x beta_n(x) = zeta_q(1-n, x)(q - (n+1) q^2) exactly.

    The relation is stated for n >= 0, but n = 0 needs s = 1 > 0, which has
    no exact rational evaluation; that case is reported as outside exact
    mode rather than silently skipped.
    """
    x = _hurwitz_x(x)
    if n < 0:
        raise ValueError("index must be >= 0")
    name = f"q^x beta_{n}({x}) = zeta_q({1 - n}, {x})(q - {n + 1}q^2) [{backend}]"
    if n == 0:
        return CheckReport(
            name, None, note="s = 1 - n = 1 > 0: series/numeric mode only"
        )
    lhs = _beta_poly_cf(n, x).shift(x.numerator)
    spec = OperatorSpec.hurwitz(1 - n, x)
    return _check_relation(name, lhs, spec, backend, series_order)


# ---------------------------------------------------------------------------
# character analogues
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _chi_basis(N: int, n: int) -> tuple:
    """The units j mod N, then ``raise_to_union`` (raised, den, m = 1, union)
    of the terms F_N(q^(j/N) beta_n(j/N)) [N]^(n-1), in which no chi enters."""
    units = [j for j in range(1, N) if gcd(j, N) == 1]
    bracket = quantum_value(N, 1).num ** max(n - 1, 0)  # [N] as a polynomial in q
    terms = []
    for j in units:  # q^(j/N) = v^j on branch N, and F_N relabels v as q
        term = _beta_poly_cf(n, Fraction(j, N)).scale_exponents(1, "q").shift(j)
        if n:
            terms.append(term.times_poly(bracket))
        else:  # [N]^(-1) = (q - 1)/(q^N - 1): Phi_d for d | N, d > 1
            terms.append(term.div_pow_one_minus_var_pow(N, 1))
            terms[-1].phi[1] -= 1
    raised, den, m, union = raise_to_union(terms)
    return units, list(raised), den, m, union


@lru_cache(maxsize=None)
def beta_chi(chi: DirichletCharacter, n: int) -> BetaChi:
    """beta_{chi,n} = sum_{0<=j<N} chi(j) (F_N/[N]^(1-n)) (q^(j/N) beta_n(j/N)).

    Terms with gcd(j, N) > 1 vanish with chi(j); for the others the inner
    value lives on branch N, F_N turns it into a rational function of q
    (q^(j/N) -> q^j, inner coefficients q -> q^N), and the result is
    weighted by [N]^(n-1) and chi(j).  The terms come raised from the basis
    ``_chi_basis``, cached per (N, n) over ``_beta_poly_cf`` per (n, x), and
    add as lanes weighted by chi(j)'s coordinates.  Cached per (chi, n).
    """
    if chi.is_trivial():
        raise DomainError("beta_chi assumes a non-trivial character")
    if n < 0:
        raise ValueError("index must be >= 0")
    units, raised, den, _, union = _chi_basis(chi.modulus, n)
    w = Poly([_chi_scalar(chi, j) for j in units])
    num = Poly.from_lanes(add_lanes(raised, list(zip(*w.lanes))), den * w.den, w.m, "q")
    cf = CycloFrac(num, union).reduce()
    return BetaChi(chi, n, cf.to_ratfunc(), cf)


def verify_chi(chi: DirichletCharacter, n: int, backend: str = "geometric") -> CheckReport:
    """Check beta_{chi,n} = L_q(chi, 1-n)(q - (n+1) q^2) exactly (n >= 1).

    Like the Hurwitz relation, n = 0 needs s = 1 and is reported as
    outside exact mode.
    """
    if chi.is_trivial():
        raise DomainError("verify_chi assumes a non-trivial character")
    name = (
        f"beta_(chi mod {chi.modulus} #{chi.index}),{n} = "
        f"L_q(chi, {1 - n})(q - {n + 1}q^2) [{backend}]"
    )
    if n == 0:
        return CheckReport(
            name, None, note="s = 1 - n = 1 > 0: series/numeric mode only"
        )
    lhs = beta_chi(chi, n).cf
    spec = OperatorSpec.dirichlet_l(1 - n, chi)
    return _check_relation(name, lhs, spec, backend, 40)
