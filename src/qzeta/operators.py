"""q-deformed Dirichlet-series operators at non-positive integers.

Three independent exact backends evaluate the same operator:

* ``apply_geometric`` expands [k+x]^m by the binomial theorem and sums
  each geometric piece in closed form, over one denominator;
* ``apply_delta`` realizes the value as an iterated q-difference of the
  periodic generating function f(r) = sum a_n q^{nr}, evaluated at w = q^r;
* ``apply_series`` sums the definition in truncated series space, exact
  through the truncation order because the n-th term has q-valuation at
  least n; as [c/b]^m = (1 - v^c)^m / (1 - v^b)^m, it adds one sparse
  numerator over all indices and divides it once by (1 - v^b)^m.

All three read the operator from one index set, ``_kernel``: the
Dirichlet coefficients 1, the Hurwitz shift x, or chi(n), as the
generating function sum_a c_a w^a / (1 - w^M).  The exact values also
come unreduced (``_geometric``, ``_delta``); every exact identity check,
here and in ``carlitz``, decides on that cyclotomic form with
``_is_identity`` (a zero numerator over the common denominator).

Exact mode is restricted to integer s <= 0, where [n]^(-s) is a
polynomial; general complex s is served by the clearly-separated
floating-point ``numeric_apply``.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import lcm, pi

from .arith import divisors, int_div_pow_minus_one, int_poly_add, prefix_sum, primes_upto
from .characters import DirichletCharacter
from .fields import exact_rational
from .poly import Poly, branch_var, common_m
from .quantum import quantum_value
from .ratfunc import CycloFrac, RatFunc, _phi_product
from .series import TruncSeries


class DomainError(ValueError):
    """An argument is outside the operator's domain."""


class ConvergenceError(ArithmeticError):
    """The numeric mode could not certify the requested tolerance."""


@dataclass(frozen=True)
class OperatorSpec:
    """Which operator to apply: Riemann, Hurwitz(x), or Dirichlet-L(chi).

    Exact mode requires an integer s <= 0 so that [n]^(-s) is polynomial.
    """

    s: int
    x: Fraction | None = None
    chi: DirichletCharacter | None = None

    @classmethod
    def riemann(cls, s: int) -> "OperatorSpec":
        return cls(_check_exact_s(s))

    @classmethod
    def hurwitz(cls, s: int, x) -> "OperatorSpec":
        return cls(_check_exact_s(s), x=_hurwitz_x(x))

    @classmethod
    def dirichlet_l(cls, s: int, chi: DirichletCharacter) -> "OperatorSpec":
        return cls(_check_exact_s(s), chi=chi)

    @property
    def kind(self) -> str:
        if self.x is not None:
            return "hurwitz"
        if self.chi is not None:
            return "dirichlet"
        return "riemann"

    @property
    def branch(self) -> int:
        return self.x.denominator if self.x is not None else 1

    def __str__(self):
        if self.kind == "hurwitz":
            return f"zeta_q({self.s}, {self.x})"
        if self.kind == "dirichlet":
            return f"L_q(chi mod {self.chi.modulus} #{self.chi.index}, {self.s})"
        return f"zeta_q({self.s})"


@dataclass(frozen=True)
class ApplyResult:
    """Exact operator value: a rational function in v = q^(1/branch)."""

    value: RatFunc
    branch: int
    backend: str


@dataclass
class CheckReport:
    """Outcome of one identity verification; passed=None marks a case that
    exact mode cannot express (reported, never silently skipped)."""

    name: str
    passed: bool | None
    items: list[tuple[str, bool]] = field(default_factory=list)
    note: str = ""

    def __bool__(self):
        return self.passed is True

    def summary(self) -> str:
        status = {True: "PASS", False: "FAIL", None: "SKIP"}[self.passed]
        extra = f" ({self.note})" if self.note else ""
        return f"{status} {self.name}{extra}"


def _check_exact_s(s: int) -> int:
    if not isinstance(s, int) or isinstance(s, bool):
        raise DomainError("exact mode needs an integer s")
    if s > 0:
        raise DomainError(f"s = {s} > 0 is unsupported in exact mode")
    return s


def _hurwitz_x(x) -> Fraction:
    """x as a positive Fraction; float and complex x raise TypeError."""
    if (x := exact_rational(x, "x")) <= 0:
        raise DomainError("Hurwitz parameter x must be a positive rational")
    return x


def _check_operand(P: Poly) -> Poly:
    if not isinstance(P, Poly):
        raise TypeError("operator operand must be a Poly")
    if P.constant_term():
        raise DomainError("operand has a constant term; the operator domain is q*C[[q]]")
    return P


def _chi_scalar(chi: DirichletCharacter, n: int):
    v = chi(n)
    return int(v.rational()) if chi.is_real() else v


# ---------------------------------------------------------------------------
# geometric backend
# ---------------------------------------------------------------------------


def apply_geometric(spec: OperatorSpec, P: Poly) -> ApplyResult:
    """Closed-form evaluation via binomial expansion and geometric sums.

    For a monomial q^r the three operator kinds give, with s = -m,

      Riemann:    (q-1)^-m sum_j C(m,j)(-1)^(m-j) q^(j+r) / (1 - q^(j+r))
      Hurwitz x:  (q-1)^-m sum_j C(m,j)(-1)^(m-j) q^(x(j+r)) / (1 - q^(j+r))
      L(chi):     (q-1)^-m sum_j C(m,j)(-1)^(m-j)
                    sum_{u<=N} chi(u) q^(u(j+r)) / (1 - q^(N(j+r)))

    collected by exponent e = j + r, assembled exactly over cyclotomic
    denominators and reduced at the end.
    """
    _check_operand(P)
    return ApplyResult(_geometric(spec, P).reduce().to_ratfunc(), spec.branch, "geometric")


def _geometric(spec: OperatorSpec, P: Poly) -> CycloFrac:
    """apply_geometric's value on branch spec.branch, unreduced.  The pieces
    w sum_a c_a v^(a e) / (1 - v^(M e)) add over one denominator, the union U
    of the Phi_d for d | M e: piece e's cofactor is prod U / (1 - v^(M e)),
    one strided prefix sum, and the pieces add as shifted lanes of it."""
    m, b = -spec.s, spec.branch
    coeffs, M = _kernel(spec)
    kernel = Poly([coeffs.get(a, 0) for a in range(max(coeffs) + 1)])
    # the weight of q^e is the coefficient of q^e in P(q) (q - 1)^m
    pieces = [(e, kernel.scale(w)) for e, w in enumerate((P * Poly([-1, 1]) ** m).coeffs) if w]
    union = dict.fromkeys(set().union(*(divisors(M * e) for e, _ in pieces)), 1)
    L = _phi_product(union)
    den = lcm(*(g.den for _, g in pieces))
    lanes = [[] for _ in range(max((len(g.lanes) for _, g in pieces), default=1))]
    for e, g in pieces:
        cofactor = int_div_pow_minus_one(L, M * e)  # -prod U / (1 - v^(M e))
        for lane, out in zip(g.lanes, lanes):
            for a, c in enumerate(lane):
                if c:
                    int_poly_add(out, cofactor, a * e, -c * (den // g.den))
    num = Poly.from_lanes(lanes, den, common_m(g for _, g in pieces), branch_var(b))
    return CycloFrac(num, union).div_pow_one_minus_var_pow(b, m)


def _kernel(spec: OperatorSpec) -> tuple[dict[int, object], int]:
    """The operator's index set as ({a: c_a}, M) for the generating function
    sum_a c_a w^a / (1 - w^M), in units of 1/branch: the Dirichlet
    coefficient of index n + x sits at w^(branch (n + x))."""
    if spec.kind == "hurwitz":
        return {spec.x.numerator: 1}, spec.x.denominator
    if spec.kind == "dirichlet":
        N = spec.chi.modulus
        return {u: c for u in range(1, N + 1) if (c := _chi_scalar(spec.chi, u))}, N
    return {1: 1}, 1


# ---------------------------------------------------------------------------
# delta backend
# ---------------------------------------------------------------------------


def _delta_numerators(kernel, m: int, var: str):
    """Numerators a_j(v) of Delta^m f for f = sum_a c_a w^a / (1 - w^M), in
    w = q^(r/b) and v = q^(1/b).  Every Delta^k f has the denominator
    (v^b - 1)^k prod_{i<=k} (1 - v^(iM) w^M), so a step, Delta f(w) =
    (f(vw) - f(w)) / (q - 1), only updates the numerators,

        a'_j = (v^j - 1) a_j + (v^((k+1)M) - v^(j-M)) a_(j-M),

    and 1/(q - 1) = 1/(v^b - 1) joins the denominator.  Being Q-linear, it runs
    on the c_a's lanes: (lanes, den, cond, var), a_j = sum_i zeta^i lanes[i][j]/den."""
    coeffs, M = kernel
    values = Poly([coeffs.get(j, 0) for j in range(max(coeffs) + 1)])
    lanes = []
    for lane in values.lanes:
        nums = [[c] for c in lane]
        for k in range(m):
            out = [[] for _ in range(len(nums) + M)]
            for j, a in enumerate(nums):
                int_poly_add(out[j], a, j, 1)
                int_poly_add(out[j], a, 0, -1)
                int_poly_add(out[j + M], a, (k + 1) * M, 1)
                int_poly_add(out[j + M], a, j, -1)
            nums = out
        lanes.append(nums)
    return lanes, values.den, values.m, var


def _delta_at(nums, M: int, b: int, m: int, r: int) -> CycloFrac:
    """Delta^m f at w = v^r: sum_j a_j v^(rj) over
    (v^b - 1)^m prod_{i<=m} (1 - v^((i+r)M)), for nums from _delta_numerators."""
    lanes, den, cond, var = nums
    values = [[] for _ in lanes]
    for lane, total in zip(lanes, values):
        for j, a in enumerate(lane):
            int_poly_add(total, a, r * j, 1)
    out = CycloFrac(Poly.from_lanes(values, den, cond, var)).div_pow_one_minus_var_pow(b, m)
    for i in range(m + 1):
        out = out.div_one_minus((i + r) * M)
    return out


def apply_delta(spec: OperatorSpec, P: Poly) -> ApplyResult:
    """Evaluate through m = -s applications of the q-difference Delta to the
    operator's periodic generating function, then substitute w = q^r for
    every monomial of P.  Agrees with apply_geometric exactly."""
    _check_operand(P)
    return ApplyResult(_delta(spec, P).reduce().to_ratfunc(), spec.branch, "delta")


def _delta(spec: OperatorSpec, P: Poly) -> CycloFrac:
    """apply_delta's value on branch spec.branch, unreduced."""
    m, b, var, kernel = -spec.s, spec.branch, branch_var(spec.branch), _kernel(spec)
    nums = _delta_numerators(kernel, m, var)
    values = (_delta_at(nums, kernel[1], b, m, r).times_scalar(c)
              for r, c in enumerate(P.coeffs) if c)
    return CycloFrac.sum(values, var)


# ---------------------------------------------------------------------------
# series backend
# ---------------------------------------------------------------------------


def apply_series(spec: OperatorSpec, P: Poly, order: int) -> TruncSeries:
    """Direct truncated summation of the defining series.

    ``order`` is the truncation degree in v on the operator's branch.  The
    k-th term has valuation at least k there, so the finite sum is exact
    through ``order``.
    """
    m = -spec.s
    _check_operand(P)
    if order < 1:
        raise DomainError("series order must be >= 1")
    kernel, M = _kernel(spec)
    groups = [(c_a, range(a, order + 1, M)) for a, c_a in kernel.items()]
    value = _bracket_sum(P, groups, spec.branch, m, order)
    return TruncSeries.from_poly(value, order, spec.branch)


def _bracket_sum(P: Poly, groups, b: int, m: int, order: int) -> Poly:
    """sum of k [c/b]^m P(v^c) over the groups (k, cs), cs ascending, through
    v^order.  As [c/b] = (1 - v^c)/(1 - v^b), it is one numerator
    sum k (1 - v^c)^m P(v^c), which has O(order/c) terms for each c, added
    on the integer lanes of each k W, W = P (1 - v)^m, over their common
    denominator, and divided once by (1 - v^b)^m in m strided prefix sums
    on each lane."""
    W = P * Poly([1, -1]) ** m
    parts = [(W.scale(k), cs) for k, cs in groups]
    den = lcm(*(kW.den for kW, _ in parts))
    lanes = [[0] * (order + 1) for _ in range(max(len(kW.lanes) for kW, _ in parts))]
    for kW, cs in parts:
        for lane, out in zip(kW.lanes, lanes):
            for e, w in enumerate(lane):
                if w:
                    w *= den // kW.den
                    for c in cs:
                        if c * e > order:
                            break
                        out[c * e] += w
    for lane in lanes:
        for _ in range(m):
            prefix_sum(lane, b)
    return Poly.from_lanes(lanes, den, common_m([kW for kW, _ in parts]), branch_var(b))


# ---------------------------------------------------------------------------
# Euler product
# ---------------------------------------------------------------------------


def euler_product_apply(s: int, P: Poly, prime_bound: int, order: int) -> TruncSeries:
    """Expand prod_{p <= prime_bound} (1 - F_p/[p]^s)^(-1) applied to P.

    Each local factor is the geometric operator series sum_e (F_p/[p]^s)^e,
    and the e-th power collapses to F_{p^e}/[p^e]^s by the commutation
    rule; only p^e <= order contributes below the truncation.  With
    prime_bound < 2 the product is empty and P itself is returned,
    truncated.  Equals the direct series restricted to prime_bound-smooth
    indices.
    """
    m = -_check_exact_s(s)
    _check_operand(P)
    if order < 1:
        raise DomainError("series order must be >= 1")
    value = Poly(P, "q").truncate(order)
    for p in primes_upto(prime_bound):
        powers = [p ** e for e in range(1, order.bit_length()) if p ** e <= order]
        value += _bracket_sum(value.truncate(order // p), [(1, powers)], 1, m, order)
    return TruncSeries.from_poly(value, order)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def check_commute(m: int, n: int, s: int, r_max: int) -> CheckReport:
    """Verify (F_m/[m]^s)(F_n/[n]^s) q^r = F_{mn}/[mn]^s q^r for r <= r_max."""
    if m < 1 or n < 1:
        raise DomainError("commutation check needs m, n >= 1")
    t = -_check_exact_s(s)
    bm = quantum_value(m, 1).num ** t
    bn = quantum_value(n, 1).num ** t
    bmn = quantum_value(m * n, 1).num ** t
    items = []
    for r in range(1, r_max + 1):
        inner = bn * Poly.monomial(n * r)
        lhs = bm * inner.scale_exponents(m)
        rhs = bmn * Poly.monomial(m * n * r)
        items.append((f"r={r}", lhs == rhs))
    passed = all(ok for _, ok in items)
    return CheckReport(f"commute m={m} n={n} s={s}", passed, items)


def check_distribution(N: int, x, s: int, r: int) -> CheckReport:
    """Distribution relation: sum_{0<=j<N} (F_N/[N]^s) zeta_q(s,(x+j)/N) q^r
    equals zeta_q(s, x) q^r, exactly."""
    if N < 1:
        raise DomainError("distribution check needs N >= 1")
    if r < 1:
        raise DomainError("distribution check needs r >= 1")
    x = _hurwitz_x(x)
    t = -_check_exact_s(s)
    P = Poly.monomial(r)
    inner_branch = x.denominator * N
    var = branch_var(inner_branch)
    bracket_t = quantum_value(N, 1, var).num.scale_exponents(inner_branch) ** t
    terms = []
    for j in range(N):
        inner_spec = OperatorSpec.hurwitz(s, (x + j) / N)
        # (x+j)/N may reduce: rebase to the common branch B*N, then apply F_N
        # (scaling exponents by k re-expresses on a k-times finer branch)
        k = inner_branch // inner_spec.branch * N
        terms.append(_geometric(inner_spec, P).scale_exponents(k, var).times_poly(bracket_t))
    rhs = _geometric(OperatorSpec.hurwitz(s, x), P).scale_exponents(N, var)
    ok = _is_identity(terms, rhs)
    return CheckReport(f"distribution N={N} x={x} s={s} r={r}", ok, [(f"r={r}", ok)])


def check_chi_decomposition(chi: DirichletCharacter, s: int, r: int) -> CheckReport:
    """L_q(chi, s) q^r = sum_{0<=j<N} chi(j) (F_N/[N]^s) zeta_q(s, j/N) q^r.

    The j = 0 term vanishes since chi(0) = 0 for N > 1, so the Hurwitz
    parameters stay positive.
    """
    N = chi.modulus
    if chi.is_trivial():
        raise DomainError("the L-decomposition assumes a non-trivial character")
    t = -_check_exact_s(s)
    if r < 1:
        raise DomainError("decomposition check needs r >= 1")
    P = Poly.monomial(r)
    var = branch_var(N)
    bracket_t = quantum_value(N, 1, var).num.scale_exponents(N) ** t
    terms = []
    for j in range(1, N):
        cj = _chi_scalar(chi, j)
        if not cj:
            continue
        # gcd(j, N) = 1 here, so j/N is already in lowest terms: branch N
        inner = _geometric(OperatorSpec.hurwitz(s, Fraction(j, N)), P)
        terms.append(inner.scale_exponents(N, var).times_poly(bracket_t).times_scalar(cj))
    lhs = _geometric(OperatorSpec.dirichlet_l(s, chi), P).scale_exponents(N, var)
    ok = _is_identity(terms, lhs)
    return CheckReport(
        f"L-decomposition chi mod {N} #{chi.index} s={s} r={r}", ok, [(f"r={r}", ok)]
    )


def _is_identity(terms: list[CycloFrac], total: CycloFrac) -> bool:
    """sum(terms) == total, decided by a zero numerator over their common denominator."""
    return CycloFrac.sum([*terms, -total], total.num.var).is_zero()


# ---------------------------------------------------------------------------
# numeric mode
# ---------------------------------------------------------------------------


def numeric_apply(
    s: complex,
    q0: complex,
    P: Poly,
    eps: float,
    x=None,
    chi: DirichletCharacter | None = None,
    max_terms: int = 200_000,
) -> complex:
    """Floating-point evaluation for general complex s, |q0| < 1.

    Sums a_n P(q0^(n+x)) / [n+x]^s with [y]^s = exp(s Log [y]) on the
    principal branch, stopping once the rigorous geometric tail bound

        |tail(K)| <= C * M * |q0|^(K+1+x) / (1 - |q0|)

    (C from P's coefficient magnitudes, M from bounds on |[y]| over the
    tail) plus a running rounding estimate falls below eps.  The estimate
    is first order (Higham, ch. 3-4) with assumed ulp constants for each
    cmath exp and log, which CPython does not document, so it is not
    rigorous.  Raises ConvergenceError after max_terms rather than return
    a silently unconverged answer, and DomainError once the tail is below
    eps but the estimate is not.
    """
    _check_operand(P)
    if x is not None and chi is not None:
        raise DomainError("specify at most one of x and chi")
    aq = abs(q0)
    if aq >= 1:
        raise DomainError("numeric mode requires |q0| < 1")
    if eps <= 0:
        raise DomainError("eps must be positive")
    x = Fraction(x) if x is not None else None
    if x is not None and x <= 0:
        raise DomainError("Hurwitz parameter x must be positive")
    q0 = complex(q0)
    s = complex(s)
    coeff_mags = [abs(complex(Fraction(c))) for c in P.coeffs]
    C = sum(coeff_mags)
    denom = abs(q0 - 1)
    lo = (1 - aq) / denom
    hi = 2 / denom
    mag = max(lo ** (-s.real), hi ** (-s.real))
    M = mag * cmath.exp(abs(s.imag) * pi).real
    xf = float(x) if x is not None else 0.0
    u, lq, err = 2.0**-53, abs(cmath.log(q0)), 0.0  # unit roundoff, |Log q0|, bound
    total = 0j
    for terms in count():
        n = terms if x is not None else terms + 1
        tail = C * M * aq ** (n + xf) / (1 - aq)
        if terms and tail < eps <= err:
            raise DomainError(f"eps={eps:.3e} is not above the rounding bound {err:.3e}")
        if terms and tail + err < eps:
            return total
        if terms >= max_terms:
            raise ConvergenceError(f"tail bound {tail:.3e} + rounding bound {err:.3e} "
                                   f"still above eps={eps:.3e} after {terms} terms")
        y = n + xf
        qy = cmath.exp(y * cmath.log(q0)) if y != int(y) else q0 ** int(y)
        if x is None and chi is not None:
            a_n = complex(chi(n).to_complex())
            e_a = 8 * u * chi.modulus * float(sum(map(abs, chi(n).coords)))
        else:
            a_n, e_a = 1.0, 0.0
        if a_n != 0:
            bracket = (qy - 1) / (q0 - 1)
            weight = cmath.exp(-s * cmath.log(bracket)) if s != 0 else 1.0
            total += a_n * P(qy) * weight
            # relative errors of q0^y (by powering or by exp of y Log q0),
            # [y] and [y]^-s (s times Log's error), all against the term's
            # size with |P(q0^y)| replaced by sum |c_i| |q0^y|^i for Horner
            e_q = 4 * u * (y * (1 + lq) + 2)
            e_b = (e_q * abs(qy) + 2 * u) / abs(qy - 1) + 8 * u
            e_w = abs(s) * (e_b + 8 * u * abs(cmath.log(bracket))) + 4 * u
            e_p = (4 * P.degree + 11) * u + P.degree * e_q
            size = abs(a_n * weight) * sum(c * abs(qy) ** i for i, c in enumerate(coeff_mags))
            err += size * (e_a + e_w + e_p) + u * abs(total)
