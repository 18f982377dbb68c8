"""Bernoulli-Carlitz fractions and the verification pipelines."""
import hashlib
import sys
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest

from qzeta import carlitz, ratfunc
from qzeta.arith import euler_phi
from qzeta.carlitz import (
    BetaChi,
    bernoulli_number,
    beta,
    beta_chi,
    beta_poly,
    genfun_check,
    verify_chi,
    verify_hurwitz,
    verify_theorem,
)
from qzeta.characters import character, characters
from qzeta.fields import CycRat
from qzeta.operators import DomainError, OperatorSpec, apply_delta, apply_geometric
from qzeta.poly import Poly, branch_var, cyclotomic, poly_gcd
from qzeta.quantum import quantum_value
from qzeta.ratfunc import CycloFrac, RatFunc

# frozen from the classical recurrence sum C(n+1,i) B_i = 0, B_0 = 1
KNOWN_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def phi_product(*ks):
    out = Poly.one()
    for k in ks:
        out = out * cyclotomic(k)
    return out


def test_beta_first_values():
    assert beta(0).value == RatFunc.one()
    assert beta(1).value == RatFunc(Poly([-1]), phi_product(2))
    assert beta(2).value == RatFunc(Poly([0, 1]), phi_product(2, 3))
    assert beta(3).value == RatFunc(Poly([0, 1, -1]), phi_product(2, 3, 4))
    assert beta(4).value == RatFunc(Poly([0, 1, -1, -2, -1, 1]), phi_product(2, 3, 4, 5))


def test_factored_denominator():
    assert beta(4).factored_denominator() == [(2, 1), (3, 1), (4, 1), (5, 1)]
    assert beta(0).factored_denominator() == []


def test_bernoulli_known_values():
    for n, value in KNOWN_BERNOULLI.items():
        assert bernoulli_number(n) == value


@pytest.mark.parametrize("n", range(0, 31))
def test_beta_at_one_is_bernoulli(n):
    assert beta(n).value(1) == bernoulli_number(n)


@pytest.mark.parametrize("n", range(3, 31, 2))
def test_odd_values_vanish_at_one(n):
    assert beta(n).value(1) == 0


@pytest.mark.parametrize("n", range(2, 31))
def test_numerator_is_palindromic_up_to_sign(n):
    # with its power of q removed, the numerator of beta_n reads the same
    # backwards for even n and the same with opposite sign for odd n
    cs = list(beta(n).value.num.coeffs)
    while cs[0] == 0:
        cs.pop(0)
    sign = 1 if n % 2 == 0 else -1
    assert cs == [sign * c for c in reversed(cs)]


@pytest.mark.parametrize("n", range(0, 31))
def test_beta_matches_carlitz_explicit_formula(n):
    # beta_n = (1 - q)^(-n) sum_j (-1)^j C(n, j) (j + 1) / [j + 1]
    total = RatFunc.zero()
    for j in range(n + 1):
        weight = (-1) ** j * comb(n, j) * (j + 1)
        total = total + quantum_value(j + 1, 1).inverse() * weight
    assert beta(n).value == total / RatFunc(Poly([1, -1])) ** n


@pytest.mark.parametrize("n", range(1, 5))
def test_denominator_is_full_cyclotomic_product_small(n):
    assert beta(n).value.den == phi_product(*range(2, n + 2))


@pytest.mark.parametrize("n", range(5, 31))
def test_denominator_divides_cyclotomic_product(n):
    den = beta(n).value.den
    assert den.divides(phi_product(*range(2, n + 2)))
    assert not cyclotomic(1).divides(den)  # no pole at q = 1


def test_genfun_first_coefficients_by_hand():
    assert genfun_check(0).passed
    assert genfun_check(1).passed


def test_genfun_through_order_12():
    rep = genfun_check(12)
    assert rep.passed
    assert len(rep.items) == 13


def test_verify_theorem_domain():
    with pytest.raises(DomainError):
        verify_theorem(1)


@pytest.mark.parametrize("backend", ["geometric", "delta"])
def test_verify_theorem_exact(backend):
    for n in range(2, 11):
        assert verify_theorem(n, backend).passed, (n, backend)


def test_verify_theorem_series():
    for n in (2, 3, 7):
        assert verify_theorem(n, "series", series_order=50).passed


def test_beta_poly_index_zero():
    assert beta_poly(0, Fraction(1, 2)).value == RatFunc.one("v")


def test_beta_poly_one_by_binomial_expansion():
    # beta_1(x) = [x] - q^x / Phi_2(q);  at x = 1/2 on branch 2
    bp = beta_poly(1, Fraction(1, 2))
    bracket_half = RatFunc(Poly([1], "v"), Poly([1, 1], "v"))  # 1/(v+1)
    q_to_half_over_phi2 = RatFunc(Poly([0, 1], "v"), Poly([1, 0, 1], "v"))
    assert bp.value == bracket_half - q_to_half_over_phi2
    assert bp.branch == 2


def test_beta_poly_at_integer_x():
    bp = beta_poly(1, Fraction(1))
    assert bp.value == RatFunc.one() - RatFunc(Poly([0, 1]), Poly([1, 1]))
    assert bp.branch == 1


def test_beta_poly_formal_zero_reduces_to_beta():
    # the symbolic convention: with q^0 = 1 and [0] = 0 only the i = n term
    # of the binomial expansion survives, which is beta_n itself
    for n in (2, 3, 5):
        total = RatFunc.zero()
        for i in range(n + 1):
            bracket_zero_power = RatFunc.one() if i == n else RatFunc.zero()
            total = total + beta(i).value * comb(n, i) * bracket_zero_power
        assert total == beta(n).value


def test_beta_poly_domain():
    with pytest.raises(DomainError):
        beta_poly(2, Fraction(0))
    with pytest.raises(DomainError):
        beta_poly(2, Fraction(-1, 2))


def test_verify_hurwitz_n0_outside_exact_mode():
    rep = verify_hurwitz(0, Fraction(1))
    assert rep.passed is None
    assert "series" in rep.note


@pytest.mark.parametrize("x", [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)])
def test_verify_hurwitz_grid(x):
    for n in range(1, 9):
        assert verify_hurwitz(n, x).passed, (n, x)


def test_verify_hurwitz_other_backends():
    assert verify_hurwitz(2, Fraction(1, 2), "delta").passed
    assert verify_hurwitz(3, Fraction(1, 2), "series").passed


def test_hurwitz_x1_reindexes_to_riemann():
    # sum_{k>=0} [k+1]^m q^((k+1)r) = sum_{k>=1} [k]^m q^(kr)
    for s in (0, -1, -2):
        for r in (1, 2, 3):
            hur = apply_geometric(OperatorSpec.hurwitz(s, Fraction(1)), Poly.monomial(r))
            rie = apply_geometric(OperatorSpec.riemann(s), Poly.monomial(r))
            assert hur.value == rie.value


def test_beta_chi_mod4_n0():
    chi = character(4, 1)
    expect = RatFunc(Poly([0, 1, 0, -1]), quantum_value(4, 1).num)
    assert beta_chi(chi, 0).value == expect


def test_beta_chi_mod3_n1_cross_check():
    chi = character(3, 1)
    lhs = beta_chi(chi, 1).value
    rhs = apply_geometric(OperatorSpec.dirichlet_l(0, chi), Poly([0, 1, -2])).value
    assert lhs == rhs


def test_beta_chi_real_character_rational_coefficients():
    chi = character(4, 1)
    for n in range(0, 4):
        assert beta_chi(chi, n).value.num.field_key() == "rat"


def test_beta_chi_rejects_trivial():
    with pytest.raises(DomainError):
        beta_chi(character(4, 0), 1)


def test_verify_chi_examples():
    assert verify_chi(character(4, 1), 1).passed
    assert verify_chi(character(3, 1), 4).passed


def test_verify_chi_complex_over_gaussian_field():
    chi = [c for c in characters(5) if c.order == 4][0]
    rep = verify_chi(chi, 2)
    assert rep.passed
    assert beta_chi(chi, 2).value.num.field_key() == ("cyc", 4)


def test_beta_chi_built_once_across_exact_backends(monkeypatch, cold_carlitz):
    calls = []
    build = carlitz._beta_poly_cf

    def counted(n, x):
        calls.append((n, x))
        return build(n, x)

    monkeypatch.setattr(carlitz, "_beta_poly_cf", counted)
    chi = character(5, 1)
    assert verify_chi(chi, 2, "geometric").passed
    built = len(calls)
    assert built > 0
    assert verify_chi(chi, 2, "delta").passed
    assert len(calls) == built


def test_verify_chi_n0_outside_exact_mode():
    assert verify_chi(character(4, 1), 0).passed is None


def test_beta_values_are_reduced():
    for n in (5, 12, 20):
        v = beta(n).value
        assert poly_gcd(v.num, v.den).degree == 0
        assert v.den.is_monic()


# sha256 of chi_transcript(), captured before trial division and the
# canonical form over Q(zeta_m) ran on integer lanes
CHI_TRANSCRIPT_SHA256 = "90fda3d4963cd1e1741801f4358a9115962e42e423cfc2bd5fed26f25042628f"


def chi_transcript() -> str:
    """beta_chi and both exact backends' L_q(chi, 1-n)(q - (n+1)q^2), as
    printed, for every non-trivial character mod 3, 4, 5, 7, 8, 12, n <= 4."""
    lines = []
    for N in (3, 4, 5, 7, 8, 12):
        for chi in characters(N):
            if chi.is_trivial():
                continue
            for n in range(5):
                lines.append(f"beta_chi {N} {chi.index} {n}: {beta_chi(chi, n).value}")
                if n == 0:
                    continue
                spec = OperatorSpec.dirichlet_l(1 - n, chi)
                P = Poly([0, 1, -(n + 1)])
                lines.append(f"geometric {N} {chi.index} {n}: {apply_geometric(spec, P).value}")
                lines.append(f"delta {N} {chi.index} {n}: {apply_delta(spec, P).value}")
    return "\n".join(lines)


def test_character_values_are_pinned():
    assert hashlib.sha256(chi_transcript().encode()).hexdigest() == CHI_TRANSCRIPT_SHA256


def test_complex_characters_divide_nothing_over_cyclotomic_fields(monkeypatch, cold_carlitz):
    # the benchmark's six complex characters (order 4 mod 5, 3 and 6 mod 7):
    # trial division and the canonical form run on integer lanes, and the
    # norm certificate spares them the gcd fallback
    calls = []
    divmod_ = Poly.__divmod__

    def counting(self, other):
        if self.field_key() != "rat" or getattr(other, "field_key", lambda: "rat")() != "rat":
            calls.append((self, other))
        return divmod_(self, other)

    monkeypatch.setattr(Poly, "__divmod__", counting)
    chars = {(5, 1): 3, (5, 3): 3, (7, 1): 2, (7, 2): 2, (7, 4): 2, (7, 5): 2}
    for (N, index), top in chars.items():
        chi = character(N, index)
        assert chi.order > 2
        for n in range(1, top + 1):
            for backend in ("geometric", "delta"):
                assert verify_chi(chi, n, backend).passed
    assert calls == []


def test_complex_characters_add_no_cycrat_values(monkeypatch, cold_carlitz):
    # the same six characters: CycloFrac.sum, the Delta kernel and the
    # canonical form add on integer lanes, never two CycRat coefficients,
    # and a scale with one rational side (chi(j) on a rational numerator, a
    # rational weight on a Q(zeta_m) numerator) multiplies lanes too
    calls = []

    def counting(op):
        def count(self, other):
            calls.append((op, self, other))
            return op(self, other)
        return count

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(CycRat, name, counting(getattr(CycRat, name)))
    for N, index in ((5, 1), (5, 3), (7, 1), (7, 2), (7, 4), (7, 5)):
        chi = character(N, index)
        for n in range(1, 4):
            for backend in ("geometric", "delta", "series"):
                assert verify_chi(chi, n, backend).passed
    assert calls == []


# the complex characters of the relations benchmark, with their n
COMPLEX_CHARACTERS = {(5, 1): 3, (5, 3): 3, (7, 1): 2, (7, 2): 2, (7, 4): 2, (7, 5): 2}


def test_complex_characters_build_cycrat_values_only_as_character_values(monkeypatch,
                                                                          cold_carlitz):
    # polynomials over Q(zeta_m) are integer lanes: with the table and the
    # characters built first, both exact backends and beta_chi build no
    # CycRat but the character values themselves (chi(n) = 0 included)
    beta(18)
    chars = {key: character(*key) for key in COMPLEX_CHARACTERS}
    origins = Counter()
    init = CycRat.__init__

    def recording(self, *args):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == "qzeta.fields":  # CycRat.zero, the arithmetic
            frame = frame.f_back
        origins[frame.f_globals["__name__"]] += 1
        init(self, *args)

    monkeypatch.setattr(CycRat, "__init__", recording)
    for key, top in COMPLEX_CHARACTERS.items():
        for n in range(1, top + 1):
            for backend in ("geometric", "delta", "series"):
                assert verify_chi(chars[key], n, backend).passed
    assert set(origins) <= {"qzeta.characters"}, origins


def exact_relations():
    """One theorem, Hurwitz, real- and complex-character relation with each
    exact backend, as (function, arguments)."""
    cases = []
    for backend in ("geometric", "delta"):
        cases += [(verify_theorem, (7, backend)),
                  (verify_hurwitz, (7, Fraction(2, 3), backend)),
                  (verify_chi, (character(5, 2), 3, backend)),
                  (verify_chi, (character(5, 1), 3, backend))]
    return cases


def test_perturbed_left_side_fails_every_exact_relation(monkeypatch, cold_carlitz):
    assert all(check(*args).passed for check, args in exact_relations())
    q3 = CycloFrac(Poly.monomial(3))
    table = list(carlitz._beta_cf)  # beta_7 is built: the relations above read it
    table[7] = table[7] + q3
    monkeypatch.setattr(carlitz, "_beta_cf", table)
    cold_carlitz()  # the cached Hurwitz left side was built from the unperturbed table
    real = beta_chi

    def perturbed(chi, n):
        b = real(chi, n)
        return BetaChi(chi, n, b.value, b.cf + q3)

    monkeypatch.setattr(carlitz, "beta_chi", perturbed)
    assert [check(*args).passed for check, args in exact_relations()] == [False] * 8


def test_exact_relations_reduce_no_operator_value(monkeypatch):
    # both exact backends decide on the unreduced cyclotomic form: once the
    # table and beta_chi are built, no trial division and no norm certificate
    assert all(check(*args).passed for check, args in exact_relations())
    calls = []
    reduce, coprime = CycloFrac.reduce, ratfunc.cyclotomic_coprime
    monkeypatch.setattr(CycloFrac, "reduce", lambda cf: calls.append(cf) or reduce(cf))
    monkeypatch.setattr(ratfunc, "cyclotomic_coprime",
                        lambda p, indices: calls.append(p) or coprime(p, indices))
    assert all(check(*args).passed for check, args in exact_relations())
    assert calls == []


# -- classical oracles at q = 1 --------------------------------------------------


def bernoulli_polynomial(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_k C(n, k) B_k x^(n-k), from bernoulli_number alone."""
    return sum(comb(n, k) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1))


def generalized_bernoulli(chi, n: int) -> CycRat:
    """B_{n,chi} = f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f) for f the modulus of
    chi, from bernoulli_number and the character values alone."""
    f = chi.modulus
    terms = (chi(a) * bernoulli_polynomial(n, Fraction(a, f)) for a in range(1, f + 1))
    return Fraction(f) ** (n - 1) * sum(terms, CycRat(1))


# x with denominator <= 6 in (0, 1], and two points past 1
ORACLE_X = [Fraction(a, b) for b in range(1, 7) for a in range(1, b + 1) if gcd(a, b) == 1]
ORACLE_X += [Fraction(3, 2), Fraction(7, 6)]


def test_beta_poly_at_one_is_the_bernoulli_polynomial():
    for x in ORACLE_X:
        for n in range(13):
            assert beta_poly(n, x).value(1) == bernoulli_polynomial(n, x), (n, x)


@pytest.mark.parametrize("N", range(3, 13))
def test_beta_chi_at_one_is_the_generalized_bernoulli_number(N):
    # n <= 12, except n <= 6 over Q(zeta_5) (mod 11, orders 5 and 10), where
    # the norm certificate of the canonical form takes about 30 s past n = 6
    for chi in characters(N):
        if chi.is_trivial():
            continue
        for n in range(13 if euler_phi(chi.order) <= 2 else 7):
            value = beta_chi(chi, n).value(1)
            assert value == generalized_bernoulli(chi, n), (chi, n)
            if chi(N - 1) != (-1) ** n:  # parity: B_{n,chi} = 0 unless chi(-1) = (-1)^n
                assert value == 0, (chi, n)


def test_oracles_reject_a_perturbed_left_side(monkeypatch, cold_carlitz):
    x, chi, n = Fraction(2, 5), character(5, 1), 2
    assert beta_poly(n, x).value(1) == bernoulli_polynomial(n, x)
    assert beta_chi(chi, n).value(1) == generalized_bernoulli(chi, n)
    real_cf, real_basis = carlitz._beta_poly_cf, carlitz._chi_basis
    one = CycloFrac(Poly([1]))
    monkeypatch.setattr(carlitz, "_beta_poly_cf", lambda n, x: real_cf(n, x) + one)
    assert beta_poly(n, x).value(1) != bernoulli_polynomial(n, x)
    monkeypatch.setattr(carlitz, "_beta_poly_cf", real_cf)

    def perturbed(N, n):
        # the term of j = 1 counted twice, in new lists: the cached basis stays as it is
        units, raised, den, m, union = real_basis(N, n)
        return units, [[[2 * c for c in raised[0][0]]], *raised[1:]], den, m, union

    monkeypatch.setattr(carlitz, "_chi_basis", perturbed)
    cold_carlitz()
    assert beta_chi(chi, n).value(1) != generalized_bernoulli(chi, n)


def test_beta_chi_folds_a_weight_denominator(monkeypatch, cold_carlitz):
    # character values have integral coordinates on the powers of zeta; weights
    # with a denominator (here every chi(j) halved) must give half the value
    chi, real = character(5, 1), carlitz._chi_scalar
    whole = beta_chi(chi, 3).value
    monkeypatch.setattr(carlitz, "_chi_scalar", lambda chi, j: real(chi, j) * Fraction(1, 2))
    cold_carlitz()
    assert beta_chi(chi, 3).value == whole * Fraction(1, 2)


# the relations benchmark's eight characters and their n
BENCHMARK_CHARS = {(5, 2): range(1, 7), (7, 3): range(1, 7), (5, 1): range(1, 4),
                   (5, 3): range(1, 4), (7, 1): range(1, 3), (7, 2): range(1, 3),
                   (7, 4): range(1, 3), (7, 5): range(1, 3)}


def test_character_relations_build_each_term_once(cold_carlitz):
    # one basis per (modulus, n) serves every character: 12 bases and 60
    # values q^(j/N) beta_n(j/N) for the units j, where building every
    # character's terms anew took 132
    for (N, index), ns in BENCHMARK_CHARS.items():
        for n in ns:
            for backend in ("geometric", "delta"):
                assert verify_chi(character(N, index), n, backend).passed
    assert carlitz._beta_poly_cf.cache_info().misses <= 60
    assert carlitz._chi_basis.cache_info().misses == 12


HURWITZ_GRID = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4))


def test_relations_grid_builds_each_branch_basis_once(cold_carlitz):
    # the benchmark's Hurwitz and character relations need 84 values beta_n(x)
    # on 30 pairs (n, branch): x = 1/3 and 2/3 share one basis, and so do
    # the units j/N of a modulus
    for x in HURWITZ_GRID:
        for n in range(1, 7):
            for backend in ("geometric", "delta"):
                assert verify_hurwitz(n, x, backend).passed
    for (N, index), ns in BENCHMARK_CHARS.items():
        for n in ns:
            for backend in ("geometric", "delta"):
                assert verify_chi(character(N, index), n, backend).passed
    assert carlitz._beta_poly_cf.cache_info().misses == 84
    assert carlitz._branch_basis.cache_info().misses == 30


def expanded_beta_poly(n, x):
    """(q^x beta + [x])^n term by term: C(n,i) v^(ai) beta_i(v^b) times
    (v^a - 1)^(n-i) / (v^b - 1)^(n-i), added by CycloFrac.sum."""
    a, b = x.numerator, x.denominator
    beta(n)
    var = branch_var(b)
    terms = []
    for i in range(n + 1):
        term = carlitz._beta_cf[i].scale_exponents(b, var).shift(a * i).times_scalar(comb(n, i))
        power = Poly([-1] + [0] * (a - 1) + [1], var) ** (n - i)
        terms.append(term.times_poly(power).div_pow_one_minus_var_pow(b, n - i))
    return CycloFrac.sum(terms, var)


def test_beta_poly_from_the_branch_basis_is_the_expansion(cold_carlitz):
    # the same unreduced value, numerator and Phi multiset, for n <= 8,
    # b <= 7 and a <= 2b
    for n in range(9):
        for b in range(1, 8):
            for a in range(1, 2 * b + 1):
                if gcd(a, b) == 1:
                    x = Fraction(a, b)
                    got, want = carlitz._beta_poly_cf(n, x), expanded_beta_poly(n, x)
                    assert (got.num, got.phi) == (want.num, want.phi), (n, x)


def test_cached_values_are_never_mutated(cold_carlitz):
    xs, ns, chis = (Fraction(1, 2), Fraction(2, 5)), (1, 3), (character(5, 1), character(5, 2))

    def snapshot():
        return ([repr(carlitz._beta_poly_cf(n, x)) for n in ns for x in xs]
                + [repr(carlitz._branch_basis(n, x.denominator)) for n in ns for x in xs]
                + [repr(carlitz._chi_basis(5, n)) for n in ns])

    before = snapshot()
    for n in ns:
        for x in xs:
            beta_poly(n, x)
            for backend in ("geometric", "delta", "series"):
                assert verify_hurwitz(n, x, backend).passed
        for chi in chis:
            beta_chi(chi, n)
            for backend in ("geometric", "delta"):
                assert verify_chi(chi, n, backend).passed
    assert snapshot() == before
