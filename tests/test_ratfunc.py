"""Canonical rational functions."""
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import ratfuncs, small_fractions
from qzeta.arith import (cyclotomic_int_coeffs, euler_phi, int_div_pow_minus_one, int_poly_divmod_monic,
                         int_poly_mul, prefix_sum)
from qzeta.fields import CycRat, FieldMismatchError
from qzeta.poly import Poly, add_lanes, cyclotomic, cyclotomic_coprime, norm_lanes, poly_gcd
from qzeta.quantum import frobenius
from qzeta.ratfunc import CycloFrac, PoleError, RatFunc, raise_to_union


def test_normalize_cancellation():
    assert RatFunc(Poly([-1, 0, 1]), Poly([1, 1])) == RatFunc(Poly([-1, 1]))
    assert RatFunc(Poly([-1, 1]), Poly([-1, 0, 1])) == RatFunc(
        Poly([1]), Poly([1, 1])
    )


def test_normalize_monic_scaling():
    f = RatFunc(Poly([0, 2]), Poly([2]))
    assert f == RatFunc(Poly([0, 1]))
    assert f.den.is_one()


def test_normalize_idempotent():
    f = RatFunc(Poly([-1, 0, 1]), Poly([1, 1]))
    g = RatFunc(f.num, f.den)
    assert g.num == f.num and g.den == f.den


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly([1]), Poly.zero())


def test_eval_matches_bernoulli_oracle():
    # -1/(q+1) at q=1 is -1/2, the first Bernoulli number
    f = RatFunc(Poly([-1]), Poly([1, 1]))
    assert f(1) == Fraction(-1, 2)


def test_eval_trivial_and_pole():
    assert RatFunc(Poly([0, 1]))(0) == 0
    with pytest.raises(PoleError):
        RatFunc(Poly([1]), Poly([-1, 1]))(1)


def test_pole_distinguished_from_common_zero():
    # (q^2-1)/(q-1) has a removable point at 1: reduced form evaluates fine
    f = RatFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert f(1) == 2


@given(f=ratfuncs(), g=ratfuncs())
def test_add_sub_roundtrip(f, g):
    assert (f + g) - g == f


@given(f=ratfuncs(), g=ratfuncs())
def test_mul_div_roundtrip(f, g):
    if not g.is_zero():
        assert (f * g) / g == f


@given(f=ratfuncs(), g=ratfuncs())
def test_results_are_canonical(f, g):
    for h in (f + g, f * g, f - g):
        if h.is_zero():
            assert h.num.is_zero() and h.den.is_one()
        else:
            assert h.den.is_monic()
            assert poly_gcd(h.num, h.den).degree == 0


@given(f=ratfuncs(), g=ratfuncs())
def test_cross_multiplication_equality_matches_canonical(f, g):
    structurally = f.num == g.num and f.den == g.den
    cross = f.num * g.den == g.num * f.den
    assert (f == g) == cross
    assert structurally == cross  # canonical-form equality coincides


def test_pow_negative():
    f = RatFunc(Poly([0, 1]), Poly([1, 1]))
    assert f**-1 == RatFunc(Poly([1, 1]), Poly([0, 1]))
    assert f**-2 * f**2 == RatFunc.one()


def test_zero_is_zero_over_one():
    f = RatFunc(Poly([0, 1]), Poly([1, 1]))
    z = f - f
    assert z.is_zero() and z.den.is_one()


def test_json():
    f = RatFunc(Poly([0, 1]), Poly([1, 1]))
    assert f.to_json() == {"num": ["0", "1"], "den": ["1", "1"]}


# -- the cyclotomic-denominator helper ---------------------------------------


def test_cyclofrac_geometric_series():
    cf = CycloFrac(Poly([0, 1])).div_one_minus(1)  # q/(1-q)
    assert cf.reduce().to_ratfunc() == RatFunc(Poly([0, 1]), Poly([1, -1]))


def test_cyclofrac_reduces_to_canonical():
    # q(1-q)^3 / ((1-q)(1-q^2)(1-q^3)) = q / (Phi_2 Phi_3)
    num = Poly([0, 1]) * Poly([1, -1]) ** 3
    cf = CycloFrac(num).div_one_minus(1).div_one_minus(2).div_one_minus(3)
    red = cf.reduce()
    assert dict(red.phi) == {2: 1, 3: 1}
    f = red.to_ratfunc()
    assert f.num == Poly([0, 1]) and f.den == cyclotomic(2) * cyclotomic(3)


def test_cyclofrac_addition_takes_lcm():
    a = CycloFrac(Poly([1])).div_one_minus(2)
    b = CycloFrac(Poly([1])).div_one_minus(4)
    c = (a + b).reduce().to_ratfunc()
    expect = RatFunc(Poly([1]), Poly([1, 0, -1])) + RatFunc(Poly([1]), Poly([1, 0, 0, 0, -1]))
    assert c == expect


def test_poly_and_ratfunc_mix_to_ratfunc():
    f = RatFunc(Poly([1]), Poly([1, 1]))
    q = Poly([0, 1])
    assert isinstance(q * f, RatFunc) and q * f == RatFunc(q, Poly([1, 1]))
    assert isinstance(q + f, RatFunc) and q + f == RatFunc(Poly([1, 1, 1]), Poly([1, 1]))


def test_unreduced_cyclofrac_converts_to_canonical_ratfunc():
    # (q - q^2) / (1 - q) = q: to_ratfunc reduces a value reduce() did not make
    f = CycloFrac(Poly([0, 1, -1])).div_one_minus(1).to_ratfunc()
    assert (f.num, f.den) == (Poly([0, 1]), Poly([1]))
    assert hash(f) == hash(Poly([0, 1]))


# -- one common denominator for a sum, and v -> v^k ---------------------------

SUM_TERMS = [
    CycloFrac(Poly([0, 1])).div_one_minus(2),
    CycloFrac(Poly([1, 0, -2])).div_one_minus(3).div_one_minus(1),
    CycloFrac(Poly([Fraction(1, 2)])).div_pow_one_minus_var_pow(6, 2),
    CycloFrac(Poly([0, 0, 3])),
]


def test_cyclofrac_sum_equals_pairwise_addition():
    total = CycloFrac.sum(SUM_TERMS)
    pairwise = SUM_TERMS[0] + SUM_TERMS[1] + SUM_TERMS[2] + SUM_TERMS[3]
    assert total.phi == pairwise.phi == Counter({1: 2, 2: 2, 3: 2, 6: 2})
    assert total.num == pairwise.num
    assert total.to_ratfunc() == sum(t.to_ratfunc() for t in SUM_TERMS)


def test_cyclofrac_sum_of_no_terms_and_of_one():
    empty = CycloFrac.sum([], "v")
    assert empty.is_zero() and empty.num.var == "v" and not empty.phi
    t = SUM_TERMS[1]
    for one in (CycloFrac.sum([t]), CycloFrac.sum([CycloFrac.zero(), t])):
        assert one is not t and (one.num, one.phi) == (t.num, t.phi)
        one.phi[5] += 1  # a copy: the term keeps its own multiset
        assert 5 not in t.phi


@st.composite
def sum_terms(draw):
    """Up to four CycloFrac terms over Q and Q(zeta_m), m in {3, 4, 5, 8},
    mixed in one sum; a numerator may be zero."""
    m = draw(st.sampled_from([1, 3, 4, 5, 8]))
    coords = st.lists(small_fractions, min_size=euler_phi(m), max_size=euler_phi(m))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        cyclotomic_term = m > 1 and draw(st.booleans())
        coeff = coords.map(lambda c: CycRat(m, c)) if cyclotomic_term else small_fractions
        num = Poly(draw(st.lists(coeff, max_size=4)))
        phi = draw(st.dictionaries(st.integers(1, 8), st.integers(1, 2), max_size=3))
        terms.append(CycloFrac(num, phi))
    return terms


def reference_sum(terms):
    """sum t.num * prod Phi_d^(union - t.phi) in plain Poly arithmetic."""
    terms = [t for t in terms if not t.is_zero()]
    union = Counter()
    for t in terms:
        union |= t.phi
    num = Poly.zero()
    for t in terms:
        cofactor = Poly.one()
        for d, e in (union - t.phi).items():
            cofactor = cofactor * cyclotomic(d) ** e
        num = num + t.num * cofactor
    return num, union


@given(sum_terms())
def test_cyclofrac_sum_matches_poly_arithmetic(terms):
    got = CycloFrac.sum(terms)
    assert (got.num, got.phi) == reference_sum(terms)


@given(st.data())
def test_weighted_lanes_match_poly_arithmetic(data):
    # beta_chi's route: terms over Q raised once, then added with nonzero
    # weights in Q(zeta_m) whose coordinates need not be integers
    m = data.draw(st.sampled_from([1, 3, 4, 8]))
    coords = st.lists(small_fractions, min_size=euler_phi(m), max_size=euler_phi(m)).filter(any)
    nums = st.lists(small_fractions, max_size=4).filter(any)
    phis = st.dictionaries(st.integers(1, 8), st.integers(1, 2), max_size=3)
    count = data.draw(st.integers(1, 4))
    terms = [CycloFrac(Poly(data.draw(nums)), data.draw(phis)) for _ in range(count)]
    weights = [CycRat(m, data.draw(coords)) for _ in terms]
    raised, den, _, union = raise_to_union(terms)
    w = Poly(weights)
    got = Poly.from_lanes(add_lanes(raised, list(zip(*w.lanes))), den * w.den, w.m, "q")
    assert (got, union) == reference_sum([t.times_scalar(w) for t, w in zip(terms, weights)])


def test_cyclofrac_sum_refuses_two_cyclotomic_fields():
    a = CycloFrac(Poly([0, CycRat.zeta_power(3, 1)])).div_one_minus(1)
    b = CycloFrac(Poly([CycRat.zeta_power(4, 1)])).div_one_minus(2)
    with pytest.raises(FieldMismatchError):
        CycloFrac.sum([a, b])


def test_cyclofrac_sum_refuses_two_branches():
    q = CycloFrac(Poly([0, 1], "q"))
    v = CycloFrac(Poly([0, 1], "v"))
    with pytest.raises(FieldMismatchError):
        q + v
    with pytest.raises(FieldMismatchError):
        CycloFrac.sum([q.div_one_minus(1), v.div_one_minus(2)], "v")
    # a constant term carries no branch: the sum is on the other term's
    assert (CycloFrac(Poly([1])) + v).num == Poly([1, 1], "v")
    assert (CycloFrac(Poly([1])) + v).num.var == "v"


def test_cyclofrac_scale_exponents_splits_phi():
    # Phi_3(v^2) = Phi_3(v) Phi_6(v), Phi_2(v^2) = Phi_4(v), Phi_1(v^2) = Phi_1 Phi_2
    cf = CycloFrac(Poly([1]), {1: 1, 2: 2, 3: 1}).scale_exponents(2, "v")
    assert cf.phi == Counter({1: 1, 2: 1, 4: 2, 3: 1, 6: 1})
    assert cf.num.var == "v"


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cyclofrac_scale_exponents_is_frobenius(k):
    cf = CycloFrac(Poly([1, 2, 0, -1])).div_one_minus(3).div_one_minus(2)
    cf = cf.div_pow_one_minus_var_pow(4, 2)
    scaled = cf.scale_exponents(k, "v")
    expect = frobenius(cf.reduce().to_ratfunc(), k)
    assert scaled.to_ratfunc() == expect
    assert scaled.to_ratfunc().var == "v"


def full_norm_coprime(p, indices):
    """The norm certificate on the norm of p itself, not of its residues."""
    norm = norm_lanes(p.lanes, p.m)[1]
    return all(any(int_poly_divmod_monic(norm, cyclotomic_int_coeffs(d))[1]) for d in indices)


def test_split_cyclotomic_factor_falls_back_to_gcd():
    # over Q(i), Phi_4 = (q - i)(q + i): reduce() cannot divide it out of
    # (q - i) A, the norm certificate refuses, and the gcd cancels q - i
    i = CycRat.zeta_power(4, 1)
    A = Poly([3, i, 1])
    num = Poly([-i, 1]) * A
    phi = Counter({1: 1, 4: 1})
    assert not cyclotomic_coprime(num, phi)
    assert cyclotomic_coprime(A, phi)
    assert not full_norm_coprime(num, phi)
    assert full_norm_coprime(A, phi)
    got = CycloFrac(num, phi).reduce().to_ratfunc()
    want = RatFunc(num, cyclotomic(1) * cyclotomic(4))
    assert (got.num, got.den) == (want.num, want.den) == (A, Poly([-1, 1]) * Poly([i, 1]))


@st.composite
def certificate_cases(draw):
    """A nonzero p over Q(zeta_m), m in {3, 4, 5, 7, 8, 12}, sometimes with a
    factor q - zeta^k (a root of Phi_(m / gcd(m, k))), and some indices d."""
    m = draw(st.sampled_from([3, 4, 5, 7, 8, 12]))
    coords = st.lists(small_fractions, min_size=euler_phi(m), max_size=euler_phi(m))
    coeffs = draw(st.lists(coords.map(lambda c: CycRat(m, c)), min_size=1, max_size=4))
    p = Poly(coeffs)
    assume(not p.is_zero())
    for k in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        p = p * Poly([-CycRat.zeta_power(m, k), 1])
    indices = draw(st.lists(st.integers(1, 24), min_size=1, max_size=4, unique=True))
    return p, indices


@given(certificate_cases())
def test_residue_certificate_equals_full_norm_certificate(case):
    # N(p) = N(p mod Phi_d) mod Phi_d, so the two certificates agree
    p, indices = case
    assert cyclotomic_coprime(p, indices) == full_norm_coprime(p, indices)


def test_norm_certificate_over_q_is_trial_division():
    assert cyclotomic_coprime(Poly([1, 1, 1]), [1, 2, 4, 6])
    assert not cyclotomic_coprime(Poly([1, 1, 1]) * Poly([2, 1]), [3])


small_ints = st.lists(st.integers(min_value=-9, max_value=9), max_size=12)


@given(small_ints, st.integers(min_value=1, max_value=6))
def test_prefix_sum_is_the_geometric_series(ys, k):
    # ys / (1 - x^k) = ys * sum_j x^(jk), through ys's length
    geometric = [int(i % k == 0) for i in range(len(ys))]
    want = int_poly_mul(ys, geometric)[:len(ys)] if ys else []
    assert prefix_sum(list(ys), k) == want


@given(small_ints, small_ints, st.integers(min_value=1, max_value=6))
def test_strided_division_matches_monic_division(quo, rem, k):
    den = [-1] + [0] * (k - 1) + [1]  # x^k - 1
    num = int_poly_mul(quo, den) if quo else [0] * k
    for i, c in enumerate(rem[:k]):
        num[i] += c
    want_quo, want_rem = int_poly_divmod_monic(num, den)
    if any(want_rem):
        with pytest.raises(ArithmeticError):
            int_div_pow_minus_one(num, k)
    else:
        assert int_div_pow_minus_one(num, k) == want_quo


def test_strided_division_refuses_a_remainder():
    assert int_div_pow_minus_one([-1, 0, 0, 1], 3) == [1]
    with pytest.raises(ArithmeticError):
        int_div_pow_minus_one([-1, 0, 1, 1], 3)
    with pytest.raises(ArithmeticError):
        int_div_pow_minus_one([2], 3)  # shorter than the divisor
