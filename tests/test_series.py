"""Truncated Puiseux series."""
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qzeta.carlitz import beta_poly
from qzeta.fields import CycRat, FieldMismatchError
from qzeta.poly import Poly, cyclotomic
from qzeta.ratfunc import RatFunc
from qzeta.series import TruncSeries, series_from_ratfunc


def test_geometric_expansion():
    f = RatFunc(Poly([0, 1]), Poly([1, -1]))  # q/(1-q)
    assert series_from_ratfunc(f, 4) == TruncSeries([0, 1, 1, 1, 1])


def test_alternating_expansion():
    f = RatFunc(Poly([1]), Poly([1, 1]))
    assert series_from_ratfunc(f, 3) == TruncSeries([1, -1, 1, -1])


def test_product_of_geometric_series():
    f = RatFunc(Poly([0, 1]), Poly([1, -1]) * Poly([1, 0, -1]))
    assert series_from_ratfunc(f, 4) == TruncSeries([0, 1, 1, 2, 2])


I = CycRat.zeta_power(4, 1)
Z3 = CycRat.zeta_power(3, 1)
Z8 = CycRat.zeta_power(8, 1)


@pytest.mark.parametrize("num, den", [
    (Poly([1, 3]), Poly([2, -1])),                                   # D(0) = -2 once monic
    (Poly([Fraction(1, 5), 0, -7]), Poly([Fraction(3, 2), 0, 0, 1])),
    (Poly([1, I, 3]), Poly([I, 1])),                                 # q + i over Q(i)
    (Poly([0, Z3, 1]), Poly([2, Z3, 1])),
    (Poly([Z8, 0, 3]), Poly([3, Z8 ** 3, 0, 1])),
    (Poly([0, 1, -3, Fraction(1, 2)]),
     cyclotomic(1) * cyclotomic(2) * cyclotomic(3) * cyclotomic(6) ** 2),
    (Poly([0, CycRat.zeta_power(5, 2), 1]), cyclotomic(5) * cyclotomic(4) ** 2),
    (Poly([]), Poly([1, 1])),
])
def test_expansion_times_denominator_is_numerator(num, den):
    # the oracle multiplies truncated series; it never runs the recurrence
    f = RatFunc(num, den)
    order = 30
    got = series_from_ratfunc(f, order)
    assert got.order == order
    assert got * TruncSeries.from_poly(f.den, order) == TruncSeries.from_poly(f.num, order)


def test_pole_at_origin_rejected():
    f = RatFunc(Poly([1]), Poly([0, 1]))
    with pytest.raises(ZeroDivisionError):
        series_from_ratfunc(f, 3)


def test_arithmetic_preserves_min_order():
    a = TruncSeries([0, 1, 2], order=2)
    b = TruncSeries([1, 1, 1, 1], order=3)
    assert (a + b).order == 2
    assert (a * b).order == 2


def test_rebase_and_alignment():
    a = TruncSeries([0, 1], order=1, branch=1)       # q
    b = TruncSeries([0, 1, 0, 0], order=3, branch=2)  # v = q^(1/2)
    s = a + b
    assert s.branch == 2
    assert s.coeffs == (0, 1, 1)  # v + v^2 through the safe order


def test_eq_compares_through_min_order():
    assert TruncSeries([0, 1, 1], 2) == TruncSeries([0, 1, 1, 9], 3)


def test_frobenius_integer():
    s = TruncSeries([0, 1, 0, 1], 3)  # q + q^3
    f = s.frobenius(2)
    assert f == TruncSeries([0, 0, 1, 0, 0, 0, 1], 6)
    assert f.order == 6  # largest safe truncation


def test_frobenius_fractional():
    s = TruncSeries([0, 1], 1)  # q
    f = s.frobenius(Fraction(3, 2))
    assert f.branch == 2
    assert f.coeffs[3] == 1  # q^(3/2) = v^3


def test_series_multiplication_truncates():
    geo = TruncSeries([1, 1, 1, 1, 1], 4)
    sq = geo * geo
    assert sq.coeffs == (1, 2, 3, 4, 5)


def test_valuation_and_constant_flags():
    s = TruncSeries([0, 0, 5], 2)
    assert s.valuation() == 2
    assert not s.has_constant_term()
    assert TruncSeries([3], 0).has_constant_term()


def test_json():
    s = TruncSeries([0, 1, Fraction(1, 2)], 2, branch=2)
    assert s.to_json() == {"branch": 2, "order": 2, "coeffs": ["0", "1", "1/2"]}


@pytest.mark.parametrize("coeffs", [[0, 0.5, 1.5], [0, 1j], [0, "a"]])
def test_non_exact_coefficients_are_refused(coeffs):
    with pytest.raises(TypeError):
        TruncSeries(coeffs, len(coeffs) - 1)


def test_expansion_refuses_a_function_of_another_branch():
    in_v = beta_poly(2, Fraction(1, 2)).value  # a function of v = q^(1/2)
    in_q = RatFunc(Poly([0, 1]), Poly([1, -1]))
    with pytest.raises(FieldMismatchError):
        series_from_ratfunc(in_v, 4)
    with pytest.raises(FieldMismatchError):
        series_from_ratfunc(in_q, 4, branch=2)
    assert series_from_ratfunc(in_v, 4, branch=2).branch == 2
    assert series_from_ratfunc(RatFunc.constant(3), 2, branch=2) == TruncSeries([3], 2, 2)


# -- the coefficient-list series as a reference --------------------------------


def ref_series(coeffs, order, branch):
    """(coefficients padded to order + 1, order, branch)."""
    cs = list(coeffs)[:order + 1]
    return tuple(cs + [0] * (order + 1 - len(cs))), order, branch


def ref_rebase(s, branch):
    cs, order, b = s
    if branch == b:
        return s
    k = branch // b
    out = [0] * (order * k + 1)
    for i, c in enumerate(cs):
        out[i * k] = c
    return ref_series(out, order * k, branch)


def ref_align(s, t):
    b = lcm(s[2], t[2])
    a, c = ref_rebase(s, b), ref_rebase(t, b)
    return a, c, min(a[1], c[1])


def ref_add(s, t):
    a, c, order = ref_align(s, t)
    return ref_series([x + y for x, y in zip(a[0], c[0])], order, a[2])


def ref_mul(s, t):
    a, c, order = ref_align(s, t)
    out = [0] * (order + 1)
    for i, x in enumerate(a[0][:order + 1]):
        if not x:
            continue
        for j in range(min(order - i, c[1]) + 1):
            y = c[0][j]
            if y:
                out[i + j] = out[i + j] + x * y
    return ref_series(out, order, a[2])


def ref_frobenius(s, n):
    cs, order, b = s
    c, d = n.numerator, n.denominator
    out = [0] * (order * c + 1)
    for i, x in enumerate(cs):
        out[i * c] = x
    return ref_series(out, order * c, b * d)


def ref_eq(s, t):
    a, c, order = ref_align(s, t)
    return all(a[0][i] == c[0][i] for i in range(order + 1))


@st.composite
def reference_cases(draw):
    """Two series over one of Q, Q(zeta_3), Q(i) (m = 1, 3, 4), each on a
    branch 1-4 with an order 0-12 and up to order + 3 coefficients."""
    m = draw(st.sampled_from([1, 3, 4]))
    rat = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-5, max_value=5, max_denominator=6))
    scalar = rat if m == 1 else st.builds(lambda a, b: CycRat(m, [a, b]), rat, rat)

    def one():
        order = draw(st.integers(min_value=0, max_value=12))
        coeffs = draw(st.lists(scalar, max_size=order + 3))
        return ref_series(coeffs, order, draw(st.integers(min_value=1, max_value=4)))

    return one(), one()


def as_ref(s: TruncSeries):
    return s.coeffs, s.order, s.branch


@settings(max_examples=150, deadline=None)
@given(reference_cases(), st.integers(min_value=1, max_value=3),
       st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3),
       st.integers(min_value=0, max_value=40))
def test_series_match_the_coefficient_lists(case, k, n, j):
    s, t = case
    a, b = TruncSeries(*s), TruncSeries(*t)
    assert as_ref(a) == s
    assert as_ref(a + b) == ref_add(s, t)
    assert as_ref(a - b) == ref_add(s, ref_series([-c for c in t[0]], *t[1:]))
    assert as_ref(a * b) == ref_mul(s, t)
    assert as_ref(a.rebase(k * a.branch)) == ref_rebase(s, k * s[2])
    assert as_ref(a.frobenius(n)) == ref_frobenius(s, n)
    assert (a == b) == ref_eq(s, t)
    # a equal partner on a finer branch, then one coefficient of it changed
    r = ref_rebase(s, k * s[2])
    assert a == TruncSeries(*r)
    if j <= r[1]:
        bumped = ref_series([c + (i == j) for i, c in enumerate(r[0])], *r[1:])
        assert not ref_eq(s, bumped)
        assert a != TruncSeries(*bumped)
