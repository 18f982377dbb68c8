"""Truncated Puiseux series."""
from fractions import Fraction

import pytest

from qzeta.fields import CycRat
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
