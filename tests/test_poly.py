"""Dense polynomials, gcd, and cyclotomic polynomials."""
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import polys
from qzeta.arith import divisors, euler_phi, factorize
from qzeta.fields import CycRat, FieldMismatchError
from qzeta.poly import Poly, cyclotomic, poly_gcd


def test_construction_trims_and_rejects_floats():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([]).is_zero()
    with pytest.raises(TypeError):
        Poly([0.5])


def test_gcd_common_factor_by_inspection():
    assert poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1])) == Poly([-1, 1])


def test_gcd_euclid_by_hand():
    # q^3-1 = q(q^2-1) + (q-1);  q^2-1 = (q+1)(q-1): gcd is q-1
    assert poly_gcd(Poly([-1, 0, 0, 1]), Poly([-1, 0, 1])) == Poly([-1, 1])


def test_gcd_with_zero_is_monic():
    assert poly_gcd(Poly([2, 4]), Poly.zero()) == Poly([Fraction(1, 2), 1])
    assert poly_gcd(Poly.zero(), Poly.zero()).is_zero()


def test_gcd_rejects_mixed_fields():
    a = Poly([CycRat.zeta_power(4, 1)])
    b = Poly([CycRat.zeta_power(3, 1)])
    with pytest.raises(FieldMismatchError):
        poly_gcd(a, b)


@given(a=polys(), b=polys(), c=polys(allow_zero=False))
def test_gcd_divides_both_and_common_factor(a, b, c):
    g = poly_gcd(a * c, b * c)
    if not g.is_zero():
        assert g.divides(a * c)
        assert g.divides(b * c)
    if not (a.is_zero() and b.is_zero()):
        assert c.divides(g)


@given(a=polys(), b=polys(allow_zero=False))
def test_divmod_identity(a, b):
    quo, rem = divmod(a, b)
    assert quo * b + rem == a
    assert rem.degree < b.degree


def test_cyclotomic_small():
    assert cyclotomic(1) == Poly([-1, 1])
    assert cyclotomic(2) == Poly([1, 1])
    assert cyclotomic(6) == Poly([1, -1, 1])


def test_cyclotomic_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic(0)


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_product_is_qn_minus_one(n):
    prod = Poly.one()
    for d in divisors(n):
        prod = prod * cyclotomic(d)
    assert prod == Poly([-1] + [0] * (n - 1) + [1])


@pytest.mark.parametrize("n", range(2, 61))
def test_cyclotomic_value_at_one(n):
    facs = factorize(n)
    expected = facs[0][0] if len(facs) == 1 else 1
    assert cyclotomic(n)(1) == expected


@pytest.mark.parametrize("n", range(1, 40))
def test_cyclotomic_degree(n):
    assert cyclotomic(n).degree == euler_phi(n)


def test_scale_exponents():
    assert Poly([0, 1, 0, 1]).scale_exponents(2) == Poly([0, 0, 1, 0, 0, 0, 1])


def test_eval_horner():
    p = Poly([1, -2, 3])
    assert p(Fraction(1, 2)) == 1 - 1 + Fraction(3, 4)
    assert p(2 + 0j) == 1 - 4 + 12


def test_str_round_shape():
    assert str(Poly([0, 1, -3])) == "q - 3*q^2"
    assert str(Poly.zero()) == "0"
    assert str(Poly([Fraction(-3, 2), 1])) == "-3/2 + q"


def test_pow():
    assert Poly([1, 1]) ** 3 == Poly([1, 3, 3, 1])
    assert Poly([1, 1]) ** 0 == Poly.one()


def test_constants_hash_as_their_scalar():
    # equal values must hash equal, so a constant and its scalar are one key
    from qzeta.ratfunc import RatFunc

    assert len({Poly([3]), 3}) == 1
    assert len({RatFunc.constant(3), 3}) == 1
    assert hash(Poly.zero()) == hash(0)
    assert hash(Poly([Fraction(1, 2)])) == hash(Fraction(1, 2))
    assert hash(Poly([CycRat(4, 3)])) == hash(3)
    p = Poly([0, 1, 1])
    assert RatFunc.from_poly(p) == p and hash(RatFunc.from_poly(p)) == hash(p)


def test_conductor_one_cycrat_coefficients_are_rational():
    # CycRat values of conductor 1 become Fractions, so the integer gcd reads them
    p = Poly([CycRat(1, 2), CycRat(1, 1)])
    assert p.coeffs == (2, 1) and all(isinstance(c, Fraction) for c in p.coeffs)
    assert poly_gcd(p, Poly([2, 1])) == Poly([2, 1])
    assert Poly([CycRat(1, 1), CycRat(4, [0, 1])]).field_key() == ("cyc", 4)
