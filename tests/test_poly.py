"""Dense polynomials, gcd, and cyclotomic polynomials."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import polys, small_fractions
from qzeta.arith import divisors, euler_phi, factorize
from qzeta.fields import CycRat, FieldMismatchError
from qzeta.poly import Poly, cyclotomic, divide_out_cyclotomic, poly_gcd


def test_construction_trims_and_rejects_floats():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([]).is_zero()
    # every coefficient is type-checked before trimming: a float zero too
    for bad in ([0.5], [1, 0.0], [0.0], [1j], ["a"]):
        with pytest.raises(TypeError):
            Poly(bad)


def test_divmod_refuses_what_is_not_a_polynomial():
    p = Poly([0, 1])
    for op in (lambda: divmod(p, "x"), lambda: p // 1.5, lambda: p % None):
        with pytest.raises(TypeError):
            op()


def test_poly_of_a_poly_keeps_or_relabels_its_variable():
    v = Poly([0, 1], "v")
    assert Poly(v).var == "v"
    assert Poly(v, "q").var == "q" and Poly(v, "q") == v


def test_gcd_common_factor_by_inspection():
    assert poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1])) == Poly([-1, 1])


def test_gcd_euclid_by_hand():
    # q^3-1 = q(q^2-1) + (q-1);  q^2-1 = (q+1)(q-1): gcd is q-1
    assert poly_gcd(Poly([-1, 0, 0, 1]), Poly([-1, 0, 1])) == Poly([-1, 1])


def test_gcd_with_zero_is_monic():
    assert poly_gcd(Poly([2, 4]), Poly.zero()) == Poly([Fraction(1, 2), 1])
    assert poly_gcd(Poly.zero(), Poly.zero()).is_zero()


def test_values_on_different_branches_do_not_mix():
    q, v = Poly([0, 1], "q"), Poly([0, 1], "v")
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(FieldMismatchError):
            op(q, v)
    # a constant carries no branch and takes the other operand's
    assert (Poly([2]) + v).var == "v" and (Poly([3]) * v).var == "v"
    assert (v - Poly([1], "q")).var == "v" and Poly([2], "v") * Poly([3]) == 6


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
    # CycRat values of conductor 1 read back as rationals: ints over the
    # denominator 1, Fractions otherwise, and the integer gcd reads them
    p = Poly([CycRat(1, 2), CycRat(1, 1)])
    assert p.coeffs == (2, 1) and all(type(c) is int for c in p.coeffs)
    assert poly_gcd(p, Poly([2, 1])) == Poly([2, 1])
    assert Poly([CycRat(1, 1), CycRat(4, [0, 1])]).field_key() == ("cyc", 4)
    p = Poly([CycRat(1, Fraction(1, 2)), 3, CycRat(1, 0)])
    assert p.field_key() == "rat" and p.coeffs == (Fraction(1, 2), 3)
    assert all(isinstance(c, Fraction) for c in p.coeffs)


def _field_from_coeffs(p):
    """p's coefficient field, classified from its coefficients alone."""
    kinds = {("cyc", c.m) if isinstance(c, CycRat) else "rat" for c in p.coeffs}
    assert len(kinds) <= 1, kinds  # every coefficient is in one field
    return kinds.pop() if kinds else "rat"


@st.composite
def field_polys(draw, m, max_degree=3):
    """Polynomials over Q(zeta_m) (Q for m = 1) whose coefficients mix
    CycRat values of conductor m and 1 with ints and Fractions."""
    def coeff():
        kind = draw(st.sampled_from(["rat", "unit", "cyc"]))
        x = draw(small_fractions)
        if kind == "rat":
            return x
        if kind == "unit" or m == 1:
            return CycRat(1, x)
        return CycRat(m, [x] + [draw(small_fractions) for _ in range(euler_phi(m) - 1)])
    return Poly([coeff() for _ in range(draw(st.integers(0, max_degree + 1)))])


def test_fields_do_not_mix():
    i, w = Poly([0, CycRat.zeta_power(4, 1)]), Poly([1, CycRat.zeta_power(3, 1)])
    assert (i.field_key(), w.field_key()) == (("cyc", 4), ("cyc", 3))
    for op in (lambda: i + w, lambda: i - w, lambda: i * w,
               lambda: Poly([CycRat.zeta_power(4, 1), CycRat.zeta_power(3, 1)])):
        with pytest.raises(FieldMismatchError):
            op()
    # zero lies in every field: a zero CycRat fixes none
    assert Poly([1, CycRat(4, 0), CycRat(3, 0)]).field_key() == "rat"
    assert Poly([CycRat(3, 0), CycRat.zeta_power(4, 1)]).coeffs == (0, CycRat.zeta_power(4, 1))


@given(data=st.data(), m=st.sampled_from([1, 3, 4, 5, 8, 12]))
def test_stored_field_matches_coefficients(data, m):
    a, b = data.draw(field_polys(m)), data.draw(field_polys(m))
    d = data.draw(polys(max_degree=2, allow_zero=False))
    c = data.draw(small_fractions) if m == 1 else CycRat.zeta_power(m, data.draw(st.integers(0, m)))
    k = data.draw(st.integers(1, 3))
    results = [a, a + b, a - b, a * b, a * d, d * b, a.scale(c), a.shift(k),
               a.scale_exponents(k), *divmod(a, d)]
    for r in results:
        assert r.field_key() == _field_from_coeffs(r)


def _divmod_route(p, limits):
    """Trial division by Phi_d through Poly.__divmod__, coefficient by
    coefficient in p's own field: the reference for the lane kernel."""
    factors = []
    for d in sorted(limits):
        mult = 0
        while mult < limits[d]:
            quo, rem = divmod(p, cyclotomic(d, p.var))
            if not rem.is_zero():
                break
            p, mult = quo, mult + 1
        if mult:
            factors.append((d, mult))
    return p, factors


@st.composite
def planted_products(draw):
    """(p, limits) with p = sum_i zeta_m^i A_i prod_d Phi_d^e(d, i) over Q
    (m = 1) or Q(zeta_m): each power of zeta carries its own planted
    exponents, so Phi_d may divide some lanes of p and not others."""
    m = draw(st.sampled_from([1, 3, 4, 5, 7, 8, 12]))
    ds = draw(st.lists(st.integers(1, 12), max_size=3, unique=True))
    fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    p = Poly.zero()
    for i in range(euler_phi(m)):
        lane = Poly(draw(st.lists(fracs, min_size=1, max_size=4)))
        for d in ds:
            lane = lane * cyclotomic(d) ** draw(st.integers(0, 2))
        p = p + lane * (CycRat.zeta_power(m, i) if m > 1 else 1)
    return p, {d: draw(st.integers(0, 3)) for d in ds}


@given(planted_products())
def test_lane_trial_division_matches_divmod(case):
    p, limits = case
    assert divide_out_cyclotomic(p, limits) == _divmod_route(p, limits)


@given(planted_products(), polys(), small_fractions)
def test_lane_products_match_the_convolution(case, r, c):
    # a rational factor multiplies each lane of a Q(zeta_m) polynomial
    p, _ = case
    out = [0] * max(len(p.coeffs) + len(r.coeffs) - 1, 0)
    for i, x in enumerate(p.coeffs):
        for j, y in enumerate(r.coeffs):
            out[i + j] = out[i + j] + x * y
    assert p * r == Poly(out) and r * p == Poly(out)
    assert p.scale(c) == Poly([x * c for x in p.coeffs]) == c * p


def test_lanes_round_trip():
    # the coefficient view gives back the polynomial it was read from
    i = CycRat.zeta_power(4, 1)
    for p in (Poly([Fraction(1, 2), 0, 3]), Poly([i, Fraction(2, 3), i * i + 5]), Poly([])):
        assert Poly(p.coeffs, p.var) == p
    p = Poly([i, Fraction(1, 2)])
    assert (p.lanes, p.den, p.m) == (((0, 1), (2, 0)), 2, 4)


def _convolve(a, b, m):
    """Schoolbook product of two CycRat coefficient lists over Q(zeta_m)."""
    out = [CycRat(m)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _conjugate(c, k):
    """sigma_k(c): zeta -> zeta^k."""
    vec = [0] * c.m
    for i, x in enumerate(c.coords):
        vec[i * k % c.m] += x
    return CycRat(c.m, vec)


@given(st.data(), st.sampled_from([3, 4, 5, 8, 12]))
def test_cyclotomic_products_match_the_coefficient_convolution(data, m):
    # both sides over Q(zeta_m): one Kronecker product reduced mod Phi_m;
    # times the product of a's other conjugates it is a's norm, rational
    coords = st.lists(small_fractions, min_size=euler_phi(m), max_size=euler_phi(m))
    a = data.draw(st.lists(coords.map(lambda c: CycRat(m, c)), max_size=4))
    b = data.draw(st.lists(coords.map(lambda c: CycRat(m, c)), max_size=4))
    if data.draw(st.booleans()):
        b = [CycRat(m, 1)]
        for k in range(2, m):
            if gcd(k, m) == 1:
                b = _convolve(b, [_conjugate(c, k) for c in a], m)
    want = _convolve(a, b, m)
    got = Poly(a) * Poly(b)
    assert got == Poly(want) and got.coeffs == Poly(want).coeffs
    assert [got.coeff(k) for k in range(len(want))] == want
    if all(c.is_rational() for c in want):
        assert got.m == 1 and got.field_key() == "rat" == _field_from_coeffs(got)
    else:
        assert got.field_key() == ("cyc", m) == _field_from_coeffs(got)
