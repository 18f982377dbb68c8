"""Scalar fields: rationals and cyclotomic elements."""
import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qzeta.arith import (cyclotomic_int_coeffs, cyclotomic_norm, cyclotomic_reduce, euler_phi,
                         int_poly_divmod_monic)
from qzeta.fields import CycRat, FieldMismatchError, Rat


def test_rat_is_reduced_fraction():
    assert Rat(6, 4) == Fraction(3, 2)
    assert str(Rat(6, 4)) == "3/2"
    assert str(Rat(5)) == "5"
    assert Rat(0, 7) == 0 and Rat(0, 7).denominator == 1


def test_cycrat_basics():
    z = CycRat.zeta_power(4, 1)  # i
    assert z * z == -1
    assert z**4 == 1
    assert CycRat(1, Fraction(2, 3)).rational() == Fraction(2, 3)


def test_inverse_i_is_minus_i():
    z = CycRat.zeta_power(4, 1)
    assert z.inverse() == -z
    assert z * z.inverse() == 1


def test_inverse_one_plus_zeta3():
    e = CycRat(3, [1, 1])
    inv = e.inverse()
    assert inv == -CycRat.zeta_power(3, 1)
    assert e * inv == 1


def test_inverse_rational_embedding():
    e = CycRat(1, Fraction(2, 3))
    assert e.inverse() == Fraction(3, 2)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycRat.zero(5).inverse()


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 12])
def test_every_nonzero_element_invertible(m):
    rng = random.Random(m)
    dim = euler_phi(m)
    for _ in range(25):
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
        e = CycRat(m, coords)
        if e.is_zero():
            continue
        assert e * e.inverse() == 1


def test_conductor_one_matches_rationals_on_random_expressions():
    # 1000 random arithmetic expressions evaluated both in Q and in Q(zeta_1)
    rng = random.Random(20240817)
    ops = "+-*/"
    for _ in range(1000):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        op = ops[rng.randrange(4)]
        if op == "/" and b == 0:
            op = "+"
        ca, cb = CycRat(1, a), CycRat(1, b)
        expect = {"+": a + b, "-": a - b, "*": a * b, "/": a / b if op == "/" else None}[op]
        got = {"+": ca + cb, "-": ca - cb, "*": ca * cb, "/": ca / cb if op == "/" else None}[op]
        assert got == expect


def test_mixed_conductors_reject():
    a = CycRat.zeta_power(4, 1)
    b = CycRat.zeta_power(3, 1)
    with pytest.raises(FieldMismatchError):
        a + b


def test_rational_valued_elements_compare_across_conductors():
    minus_one_in_q_i = CycRat.zeta_power(4, 2)
    assert minus_one_in_q_i == -1
    assert minus_one_in_q_i == CycRat(1, -1)


def test_zeta_power_reduction():
    # zeta_3^2 = -1 - zeta_3 (mod Phi_3)
    z2 = CycRat.zeta_power(3, 2)
    assert z2 == CycRat(3, [-1, -1])


def test_to_complex():
    z = CycRat.zeta_power(4, 1)
    assert abs(z.to_complex() - 1j) < 1e-12


def test_json_value():
    assert CycRat(1, Fraction(3, 2)).json_value() == "3/2"
    assert CycRat.zeta_power(4, 1).json_value() == {
        "conductor": 4,
        "coords": ["0", "1"],
    }


def _close(x: complex, y: complex) -> bool:
    return cmath.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)


small_coords = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@pytest.mark.parametrize("m", range(1, 13))
@given(data=st.data())
def test_cycrat_kernel_matches_complex_embedding(m, data):
    dim = euler_phi(m)
    coords = st.lists(small_coords, min_size=dim, max_size=dim)
    a, b = CycRat(m, data.draw(coords)), CycRat(m, data.draw(coords))
    assert _close((a * b).to_complex(), a.to_complex() * b.to_complex())
    if a:
        assert a * a.inverse() == 1
    # more than phi(m) coordinates: reduced modulo Phi_m on construction
    raw = data.draw(st.lists(small_coords, min_size=dim + 1, max_size=2 * m + 2))
    z = cmath.exp(2j * cmath.pi / m)
    unreduced = sum(float(c) * z**i for i, c in enumerate(raw))
    assert _close(CycRat(m, raw).to_complex(), unreduced)


@given(st.sampled_from([1, 3, 4, 5, 7, 8, 12]), st.integers(0, 2), st.data())
def test_lane_kernels_match_dense_division_and_the_complex_embedding(m, deg, data):
    # a = sum_i zeta^i lane_i(t), lanes of degree deg, packed with zeta = x^L
    dim = euler_phi(m)
    L = dim * deg + 1
    lanes = [data.draw(st.lists(st.integers(-3, 3), min_size=deg + 1, max_size=deg + 1))
             for _ in range(dim)]
    a = [c for lane in lanes for c in lane + [0] * (L - deg - 1)]
    spread = [0] * (dim * L + 1)  # Phi_m(x^L), dense
    spread[::L] = cyclotomic_int_coeffs(m)
    longer = a + data.draw(st.lists(st.integers(-3, 3), max_size=2 * L))
    want = int_poly_divmod_monic(longer, spread)[1]
    assert cyclotomic_reduce(longer, m, L) == want + [0] * (dim * L - len(want))
    conj, norm = cyclotomic_norm(a, m, L)
    assert not any(norm[L:])  # the norm is rational in zeta
    t = 0.7
    want = 1
    for k in (k for k in range(1, m + 1) if math.gcd(k, m) == 1):
        z = cmath.exp(2j * cmath.pi * k / m)
        want *= sum(z**i * sum(c * t**j for j, c in enumerate(lane)) for i, lane in enumerate(lanes))
    got = sum(c * t**j for j, c in enumerate(norm[:L]))
    assert abs(got - want) <= 1e-6 * max(1, abs(want))
