"""Root finding and the numerator survey."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qzeta.carlitz import beta
from qzeta.characters import character
from qzeta.poly import Poly, cyclotomic
from qzeta.roots import (
    _RESIDUAL_BITS,
    _working_bits,
    beta_root_survey,
    classify_roots,
    find_roots,
)


def test_roots_of_quadratic():
    roots = sorted(find_roots(Poly([-1, 0, 1])), key=lambda z: z.real)
    assert abs(roots[0] + 1) < 1e-10 and abs(roots[1] - 1) < 1e-10


def test_zero_roots_stripped_exactly():
    roots = find_roots(beta(4).value.num)
    assert sum(1 for z in roots if z == 0) == 1
    assert len(roots) == 5


def test_beta4_quartic_residuals():
    num = beta(4).value.num
    coeffs = [int(c) for c in num.coeffs]
    for z in find_roots(num, 1e-12):
        value = abs(sum(c * z**i for i, c in enumerate(coeffs)))
        assert value < 1e-10


def test_cyclotomic_roots_on_circle():
    for z in find_roots(cyclotomic(5)):
        assert abs(abs(z) - 1) < 1e-12


def test_find_roots_rejects_junk():
    with pytest.raises(ValueError):
        find_roots(Poly.zero())
    assert find_roots(Poly([7])) == []


def test_classify_examples():
    assert classify_roots([1 + 0j, -1 + 0j])["on_unit_circle"] == 2
    counts = classify_roots([0.5 + 0j, 2.0 + 0j])
    assert counts["real_positive"] == 2
    # circle test takes precedence over realness
    only_circle = classify_roots([-1 + 0j])
    assert only_circle["on_unit_circle"] == 1 and only_circle["other_real"] == 0


def test_beta4_has_real_positive_roots():
    # the degree-4 factor changes sign on (0, 1): p(0) = 1 > 0, p(1) = -2 < 0
    quartic = Poly([1, -1, -2, -1, 1])
    assert quartic(0) == 1 and quartic(1) == -2
    counts = classify_roots(find_roots(quartic))
    assert counts["real_positive"] >= 1


def test_survey_small():
    reports = beta_root_survey(4)
    assert [rep.n for rep in reports] == [2, 3, 4]
    n2, n3, n4 = reports
    assert n2.degree == 0 and n2.roots == []
    assert n3.degree == 1 and n3.counts["on_unit_circle"] == 1
    assert abs(n3.roots[0] - 1) < 1e-12
    assert n4.degree == 4


@pytest.mark.parametrize("n_max", [8])
def test_survey_invariants(n_max):
    for rep in beta_root_survey(n_max):
        assert sum(rep.counts.values()) == rep.degree
        for z, res in zip(rep.roots, rep.residuals):
            assert res <= 1e-8
            assert min(abs(z.conjugate() - w) for w in rep.roots) <= 1e-8
        if rep.n >= 3:
            assert any(abs(abs(z) - 1) <= 1e-6 for z in rep.roots)


def test_survey_real_character():
    reports = beta_root_survey(4, chi=character(4, 1))
    assert len(reports) == 3
    for rep in reports:
        for res in rep.residuals:
            assert res <= 1e-8


def test_survey_rejects_complex_character():
    chi = character(5, 1)
    with pytest.raises(ValueError):
        beta_root_survey(4, chi=chi)


def test_determinism():
    a = find_roots(beta(6).value.num, 1e-12)
    b = find_roots(beta(6).value.num, 1e-12)
    assert a == b


def test_horner_fixed_is_exact_at_a_dyadic_point():
    # x = 3/4 + i/2 needs few bits, so every fixed-point step is exact
    from fractions import Fraction

    from qzeta.roots import _horner_fixed

    coeffs = [1, -2, 0, 5, 3]
    bits = 136
    xr, xi = 3 << (bits - 2), 1 << (bits - 1)
    pr, pi_, dr, di = _horner_fixed(coeffs, xr, xi, bits)
    x = (Fraction(3, 4), Fraction(1, 2))

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    p, d = (Fraction(coeffs[-1]), Fraction(0)), (Fraction(0), Fraction(0))
    for c in reversed(coeffs[:-1]):
        dx = mul(d, x)
        d = (dx[0] + p[0], dx[1] + p[1])
        px = mul(p, x)
        p = (px[0] + c, px[1])
    one = 1 << bits
    assert (pr, pi_) == (p[0] * one, p[1] * one)
    assert (dr, di) == (d[0] * one, d[1] * one)


# (real_positive, on_unit_circle, complex_pairs_off_circle, other_real) for
# n = 2..21 as the solver gave them with a 600-sweep float seed; stopping
# the seed early must not move them
CENSUS_TO_21 = {
    2: (0, 0, 0, 0), 3: (0, 1, 0, 0), 4: (2, 2, 0, 0), 5: (2, 3, 0, 0),
    6: (4, 6, 0, 0), 7: (4, 7, 0, 0), 8: (6, 8, 4, 0), 9: (6, 11, 4, 0),
    10: (8, 14, 8, 0), 11: (8, 21, 4, 0), 12: (10, 30, 4, 0),
    13: (10, 29, 4, 0), 14: (12, 32, 12, 0), 15: (12, 35, 16, 0),
    16: (14, 44, 20, 0), 17: (14, 53, 16, 0), 18: (16, 60, 24, 0),
    19: (16, 63, 20, 0), 20: (18, 68, 32, 0), 21: (18, 81, 28, 0),
}
CENSUS_KEYS = ("real_positive", "on_unit_circle", "complex_pairs_off_circle", "other_real")


@pytest.fixture(scope="module")
def survey_21():
    return beta_root_survey(21)


def test_census_to_21_is_pinned(survey_21):
    assert {rep.n: tuple(rep.counts[k] for k in CENSUS_KEYS) for rep in survey_21} == CENSUS_TO_21
    assert max(max(rep.residuals, default=0.0) for rep in survey_21) <= 1e-15


def test_residuals_match_a_120_digit_horner(survey_21):
    import mpmath as mp

    from qzeta.arith import clear_denominators

    with mp.workdps(120):
        for rep in survey_21:
            coeffs, _ = clear_denominators(beta(rep.n).value.num.coeffs)
            coeffs = coeffs[next(i for i, c in enumerate(coeffs) if c):]
            scale = max(abs(c) for c in coeffs)
            for z, res in zip(rep.roots, rep.residuals):
                x, acc = mp.mpc(z), mp.mpc(0)
                for c in reversed(coeffs):
                    acc = acc * x + c
                ref = abs(acc) / (scale * mp.mpf(max(1.0, abs(z))) ** rep.degree)
                assert abs(res - ref) <= 1e-15 * ref, (rep.n, z)


def test_residuals_round_as_the_40_digit_mpmath_quotient(survey_21):
    # the integer quotient gives the double that mpmath at 40 digits gave
    from fractions import Fraction

    import mpmath as mp

    from qzeta.arith import clear_denominators
    from qzeta.roots import _RESIDUAL_BITS, _horner_fixed

    one = 1 << _RESIDUAL_BITS
    with mp.workdps(40):
        for rep in survey_21:
            coeffs, _ = clear_denominators(beta(rep.n).value.num.coeffs)
            coeffs = coeffs[next(i for i, c in enumerate(coeffs) if c):]
            scale = max(abs(c) for c in coeffs)
            for z, res in zip(rep.roots, rep.residuals):
                xr, xi = int(Fraction(z.real) * one), int(Fraction(z.imag) * one)
                pr, pi_, _, _ = _horner_fixed(coeffs, xr, xi, _RESIDUAL_BITS)
                val = mp.sqrt(mp.mpf(pr * pr + pi_ * pi_))
                norm = mp.mpf(scale * one) * mp.mpf(max(1.0, abs(z))) ** rep.degree
                assert res == float(val / norm), (rep.n, z)


@pytest.mark.parametrize("k", range(6, 31))
def test_working_bits_match_mpmath_dps_to_prec(k):
    # the solver's bits were mpmath's dps_to_prec(max(40, int(-log10 tol) + 25))
    import mpmath as mp

    from qzeta.roots import _working_bits

    for mantissa in (1, 2.5, 5, 9.99):
        tol = float(f"{mantissa}e-{k}")
        want = mp.libmp.dps_to_prec(max(40, int(-mp.log10(tol)) + 25))
        assert _working_bits(tol) == want, tol


def test_warm_start_stops_when_it_stalls(monkeypatch):
    # without a stall stop the float seed runs to its 600-sweep cap on the
    # stripped, Phi-divided numerator of beta_21 (degree 126)
    import numpy as np

    from qzeta import roots
    from qzeta.arith import clear_denominators
    from qzeta.poly import divide_out_cyclotomic

    coeffs, _ = clear_denominators(beta(21).value.num.coeffs)
    stripped = Poly(coeffs[next(i for i, c in enumerate(coeffs) if c):])
    rest, _ = divide_out_cyclotomic(stripped, dict.fromkeys(range(1, 23), float("inf")))
    ints, _ = clear_denominators(rest.coeffs)
    assert len(ints) - 1 == 126
    calls = 0
    polyval = np.polyval

    def counting(p, x):
        nonlocal calls
        calls += 1
        return polyval(p, x)

    monkeypatch.setattr(roots.np, "polyval", counting)
    roots._warm_start(ints)
    assert calls // 2 <= 100  # p and p' once per sweep


# census for n = 22..26, captured before the conversions moved to ldexp
CENSUS_22_TO_26 = {
    22: (20, 92, 36, 0), 23: (20, 95, 36, 0), 24: (22, 108, 44, 0),
    25: (22, 103, 52, 0), 26: (24, 118, 60, 0),
}


def test_census_22_to_26_is_pinned():
    reports = [rep for rep in beta_root_survey(26) if rep.n >= 22]
    assert {rep.n: tuple(rep.counts[k] for k in CENSUS_KEYS) for rep in reports} == CENSUS_22_TO_26


def _survey_digest(reports):
    import hashlib

    h = hashlib.sha256()
    for rep in reports:
        h.update(repr((rep.n, rep.roots, rep.residuals)).encode())
    return h.hexdigest()


def test_survey_roots_and_residuals_are_bit_identical_to_the_fraction_kernels():
    # sha256 of repr of every root and residual, taken when every float ->
    # fixed conversion went through Fraction and the residuals through
    # _horner_fixed; numpy's float64 kernels on x86-64 gave these
    assert _survey_digest(beta_root_survey(16)) == (
        "3e21fd7eff94c6641e697a9baec51d948a4604edb617a9a57a23a1eb23be30ee"
    )
    assert _survey_digest(beta_root_survey(8, chi=character(5, 2))) == (
        "a0c238e097cf056bbce52de17c374c48be7d98effdec266f919005418a4db293"
    )


def test_find_roots_rejects_max_iter_below_one():
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        find_roots(Poly([-2, 0, 1]), max_iter=0)


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan"), float("inf")])
def test_tol_must_be_positive_and_finite(tol):
    message = "tol must be a positive finite number"
    for p in (Poly([-2, 0, 1]), Poly([7])):
        with pytest.raises(ValueError, match=message):
            find_roots(p, tol)
    with pytest.raises(ValueError, match=message):
        beta_root_survey(3, tol=tol)


def test_find_roots_names_a_cyclotomic_coefficient_field():
    from qzeta.fields import CycRat

    with pytest.raises(ValueError, match=r"rational coefficients, not Q\(zeta_4\)"):
        find_roots(Poly([CycRat(4, [0, 1]), 1]))


def _ldexp_limit(bits):
    import math

    return math.nextafter(2.0 ** (1024 - bits), 0.0)  # largest |x| ldexp(x, bits) can scale


# +-0, the smallest subnormals, one with a fraction part, 1/3, the largest double
_FLOAT_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308 / 3, 1 / 3, -1.7976931348623157e308
]


@pytest.mark.parametrize(
    "bits", [_working_bits(1e-12), _RESIDUAL_BITS, _working_bits(1e-30)],
    ids=["solver", "residual", "tol-1e-30"],
)
@given(x=st.sampled_from(_FLOAT_EDGES) | st.floats(allow_nan=False, allow_infinity=False))
def test_ldexp_truncates_as_the_fraction_product(bits, x):
    from fractions import Fraction
    from math import ldexp

    limit = _ldexp_limit(bits)
    for y in (x, limit, -limit):
        if abs(y) <= limit:
            assert int(ldexp(y, bits)) == int(Fraction(y) * (1 << bits))
        else:
            with pytest.raises(OverflowError):
                ldexp(y, bits)
    with pytest.raises(OverflowError):
        ldexp(2.0 ** (1024 - bits), bits)


@pytest.mark.parametrize("bits", [136, 1083])
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_fixed_is_the_fraction_product_for_every_finite_float(bits, x):
    from fractions import Fraction

    from qzeta.roots import _fixed

    assert _fixed(x, bits) == int(Fraction(x) * (1 << bits))


def test_corrections_beyond_the_ldexp_range_are_applied_exactly():
    # at 1000 bits ldexp overflows past 2^24: the starts at +-1e8 and the
    # first corrections (about 6.7e7) take the Fraction path and converge
    from qzeta.roots import _aberth_fixed

    assert 1e8 > _ldexp_limit(1000)
    roots = _aberth_fixed([-2, 0, 1], [1e8 + 0j, -1e8 + 0j], 1e-12, 400, 1000)
    assert roots == [1.4142135623730951 + 0j, -1.4142135623730951 + 0j]
    # tol = 1e-300 works at 1083 bits, where even the starts leave ldexp's range
    assert find_roots(Poly([-2, 0, 1]), tol=1e-300) == roots


def test_an_overflowing_newton_step_ends_in_root_finding_error():
    # p'(0) = 0, so the step is p(0) = 10^400, which no double holds
    from qzeta.roots import RootFindingError, _aberth_fixed

    with pytest.raises(RootFindingError, match="diverged") as err:
        _aberth_fixed([10**400, 0, 1], [0j, 1 + 0j], 1e-12, 400, 136)
    assert err.value.max_update == float("inf") and err.value.roots == [0j, 1 + 0j]


@pytest.mark.parametrize("bits", [53, 136, 200])
@given(
    coeffs=st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=12),
    xr=st.integers(-(1 << 210), 1 << 210),
    xi=st.integers(-(1 << 210), 1 << 210),
)
def test_horner_value_is_the_value_half_of_horner_fixed(bits, coeffs, xr, xi):
    from qzeta.roots import _horner_fixed, _horner_value

    assert _horner_value(coeffs, xr, xi, bits) == _horner_fixed(coeffs, xr, xi, bits)[:2]


def test_warm_start_sweeps_stop_at_the_stall(monkeypatch):
    # one fill_diagonal per sweep; without the stall stop the float seed of
    # the degree-126 rest of beta_21 runs to its 600-sweep cap
    import numpy as np

    from qzeta import roots
    from qzeta.arith import clear_denominators
    from qzeta.poly import divide_out_cyclotomic

    coeffs, _ = clear_denominators(beta(21).value.num.coeffs)
    stripped = Poly(coeffs[next(i for i, c in enumerate(coeffs) if c):])
    rest, _ = divide_out_cyclotomic(stripped, dict.fromkeys(range(1, 23), float("inf")))
    ints, _ = clear_denominators(rest.coeffs)
    sweeps = 0
    fill_diagonal = np.fill_diagonal

    def counting(a, val):
        nonlocal sweeps
        sweeps += 1
        return fill_diagonal(a, val)

    monkeypatch.setattr(roots.np, "fill_diagonal", counting)
    roots._warm_start(ints)
    assert 20 <= sweeps <= 100
