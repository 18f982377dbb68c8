"""Root finding and the numerator survey."""
import pytest

from qzeta.carlitz import beta
from qzeta.characters import character
from qzeta.poly import Poly, cyclotomic
from qzeta.roots import beta_root_survey, classify_roots, find_roots


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
