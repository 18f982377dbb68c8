"""Quantum integers, Frobenius, and the q-difference operator Delta."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qzeta.fields import CycRat
from qzeta.operators import OperatorSpec, _delta_at, _delta_numerators, apply_delta
from qzeta.poly import Poly
from qzeta.quantum import frobenius, quantum_int, quantum_value
from qzeta.ratfunc import RatFunc
from qzeta.series import TruncSeries, series_from_ratfunc


def test_quantum_int_examples():
    assert quantum_int(1).value == RatFunc.one()
    assert quantum_int(3).value == RatFunc(Poly([1, 1, 1]))
    assert quantum_int(Fraction(1, 2), 2).value == RatFunc(Poly([1]), Poly([1, 1]))


def test_quantum_int_domain():
    with pytest.raises(ValueError):
        quantum_int(0)
    with pytest.raises(ValueError):
        quantum_int(Fraction(1, 3), 2)  # not representable on branch 2


@pytest.mark.parametrize("n", range(1, 13))
def test_successor_identity(n):
    # 1 + q [n] = [n+1]
    q = RatFunc(Poly([0, 1]))
    assert RatFunc.one() + q * quantum_value(n, 1) == quantum_value(n + 1, 1)


@pytest.mark.parametrize("m", range(1, 13))
@pytest.mark.parametrize("n", range(1, 13))
def test_multiplicative_identity(m, n):
    # [m] * F_m([n]) = [mn]: the computational heart of the commutation rule
    lhs = quantum_value(m, 1) * frobenius(quantum_value(n, 1), m)
    assert lhs == quantum_value(m * n, 1)


@pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)])
@pytest.mark.parametrize("n", range(1, 9))
def test_shift_identity_rational(x, n):
    # [x] + q^x [n] = [n + x] on branch b = denominator of x
    a, b = x.numerator, x.denominator
    q_to_x = RatFunc.from_poly(Poly.monomial(a, 1, "v"))
    n_bracket_on_b = quantum_value(n * b, b)  # [n] re-expressed in v
    lhs = quantum_value(a, b) + q_to_x * n_bracket_on_b
    assert lhs == quantum_value(n * b + a, b)


def test_quantum_value_is_on_its_branch():
    assert quantum_value(3, 1).var == "q"
    assert quantum_value(3, 2).var == "v" and quantum_value(4, 2).var == "v"
    assert quantum_value(3, 2, "w").var == "w"


def test_frobenius_examples():
    assert frobenius(Poly([0, 1, 0, 1]), 2) == Poly([0, 0, 1, 0, 0, 0, 1])
    f = RatFunc(Poly([1]), Poly([1, -1]))
    assert frobenius(f, 3) == RatFunc(Poly([1]), Poly([1, 0, 0, -1]))
    assert frobenius(Poly([0, 0, 1]), Fraction(3, 2)) == Poly([0, 0, 0, 1])
    i = CycRat.zeta_power(4, 1)
    assert frobenius(Poly([0, 0, i, 0, 3], "v"), Fraction(3, 2)) == Poly([0, 0, 0, i, 0, 0, 3], "v")


def test_frobenius_rejects_leaving_branch():
    with pytest.raises(ValueError):
        frobenius(Poly([0, 1]), Fraction(1, 2))  # q^(1/2) not on branch 1
    with pytest.raises(ValueError, match="exponent 1 "):  # only the zeta lane leaves it
        frobenius(Poly([2, CycRat.zeta_power(4, 1)]), Fraction(1, 2))


@given(
    m=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=6),
    coeffs=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5),
)
def test_frobenius_composition(m, n, coeffs):
    p = Poly(coeffs)
    assert frobenius(frobenius(p, m), n) == frobenius(p, m * n)


def test_frobenius_on_series():
    s = TruncSeries([0, 1, 1], 2)
    assert frobenius(s, 2) == TruncSeries([0, 0, 1, 0, 1], 4)


def test_float_indices_are_refused_before_building(monkeypatch):
    # Fraction(0.1) is exact binary: branch 2^55, and a quantum_value of
    # 3,602,879,701,896,397 coefficients; the recorders stop any such build
    def recorder(*args):
        raise RuntimeError(f"built for a float index: {args!r}")

    monkeypatch.setattr("qzeta.quantum.quantum_value", recorder)
    monkeypatch.setattr(Poly, "scale_exponents", recorder)
    for build in (
        lambda: quantum_int(0.1),
        lambda: quantum_int(0.5j),
        lambda: TruncSeries([0, 1], 4).frobenius(0.1),
        lambda: frobenius(TruncSeries([0, 1], 4), 0.1),
        lambda: frobenius(Poly([0, 1]), 0.1),
        lambda: frobenius(RatFunc.from_poly(Poly([0, 1])), 0.1),
    ):
        with pytest.raises(TypeError, match="exact mode needs a rational"):
            build()
    monkeypatch.undo()
    assert quantum_int("1/10").branch == 10
    assert frobenius(TruncSeries([0, 1], 4), "1/2") == TruncSeries([0, 1], 4, 2)


# -- Delta: the kernel of apply_delta ---------------------------------------
#
# the kernel ({a: 1}, M) stands for f(r) = sum_t q^((a+tM) r); each of the
# k steps applies Delta(q^(nr)) = [n] q^(nr), and _delta_at gives the value at r.


def delta_value(a, M, k, r):
    nums = _delta_numerators(({a: 1}, M), k, "q")
    return _delta_at(nums, M, 1, k, r).reduce().to_ratfunc()


def bracket_power_series(exponents, k, r, order):
    """sum_n [n]^k q^(nr) over the given n, truncated at order."""
    coeffs = [Fraction(0)] * (order + 1)
    for n in exponents:
        if n * r > order:
            continue
        for e, c in enumerate((Poly([1] * n) ** k).coeffs):
            if e + n * r <= order:
                coeffs[e + n * r] += c
    return TruncSeries(coeffs, order)


def test_delta_eigenrelation_small():
    # with M beyond the order only q^(ar) counts: Delta^k q^r = q^r since
    # [1] = 1, and Delta q^(2r) = (1 + q) q^(2r)
    order = 40
    for k in range(4):
        got = series_from_ratfunc(delta_value(1, order + 1, k, 1), order)
        assert got == TruncSeries([0, 1], order)
    got = series_from_ratfunc(delta_value(2, order + 1, 1, 1), order)
    assert got == TruncSeries([0, 0, 1, 1], order)


@pytest.mark.parametrize("n", range(1, 11))
def test_delta_eigenrelation(n):
    # kernel {n: 1} of period M after k steps, at r: sum_t [n+tM]^k q^((n+tM) r)
    order = 40
    for M in (1, n + 1):
        for k in (1, 2):
            for r in (1, 2):
                got = series_from_ratfunc(delta_value(n, M, k, r), order)
                terms = range(n, order + 1, M)
                assert got == bracket_power_series(terms, k, r, order), (M, k, r)


def test_delta_geometric_by_hand():
    # one Delta step on w/(1-w) gives w/((1-w)(1-qw)): q/((1-q)(1-q^2)) at r = 1
    expect = RatFunc(Poly([0, 1]), Poly([1, -1]) * Poly([1, 0, -1]))
    assert delta_value(1, 1, 1, 1) == expect
    assert apply_delta(OperatorSpec.riemann(-1), Poly([0, 1])).value == expect


def test_bi_eval_examples():
    # evaluation at r by hand: w/(1-w) at r = 1 is q/(1-q), w alone at
    # r = 3 is q^3, and Delta(w/(1-w)) at r = 1 is q/((1-q)(1-q^2))
    assert delta_value(1, 1, 0, 1) == RatFunc(Poly([0, 1]), Poly([1, -1]))
    order = 40
    got = series_from_ratfunc(delta_value(1, order + 1, 0, 3), order)
    assert got == TruncSeries([0, 0, 0, 1], order)
    assert delta_value(1, 1, 1, 1) == RatFunc(
        Poly([0, 1]), Poly([1, -1]) * Poly([1, 0, -1])
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_delta_iterates_match_term_series(k, r):
    # apply_delta(zeta_q(-k), q^r) must expand to sum_n [n]^k q^(nr)
    order = 40
    value = apply_delta(OperatorSpec.riemann(-k), Poly.monomial(r)).value
    got = series_from_ratfunc(value, order)
    assert got == bracket_power_series(range(1, order + 1), k, r, order)
