"""The three exact operator backends, the Euler product, and numeric mode."""
import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qzeta import operators
from qzeta.arith import euler_phi
from qzeta.carlitz import beta_poly, verify_hurwitz
from qzeta.characters import character, characters
from qzeta.fields import CycRat
from qzeta.operators import (
    ConvergenceError,
    DomainError,
    OperatorSpec,
    _bracket_sum,
    _geometric,
    _kernel,
    apply_delta,
    apply_geometric,
    apply_series,
    check_chi_decomposition,
    check_commute,
    check_distribution,
    euler_product_apply,
    numeric_apply,
)
from qzeta.poly import Poly, branch_var, cyclotomic
from qzeta.ratfunc import CycloFrac, RatFunc
from qzeta.series import TruncSeries, series_from_ratfunc

Q = Poly.variable()


def test_spec_validation():
    with pytest.raises(DomainError):
        OperatorSpec.riemann(1)
    with pytest.raises(DomainError):
        OperatorSpec.hurwitz(0, Fraction(-1, 2))
    assert OperatorSpec.hurwitz(0, Fraction(1, 2)).branch == 2


def test_float_hurwitz_parameters_are_refused():
    # Fraction(0.1) is exact binary: its branch would be 2^55
    with pytest.raises(TypeError):
        OperatorSpec.hurwitz(0, 0.1)
    with pytest.raises(TypeError):
        OperatorSpec.hurwitz(0, 0.5j)
    with pytest.raises(TypeError):
        beta_poly(1, 0.5)
    with pytest.raises(TypeError):
        verify_hurwitz(1, 0.5)
    with pytest.raises(TypeError):
        check_distribution(2, 0.5, -1, 1)
    assert OperatorSpec.hurwitz(0, "1/10").branch == 10
    assert beta_poly(1, Fraction(1, 2)) == beta_poly(1, "1/2")
    assert numeric_apply(0, 0.25, Q, 1e-12, x=0.5) == numeric_apply(0, 0.25, Q, 1e-12, x="1/2")


def test_operand_must_lack_constant_term():
    with pytest.raises(DomainError):
        apply_geometric(OperatorSpec.riemann(0), Poly([1, 1]))


def test_geometric_riemann_s0():
    r = apply_geometric(OperatorSpec.riemann(0), Q)
    assert r.value == RatFunc(Poly([0, 1]), Poly([1, -1]))
    assert r.backend == "geometric" and r.branch == 1


def test_geometric_euler_value():
    # the q-analogue of zeta(-1) data: beta_2 = q / (Phi_2 Phi_3)
    r = apply_geometric(OperatorSpec.riemann(-1), Poly([0, 1, -3]))
    assert r.value == RatFunc(Poly([0, 1]), cyclotomic(2) * cyclotomic(3))


def test_linearity_zero():
    assert apply_geometric(OperatorSpec.riemann(-2), Poly.zero()).value.is_zero()


def test_delta_matches_hand_expansion():
    r = apply_delta(OperatorSpec.riemann(-1), Q)
    assert r.value == RatFunc(Poly([0, 1]), Poly([1, -1]) * Poly([1, 0, -1]))


def test_delta_s0_monomial():
    r = apply_delta(OperatorSpec.riemann(0), Poly([0, 0, 1]))
    assert r.value == RatFunc(Poly([0, 0, 1]), Poly([1, 0, -1]))


def test_delta_cross_backend():
    r = apply_delta(OperatorSpec.riemann(-1), Poly([0, 1, -3]))
    assert r.value == RatFunc(Poly([0, 1]), cyclotomic(2) * cyclotomic(3))


def test_series_examples():
    assert apply_series(OperatorSpec.riemann(0), Q, 5) == TruncSeries([0, 1, 1, 1, 1, 1])
    assert apply_series(OperatorSpec.riemann(-1), Q, 4) == TruncSeries([0, 1, 1, 2, 2])
    s = apply_series(OperatorSpec.hurwitz(0, Fraction(1, 2)), Q, 5)
    assert s.branch == 2
    assert s == TruncSeries([0, 1, 0, 1, 0, 1], branch=2)


@pytest.mark.parametrize("s", [0, -1, -2, -3, -4])
@pytest.mark.parametrize("P", [Poly([0, 1]), Poly([0, 0, 1]), Poly([0, 0, 0, 1])])
def test_backend_agreement(s, P):
    spec = OperatorSpec.riemann(s)
    g = apply_geometric(spec, P).value
    d = apply_delta(spec, P).value
    assert g == d
    assert series_from_ratfunc(g, 60) == apply_series(spec, P, 60)


@pytest.mark.parametrize("kind", ["hurwitz", "dirichlet"])
@pytest.mark.parametrize("s", [0, -1, -2])
def test_backend_agreement_other_kinds(kind, s):
    if kind == "hurwitz":
        spec = OperatorSpec.hurwitz(s, Fraction(1, 3))
    else:
        spec = OperatorSpec.dirichlet_l(s, character(5, 1))
    for P in (Poly([0, 1]), Poly([0, 0, 1])):
        g = apply_geometric(spec, P).value
        d = apply_delta(spec, P).value
        assert g == d
        assert series_from_ratfunc(g, 30, spec.branch) == apply_series(spec, P, 30)


NONTRIVIAL = {N: [chi for chi in characters(N) if not chi.is_trivial()] for N in range(3, 13)}


@st.composite
def operator_cases(draw):
    """(spec, P): any kind, s in [-5, 0], x = a/b with b <= 4, a non-trivial
    character mod <= 12, and P with 1-3 monomials of degree <= 4, no constant."""
    s = draw(st.integers(min_value=-5, max_value=0))
    kind = draw(st.sampled_from(["riemann", "hurwitz", "dirichlet"]))
    if kind == "riemann":
        spec = OperatorSpec.riemann(s)
    elif kind == "hurwitz":
        b = draw(st.integers(min_value=1, max_value=4))
        a = draw(st.integers(min_value=1, max_value=3 * b))
        spec = OperatorSpec.hurwitz(s, Fraction(a, b))
    else:
        N = draw(st.sampled_from(sorted(NONTRIVIAL)))
        spec = OperatorSpec.dirichlet_l(s, draw(st.sampled_from(NONTRIVIAL[N])))
    nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    degrees = st.integers(min_value=1, max_value=4)
    monos = draw(st.dictionaries(degrees, nonzero, min_size=1, max_size=3))
    return spec, Poly([monos.get(i, 0) for i in range(5)])


@settings(max_examples=40, deadline=None)
@given(operator_cases())
def test_backends_agree_at_random(case):
    spec, P = case
    g = apply_geometric(spec, P).value
    assert g == apply_delta(spec, P).value
    assert series_from_ratfunc(g, 12, spec.branch) == apply_series(spec, P, 12)


def piecewise_geometric(spec, P):
    """The geometric value as CycloFrac.sum of its pieces
    w sum_a c_a v^(a e) / (1 - v^(M e)), each raised by its own cofactor."""
    m, b = -spec.s, spec.branch
    var = branch_var(b)
    coeffs, M = _kernel(spec)
    pieces = []
    for e, w in enumerate((P * Poly([-1, 1]) ** m).coeffs):
        if w:
            num = [0] * (max(coeffs) * e + 1)
            for a, c in coeffs.items():
                num[a * e] = c
            pieces.append(CycloFrac(Poly(num, var)).div_one_minus(M * e).times_scalar(w))
    return CycloFrac.sum(pieces, var).div_pow_one_minus_var_pow(b, m)


@st.composite
def geometric_cases(draw):
    """(spec, P): Riemann, Hurwitz x = a/b with b <= 5, a real or complex
    character mod <= 8, s in [-8, 0], and P without constant term (zero
    included) over Q or over the field Q(zeta_m) of a complex character."""
    s = draw(st.integers(min_value=-8, max_value=0))
    kind = draw(st.sampled_from(["riemann", "hurwitz", "real", "complex"]))
    m = draw(st.sampled_from([3, 4]))
    if kind == "riemann":
        spec = OperatorSpec.riemann(s)
    elif kind == "hurwitz":
        b = draw(st.integers(min_value=1, max_value=5))
        spec = OperatorSpec.hurwitz(s, Fraction(draw(st.integers(1, 2 * b)), b))
    else:
        chis = [chi for N in range(3, 9) for chi in NONTRIVIAL[N] if chi.is_real() == (kind == "real")]
        chi = draw(st.sampled_from(chis))
        spec, m = OperatorSpec.dirichlet_l(s, chi), chi.order if kind == "complex" else m
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    in_field = st.lists(rational, min_size=euler_phi(m), max_size=euler_phi(m))
    coeffs = draw(st.lists(st.one_of(rational, in_field.map(lambda cs: CycRat(m, cs))), max_size=3))
    return spec, Poly([0, *coeffs])


@settings(max_examples=60, deadline=None)
@given(geometric_cases())
@example((OperatorSpec.riemann(-2), Poly.zero()))
@example((OperatorSpec.dirichlet_l(-3, character(5, 1)), Poly.zero()))
def test_geometric_sums_as_the_pieces_do(case):
    # one denominator with strided cofactors gives the same unreduced value:
    # numerator and Phi multiset, not only the same rational function
    spec, P = case
    got, want = _geometric(spec, P), piecewise_geometric(spec, P)
    assert (got.num, got.phi) == (want.num, want.phi)


@given(
    a=st.integers(min_value=-4, max_value=4),
    b=st.integers(min_value=-4, max_value=4),
    s=st.integers(min_value=-3, max_value=0),
)
def test_linearity(a, b, s):
    spec = OperatorSpec.riemann(s)
    P, R = Poly([0, 1]), Poly([0, 0, 1])
    combined = apply_geometric(spec, P.scale(a) + R.scale(b)).value
    split = apply_geometric(spec, P).value * a + apply_geometric(spec, R).value * b
    assert combined == split


def test_values_vanish_at_zero_with_circle_poles():
    from qzeta.roots import find_roots

    for s in (0, -1, -2, -3):
        for spec in (
            OperatorSpec.riemann(s),
            OperatorSpec.dirichlet_l(s, character(4, 1)),
        ):
            v = apply_geometric(spec, Q).value
            assert v(0) == 0
            if v.den.degree > 0:
                assert all(
                    abs(abs(z) - 1) <= 1e-8 for z in find_roots(v.den, 1e-10)
                )


# -- Euler product -----------------------------------------------------------


def test_euler_product_empty():
    assert euler_product_apply(0, Q, 1, 5) == TruncSeries([0, 1], 5)


def test_euler_product_3_smooth():
    got = euler_product_apply(0, Q, 3, 10)
    coeffs = [0] * 11
    for n in (1, 2, 3, 4, 6, 8, 9):
        coeffs[n] = 1
    assert got == TruncSeries(coeffs, 10)


def test_euler_product_all_small_indices():
    got = euler_product_apply(0, Q, 7, 7)
    assert got == TruncSeries([0, 1, 1, 1, 1, 1, 1, 1], 7)


@pytest.mark.parametrize(
    "c, b, m, order",
    [(1, 1, 3, 12), (3, 2, 4, 30), (5, 2, 0, 10), (7, 3, 6, 40), (45, 1, 2, 40), (2, 5, 5, 25)],
)
def test_bracket_sum_matches_schoolbook(c, b, m, order):
    base = [0] * (order + 1)  # [c/b] = (1 - v^c) * sum_i v^(bi), truncated
    for i in range(0, order + 1, b):
        base[i] += 1
    for i in range(c, order + 1, b):
        base[i] -= 1
    want = [1] + [0] * order
    for _ in range(m):
        want = [sum(want[j] * base[k - j] for j in range(k + 1)) for k in range(order + 1)]
    # [c/b]^m P(v^c) with P = 1: the numerator (1 - v^c)^m, divided by (1 - v^b)^m
    assert _bracket_sum(Poly.one(), [(1, [c])], b, m, order) == Poly(want)


@pytest.mark.parametrize("weights", [(2, Fraction(1, 3)), (Fraction(3, 4), CycRat.zeta_power(4, 1)),
                                     (CycRat(3, [Fraction(1, 2), 1]), -5)])
def test_bracket_sum_is_linear_in_the_weights(weights):
    # groups whose weights k scale W = P (1 - v)^m to different denominators
    P, (k1, k2) = Poly([0, Fraction(1, 2), Fraction(-1, 6)]), weights
    cs1, cs2 = range(1, 31, 3), range(2, 31, 3)
    got = _bracket_sum(P, [(k1, cs1), (k2, cs2)], 3, 2, 30)
    want = (_bracket_sum(P, [(1, cs1)], 3, 2, 30).scale(k1)
            + _bracket_sum(P, [(1, cs2)], 3, 2, 30).scale(k2))
    assert got == want


@pytest.mark.parametrize("s", [0, -1, -2])
def test_euler_product_equals_series(s):
    assert euler_product_apply(s, Q, 40, 40) == apply_series(
        OperatorSpec.riemann(s), Q, 40
    )


# sha256 of series_transcript(), captured while apply_series and
# euler_product_apply still expanded every bracket power [c/b]^m on its own
SERIES_TRANSCRIPT_SHA256 = "f8fd4fd5bfa3b4299234280e81da46cb7b3cc6155237433ba5d8f8eded340020"


def series_transcript() -> str:
    """apply_series (Riemann, Hurwitz, complex characters) and
    euler_product_apply through order 40, as printed, on three operands."""
    lines = []
    operands = (Q, Poly([0, 1, -3]), Poly([0, 1, Fraction(-2, 3), 0, 3]))
    specs = [OperatorSpec.riemann(s) for s in (0, -1, -2, -5)]
    specs += [OperatorSpec.hurwitz(s, x) for s in (0, -1, -3)
              for x in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 2))]
    specs += [OperatorSpec.dirichlet_l(s, character(N, k)) for s in (0, -1, -2)
              for N, k in ((5, 1), (7, 1), (7, 2))]
    for spec in specs:
        for P in operands:
            lines.append(f"series {spec} {P}: {apply_series(spec, P, 40)}")
    for s in (0, -1, -3):
        for bound in (1, 2, 7, 40):
            for P in operands:
                lines.append(f"euler {s} {bound} {P}: {euler_product_apply(s, P, bound, 40)}")
    return "\n".join(lines)


def test_series_and_euler_product_are_pinned():
    assert hashlib.sha256(series_transcript().encode()).hexdigest() == SERIES_TRANSCRIPT_SHA256


# -- commutation and distribution ---------------------------------------------


def test_commute_identity_operator():
    assert check_commute(1, 1, 0, 2).passed


def test_commute_hand_case():
    assert check_commute(2, 3, -1, 1).passed
    assert check_commute(3, 2, -1, 1).passed


def test_commute_grid():
    for m in range(1, 7):
        for n in range(1, 7):
            for s in (0, -1, -2, -3):
                assert check_commute(m, n, s, 5).passed, (m, n, s)


def test_distribution_trivial_split():
    assert check_distribution(1, Fraction(1), -2, 1).passed


def test_distribution_hand_case():
    assert check_distribution(2, Fraction(1), 0, 1).passed


def test_distribution_branch_six():
    assert check_distribution(3, Fraction(1, 2), -2, 1).passed


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("x", [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
def test_distribution_grid(N, x):
    for s in (0, -1, -2):
        for r in (1, 2):
            assert check_distribution(N, x, s, r).passed, (N, x, s, r)


@pytest.mark.parametrize("N", [3, 4, 5, 8])
def test_chi_decomposition(N):
    for chi in characters(N):
        if chi.is_trivial():
            continue
        for s in (0, -1, -2):
            for r in (1, 2, 3):
                assert check_chi_decomposition(chi, s, r).passed, (N, chi.index, s, r)


def test_checks_fail_on_a_wrong_hurwitz_value(monkeypatch):
    # both checks read zeta_q(s, 3/4) q: off by a factor v, neither may pass
    good = operators._geometric

    def perturbed(spec, P):
        out = good(spec, P)
        return out.shift(1) if spec.x == Fraction(3, 4) else out

    assert check_distribution(2, Fraction(1, 2), -1, 1).passed is True
    assert check_chi_decomposition(character(4, 1), -1, 1).passed is True
    monkeypatch.setattr(operators, "_geometric", perturbed)
    assert check_distribution(2, Fraction(1, 2), -1, 1).passed is False
    assert check_chi_decomposition(character(4, 1), -1, 1).passed is False


def test_checks_make_no_ratfunc_sums_or_products(monkeypatch, cold_carlitz):
    from qzeta.carlitz import genfun_check, verify_chi, verify_hurwitz

    def refuse(self, other):
        raise AssertionError("RatFunc arithmetic in an identity check")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(RatFunc, name, refuse)
    for backend in ("geometric", "delta"):
        assert verify_hurwitz(3, Fraction(1, 2), backend).passed
        assert verify_hurwitz(2, Fraction(2, 3), backend).passed
        assert verify_chi(character(5, 1), 3, backend).passed
    assert check_distribution(3, Fraction(1, 2), -2, 1).passed
    assert check_chi_decomposition(character(5, 1), -1, 2).passed
    assert genfun_check(6).passed


# -- numeric mode -------------------------------------------------------------


def test_numeric_geometric_sum():
    assert abs(numeric_apply(0, 0.5, Q, 1e-12) - 1.0) <= 1e-12


def test_numeric_weighted_sum():
    assert abs(numeric_apply(-1, 0.5, Q, 1e-12) - Fraction(4, 3)) <= 1e-12


def test_numeric_matches_exact_backend():
    for q0 in (0.3, 0.5):
        for s in (0, -1, -2):
            for n in (2, 3):
                P = Poly([0, 1, -(n + 1)])
                exact = apply_geometric(OperatorSpec.riemann(s), P).value
                got = numeric_apply(s, q0, P, 1e-12)
                assert abs(got - complex(exact(q0))) <= 1e-10


def test_numeric_domain_checks():
    with pytest.raises(DomainError):
        numeric_apply(0, 1.2, Q, 1e-10)
    with pytest.raises(DomainError):
        numeric_apply(0, 0.5, Poly([1, 1]), 1e-10)
    with pytest.raises(ConvergenceError):
        numeric_apply(0, 0.99999, Q, 1e-14, max_terms=10)


def test_numeric_refuses_an_eps_below_its_rounding_bound():
    # the tail bound reaches 1e-300, but the double sum of q0^n is only
    # good to about 1e-16 of 2/3
    with pytest.raises(DomainError):
        numeric_apply(0, 0.4, Q, 1e-300)
    assert abs(numeric_apply(0, 0.4, Q, 1e-12) - 2 / 3) <= 1e-12
    with pytest.raises(ConvergenceError):  # max_terms is decided first
        numeric_apply(0, 0.99999, Q, 1e-300, max_terms=10)


def test_numeric_sums_on_while_tail_plus_rounding_is_above_eps():
    # at q0 = 0.9 the tail first drops below 1e-12 while tail plus the
    # rounding bound (about 3e-13) is still above it; a few more terms fix it
    assert abs(numeric_apply(0, 0.9, Q, 1e-12) - 9) <= 1e-12


def test_numeric_complex_s_and_character():
    # smoke: complex s on the principal branch, and a character twist
    v = numeric_apply(0.5 + 1j, 0.4, Q, 1e-10)
    assert isinstance(v, complex)
    chi = character(4, 1)
    got = numeric_apply(-1, 0.3, Q, 1e-12, chi=chi)
    exact = apply_geometric(OperatorSpec.dirichlet_l(-1, chi), Q).value
    assert abs(got - complex(exact(0.3))) <= 1e-10


def test_numeric_hurwitz():
    x = Fraction(1, 2)
    got = numeric_apply(-1, 0.25, Q, 1e-12, x=x)
    exact = apply_geometric(OperatorSpec.hurwitz(-1, x), Q).value
    # exact value is in v = q^(1/2): evaluate at sqrt(0.25)
    assert abs(got - complex(exact(0.5))) <= 1e-10


# -- the one index set the three exact backends read ----------------------------


def _chi_of_order(N, order):
    return next(chi for chi in characters(N) if chi.order == order)


DEFINITION_SPECS = [
    OperatorSpec.riemann(0),
    OperatorSpec.hurwitz(0, Fraction(1, 2)),
    OperatorSpec.hurwitz(0, Fraction(2, 3)),
    OperatorSpec.hurwitz(0, Fraction(5, 2)),
    OperatorSpec.dirichlet_l(0, _chi_of_order(4, 2)),
    OperatorSpec.dirichlet_l(0, _chi_of_order(5, 4)),
    OperatorSpec.dirichlet_l(0, _chi_of_order(7, 6)),
]


def _dirichlet_coefficients(spec, order):
    """The definition: coefficient a_n of the index n + x, placed at
    exponent branch * (n + x) in v = q^(1/branch)."""
    out = [0] * (order + 1)
    if spec.x is not None:  # 1 at b(k + x) for k >= 0
        for k in range(order + 1):
            e = spec.branch * (k + spec.x)
            if e <= order:
                out[int(e)] = 1
    else:  # 1, or chi(n), for n >= 1
        for n in range(1, order + 1):
            out[n] = spec.chi(n) if spec.chi is not None else 1
    return out


@pytest.mark.parametrize("spec", DEFINITION_SPECS, ids=str)
def test_kernel_is_the_definition(spec):
    # sum_a c_a sum_t w^(a + tM), through w^40
    kernel, M = _kernel(spec)
    expanded = [0] * 41
    for a, c in kernel.items():
        for e in range(a, 41, M):
            expanded[e] += c
    assert expanded == _dirichlet_coefficients(spec, 40)


@pytest.mark.parametrize("spec", DEFINITION_SPECS, ids=str)
def test_series_of_the_zero_operand_is_zero(spec):
    out = apply_series(spec, Poly.zero(), 12)
    assert out.is_zero() and (out.order, out.branch) == (12, spec.branch)
