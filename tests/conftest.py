from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from qzeta import carlitz
from qzeta.poly import Poly
from qzeta.ratfunc import RatFunc

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

small_fractions = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)


@st.composite
def polys(draw, max_degree=4, allow_zero=True):
    n = draw(st.integers(min_value=0 if allow_zero else 1, max_value=max_degree + 1))
    coeffs = [draw(small_fractions) for _ in range(n)]
    if not allow_zero:
        lead = draw(small_fractions.filter(lambda c: c != 0))
        coeffs[-1] = lead
    return Poly(coeffs)


@st.composite
def ratfuncs(draw):
    num = draw(polys())
    den = Poly([1]) + draw(polys()).shift(1)  # constant term 1: never zero
    return RatFunc(num, den)


@pytest.fixture
def q():
    return Poly.variable()


# carlitz's lru caches, taken before any test can monkeypatch one away
CARLITZ_CACHES = [f for f in vars(carlitz).values()
                  if hasattr(f, "cache_clear") and f.__module__ == carlitz.__name__]


@pytest.fixture
def cold_carlitz():
    """Every lru_cache of qzeta.carlitz cleared before and after the test;
    the test gets the clearing function for a reset of its own."""
    def clear():
        for f in CARLITZ_CACHES:
            f.cache_clear()

    clear()
    yield clear
    clear()
