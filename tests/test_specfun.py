"""Unit tests for the special-function layer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdnoma.specfun import SeriesConvergenceError, gauss_2f1, log_gamma, pochhammer


# ---------------------------------------------------------------------------
# log_gamma
# ---------------------------------------------------------------------------

def test_log_gamma_unit_values():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0


def test_log_gamma_factorial():
    # Gamma(11) = 10! = 3628800, by direct factorial
    assert math.isclose(log_gamma(11.0), math.log(3628800), rel_tol=1e-13)


@pytest.mark.parametrize("x", [0.0, -1.0, -3.5])
def test_log_gamma_domain(x):
    with pytest.raises(ValueError):
        log_gamma(x)


@pytest.mark.parametrize("x", [0.5, 1.0, 3.7, 10.0])
def test_log_gamma_recurrence(x):
    lhs = math.exp(log_gamma(x + 1.0))
    rhs = x * math.exp(log_gamma(x))
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_log_gamma_against_extended_precision():
    # mpmath.loggamma reference, 50 digits, frozen
    references = {
        0.5: 0.57236494292470008707,
        4.25: 2.1144569274503714755,
        50.0: 144.56574394634488601,
        1e6: 12815504.56914761166,
    }
    for x, ref in references.items():
        assert math.isclose(log_gamma(x), ref, rel_tol=1e-13)


# ---------------------------------------------------------------------------
# pochhammer
# ---------------------------------------------------------------------------

def test_pochhammer_values():
    assert pochhammer(10.0, 0) == 1.0
    assert pochhammer(10.0, 3) == pytest.approx(1320.0, rel=1e-14)
    assert pochhammer(3.0, 1) == 3.0


def test_pochhammer_negative_base():
    # finite product definition admits any base
    assert pochhammer(-2.0, 3) == pytest.approx((-2.0) * (-1.0) * 0.0)


@given(
    a=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    i=st.integers(min_value=0, max_value=15),
    j=st.integers(min_value=0, max_value=15),
)
@settings(max_examples=200)
def test_pochhammer_shift_identity(a, i, j):
    lhs = pochhammer(a, i) * pochhammer(a + i, j)
    rhs = pochhammer(a, i + j)
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# gauss_2f1
# ---------------------------------------------------------------------------

def test_2f1_zero_a_terminates_at_one():
    assert gauss_2f1(0.0, 2.0, 1.0, -5.0) == 1.0


def test_2f1_two_term_series():
    # a = -1 leaves 1 + (a b / c) z = 1 + 20/3
    assert gauss_2f1(-1.0, 2.0, 1.0, -10.0 / 3.0) == pytest.approx(23.0 / 3.0, rel=1e-14)


def test_2f1_binomial_identity():
    # 2F1(a, b; b; z) = (1 - z)^(-a) with a = 1 - m, b = 1, z = -K/m
    assert gauss_2f1(-9.0, 1.0, 1.0, -1.0) == pytest.approx(2.0**9, rel=1e-12)


def test_2f1_terminating_matches_direct_summation():
    # independent oracle: plain term-by-term finite sum of the defining series
    def direct(a, b, c, z):
        n = int(round(-a))
        return math.fsum(
            pochhammer(a, k) * pochhammer(b, k) / (pochhammer(c, k) * math.factorial(k)) * z**k
            for k in range(n + 1)
        )

    for a in (-1.0, -3.0, -9.0, -12.0):
        for b in (0.5, 1.0, 2.0, 4.0):
            for z in (0.0, -0.3, -1.0, -10.0):
                got = gauss_2f1(a, b, 1.0, z)
                want = direct(a, b, 1.0, z)
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)


def test_2f1_pfaff_path_against_extended_precision():
    # mpmath.hyp2f1 references, frozen (non-integer a exercises the Pfaff map)
    assert gauss_2f1(0.5, 2.0, 1.0, -3.0) == pytest.approx(0.3125, rel=1e-10)
    assert gauss_2f1(-2.5, 4.0, 1.0, -60.0) == pytest.approx(410253.33798026655, rel=1e-10)


def test_2f1_domain_errors():
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 1.0, -2.0, -1.0)
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 1.0, 1.0, 0.5)


def test_2f1_convergence_error_carries_partial_state():
    # an extreme argument maps to a transformed argument so close to 1 that
    # the term budget runs out
    with pytest.raises(SeriesConvergenceError) as excinfo:
        gauss_2f1(0.3, 2.0, 1.0, -1e8)
    err = excinfo.value
    assert err.num_terms == 10_000
    assert math.isfinite(err.partial_value) and err.partial_value > 0
