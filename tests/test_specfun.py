"""Unit tests for the special-function layer."""

import math

import pytest

from fdnoma.specfun import gauss_2f1


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
    def rising(a, k):
        return math.prod(a + i for i in range(k))

    def direct(a, b, c, z):
        n = int(round(-a))
        return math.fsum(
            rising(a, k) * rising(b, k) / (rising(c, k) * math.factorial(k)) * z**k
            for k in range(n + 1)
        )

    for a in (-1.0, -3.0, -9.0, -12.0):
        for b in (0.5, 1.0, 2.0, 4.0):
            for z in (0.0, -0.3, -1.0, -10.0):
                got = gauss_2f1(a, b, 1.0, z)
                want = direct(a, b, 1.0, z)
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)


def test_2f1_domain_errors():
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 1.0, -2.0, -1.0)
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 1.0, 1.0, 0.5)


def test_2f1_rejects_a_series_that_does_not_terminate():
    # only terminating series are summed; each domain check holds on its own
    for a in (0.5, -2.5, 1.0, 0.3):
        with pytest.raises(ValueError, match="parameter a"):
            gauss_2f1(a, 2.0, 1.0, -3.0)
    with pytest.raises(ValueError, match="parameter c"):
        gauss_2f1(-1.0, 1.0, -2.0, -1.0)
    with pytest.raises(ValueError, match="z <= 0"):
        gauss_2f1(-1.0, 1.0, 1.0, 0.5)
