"""Unit tests for moments, the CDF expansion and the samplers."""

import functools
import math
import sys

import mpmath
import numpy as np
import pytest
from conftest import suburban
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fdnoma import channel
from fdnoma.channel import (
    OutageResult,
    RicianShadowedParams,
    TruncatedSeries,
    _cdf_factors,
    _log_moment_shapes,
    rician_shadowed_moment,
    sample_rician_shadowed,
)
from fdnoma.outage import Node, Scheme, signal_model

K_GRID = (0.1, 1.0, 10.0, 30.0)
M_GRID = (0.5, 1.0, 3.0, 10.0)
P_GRID = (0.1, 1.0, 10.0)

# Moment tables are checked up to this order: k_tr + 1 at the largest k_tr
# a config may set.
MAX_MOMENT_ORDER = 64


def exponential(mean_power, m=1.0):
    """Exponential power: a Rician shadowed link with K = 0, where m has
    no effect."""
    return RicianShadowedParams(mean_power, 0.0, m)


def rng_for(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_zeroth_moment_is_one_over_grid():
    for k in K_GRID:
        for m in M_GRID:
            for pbar in P_GRID:
                p = RicianShadowedParams(pbar, k, m)
                assert abs(rician_shadowed_moment(p, 0) - 1.0) < 1e-12


def test_first_moment_is_mean_power_over_grid():
    for k in K_GRID:
        for m in M_GRID:
            for pbar in P_GRID:
                p = RicianShadowedParams(pbar, k, m)
                assert math.isclose(rician_shadowed_moment(p, 1), pbar, rel_tol=1e-9)


def test_first_moment_known_collapse():
    # m = 1 collapses the hypergeometric factor to 1 and the moment to the mean
    p = RicianShadowedParams(2.0, 1.0, 1.0)
    assert rician_shadowed_moment(p, 1) == pytest.approx(2.0, rel=1e-12)


def test_higher_moments_against_extended_precision():
    # frozen 50-digit references (hypergeometric moment formula evaluated
    # independently with mpmath)
    refs = {
        (10.0, 2): 1.2561983471074380165,
        (10.0, 3): 1.8752817430503380917,
        (3.0, 2): 1.4490358126721763085,
        (3.0, 3): 2.710910760497537357,
    }
    for (m, order), want in refs.items():
        p = RicianShadowedParams(1.0, 10.0, m)
        assert rician_shadowed_moment(p, order) == pytest.approx(want, rel=1e-10)
    # non-integer shadowing: the same recurrence, no terminating 2F1
    p = RicianShadowedParams(10.0, 0.1, 0.5)
    assert rician_shadowed_moment(p, 2) == pytest.approx(200.82644628099173554, rel=1e-9)


def test_moment_order_limits():
    p = RicianShadowedParams(1.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        rician_shadowed_moment(p, -1)
    with pytest.raises(OverflowError):
        rician_shadowed_moment(RicianShadowedParams(1e30, 10.0, 10.0), 20)
    # no order cap: the recurrence runs to any order
    assert rician_shadowed_moment(p, 100) == math.exp(
        math.lgamma(101) + _log_moment_shapes(p, 100)[100]
    )
    interferer = RicianShadowedParams(0.3, 10.0, 3.0)
    deep = TruncatedSeries(p, [interferer], 0.1, 70).at(1.0)
    want = TruncatedSeries(p, [interferer], 0.1, 63).at(1.0)
    assert deep.converged and want.converged
    assert deep.probability == pytest.approx(want.probability, abs=1e-12)


def test_exponential_moments():
    # E{(1 + Y)^k} for exponential Y of mean 1/2, with E{Y^l} = l!/2^l
    p = exponential(0.5)
    series = TruncatedSeries(RicianShadowedParams(1.0, 10.0, 10.0), [p], 0.1, 2)
    log_moments = series._log_power_moments(1.0)
    assert [math.exp(x) for x in log_moments] == pytest.approx([1.5, 2.5, 4.75], rel=1e-14)


def test_exponential_moment_mc_cross_check():
    p = exponential(0.5)
    y = sample_rician_shadowed(p, rng_for(11), 10**6)
    m3 = (y**3).mean()
    se = (y**3).std() / math.sqrt(y.size)
    assert abs(m3 - 0.75) < 4 * se


def test_log_moment_shape_is_zero_at_k_zero():
    # with no line-of-sight power every ratio of the recurrence is exactly 1
    # and its drift log1p(0) - log1p(0 / m) exactly 0, for any m
    for m in M_GRID + (7.3,):
        p = exponential(1.0, m)
        assert _log_moment_shapes(p, MAX_MOMENT_ORDER) == [0.0] * (MAX_MOMENT_ORDER + 1)
        # and it is the K -> 0 limit of the general formula
        near = RicianShadowedParams(1.0, 1e-12, m)
        assert abs(_log_moment_shapes(near, MAX_MOMENT_ORDER)[-1]) < 1e-9
        assert rician_shadowed_moment(exponential(2.5, m), 7) == pytest.approx(
            math.factorial(7) * 2.5**7, rel=1e-14
        )


SHAPE_K_GRID = (0.0, 1e-6, 0.0071, 0.556, 4.08, 10.0, 1e3, 1e6)
SHAPE_M_GRID = (0.05, 0.3, 0.739, 1.0, 3.0, 5.21, 10.0, 19.4, 50.0, 200.0)


def test_log_moment_shapes_against_extended_precision():
    # every entry of the recurrence's table against 50-digit mpmath.hyp2f1 of
    # the Abdi et al. formula, over Abdi's measured (K, m) sets, K/m from
    # 0 to 2e7, and integer and non-integer m alike
    misses = []
    with mpmath.workdps(50):
        for k in SHAPE_K_GRID:
            for m in SHAPE_M_GRID:
                p = RicianShadowedParams(1.0, k, m)
                shapes = _log_moment_shapes(p, MAX_MOMENT_ORDER)
                assert len(shapes) == MAX_MOMENT_ORDER + 1
                if k == 0:
                    assert shapes == [0.0] * (MAX_MOMENT_ORDER + 1)
                    continue
                kk, mm = mpmath.mpf(k), mpmath.mpf(m)
                for order, got in enumerate(shapes):
                    want = float(
                        -order * mpmath.log1p(kk)
                        + (mm - 1 - order) * (mpmath.log(mm) - mpmath.log(kk + mm))
                        + mpmath.log(mpmath.hyp2f1(1 - mm, 1 + order, 1, -kk / mm))
                    )
                    if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                        misses.append((k, m, order, got, want))
                # the moment reads the same table
                for order in (2, 17, MAX_MOMENT_ORDER):
                    want_log = math.lgamma(order + 1) + shapes[order]
                    if want_log < 700:
                        assert rician_shadowed_moment(p, order) == math.exp(want_log)
    assert not misses, misses[:5]


def test_moment_table_past_double_range_is_a_named_overflow():
    with pytest.raises(OverflowError, match="moment table leaves double range"):
        _log_moment_shapes(RicianShadowedParams(1.0, 1e300, 1e-10), 3)


def test_param_validation():
    with pytest.raises(ValueError):
        RicianShadowedParams(0.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        RicianShadowedParams(1.0, -0.1, 10.0)
    with pytest.raises(ValueError):
        RicianShadowedParams(1.0, 10.0, 0.0)
    with pytest.raises(ValueError, match="k_factor"):
        RicianShadowedParams(1.0, math.inf, 10.0)
    with pytest.raises(ValueError, match="severity m"):
        RicianShadowedParams(1.0, 10.0, math.inf)
    with pytest.raises(ValueError):
        exponential(0.0)
    with pytest.raises(ValueError):
        exponential(-1.0)


# ---------------------------------------------------------------------------
# the terminating 2F1 factor F_n = 2F1(-n, b; 1; z)
# ---------------------------------------------------------------------------

def cdf_factor(n, b, z):
    """Entry n of the table: F_n from a table of orders 0..n."""
    return _cdf_factors(n, b, z)[n]


def test_cdf_factor_zero_order_is_one():
    assert cdf_factor(0, 2.0, -5.0) == 1.0


def test_cdf_factor_two_term_series():
    # n = 1 leaves 1 - b z = 1 + 20/3
    assert cdf_factor(1, 2.0, -10.0 / 3.0) == pytest.approx(23.0 / 3.0, rel=1e-14)


def test_cdf_factor_binomial_identity():
    # 2F1(-n, b; b; z) = (1 - z)^n, here at b = c = 1
    assert cdf_factor(9, 1.0, -1.0) == pytest.approx(2.0**9, rel=1e-12)


def test_cdf_factor_matches_direct_summation():
    # independent oracle: plain term-by-term finite sum of the defining series
    def rising(a, k):
        return math.prod(a + i for i in range(k))

    def direct(n, b, z):
        return math.fsum(
            rising(-n, k) * rising(b, k) / (math.factorial(k) ** 2) * z**k
            for k in range(n + 1)
        )

    for n in (1, 3, 9, 12):
        for b in (0.5, 1.0, 2.0, 4.0):
            for z in (0.0, -0.3, -1.0, -10.0):
                got = cdf_factor(n, b, z)
                want = direct(n, b, z)
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)


def test_cdf_factor_table_is_the_per_order_sum_bit_for_bit():
    # every entry of one table equals the per-order sum that the table
    # replaced, term for term in the same order of operations: == not approx
    def reference(n, b, z):
        total = 0.0
        term = 1.0
        for k in range(n + 1):
            if k > 0:
                term *= (k - 1 - n) * (b + k - 1) / (k * k) * z
            total += term
        return total

    for k in (0.0, 1e-6, 0.556, 4.08, 10.0, 1e3, 2e4):
        for m in (0.3, 0.739, 1.0, 3.0, 5.21, 10.0, 19.4, 50.0):
            b, z = 1.0 - m, -k / m
            for k_tr in (0, 1, 25, 40, 63):
                want = [reference(n, b, z) for n in range(k_tr + 1)]
                assert _cdf_factors(k_tr, b, z) == want, (k, m, k_tr)
    # K/m = 2e6: both leave double range at the same first order
    b, z = 1.0 - 0.05, -1e5 / 0.05
    table = _cdf_factors(63, b, z)
    want = [reference(n, b, z) for n in range(64)]
    first = [math.isfinite(f) for f in table].index(False)
    assert first == [math.isfinite(f) for f in want].index(False) == 49
    assert table[:first] == want[:first]


def test_cdf_factor_against_extended_precision():
    # F_n at the series' own arguments b = 1 - m and z = -K/m (as doubles)
    # against the same terminating sum at 60 digits, over Abdi's measured
    # (K, m) sets and K/m from 0 to 2e4, on every third entry of one table
    # of orders 0..63 per (K, m).  The double sum misses by at most about
    # 2e-14 of its largest term.  For m <= 1 no term cancels, so it is
    # within about 4e-15 relative, and for integer m <= 10 within about
    # 2.6e-12.  For large non-integer m F_n can be small against its terms:
    # 5.4e-3 relative at (10, 50).
    misses = []
    for k in (0.0, 1e-6, 0.0071, 0.556, 4.08, 10.0, 1e3):
        for m in (0.05, 0.3, 0.739, 1.0, 3.0, 5.21, 10.0, 19.4, 50.0):
            b, z = 1.0 - m, -k / m
            table = _cdf_factors(MAX_MOMENT_ORDER - 1, b, z)
            for n in range(0, MAX_MOMENT_ORDER, 3):
                with mpmath.workdps(60):
                    terms = [mpmath.mpf(1)]
                    for j in range(1, n + 1):
                        terms.append(terms[-1] * (j - 1 - n) * (mpmath.mpf(b) + j - 1) / (j * j) * z)
                    want = mpmath.fsum(terms)
                    error = abs(table[n] - want)
                    largest = max(abs(t) for t in terms)
                    relative = float(error / abs(want)) if want else float(error)
                if error > 4e-14 * largest:
                    misses.append((k, m, n, "largest term", float(error / largest)))
                if m <= 1 and relative > 1e-14:
                    misses.append((k, m, n, "relative, m <= 1", relative))
                if m <= 10 and m.is_integer() and relative > 5e-12:
                    misses.append((k, m, n, "relative, integer m", relative))
    assert not misses, misses


# ---------------------------------------------------------------------------
# CDF expansion coefficients
# ---------------------------------------------------------------------------

def alpha(n, p, gamma):
    """Coefficient alpha(n): the interference-free series truncated at order
    n minus the same series truncated at order n - 1."""

    def truncated(k_tr):
        if k_tr < 0:
            return 0.0
        return TruncatedSeries(p, (), gamma, k_tr).at(1.0).probability

    return truncated(n) - truncated(n - 1)


def test_alpha_order_zero_hand_value():
    # single-term expansion: (m/(K+m))^m (1+K)/P gamma = (1/2)^10 * 11
    p = RicianShadowedParams(1.0, 10.0, 10.0)
    assert alpha(0, p, 1.0) == pytest.approx(11.0 / 1024.0, rel=1e-12)


def test_alpha_zero_threshold():
    p = RicianShadowedParams(1.0, 10.0, 10.0)
    for n in (0, 1, 5, 20):
        assert alpha(n, p, 0.0) == 0.0


def test_alpha_rejects_nonfinite_threshold():
    # +inf is the certain-outage threshold (test_outage::test_series_trivial_thresholds)
    p = RicianShadowedParams(1.0, 10.0, 10.0)
    for gamma in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            TruncatedSeries(p, (), gamma, 1)


def test_alpha_against_extended_precision_brute_force():
    # frozen from a 50-digit term-by-term evaluation of the alternating sum
    p = RicianShadowedParams(1.0, 10.0, 10.0)
    assert alpha(1, p, 0.1) == pytest.approx(0.0023632812500000002624, rel=1e-11)
    assert alpha(2, p, 0.1) == pytest.approx(0.0010290120442708335047, rel=1e-11)


def test_alpha_with_a_zero_2f1_factor():
    # K = 1, m = 2: F_2 = 2F1(-2, -1; 1; -1/2) = 1 - 2 K/m = 0 exactly, so
    # alpha(2) vanishes and the orders around it are unaffected
    p = RicianShadowedParams(1.0, 1.0, 2.0)
    assert alpha(2, p, 0.3) == 0.0
    # alpha(3) = x^4 (m/(K+m))^m S(3) / 4 at x = 0.6, S(3) = 2/81 by hand
    assert alpha(3, p, 0.3) == pytest.approx(0.6**4 * (2 / 3) ** 2 * (2 / 81) / 4, rel=1e-13)


def test_alpha_signs_alternate_eventually():
    # the expansion is alternating once the threshold term dominates
    p = RicianShadowedParams(1.0, 10.0, 10.0)
    coeffs = [alpha(n, p, 0.05) for n in range(6)]
    assert coeffs[0] > 0
    assert any(c < 0 for c in coeffs[1:])


def exact_alpha_shapes(k, m, n_max):
    """alpha(n) / x^(n+1) for n = 0..n_max, at series argument
    x = (1 + K) gamma / P:

        alpha(n) = x^(n+1) (m/(K+m))^m S(n) / (n+1),
        S(n) = sum_{i=0}^{n} (-1)^(n-i) (m)_i (K/(K+m))^i / (i!^2 (n-i)!),

    summed term by term at 80 digits, so the sum's cancellation costs
    nothing."""
    with mpmath.workdps(80):
        k, m = mpmath.mpf(k), mpmath.mpf(m)
        q = k / (k + m)
        lead = (m / (k + m)) ** m
        return [
            lead / (n + 1) * mpmath.fsum(
                (-1) ** (n - i) * mpmath.rf(m, i) * q**i
                / (mpmath.factorial(i) ** 2 * mpmath.factorial(n - i))
                for i in range(n + 1)
            )
            for n in range(n_max + 1)
        ]


@pytest.mark.parametrize("k,m", [(10.0, 3.0), (10.0, 10.0), (0.556, 5.21), (4.08, 19.4)])
def test_series_high_orders_against_extended_precision(k, m):
    # the interference-free series at k_tr 40 and 63 against the exact
    # truncated sum, clamped to [0, 1] as the series is.  A double term
    # carries a relative rounding error up to about 1e-13 (log-space
    # magnitudes) and, for m > 1, up to about 2e-9 from the 2F1 factor's
    # alternating first terms, so the sum may also miss by 1e-12 of its
    # largest term: 2e-7 for (0.556, 5.21) and 2e-8 for (4.08, 19.4) at
    # x = 20
    p = RicianShadowedParams(1.0, k, m)
    shapes = exact_alpha_shapes(k, m, 63)
    for x in (5.0, 10.0, 15.0, 20.0):
        with mpmath.workdps(80):
            terms = [mpmath.mpf(x) ** (n + 1) * s for n, s in enumerate(shapes)]
            for k_tr in (40, 63):
                want = float(min(max(mpmath.fsum(terms[: k_tr + 1]), 0), 1))
                tol = 1e-10 + 1e-12 * float(max(abs(t) for t in terms[: k_tr + 1]))
                series = TruncatedSeries(p, (), x / (1.0 + k), k_tr)
                got = series.at(1.0).probability
                assert abs(got - want) <= tol, (x, k_tr, got, want)


def test_coefficient_past_double_range_is_a_named_overflow():
    # K/m = 2e6: the 2F1 factor of order 49 leaves double range, so the
    # series cannot be built past order 48
    p = RicianShadowedParams(1.0, 1e5, 0.05)
    TruncatedSeries(p, (), 0.1, 48)
    with pytest.raises(OverflowError, match=r"order 49: .* \(K/m = 2e\+06\)"):
        TruncatedSeries(p, (), 0.1, 63)


# ---------------------------------------------------------------------------
# truncated CDF
# ---------------------------------------------------------------------------

def test_cdf_truncated_zero_threshold():
    p = RicianShadowedParams(1.0, 10.0, 10.0)
    result = TruncatedSeries(p, (), 0.0, 25).at(1.0)
    assert result == OutageResult(0.0, 0.0, True)


def test_cdf_matches_coefficient_sum():
    # the closed-form coefficient formula summed term by term in double
    # precision:
    # alpha(n) = sum_{i=0}^{n} (-1)^(n-i) (m/(K+m))^m (m)_i / i!^2
    #            * (K/(K+m))^i ((1+K)/P)^(n+1) gamma^(n+1) / ((n-i)! (n+1))
    pbar, k, m, gamma = 1.0, 10.0, 3.0, 0.3
    terms = []
    for n in range(26):
        for i in range(n + 1):
            terms.append(
                (-1) ** (n - i)
                * (m / (k + m)) ** m
                * math.gamma(m + i) / math.gamma(m) / math.factorial(i) ** 2
                * (k / (k + m)) ** i
                * ((1 + k) / pbar * gamma) ** (n + 1)
                / (math.factorial(n - i) * (n + 1))
            )
    series = TruncatedSeries(RicianShadowedParams(pbar, k, m), (), gamma, 25)
    assert series.at(1.0).probability == pytest.approx(math.fsum(terms), rel=1e-12)


@pytest.mark.parametrize("m", [0.5, 1.0, 3.0])
def test_cdf_k_zero_is_exponential_cdf(m):
    # with no line of sight the series is the Taylor expansion of the
    # exponential CDF 1 - exp(-gamma / P), whatever m
    p = exponential(2.0, m)
    for gamma in (0.05, 0.3, 1.0):
        result = TruncatedSeries(p, (), gamma, 25).at(1.0)
        assert result.converged
        assert abs(result.probability + math.expm1(-gamma / p.mean_power)) < 1e-15


@pytest.mark.parametrize("m", [3.0, 10.0])
def test_cdf_truncation_stability_unit_power(m):
    p = RicianShadowedParams(1.0, 10.0, m)
    for gamma in (0.05, 0.1, 0.2, 0.35, 0.5):
        a = TruncatedSeries(p, (), gamma, 25).at(1.0)
        b = TruncatedSeries(p, (), gamma, 30).at(1.0)
        assert a.converged and b.converged
        assert abs(a.probability - b.probability) < 1e-8


@pytest.mark.parametrize(
    "m,gamma", [(10.0, 0.0718), (3.0, 0.1487), (10.0, 0.05), (10.0, 0.1), (10.0, 0.2)]
)
def test_cdf_matches_empirical(m, gamma):
    p = RicianShadowedParams(1.0, 10.0, m)
    x = sample_rician_shadowed(p, rng_for(404), 10**6)
    emp = float(np.mean(x <= gamma))
    se = math.sqrt(max(emp * (1 - emp), 1e-12) / x.size)
    closed = TruncatedSeries(p, (), gamma, 25).at(1.0)
    assert abs(closed.probability - emp) < 3 * se


def test_cdf_monotone_in_threshold():
    p = RicianShadowedParams(1.0, 10.0, 10.0)
    grid = np.linspace(0.0, 0.6, 40)
    values = [TruncatedSeries(p, (), g, 25).at(1.0).probability for g in grid]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_cdf_flags_divergence_far_outside_range():
    # threshold far beyond the expansion's reach: clamped and flagged
    p = RicianShadowedParams(0.05, 10.0, 10.0)
    result = TruncatedSeries(p, (), 50.0, 25).at(1.0)
    assert 0.0 <= result.probability <= 1.0
    assert not result.converged


def test_cdf_domain():
    p = RicianShadowedParams(1.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        TruncatedSeries(p, (), -0.1, 25)
    with pytest.raises(ValueError):
        TruncatedSeries(p, (), 0.1, -1)


# ---------------------------------------------------------------------------
# moments of the interference sum
# ---------------------------------------------------------------------------

def compositions(total, parts):
    """Every ordered tuple of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_force_power_moment(interferers, k, power):
    """E{(1 + power sum_j Y_j)^k} by the multinomial theorem: a sum over
    every composition of k across the noise slot and the interferers."""
    total = []
    for parts in compositions(k, len(interferers) + 1):
        term = float(math.factorial(k)) * power ** (k - parts[0])
        for part in parts:
            term /= math.factorial(part)
        for q, part in zip(interferers, parts[1:]):
            if q.k_factor == 0:  # exponential: E{Y^l} = l! P^l
                term *= q.mean_power**part * math.factorial(part)
            else:
                term *= rician_shadowed_moment(q, part)
        total.append(term)
    return math.fsum(total)


INTERFERER_SETS = [
    [RicianShadowedParams(0.3, 10.0, 3.0)],
    [exponential(2.5)],
    [RicianShadowedParams(40.0, 10.0, 10.0), exponential(4.0, m=3.0)],
    [RicianShadowedParams(1.5, 0.0, 2.0), RicianShadowedParams(0.02, 30.0, 0.5)],
    [
        RicianShadowedParams(7.0, 1.0, 1.0),
        exponential(0.1, m=0.5),
        RicianShadowedParams(3.0, 10.0, 3.0),
    ],
]


@pytest.mark.parametrize("interferers", INTERFERER_SETS)
@pytest.mark.parametrize("k_tr", [0, 5, 12])
def test_moment_convolution_matches_composition_sum(interferers, k_tr):
    # one unit-power table serves every power, offset by l log(power)
    series = TruncatedSeries(RicianShadowedParams(1.0, 10.0, 10.0), interferers, 0.1, k_tr)
    for power in (1e-3, 1.0, 1e3):
        log_moments = series._log_power_moments(power)
        assert len(log_moments) == k_tr + 1
        for k, log_moment in enumerate(log_moments, start=1):
            want = brute_force_power_moment(interferers, k, power)
            assert math.exp(log_moment) == pytest.approx(want, rel=1e-12), (power, k)


@pytest.mark.parametrize("num_interferers", [1, 2, 3])
def test_one_convolution_pass_per_power_point(monkeypatch, num_interferers):
    # work count, not timing: the unit-power interference table costs J - 1
    # log-sum-exp passes once, and each power point one pass of the noise
    # kernel with no log-sum-exp, whatever J
    sums, kernels = [], []
    log_sum_exp, noise_convolve = channel._log_sum_exp, channel._noise_convolve

    def counted_sum(logs):
        sums.append(len(logs))
        return log_sum_exp(logs)

    def counted_kernel(log_table, log_power):
        kernels.append(len(log_table))
        return noise_convolve(log_table, log_power)

    monkeypatch.setattr(channel, "_log_sum_exp", counted_sum)
    monkeypatch.setattr(channel, "_noise_convolve", counted_kernel)
    k_tr = 12
    one_pass = k_tr + 2  # one entry per order 0..k_tr+1
    interferers = INTERFERER_SETS[-1][:num_interferers]
    series = TruncatedSeries(RicianShadowedParams(1.0, 10.0, 10.0), interferers, 0.1, k_tr)
    assert len(sums) == (num_interferers - 1) * one_pass
    assert kernels == []
    sums.clear()
    for power in (1e-3, 1.0, 1e3):
        series.at(power)
    assert sums == []
    assert kernels == [one_pass] * 3


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    log_power=st.floats(-744.0, 709.0),
    log_means=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=3),
    k_factor=st.floats(0.0, 30.0),
    m=st.floats(0.1, 30.0),
    k_tr=st.integers(0, 70),
)
def test_noise_kernel_meets_log_sum_exp_convolution(log_power, log_means, k_factor, m, k_tr):
    # the per-point linear-domain pass against the log-sum-exp convolution
    # of 1/l! with the offset table, from a subnormal power to one near the
    # top of double range and interferer means from 1e-300 to 1e300
    interferers = [RicianShadowedParams(10.0**x, k_factor, m) for x in log_means]
    series = TruncatedSeries(RicianShadowedParams(1.0, 10.0, 10.0), interferers, 0.1, k_tr)
    table = series._log_sum_moments
    got = channel._noise_convolve(table, log_power)
    want = channel._log_convolve(
        [-math.lgamma(order + 1) for order in range(len(table))],
        [order * log_power + s for order, s in enumerate(table)],
    )
    assert len(got) == k_tr + 2
    for k, (a, b) in enumerate(zip(got, want)):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (k, a, b)


def forward_noise_convolve(log_table, log_power):
    """`channel._noise_convolve` with every entry's sum fed from j = 0 up
    to k."""
    offset = [order * log_power + s for order, s in enumerate(log_table)]
    shift = offset[0]
    beta, out = [], []
    for k, v in enumerate(offset):
        if v - shift > channel._SPAN:
            shift = v
            beta = [math.exp(x - shift) for x in offset[:k]]
        beta.append(math.exp(v - shift))
        out.append(shift + math.log(math.fsum(beta[j] * channel._INV_FACT[k - j] for j in range(k + 1))))
    return out


# The reference fd_noma/gs interferers (mean at unit power, K, m): on their
# table every entry's j = k product is below its j = 0 product at -30 dB,
# where beta decays, and above it at +30 dB, where beta grows.
REFERENCE_GS = [
    (q.mean_power, q.k_factor, q.m)
    for q in signal_model(suburban(), Scheme.FD_NOMA, Node.GS).interferers
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    log_power=st.floats(-744.0, 709.0),
    links=st.lists(
        st.tuples(
            st.floats(-300.0, 300.0).map(lambda x: 10.0**x),
            st.floats(0.0, 30.0),
            st.floats(0.1, 30.0),
        ),
        min_size=1,
        max_size=3,
    ),
    k_tr=st.integers(0, channel._K_TR_CAP),
)
@example(log_power=-3 * math.log(10), links=REFERENCE_GS, k_tr=40)
@example(log_power=3 * math.log(10), links=REFERENCE_GS, k_tr=40)
def test_noise_kernel_equals_forward_order_sum_bit_for_bit(log_power, links, k_tr):
    # the kernel feeds each fsum from j = k down to 0; fsum is correctly
    # rounded, so every entry must equal the forward-order sum exactly, from
    # a subnormal power to one near the top of double range and link means
    # from 1e-300 to 1e300
    tables = [
        [
            order * math.log(mean) + shape
            for order, shape in enumerate(
                _log_moment_shapes(RicianShadowedParams(mean, k, m), k_tr + 1)
            )
        ]
        for mean, k, m in links
    ]
    table = functools.reduce(channel._log_convolve, tables)
    assert channel._noise_convolve(table, log_power) == forward_noise_convolve(table, log_power)


def test_truncation_order_cap():
    # the noise kernel's range argument, span + log((k_tr+1)!) + log(k_tr+2)
    # < 709, holds up to the cap and fails one order past it; configs stop
    # at 63, well inside
    cap = channel._K_TR_CAP
    assert channel._SPAN + math.lgamma(cap + 2) + math.log(cap + 2) < 709.0
    assert channel._SPAN + math.lgamma(cap + 3) + math.log(cap + 3) >= 709.0
    assert channel._INV_FACT == [1 / math.factorial(j) for j in range(cap + 2)]
    assert channel._INV_FACT[-1] > sys.float_info.min
    assert cap >= MAX_MOMENT_ORDER - 1
    desired = RicianShadowedParams(1.0, 10.0, 10.0)
    interferer = RicianShadowedParams(0.3, 10.0, 3.0)
    deep = TruncatedSeries(desired, [interferer], 0.1, cap).at(1.0)
    assert deep.converged
    assert deep.probability == pytest.approx(
        TruncatedSeries(desired, [interferer], 0.1, 63).at(1.0).probability, abs=1e-12
    )
    with pytest.raises(ValueError, match=f"truncation order must be at most {cap}, got {cap + 1}"):
        TruncatedSeries(desired, [interferer], 0.1, cap + 1)


@pytest.mark.parametrize("num_interferers", [0, 1, 2, 3])
def test_one_2f1_table_per_series_build(monkeypatch, num_interferers):
    # work count, not timing: building a series sums the terminating 2F1 of
    # every CDF coefficient in one table of orders 0..k_tr, and never for an
    # interferer's moment table, whatever its K (0 included) and m
    # (non-integer included)
    calls = []
    cdf_factors = channel._cdf_factors

    def counted(*args):
        table = cdf_factors(*args)
        calls.append(len(table))
        return table

    monkeypatch.setattr(channel, "_cdf_factors", counted)
    k_tr = 40
    interferers = [
        RicianShadowedParams(0.3, 0.0071, 0.739),
        exponential(0.1, m=0.5),
        RicianShadowedParams(3.0, 4.08, 19.4),
    ][:num_interferers]
    TruncatedSeries(RicianShadowedParams(1.0, 0.556, 5.21), interferers, 0.1, k_tr)
    assert calls == [k_tr + 1]


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_sampler_mean_within_one_percent():
    p = RicianShadowedParams(1.0, 10.0, 10.0)
    x = sample_rician_shadowed(p, rng_for(1), 10**6)
    assert abs(x.mean() - 1.0) < 0.01


def test_sampler_moments_within_four_se():
    for m in (3.0, 10.0):
        p = RicianShadowedParams(1.0, 10.0, m)
        x = sample_rician_shadowed(p, rng_for(2), 10**6)
        for order in (1, 2, 3):
            xs = x**order
            se = xs.std() / math.sqrt(xs.size)
            assert abs(xs.mean() - rician_shadowed_moment(p, order)) < 4 * se


def test_sampler_k_zero_is_exponential():
    p = RicianShadowedParams(2.0, 0.0, 5.0)
    x = sample_rician_shadowed(p, rng_for(3), 10**6)
    ks = stats.kstest(x, stats.expon(scale=2.0).cdf)
    assert ks.pvalue > 0.01


def test_sampler_k_zero_is_one_numpy_exponential_draw():
    # the K = 0 stream is numpy's exponential stream, for any m
    for m in (0.5, 1.0, 5.0):
        ours, numpys = rng_for(9), rng_for(9)
        x = sample_rician_shadowed(exponential(2.0, m), ours, 1000)
        assert np.array_equal(x, numpys.exponential(2.0, 1000))
        # and leaves the generator where that draw does, for the next link
        assert ours.random() == numpys.random()


@pytest.mark.parametrize("k", [0.5, 10.0])
@pytest.mark.parametrize("m", [0.5, 3.0, 7.3, 10.0])
def test_sampler_is_numpys_gamma_normal_normal_stream(k, m):
    # the in-place construction equals the textbook one from numpy's scaled
    # draws bit for bit, and leaves the generator where that one does
    p = RicianShadowedParams(1.7, k, m)
    omega = p.mean_power * k / (1.0 + k)
    s = math.sqrt(p.mean_power / (1.0 + k) / 2.0)
    for size in (5000, 40_000):  # 40_000: past two Gaussian slices, not a multiple
        ours, numpys = rng_for(11), rng_for(11)
        x = sample_rician_shadowed(p, ours, size)
        los = np.sqrt(numpys.gamma(m, omega / m, size))
        c_r, c_i = numpys.normal(0, s, size), numpys.normal(0, s, size)
        assert np.array_equal(x, np.square(los + c_r) + np.square(c_i))
        assert ours.bit_generator.state == numpys.bit_generator.state


def test_sampler_large_m_approaches_rician():
    # m -> inf freezes the line-of-sight power: X becomes a scaled
    # noncentral chi-square with 2 dof
    pbar, k = 1.0, 10.0
    p = RicianShadowedParams(pbar, k, 1e4)
    x = sample_rician_shadowed(p, rng_for(4), 2 * 10**5)
    scale = pbar / (1 + k) / 2.0
    rician_power = stats.ncx2(df=2, nc=2 * k, scale=scale)
    ks = stats.kstest(x, rician_power.cdf)
    assert ks.statistic < 0.01


def test_sampler_determinism():
    p = RicianShadowedParams(1.0, 10.0, 10.0)
    xa = sample_rician_shadowed(p, rng_for(6), 1000)
    xb = sample_rician_shadowed(p, rng_for(6), 1000)
    assert np.array_equal(xa, xb)
    # one draw is an array of length one, never a scalar
    assert sample_rician_shadowed(p, rng_for(5), 1).shape == (1,)
    assert sample_rician_shadowed(exponential(1.0), rng_for(5), 1).shape == (1,)
    for q in (p, exponential(1.0)):
        with pytest.raises(ValueError):
            sample_rician_shadowed(q, rng_for(5), -1)


def test_exponential_sampler_mean_and_tail():
    p = exponential(1.0)
    y = sample_rician_shadowed(p, rng_for(7), 10**6)
    assert abs(y.mean() - 1.0) < 0.01
    p2 = exponential(0.1)
    y2 = sample_rician_shadowed(p2, rng_for(8), 10**6)
    assert abs(np.mean(y2 > 0.1) - math.exp(-1)) < 0.005
