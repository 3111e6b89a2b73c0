"""Rician shadowed power distributions.

Moments (each link's log-moment table from one stable recurrence), the
closed form's one series evaluator `TruncatedSeries` (the CDF expansion
of a desired link against the moments of an interference sum, whose
coefficients each hold one terminating Gauss 2F1) with its one result
record `OutageResult`, and exact sampling.  The
squared-envelope power X of a Rician shadowed link is parameterised by its
mean power, Rician K factor and shadowing severity m (Nakagami shape of
the line-of-sight amplitude).
`mean_power` is the first moment of X; the moment formula and the sampler
agree on that convention and the test suite pins it.  K = 0 leaves only
the diffuse component: exponential power (Rayleigh fading) for any m.

All functions are pure; samplers take an explicit numpy Generator and a
sample count, always return an ndarray, and keep a fixed draw order, so
seeded streams reproduce bit for bit.  numpy is imported only where
samples are drawn, so the closed form loads without it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RicianShadowedParams",
    "OutageResult",
    "TruncatedSeries",
    "rician_shadowed_moment",
    "sample_rician_shadowed",
]

# Divergence heuristic for the truncated alternating series: flag when the
# per-order term magnitude keeps growing this many orders in a row, once
# past the burn-in order.
_GROWTH_RUN = 5
_GROWTH_BURN_IN = 10

# exp() overflows just above this; used to detect hopeless series terms.
_LOG_HUGE = 700.0

# The per-point noise kernel re-bases its terms when one rises this far
# above the current shift (natural log), and serves k_tr up to the largest
# order with _SPAN + log((k_tr+1)!) + log(k_tr+2) < 709 (see
# `_noise_convolve`).
_SPAN = 300.0
_K_TR_CAP = 107

# 1/j! for j = 0.._K_TR_CAP+1, each correctly rounded.
_INV_FACT = [1 / math.factorial(j) for j in range(_K_TR_CAP + 2)]

# Samples per slice of a sampler's Gaussian draws: their buffer stays this
# small whatever the sample count.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class RicianShadowedParams:
    """One Rician shadowed link: mean power, Rician K factor, shadowing m."""

    mean_power: float
    k_factor: float
    m: float

    def __post_init__(self) -> None:
        if not self.mean_power > 0:
            raise ValueError(f"mean_power must be positive, got {self.mean_power}")
        if not (self.k_factor >= 0 and math.isfinite(self.k_factor)):
            raise ValueError(f"k_factor must be finite and non-negative, got {self.k_factor}")
        if not (self.m > 0 and math.isfinite(self.m)):
            raise ValueError(
                f"shadowing severity m must be finite and positive, got {self.m}"
            )


@dataclass(frozen=True)
class OutageResult:
    """One closed-form outage value: the probability, the threshold gamma
    it was evaluated at, and whether the series is trusted to have
    converged."""

    probability: float
    threshold_used: float
    converged: bool


def _log_moment_shapes(p: RicianShadowedParams, max_order: int) -> list[float]:
    """log(E{X^l} / (l! mean_power^l)) for l = 0..max_order: the part of
    each log moment that does not depend on the mean power.

    For Rician shadowed X (Abdi et al., IEEE TWC 2003) entry l is
    -l log(1+K) + (m-1-l) log(m/(K+m)) + log h(l), with
    h(l) = 2F1(1-m, 1+l; 1; z) at z = -K/m.  As a sequence in l, h obeys
    Gauss's contiguous relation in b = 1 + l (DLMF 15.5.16), and the
    moments are its dominant solution, so the ratios r_l = h(l)/h(l-1)
    run forward stably (Gautschi, SIAM Review 1967):

        r_1 = (1 - m z)/(1 - z),
        r_(l+1) = (2b - 1 + (1 - m - b) z - (b - 1)/r_l) / (b (1 - z)).

    With h(0) = (1 - z)^(m-1), entry l is the sum over i <= l of
    log r_i - log((1+K)/(1+K/m)): O(max_order) for any K >= 0 and m > 0,
    and every entry is exactly 0 at K = 0 (exponential X), where every
    ratio is exactly 1.  A table past double range (K/m above about 1e306)
    raises OverflowError.
    """
    k, m = p.k_factor, p.m
    z = -k / m
    drift = math.log1p(k) - math.log1p(k / m)
    ratio = (1.0 - m * z) / (1.0 - z)
    shapes = [0.0]
    for order in range(1, max_order + 1):
        shapes.append(shapes[-1] + math.log(ratio) - drift)
        b = order + 1.0
        ratio = (2.0 * b - 1.0 + (1.0 - m - b) * z - (b - 1.0) / ratio) / (b * (1.0 - z))
    if not math.isfinite(shapes[-1]):
        raise OverflowError(f"moment table leaves double range (K/m = {k / m:.6g})")
    return shapes


def rician_shadowed_moment(p: RicianShadowedParams, order: int) -> float:
    """E{X^order} of a Rician shadowed power variable.

    E{X^l} = (P/(1+K))^l Gamma(1+l) (m/(K+m))^(m-1-l) 2F1(1-m, 1+l; 1; -K/m)

    Strictly positive; raises OverflowError when the value exceeds double
    range (extreme order / mean power combinations).
    """
    if order < 0:
        raise ValueError(f"moment order must be non-negative, got {order}")
    log_m = (
        order * math.log(p.mean_power)
        + math.lgamma(order + 1)
        + _log_moment_shapes(p, order)[order]
    )
    if log_m > _LOG_HUGE:
        raise OverflowError(
            f"moment of order {order} overflows double precision "
            f"(log value {log_m:.1f})"
        )
    return math.exp(log_m)


def _cdf_factors(k_tr: int, b: float, z: float) -> list[float]:
    """F_n = 2F1(-n, b; 1; z) for n = 0..k_tr, each summed term by term:
    the series of order n terminates after n + 1 terms.  The column
    constants b + k - 1 and k^2 are computed once for all orders."""
    rising = [b + k - 1 for k in range(k_tr + 1)]
    squares = [k * k for k in range(k_tr + 1)]
    factors = []
    for n in range(k_tr + 1):
        total = term = 1.0
        for k in range(1, n + 1):
            term *= (k - 1 - n) * rising[k] / squares[k] * z
            total += term
        factors.append(total)
    return factors


def _log_sum_exp(logs: list[float]) -> float:
    peak = max(logs)
    return peak + math.log(math.fsum(math.exp(x - peak) for x in logs))


def _log_convolve(a: list[float], b: list[float]) -> list[float]:
    """Entries 0..len(a)-1 of the convolution of exp(a) and exp(b), as logs:
    one pass of log-sum-exp per entry.  It serves the once-per-curve
    convolution of the interferers' moment tables: both of its sides are
    unbounded, so every entry needs its own peak, which the per-point
    `_noise_convolve` (one side bounded) does without."""
    return [
        _log_sum_exp(list(map(operator.add, a[: k + 1], b[k::-1])))
        for k in range(len(a))
    ]


def _noise_convolve(log_table: list[float], log_power: float) -> list[float]:
    """Entries k = 0..len(log_table)-1 of the convolution of 1/l! with
    exp(v_l), v_l = l log_power + log_table[l], as logs: one linear-domain
    pass.

    Each v_l is exponentiated once, as beta_l = exp(v_l - shift).  The shift
    starts at v_0 and moves to v_k only when v_k rises more than `_SPAN`
    above it, re-exponentiating the terms so far; entry k is
    shift + log(sum_j beta_j / (k-j)!), with 1/j! read from `_INV_FACT`.
    This is exact to rounding because 1/j! is bounded, between
    1/(k_tr+1)! and 1: the term that set the shift keeps every entry's
    dominant term at or above 1/(k_tr+1)!, a normal float, so a term that
    underflows is negligible against it, and no sum exceeds
    (k_tr+2) e^_SPAN.  `_K_TR_CAP` keeps both inside double range.

    Each entry's `math.fsum` is fed from j = k down to 0, the large end of
    the row at positive dB, where beta grows.  fsum returns the correctly
    rounded sum, so the order cannot change a bit; but it walks its list of
    exact partials for every addend, and that list stays short when the
    large addends come first, which cuts the pass by a third to a half at
    0-60 dB.  At negative dB, where beta decays, the same order costs
    about half as much again (fd_noma/gs at -30 dB, k_tr 40).
    """
    offset = [order * log_power + s for order, s in enumerate(log_table)]
    shift = offset[0]
    beta: list[float] = []
    out = []
    for k, v in enumerate(offset):
        if v - shift > _SPAN:
            shift = v
            beta = [math.exp(x - shift) for x in offset[:k]]
        beta.append(math.exp(v - shift))
        out.append(shift + math.log(math.fsum(map(operator.mul, _INV_FACT, reversed(beta)))))
    return out


class TruncatedSeries:
    """Truncated series for P(p X0 <= gamma (1 + p S)), S = sum_j Y_j,
    tabulated once for every transmit power p.

    Each link's `mean_power` is its mean at unit transmit power.  Order n
    of the series is alpha(n) E{(1 + p S)^(n+1)}, n = 0..k_tr, where
    alpha(n) is the CDF expansion coefficient of p X0.  Construction
    computes every part that does not depend on p:

    * alpha(n) = x^(n+1) (m/(K+m))^(m+n) (-1)^n F_n / (n+1)! with the series
      argument x = (1+K) gamma / (p P0) and F_n = 2F1(-n, 1-m; 1; -K/m),
      every order's terminating sum in one `_cdf_factors` table.  F_n is
      the Pfaff transform (DLMF 15.8.1) of the alternating sum S(n) of Abdi
      et al. (IEEE TWC 2003), whose own terms cancel far below double
      precision near x = 15.
      An F_n past double range (K/m above about 4e4) raises OverflowError;
    * log(E{S^l}/l!) for l = 0..k_tr+1, convolving the J interferers'
      log(E{Y_j^l}/l!) = l log P_j + shape_j(l) in log space with
      log-sum-exp: J - 1 passes.  Each shape_j table is one forward ratio
      recurrence, O(k_tr) for any K and m, with no 2F1 call.

    The power enters only as l log p: on entry l of that table, since
    E{(p S)^l} = p^l E{S^l}, and as -(n+1) log p in order n.  `at` then
    costs one linear-domain pass of `_noise_convolve`, O(k_tr^2) products
    but only O(k_tr) exponentials, for any J >= 1 and O(k_tr) with none:
    E{(1 + p S)^k}/k! is entry k of the convolution of 1/l! (the unit
    noise term, held once as the float table `_INV_FACT`) with the offset
    table.  With no interferers the expectation is 1 and the series is the
    plain truncated CDF P(p X0 <= gamma).  k_tr is capped at `_K_TR_CAP`
    (107), the range of that pass; a larger order raises ValueError.
    """

    def __init__(
        self,
        desired: RicianShadowedParams,
        interferers: Sequence[RicianShadowedParams],
        gamma: float,
        k_tr: int,
    ):
        if not gamma >= 0:
            raise ValueError(f"threshold must be non-negative, got {gamma}")
        if k_tr < 0:
            raise ValueError(f"truncation order must be non-negative, got {k_tr}")
        if k_tr > _K_TR_CAP:
            raise ValueError(f"truncation order must be at most {_K_TR_CAP}, got {k_tr}")
        self.gamma = gamma
        if gamma == 0.0 or math.isinf(gamma):
            return
        k, m = desired.k_factor, desired.m
        self._log_fact = [math.lgamma(j + 1) for j in range(k_tr + 2)]
        self._log_scale = math.log1p(k) + math.log(gamma) - math.log(desired.mean_power)
        log_ratio = math.log(m) - math.log(k + m)
        self._alpha = []
        for n, f_n in enumerate(_cdf_factors(k_tr, 1.0 - m, -k / m)):
            if not math.isfinite(f_n):
                raise OverflowError(
                    f"CDF coefficient of order {n}: its 2F1 factor overflows "
                    f"double precision (K/m = {k / m:.6g})"
                )
            sign = (-1.0) ** n * math.copysign(1.0, f_n)
            log_f = math.log(abs(f_n)) if f_n else -math.inf
            self._alpha.append((sign, (m + n) * log_ratio - self._log_fact[n + 1] + log_f))
        tables = [
            [
                order * math.log(q.mean_power) + shape
                for order, shape in enumerate(_log_moment_shapes(q, k_tr + 1))
            ]
            for q in interferers
        ]
        self._log_sum_moments = functools.reduce(_log_convolve, tables) if tables else None

    def _log_power_moments(self, power: float) -> list[float]:
        """log E{(1 + power S)^k} for k = 1..k_tr+1."""
        log_fact = self._log_fact
        if self._log_sum_moments is None:
            return [0.0] * (len(log_fact) - 1)
        acc = _noise_convolve(self._log_sum_moments, math.log(power))
        return [a + lf for a, lf in zip(acc[1:], log_fact[1:])]

    def at(self, power: float) -> OutageResult:
        """Evaluate the series at transmit power `power` (finite, > 0); the
        record's `threshold_used` is the series threshold gamma.

        The truncated sum is clamped to [0, 1]; the alternating series can
        slightly overshoot before it has converged.  `converged` goes false
        when per-order magnitudes keep growing (threshold far outside the
        expansion's useful range).  A term past double range raises
        OverflowError naming its order: the finite terms alone say nothing
        about the sum.  A zero threshold gives 0 and an infinite one
        certain outage.
        """
        if self.gamma == 0.0:
            return OutageResult(0.0, self.gamma, True)
        if math.isinf(self.gamma):
            return OutageResult(1.0, self.gamma, True)
        scale = self._log_scale - math.log(power)
        terms = []
        log_moments = self._log_power_moments(power)
        for n, ((sign, base), log_e) in enumerate(zip(self._alpha, log_moments)):
            log_mag = (n + 1) * scale + base + log_e
            if log_mag > _LOG_HUGE:
                raise OverflowError(
                    f"series term of order {n} overflows double precision "
                    f"(log magnitude {log_mag:.1f})"
                )
            terms.append(sign * math.exp(log_mag))
        total = math.fsum(terms)
        converged = not _diverging([abs(t) for t in terms])
        return OutageResult(min(max(total, 0.0), 1.0), self.gamma, converged)


def _diverging(magnitudes: list[float]) -> bool:
    """True when |term| grew _GROWTH_RUN consecutive orders past burn-in."""
    run = 0
    for n in range(1, len(magnitudes)):
        if n > _GROWTH_BURN_IN and magnitudes[n] > magnitudes[n - 1]:
            run += 1
            if run >= _GROWTH_RUN:
                return True
        else:
            run = 0
    return False


def sample_rician_shadowed(
    p: RicianShadowedParams, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw `size` Rician shadowed power samples X = (sqrt(G) + c_r)^2 + c_i^2.

    G ~ Gamma(shape m, scale Omega/m) with Omega = mean_power K/(1+K) is the
    shadowed line-of-sight power, and c_r, c_i are independent zero-mean
    Gaussians of variance mean_power/(2(1+K)): the two quadratures of the
    diffuse component.  The diffuse term is circularly symmetric, so
    aligning the line-of-sight phasor with the real axis leaves the law of
    |sqrt(G) e^{j theta} + c|^2 unchanged and needs no phase draw.  Draws
    are taken in the order G, c_r, c_i.  At K = 0 there is no line of
    sight and X is exponential with the mean power: one exponential draw
    replaces the two Gaussians.

    X is built in place from standard gamma and normal draws, scaled as
    numpy's `gamma(m, s)` and `normal(0, s)` scale them (s times the
    standard draw), so it equals the same generator's
    (sqrt(gamma(m, Omega/m)) + normal(0, s))^2 + normal(0, s)^2 bit for bit.
    The Gaussians are drawn in slices of `_CHUNK` samples into one small
    buffer, all of c_r before any of c_i: numpy's generators give the same
    stream and end state drawn in slices as in one call, so the only
    buffer of the sample count is X itself.
    """
    import numpy as np

    if p.k_factor == 0:
        return rng.exponential(p.mean_power, size)
    omega = p.mean_power * p.k_factor / (1.0 + p.k_factor)
    scale = math.sqrt(p.mean_power / (1.0 + p.k_factor) / 2.0)
    x = rng.standard_gamma(p.m, size)
    x *= omega / p.m
    np.sqrt(x, out=x)
    c = np.empty(min(size, _CHUNK))
    parts = np.split(x, range(_CHUNK, size, _CHUNK))  # views of x
    for part in parts:  # c_r
        cr = c[: len(part)]
        rng.standard_normal(out=cr)
        cr *= scale
        part += cr
    np.square(x, out=x)
    for part in parts:  # c_i
        ci = c[: len(part)]
        rng.standard_normal(out=ci)
        ci *= scale
        np.square(ci, out=ci)
        part += ci
    return x
