"""Closed-form outage probabilities for every (scheme, node) pair.

Three multiple-access schemes are covered: full-duplex NOMA (uplink and
both downlink users share the spectrum simultaneously), half-duplex NOMA,
and half-duplex OMA.  Rates are tied to a common base rate so the schemes
are compared fairly: the FD rate is a third of the OMA rate and the HD-NOMA
rate is half of it.

The closed form expands the outage probability
P(X0 <= gamma (1 + sum_i X_i)) into a truncated series over CDF expansion
coefficients of the desired link and moments of the interference sum
(`channel.TruncatedSeries`, its one evaluator, whose `channel.OutageResult`
record every caller receives unchanged).
Each (scheme, node) pair is described once, by `signal_model`, which the
Monte Carlo oracle reads too, and evaluated as one `OutageCurve` over
transmit power.  The closed form folds the power-domain NOMA interference
at a downlink UAV into an effective threshold gamma*, which becomes
infinite (certain outage) when the rate exceeds what the power split can
support.

Transmit power is expressed in dB relative to the receiver noise floor, so
SINR denominators carry a unit noise term.  The oscillator phase-noise
strength and the noise floor (both dBm) enter only through their ratio,
which scales the self-interference channel power; the estimation-error
variance scale `epsilon` multiplies the transmit power exactly once to
give the mean of the exponential residual term, a K = 0 Rician shadowed
link.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace

from .channel import OutageResult, RicianShadowedParams, TruncatedSeries

__all__ = [
    "Scheme",
    "Node",
    "NodeGeometry",
    "FadingSet",
    "SystemConfig",
    "Link",
    "SignalModel",
    "OutageCurve",
    "rate_for",
    "sinr_threshold",
    "noma_effective_threshold",
    "db_to_linear",
    "signal_model",
    "evaluate_outage",
]

# Largest series truncation order a config may ask for.
_MAX_K_TR = 63


class Scheme(enum.Enum):
    FD_NOMA = "fd_noma"
    HD_NOMA = "hd_noma"
    HD_OMA = "hd_oma"


class Node(enum.Enum):
    GS = "gs"
    UAV2 = "uav2"
    UAV3 = "uav3"


@dataclass(frozen=True)
class NodeGeometry:
    """Euclidean distances (km) between the nodes and the pathloss exponent.

    UAV-1 is the uplink transmitter, the ground station serves UAV-2 (near,
    SIC detector) and UAV-3 (far, interference-ignorant detector).  Each
    pathloss distance**pathloss_exp must be a normal float, so that it and
    its reciprocal, the link's unit-power mean, are finite and non-zero.
    """

    d_1g: float
    d_g2: float
    d_g3: float
    d_12: float
    d_13: float
    pathloss_exp: float

    def __post_init__(self) -> None:
        if not (self.pathloss_exp >= 1 and math.isfinite(self.pathloss_exp)):
            raise ValueError(
                f"pathloss_exp must be finite and >= 1, got {self.pathloss_exp}"
            )
        for name in ("d_1g", "d_g2", "d_g3", "d_12", "d_13"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"distance {name} must be finite and positive, got {value}")
            try:
                loss = value**self.pathloss_exp
            except OverflowError:
                loss = math.inf
            if not sys.float_info.min <= loss <= sys.float_info.max:
                raise ValueError(
                    f"pathloss {name}**pathloss_exp = {value}**{self.pathloss_exp} "
                    "is out of float range"
                )
        if not self.d_g2 < self.d_g3:
            raise ValueError(
                f"downlink ordering requires d_g2 < d_g3, got {self.d_g2} >= {self.d_g3}"
            )


@dataclass(frozen=True)
class FadingSet:
    """Unit-mean fading parameters per link; power scaling comes from each
    signal-model link's `unit_mean`, never from these."""

    link_1g: RicianShadowedParams
    link_si: RicianShadowedParams
    link_g2: RicianShadowedParams
    link_g3: RicianShadowedParams
    link_12: RicianShadowedParams
    link_13: RicianShadowedParams

    def __post_init__(self) -> None:
        for name in ("link_1g", "link_si", "link_g2", "link_g3", "link_12", "link_13"):
            if getattr(self, name).mean_power != 1.0:
                raise ValueError(f"fading params for {name} must have unit mean_power")


@dataclass(frozen=True)
class SystemConfig:
    """Full scenario description.

    p_t is the transmit power in dB over the noise floor; phase_noise_power
    and noise_power are absolute levels in dBm whose difference sets the
    residual self-interference power scale.
    """

    p_t: float
    r_oma: float
    a_gs2: float
    beta: float
    phase_noise_power: float
    noise_power: float
    epsilon: float
    k_tr: int
    geometry: NodeGeometry
    fading: FadingSet

    def __post_init__(self) -> None:
        for name in ("phase_noise_power", "noise_power"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.a_gs2 < 1:
            raise ValueError(f"power allocation a_gs2 must lie in (0, 1), got {self.a_gs2}")
        if not 0 <= self.beta <= 1:
            raise ValueError(f"residual SIC strength beta must lie in [0, 1], got {self.beta}")
        if not (self.epsilon >= 0 and math.isfinite(self.epsilon)):
            raise ValueError(
                f"estimation-error scale epsilon must be finite and >= 0, got {self.epsilon}"
            )
        if self.k_tr < 0:
            raise ValueError(f"truncation order k_tr must be >= 0, got {self.k_tr}")
        if self.k_tr > _MAX_K_TR:
            raise ValueError(f"truncation order k_tr must be <= {_MAX_K_TR}, got {self.k_tr}")
        if not (self.r_oma >= 0 and math.isfinite(self.r_oma)):
            raise ValueError(f"base rate r_oma must be finite and >= 0, got {self.r_oma}")
        try:
            sinr_threshold(self.r_oma)  # HD-OMA's, the largest threshold
        except OverflowError:
            raise ValueError(
                f"base rate r_oma = {self.r_oma} overflows the SINR threshold 2^r_oma - 1"
            ) from None
        gap = self.phase_noise_power - self.noise_power
        for name, level in (("p_t", self.p_t), ("phase_noise_power - noise_power", gap)):
            try:
                db_to_linear(level)
            except ValueError as exc:
                raise ValueError(f"{name} must be finite as a linear power: {exc}") from None

    @property
    def si_power_ratio(self) -> float:
        """Phase-noise power over noise power, linear."""
        return db_to_linear(self.phase_noise_power - self.noise_power)


def rate_for(scheme: Scheme, r_oma: float) -> float:
    """Per-scheme transmission rate from the common base rate."""
    if not r_oma >= 0:
        raise ValueError(f"base rate must be non-negative, got {r_oma}")
    if scheme is Scheme.FD_NOMA:
        return r_oma / 3.0
    if scheme is Scheme.HD_NOMA:
        return r_oma / 2.0
    return r_oma


def sinr_threshold(rate: float) -> float:
    """SINR threshold 2^rate - 1 for outage at the given rate."""
    if not rate >= 0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    return math.expm1(rate * math.log(2.0))


def noma_effective_threshold(gamma: float, alloc: float, residual: float) -> float:
    """Fold the power-domain NOMA split into an effective SINR threshold.

    Returns gamma / (alloc - (1 - alloc) residual gamma), or inf when the
    denominator is non-positive: the rate then exceeds what the allocation
    can ever support and outage is certain.  The interfering share is
    weighted by `residual` (the leftover after SIC at the near user, or 1
    at the interference-ignorant far user).
    """
    if not gamma >= 0:
        raise ValueError(f"threshold must be non-negative, got {gamma}")
    if not 0 < alloc < 1:
        raise ValueError(f"allocation must lie in (0, 1), got {alloc}")
    if not 0 <= residual <= 1:
        raise ValueError(f"residual must lie in [0, 1], got {residual}")
    denom = alloc - (1.0 - alloc) * residual * gamma
    if denom <= 0:
        return math.inf
    return gamma / denom


def db_to_linear(level_db: float) -> float:
    """10^(level_db/10), the one range rule for every dB level: a positive
    finite float, or a ValueError naming the level.  That rejects NaN and
    levels above about 3082.5 dB (overflow) or below about -3236 dB
    (underflow to 0); the subnormal band between converts."""
    if math.isnan(level_db):
        raise ValueError(f"power level must not be NaN, got {level_db} dB")
    try:
        linear = 10.0 ** (level_db / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(
            f"power level {level_db:g} dB leaves float range as a linear power "
            "(about -3236 to 3082.5 dB)"
        )
    return linear


@dataclass(frozen=True)
class Link:
    """One link of a signal model: unit-mean fading and its mean power at
    unit transmit power.

    At noise-normalised transmit power pt_linear its mean power is
    pt_linear * unit_mean; a distance-attenuated link has unit_mean
    1 / distance_km**pathloss_exp.
    """

    fading: RicianShadowedParams
    unit_mean: float


@dataclass(frozen=True)
class SignalModel:
    """The SINR model of one (scheme, node) pair.

    The SINR is X / (sum_j Y_j + 1) over the desired power X and the
    interference powers Y_j; at a NOMA downlink, where `split` is
    (alloc, residual), it is alloc X / (residual (1 - alloc) X + sum_j Y_j + 1).
    Outage is SINR <= gamma = 2^rate - 1.
    """

    desired: Link
    interferers: tuple[Link, ...]
    gamma: float
    split: tuple[float, float] | None


def signal_model(cfg: SystemConfig, scheme: Scheme, node: Node) -> SignalModel:
    """The desired link, the interferers, the threshold and the power split
    of one (scheme, node) pair; both the closed form and Monte Carlo read it.
    A link's `unit_mean` is 1 / distance**pathloss_exp, the phase-noise to
    noise power ratio for the residual self-interference, or epsilon for
    the estimation error.  An interferer whose `unit_mean` is 0 (epsilon
    = 0) adds nothing and is left out, so every `unit_mean` is positive.

    * Ground station: the uplink signal; under FD-NOMA it competes against
      the residual self-interference, a Rician shadowed term scaled by the
      phase-noise/noise power ratio, plus a channel-estimation error term.
      The error has exponential power, which is Rician shadowed fading
      with K = 0: unit mean, and m = 1 only because a value is required,
      since m has no effect at K = 0.
    * Downlink UAV under NOMA: the power split applies, with the leftover
      beta after SIC at the near user UAV-2 and the full interfering share
      at the interference-ignorant far user UAV-3; under FD-NOMA the uplink
      UAV adds one Rician shadowed interference term.
    * Downlink UAV under HD-OMA: orthogonal resources, so neither a power
      split nor interference terms apply.
    """
    gamma = sinr_threshold(rate_for(scheme, cfg.r_oma))
    geo, fading = cfg.geometry, cfg.fading
    eta = geo.pathloss_exp
    if node is Node.GS:
        interferers: tuple[Link, ...] = ()
        if scheme is Scheme.FD_NOMA:
            si = Link(fading.link_si, cfg.si_power_ratio)
            error = Link(RicianShadowedParams(1.0, 0.0, 1.0), cfg.epsilon)
            interferers = tuple(link for link in (si, error) if link.unit_mean > 0.0)
        return SignalModel(Link(fading.link_1g, 1.0 / geo.d_1g**eta), interferers, gamma, None)
    if node is Node.UAV2:
        desired = Link(fading.link_g2, 1.0 / geo.d_g2**eta)
        uplink = Link(fading.link_12, 1.0 / geo.d_12**eta)
        split = (cfg.a_gs2, cfg.beta)
    else:
        desired = Link(fading.link_g3, 1.0 / geo.d_g3**eta)
        uplink = Link(fading.link_13, 1.0 / geo.d_13**eta)
        split = (1.0 - cfg.a_gs2, 1.0)
    if scheme is Scheme.HD_OMA:
        return SignalModel(desired, (), gamma, None)
    interferers = (uplink,) if scheme is Scheme.FD_NOMA else ()
    return SignalModel(desired, interferers, gamma, split)


class OutageCurve:
    """Closed-form outage of one (scheme, node) pair over transmit power.

    Everything that does not depend on the transmit power (the threshold
    and the `TruncatedSeries` tables, built from each link's `unit_mean`,
    which `signal_model` keeps positive) is computed once, here; `at`
    then evaluates one power point.
    `evaluate_outage` is the one-point case, so a point evaluation equals
    the matching sweep row bit for bit.  The transmit power `cfg.p_t`
    itself is not used.
    """

    def __init__(self, cfg: SystemConfig, scheme: Scheme, node: Node):
        model = signal_model(cfg, scheme, node)
        threshold = model.gamma
        if model.split is not None:
            threshold = noma_effective_threshold(model.gamma, *model.split)
        desired, *interferers = [
            replace(link.fading, mean_power=link.unit_mean)
            for link in (model.desired,) + model.interferers
        ]
        self._series = TruncatedSeries(desired, interferers, threshold, cfg.k_tr)

    def at(self, pt_db: float) -> OutageResult:
        """Outage probability at transmit power pt_db (dB over the noise floor).

        A level outside `db_to_linear`'s range raises its ValueError.  The
        series takes only log(10^(pt/10)), so a link whose mean at the
        power point is too small or too large for a float still evaluates.
        """
        return self._series.at(db_to_linear(pt_db))


def evaluate_outage(cfg: SystemConfig, scheme: Scheme, node: Node) -> OutageResult:
    """Closed-form outage of (scheme, node) at the transmit power cfg.p_t."""
    return OutageCurve(cfg, scheme, node).at(cfg.p_t)
