"""Closed-form outage probabilities for every (scheme, node) pair.

Three multiple-access schemes are covered: full-duplex NOMA (uplink and
both downlink users share the spectrum simultaneously), half-duplex NOMA,
and half-duplex OMA.  Rates are tied to a common base rate so the schemes
are compared fairly: the FD rate is a third of the OMA rate and the HD-NOMA
rate is half of it.

The generic evaluator expands the outage probability
P(X0 <= gamma (1 + sum_i X_i)) into a truncated series over CDF expansion
coefficients of the desired link and moments of the interference sum;
each (scheme, node) pair is one `OutageCurve` over transmit power; the
power-domain NOMA interference at a downlink UAV is folded into an
effective threshold gamma* instead, which becomes infinite (certain
outage) when the rate exceeds what the power split can support.

Transmit power is expressed in dB relative to the receiver noise floor, so
SINR denominators carry a unit noise term.  The oscillator phase-noise
strength and the noise floor (both dBm) enter only through their ratio,
which scales the self-interference channel power; the estimation-error
variance scale `epsilon` multiplies the transmit power exactly once to
give the mean of the exponential residual term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .channel import (
    MAX_MOMENT_ORDER,
    ExponentialParams,
    RicianShadowedParams,
    TruncatedCdf,
    TruncatedSeries,
)

__all__ = [
    "Scheme",
    "Node",
    "NodeGeometry",
    "FadingSet",
    "LinkBudget",
    "SystemConfig",
    "OutageResult",
    "OutageCurve",
    "rate_for",
    "sinr_threshold",
    "noma_effective_threshold",
    "outage_series",
    "outage_fd_gs",
    "outage_fd_uav",
    "outage_hd_gs",
    "outage_hd_uav",
    "outage_oma_gs",
    "outage_oma_uav",
    "evaluate_outage",
]

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
    SIC detector) and UAV-3 (far, interference-ignorant detector).
    """

    d_1g: float
    d_g2: float
    d_g3: float
    d_12: float
    d_13: float
    pathloss_exp: float

    def __post_init__(self) -> None:
        for name in ("d_1g", "d_g2", "d_g3", "d_12", "d_13"):
            if not getattr(self, name) > 0:
                raise ValueError(f"distance {name} must be positive")
        if not self.d_g2 < self.d_g3:
            raise ValueError(
                f"downlink ordering requires d_g2 < d_g3, got {self.d_g2} >= {self.d_g3}"
            )
        if not self.pathloss_exp >= 1:
            raise ValueError(f"pathloss_exp must be >= 1, got {self.pathloss_exp}")


@dataclass(frozen=True)
class FadingSet:
    """Unit-mean fading parameters per link; power scaling comes from the
    link budget, never from these."""

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
class LinkBudget:
    """Received mean power of one link: noise-normalised transmit power
    attenuated by distance^pathloss_exp."""

    tx_power: float
    distance_km: float
    pathloss_exp: float

    def mean_power(self) -> float:
        return self.tx_power / self.distance_km**self.pathloss_exp


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
        if not 0 < self.a_gs2 < 1:
            raise ValueError(f"power allocation a_gs2 must lie in (0, 1), got {self.a_gs2}")
        if not 0 <= self.beta <= 1:
            raise ValueError(f"residual SIC strength beta must lie in [0, 1], got {self.beta}")
        if not self.epsilon >= 0:
            raise ValueError(f"estimation-error scale epsilon must be >= 0, got {self.epsilon}")
        if self.k_tr < 0:
            raise ValueError(f"truncation order k_tr must be >= 0, got {self.k_tr}")
        if self.k_tr + 1 > MAX_MOMENT_ORDER:
            raise ValueError(
                f"truncation order k_tr must be <= {MAX_MOMENT_ORDER - 1} (the series "
                f"uses moments up to order k_tr + 1), got {self.k_tr}"
            )
        if not self.r_oma >= 0:
            raise ValueError(f"base rate r_oma must be >= 0, got {self.r_oma}")

    @property
    def pt_linear(self) -> float:
        return 10.0 ** (self.p_t / 10.0)

    @property
    def si_power_ratio(self) -> float:
        """Phase-noise power over noise power, linear."""
        return 10.0 ** ((self.phase_noise_power - self.noise_power) / 10.0)


@dataclass(frozen=True)
class OutageResult:
    scheme: Scheme
    node: Node
    probability: float
    threshold_used: float
    converged: bool


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


def outage_series(
    desired: RicianShadowedParams,
    interferers: Sequence[RicianShadowedParams | ExponentialParams],
    gamma: float,
    k_tr: int,
) -> TruncatedCdf:
    """Truncated series for P(X0 <= gamma (1 + sum_j Y_j)).

    `interferers` holds the independent interference powers Y_j, each a
    Rician shadowed or exponential law with its mean power.  Order n of
    the series combines the CDF expansion coefficient of the desired link
    with E{(1 + sum_j Y_j)^(n+1)}; see `TruncatedSeries`, whose one-point
    case this is.

    The sum is clamped to [0, 1]; an infinite threshold short-circuits to
    certain outage.
    """
    series = TruncatedSeries(desired, interferers, gamma, k_tr)
    return series.at(desired.mean_power, [q.mean_power for q in interferers])


def _scaled(unit_params: RicianShadowedParams, mean_power: float) -> RicianShadowedParams:
    return replace(unit_params, mean_power=mean_power)


def _downlink_geometry(cfg: SystemConfig, node: Node):
    geo = cfg.geometry
    if node is Node.UAV2:
        return geo.d_g2, geo.d_12, cfg.fading.link_g2, cfg.fading.link_12, cfg.a_gs2, cfg.beta
    if node is Node.UAV3:
        return geo.d_g3, geo.d_13, cfg.fading.link_g3, cfg.fading.link_13, 1.0 - cfg.a_gs2, 1.0
    raise ValueError(f"downlink evaluation requires UAV2 or UAV3, got {node}")


def _budget(cfg: SystemConfig, distance_km: float) -> float:
    return LinkBudget(cfg.pt_linear, distance_km, cfg.geometry.pathloss_exp).mean_power()


def _signal_model(cfg: SystemConfig, scheme: Scheme, node: Node):
    """The desired link, the interferers and the threshold of one pair.

    Links are (unit-mean fading, gain, loss) triples whose mean power is
    pt_linear * gain / loss, with pathloss as the loss so that it is applied
    exactly as `LinkBudget` does.

    * Ground station: the uplink signal; under FD-NOMA it competes against
      the residual self-interference, a Rician shadowed term scaled by the
      phase-noise/noise power ratio plus an exponential channel-estimation
      error term (dropped when epsilon = 0).
    * Downlink UAV under NOMA: the power split is folded into the effective
      threshold, and under FD-NOMA the uplink UAV adds one Rician shadowed
      interference term.
    * Downlink UAV under HD-OMA: orthogonal resources, so neither a NOMA
      threshold transform nor interference terms apply.
    """
    gamma = sinr_threshold(rate_for(scheme, cfg.r_oma))
    eta = cfg.geometry.pathloss_exp
    if node is Node.GS:
        desired = (cfg.fading.link_1g, 1.0, cfg.geometry.d_1g**eta)
        interferers = []
        if scheme is Scheme.FD_NOMA:
            interferers.append((cfg.fading.link_si, cfg.si_power_ratio, 1.0))
            if cfg.epsilon > 0:
                interferers.append((ExponentialParams(1.0), cfg.epsilon, 1.0))
        return desired, interferers, gamma
    d_gi, d_1i, fading_gi, fading_1i, alloc, residual = _downlink_geometry(cfg, node)
    desired = (fading_gi, 1.0, d_gi**eta)
    if scheme is Scheme.HD_OMA:
        return desired, [], gamma
    gamma = noma_effective_threshold(gamma, alloc, residual)
    if scheme is Scheme.HD_NOMA:
        return desired, [], gamma
    return desired, [(fading_1i, 1.0, d_1i**eta)], gamma


class OutageCurve:
    """Closed-form outage of one (scheme, node) pair over transmit power.

    Everything that does not depend on the transmit power (the threshold
    and the `TruncatedSeries` tables) is computed once, here; `at` then
    evaluates one power point.  `evaluate_outage` is the one-point case,
    so a point evaluation equals the matching sweep row bit for bit.  The
    transmit power `cfg.p_t` itself is not used.
    """

    def __init__(self, cfg: SystemConfig, scheme: Scheme, node: Node):
        self.scheme = scheme
        self.node = node
        desired, interferers, self.threshold = _signal_model(cfg, scheme, node)
        self._links = [desired] + interferers
        self._series = TruncatedSeries(
            desired[0], [fading for fading, _, _ in interferers], self.threshold, cfg.k_tr
        )

    def at(self, pt_db: float) -> OutageResult:
        """Outage probability at transmit power pt_db (dB over the noise floor)."""
        pt_linear = 10.0 ** (pt_db / 10.0)
        desired, *interferers = [pt_linear * gain / loss for _, gain, loss in self._links]
        result = self._series.at(desired, interferers)
        return OutageResult(
            self.scheme, self.node, result.value, self.threshold, result.converged
        )


def evaluate_outage(cfg: SystemConfig, scheme: Scheme, node: Node) -> OutageResult:
    """Closed-form outage of (scheme, node) at the transmit power cfg.p_t."""
    return OutageCurve(cfg, scheme, node).at(cfg.p_t)


def _require_uav(node: Node) -> Node:
    if node is Node.GS:
        raise ValueError(f"downlink evaluation requires UAV2 or UAV3, got {node}")
    return node


def outage_fd_gs(cfg: SystemConfig) -> OutageResult:
    """FD-NOMA outage at the ground station."""
    return evaluate_outage(cfg, Scheme.FD_NOMA, Node.GS)


def outage_fd_uav(cfg: SystemConfig, node: Node) -> OutageResult:
    """FD-NOMA outage at a downlink UAV."""
    return evaluate_outage(cfg, Scheme.FD_NOMA, _require_uav(node))


def outage_hd_gs(cfg: SystemConfig) -> OutageResult:
    """HD-NOMA outage at the ground station: no self-interference."""
    return evaluate_outage(cfg, Scheme.HD_NOMA, Node.GS)


def outage_hd_uav(cfg: SystemConfig, node: Node) -> OutageResult:
    """HD-NOMA outage at a downlink UAV: no uplink interference, but the
    NOMA split still applies through the effective threshold."""
    return evaluate_outage(cfg, Scheme.HD_NOMA, _require_uav(node))


def outage_oma_gs(cfg: SystemConfig) -> OutageResult:
    """HD-OMA outage at the ground station: full rate, no interference."""
    return evaluate_outage(cfg, Scheme.HD_OMA, Node.GS)


def outage_oma_uav(cfg: SystemConfig, node: Node) -> OutageResult:
    """HD-OMA outage at a downlink UAV."""
    return evaluate_outage(cfg, Scheme.HD_OMA, _require_uav(node))
