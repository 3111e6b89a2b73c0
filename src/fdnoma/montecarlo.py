"""Monte Carlo outage oracle.

Draws per-sample fading realisations of the links in `outage.signal_model`
(the one description of each (scheme, node) pair, shared with the closed
form) and counts outage events.  SINRs are formed directly from the power
allocation, residual-SIC and interference terms rather than through the
effective threshold transform or any series algebra, so an agreement
between this estimator and the closed-form series is evidence for both.

Every link's mean power is linear in transmit power, so one draw of
unit-mean fading serves a whole power grid: `mc_outage_curve` draws each
batch once per (scheme, node) pair and scales it to every power point
(common random numbers).  Each batch gets an independent substream derived
from (seed, batch index), so an estimate depends only on (config, scheme,
node, power, settings), not on the other points of the grid.  Samples
within a point are independent, so its standard error is the binomial
sqrt(p (1 - p) / n).  Points of one curve share their draws and are
therefore correlated; each point's standard error is still valid on its
own.  `mc_outage` is the one-point case, so a point estimate equals the
matching curve point bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ExponentialParams, sample_exponential, sample_rician_shadowed
from .outage import Node, Scheme, SignalModel, SystemConfig, signal_model

__all__ = ["McSettings", "McEstimate", "mc_outage", "mc_outage_curve"]

_BATCH = 1 << 18
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class McSettings:
    num_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1_000:
            raise ValueError(f"num_samples must be >= 1000, got {self.num_samples}")


@dataclass(frozen=True)
class McEstimate:
    probability: float
    std_error: float
    num_samples: int


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, batch_index]))


def _draw(fading, rng, size: int) -> np.ndarray:
    if isinstance(fading, ExponentialParams):
        return sample_exponential(fading, rng, size)
    return sample_rician_shadowed(fading, rng, size)


def _outage_count(
    model: SignalModel, unit: Sequence[np.ndarray], pt_linear: float
) -> int:
    """Outage events among one batch of unit-mean draws at one power.

    `unit` holds the desired link's draws, then each interferer's, in
    model order.  Each is scaled to its mean power, and the SINR is formed
    from the power split itself rather than through the effective
    threshold the closed form uses.
    """
    links = (model.desired,) + model.interferers
    x, *ys = [draw * link.mean_power(pt_linear) for draw, link in zip(unit, links)]
    y = sum(ys, 0.0)
    if model.split is None:
        sinr = x / (y + 1.0)
    else:
        alloc, residual = model.split
        sinr = alloc * x / (residual * (1.0 - alloc) * x + y + 1.0)
    return int(np.count_nonzero(sinr <= model.gamma))


def _estimate(count: int, num_samples: int) -> McEstimate:
    p = count / num_samples
    return McEstimate(p, math.sqrt(p * (1.0 - p) / num_samples), num_samples)


def mc_outage_curve(
    cfg: SystemConfig,
    scheme: Scheme,
    node: Node,
    pt_grid_db: Sequence[float],
    mc: McSettings,
) -> list[McEstimate]:
    """Estimate the outage probability of (scheme, node) at every transmit
    power of `pt_grid_db` (dB over the noise floor) by simulation.

    Each batch draws the unit-mean fading of the desired link, then of
    each interferer, once, and scales it to every power point, so the
    cost of drawing does not grow with the grid.  Ties (SINR exactly at
    threshold) count as outage, matching the event definition used by the
    closed form; the event has probability zero under the continuous
    fading model.  The transmit power `cfg.p_t` itself is not used.
    """
    model = signal_model(cfg, scheme, node)
    links = (model.desired,) + model.interferers
    powers = [10.0 ** (pt / 10.0) for pt in pt_grid_db]
    counts = [0] * len(powers)
    for index, start in enumerate(range(0, mc.num_samples, _BATCH)):
        rng = _batch_rng(mc.seed, index)
        size = min(_BATCH, mc.num_samples - start)
        unit = [_draw(link.fading, rng, size) for link in links]
        for i, pt_linear in enumerate(powers):
            counts[i] += _outage_count(model, unit, pt_linear)
    return [_estimate(count, mc.num_samples) for count in counts]


def mc_outage(
    cfg: SystemConfig, scheme: Scheme, node: Node, mc: McSettings
) -> McEstimate:
    """Estimate the outage probability of (scheme, node) at the transmit
    power cfg.p_t: the one-point case of `mc_outage_curve`."""
    (estimate,) = mc_outage_curve(cfg, scheme, node, [cfg.p_t], mc)
    return estimate
