"""Monte Carlo outage oracle.

Draws per-sample fading realisations of the links in `outage.signal_model`
(the one description of each (scheme, node) pair, shared with the closed
form) and counts outage events.  SINRs are formed directly from the power
allocation, residual-SIC and interference terms rather than through the
effective threshold transform or any series algebra, so an agreement
between this estimator and the closed-form series is evidence for both.

Samples are drawn in fixed-size batches; each batch gets an independent
substream derived from (seed, batch index), so an estimate depends only on
(config, scheme, node, settings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ExponentialParams, sample_exponential, sample_rician_shadowed
from .outage import Node, Scheme, SystemConfig, signal_model

__all__ = ["McSettings", "McEstimate", "mc_outage"]

_BATCH = 1 << 18
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class McSettings:
    num_samples: int = 1_000_000
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.num_samples < 1_000:
            raise ValueError(f"num_samples must be >= 1000, got {self.num_samples}")
        if self.antithetic and self.num_samples % 2 != 0:
            raise ValueError("antithetic sampling requires an even num_samples")


@dataclass(frozen=True)
class McEstimate:
    probability: float
    std_error: float
    num_samples: int


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, batch_index]))


def _batch_sizes(num_samples: int, antithetic: bool):
    offset = 0
    index = 0
    while offset < num_samples:
        size = min(_BATCH, num_samples - offset)
        if antithetic and size % 2 != 0:
            raise AssertionError("batching broke antithetic pairing")
        yield index, size
        offset += size
        index += 1


def _draw(fading, rng, size: int, antithetic: bool) -> np.ndarray:
    if isinstance(fading, ExponentialParams):
        return sample_exponential(fading, rng, size, antithetic)
    return sample_rician_shadowed(fading, rng, size, antithetic)


def _outage_indicator(
    cfg: SystemConfig, scheme: Scheme, node: Node, rng, size: int, antithetic: bool
) -> np.ndarray:
    """One batch of outage event indicators from the raw signal model.

    Draws the desired link, then each interferer in model order, and forms
    the SINR from the power split itself rather than through the effective
    threshold the closed form uses.
    """
    model = signal_model(cfg, scheme, node)
    x = _draw(model.desired.scaled(cfg.pt_linear), rng, size, antithetic)
    y = 0.0
    for link in model.interferers:
        y = y + _draw(link.scaled(cfg.pt_linear), rng, size, antithetic)
    if model.split is None:
        sinr = x / (y + 1.0)
    else:
        alloc, residual = model.split
        sinr = alloc * x / (residual * (1.0 - alloc) * x + y + 1.0)
    return sinr <= model.gamma


def mc_outage(
    cfg: SystemConfig, scheme: Scheme, node: Node, mc: McSettings
) -> McEstimate:
    """Estimate the outage probability of (scheme, node) by simulation.

    Ties (SINR exactly at threshold) count as outage, matching the event
    definition used by the closed form; the event has probability zero
    under the continuous fading model.
    """
    count = 0
    for index, size in _batch_sizes(mc.num_samples, mc.antithetic):
        rng = _batch_rng(mc.seed, index)
        count += int(np.count_nonzero(
            _outage_indicator(cfg, scheme, node, rng, size, mc.antithetic)
        ))
    p = count / mc.num_samples
    se = math.sqrt(p * (1.0 - p) / mc.num_samples)
    return McEstimate(p, se, mc.num_samples)
