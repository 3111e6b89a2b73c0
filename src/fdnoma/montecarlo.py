"""Monte Carlo outage oracle.

Draws per-sample fading realisations of the links in `outage.signal_model`
(the one description of each (scheme, node) pair, shared with the closed
form) and counts outage events.  The outage event is rearranged from the
power split, residual-SIC and interference terms themselves, not through
the closed form's effective threshold transform or any series algebra, so
an agreement between this estimator and the closed-form series is
evidence for both.

Every link's mean power is linear in transmit power, so each sample has
one power-free SINR margin Z (see `_margin`), and the sample is in outage
at power pt exactly when Z <= gamma / pt.  One draw of unit-mean fading
therefore serves a whole power grid: each batch forms Z once per (scheme,
node) pair and counts every power point from one sorted search of Z into
the thresholds gamma / pt (common random numbers).  Each batch gets an
independent substream derived from (seed, batch index) that draws the
desired link first, so pairs with the same desired fading share that draw
(`mc_outage_curves`), and an estimate depends only on (config, scheme,
node, power, settings), not on the other pairs or points of the sweep.
Samples within a point are independent, so its standard error is the
binomial sqrt(p (1 - p) / n).  Points of one curve share their draws and
are therefore correlated; each point's standard error is still valid on
its own.  `mc_outage_curve` is the one-pair case and `mc_outage` the
one-point case, so a point estimate equals the matching sweep row bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .channel import ExponentialParams, sample_exponential, sample_rician_shadowed
from .outage import Node, Scheme, SignalModel, SystemConfig, signal_model

__all__ = ["McSettings", "McEstimate", "mc_outage", "mc_outage_curve", "mc_outage_curves"]

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


def _thresholds(gamma: float, pt_grid_db: Sequence[float]) -> np.ndarray:
    """gamma / pt_linear at every power point, the margin's outage bound.

    A power too large for a float is the noise-free limit, bound 0; one
    that underflows to 0 leaves only noise, so every sample is in outage,
    bound +inf (also at gamma = 0, where gamma * inf would be NaN).
    """
    bounds = []
    for pt_db in pt_grid_db:
        try:
            pt_linear = 10.0 ** (pt_db / 10.0)
        except OverflowError:
            bounds.append(0.0)
            continue
        bounds.append(math.inf if pt_linear == 0.0 else gamma / pt_linear)
    return np.array(bounds, dtype=float)


def _margin(
    model: SignalModel, desired: np.ndarray, interference: Sequence[np.ndarray]
) -> np.ndarray:
    """The power-free SINR margin Z of each sample of unit-mean draws.

    With X = pt (gain/loss) x and Y_j = pt (gain_j/loss_j) y_j, the SINR is
    X / (sum_j Y_j + 1), or alloc X / (residual (1 - alloc) X + sum_j Y_j + 1)
    under the split (alloc, residual).  Its denominator is positive, so
    multiplying SINR <= gamma through by it, and dividing by pt > 0, gives
    the same event as Z <= gamma / pt with
        Z = c (gain/loss) x - gamma sum_j (gain_j/loss_j) y_j,
    where c = 1 without a split and alloc - gamma residual (1 - alloc)
    with one.  `interference` holds the interferers' draws in model order.
    """
    c = 1.0
    if model.split is not None:
        alloc, residual = model.split
        c = alloc - model.gamma * residual * (1.0 - alloc)
    z = desired * (c * model.desired.mean_power(1.0))
    for link, draw in zip(model.interferers, interference):
        z -= draw * (model.gamma * link.mean_power(1.0))
    return z


def _outage_counts(margin: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Samples with margin <= threshold, for every threshold at once.

    A sample is in outage at every threshold from the first one not below
    its margin on, so one sorted search and a cumulative histogram give
    all the counts; ties count as outage.
    """
    order = np.argsort(thresholds, kind="stable")
    first = np.searchsorted(thresholds[order], margin, side="left")
    counts = np.empty(len(thresholds), dtype=np.int64)
    counts[order] = np.cumsum(np.bincount(first, minlength=len(thresholds) + 1))[:-1]
    return counts


def _estimate(count: int, num_samples: int) -> McEstimate:
    p = count / num_samples
    return McEstimate(p, math.sqrt(p * (1.0 - p) / num_samples), num_samples)


def mc_outage_curves(
    cfg: SystemConfig,
    pairs: Iterable[tuple[Scheme, Node]],
    pt_grid_db: Sequence[float],
    mc: McSettings,
) -> dict[tuple[Scheme, Node], list[McEstimate]]:
    """Estimate the outage probability of every (scheme, node) pair of
    `pairs` at every transmit power of `pt_grid_db` (dB over the noise
    floor) by simulation.

    Batch i of every pair draws from the substream keyed on (seed, i): the
    desired link first, then each interferer in model order.  Pairs whose
    desired links share a fading law therefore draw it once per batch;
    the generator's state after that draw is restored before each pair
    draws its interferers, so every pair sees exactly the streams it would
    see alone.  Each pair's draws serve its whole grid through the margin
    of `_margin`.  The transmit power `cfg.p_t` itself is not used.
    """
    models = {pair: signal_model(cfg, *pair) for pair in pairs}
    groups: dict[object, list[tuple[Scheme, Node]]] = {}
    for pair, model in models.items():
        groups.setdefault(model.desired.fading, []).append(pair)
    thresholds = {pair: _thresholds(model.gamma, pt_grid_db) for pair, model in models.items()}
    counts = {pair: np.zeros(len(pt_grid_db), dtype=np.int64) for pair in models}
    for index, start in enumerate(range(0, mc.num_samples, _BATCH)):
        size = min(_BATCH, mc.num_samples - start)
        for fading, members in groups.items():
            rng = _batch_rng(mc.seed, index)
            desired = _draw(fading, rng, size)
            after_desired = rng.bit_generator.state
            for pair in members:
                rng.bit_generator.state = after_desired
                model = models[pair]
                interference = [_draw(link.fading, rng, size) for link in model.interferers]
                counts[pair] += _outage_counts(
                    _margin(model, desired, interference), thresholds[pair]
                )
    return {
        pair: [_estimate(int(count), mc.num_samples) for count in counts[pair]]
        for pair in models
    }


def mc_outage_curve(
    cfg: SystemConfig,
    scheme: Scheme,
    node: Node,
    pt_grid_db: Sequence[float],
    mc: McSettings,
) -> list[McEstimate]:
    """Estimate the outage probability of (scheme, node) at every transmit
    power of `pt_grid_db` (dB over the noise floor) by simulation: the
    one-pair case of `mc_outage_curves`.

    Each batch draws the unit-mean fading of the desired link, then of
    each interferer, once, forms each sample's margin Z once, and counts
    the outages at every power point from Z, so neither the drawing nor
    the per-sample arithmetic grows with the grid.  Ties (SINR exactly at
    threshold) count as outage, matching the event definition used by the
    closed form; the event has probability zero under the continuous
    fading model.  A power too large for a float reads as the noise-free
    limit, one that underflows to 0 as certain outage.  The transmit power
    `cfg.p_t` itself is not used.
    """
    return mc_outage_curves(cfg, [(scheme, node)], pt_grid_db, mc)[(scheme, node)]


def mc_outage(
    cfg: SystemConfig, scheme: Scheme, node: Node, mc: McSettings
) -> McEstimate:
    """Estimate the outage probability of (scheme, node) at the transmit
    power cfg.p_t: the one-point case of `mc_outage_curve`."""
    (estimate,) = mc_outage_curve(cfg, scheme, node, [cfg.p_t], mc)
    return estimate
