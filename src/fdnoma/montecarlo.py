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
node) pair, sorts Z once and finds every threshold gamma / pt in it
(common random numbers).  Each power converts through
`outage.db_to_linear`, so a level outside float range raises here as it
does in the closed form.  Each batch gets an independent substream
derived from (seed, batch index) that draws the desired link first, then
the interferers; each distinct sequence of link laws is drawn once per
batch (`mc_outage_curves`), and an estimate depends only on (config,
scheme, node, power, settings), not on the other pairs or points of the
sweep.
Samples within a point are independent, so its standard error is the
binomial sqrt(p (1 - p) / n).  Points of one curve share their draws and
are therefore correlated; each point's standard error is still valid on
its own.  `mc_outage` is the one-pair, one-point case, so a point estimate
equals the matching sweep row bit for bit.  Every link, the estimation
error included, is Rician shadowed, so one sampler draws them all.
As in `channel`, numpy is imported only inside the functions that use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .channel import sample_rician_shadowed
from .outage import Node, Scheme, SignalModel, SystemConfig, db_to_linear, signal_model

if TYPE_CHECKING:
    import numpy as np

__all__ = ["McSettings", "McEstimate", "mc_outage", "mc_outage_curves"]

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
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, batch_index]))


def _thresholds(gamma: float, pt_grid_db: Sequence[float]) -> np.ndarray:
    """gamma / pt_linear at every power point, the margin's outage bound;
    a level outside `db_to_linear`'s range raises its ValueError."""
    import numpy as np

    return np.array([gamma / db_to_linear(pt_db) for pt_db in pt_grid_db], dtype=float)


def _margin(
    model: SignalModel, desired: np.ndarray, interference: Sequence[np.ndarray]
) -> np.ndarray:
    """The power-free SINR margin Z of each sample of unit-mean draws.

    With X = pt u x and Y_j = pt u_j y_j, where u and u_j are the links'
    unit-power means (`Link.unit_mean`), the SINR is
    X / (sum_j Y_j + 1), or alloc X / (residual (1 - alloc) X + sum_j Y_j + 1)
    under the split (alloc, residual).  Its denominator is positive, so
    multiplying SINR <= gamma through by it, and dividing by pt > 0, gives
    the same event as Z <= gamma / pt with
        Z = c u x - gamma sum_j u_j y_j,
    where c = 1 without a split and alloc - gamma residual (1 - alloc)
    with one.  `interference` holds the interferers' draws in model order.
    """
    c = 1.0
    if model.split is not None:
        alloc, residual = model.split
        c = alloc - model.gamma * residual * (1.0 - alloc)
    z = desired * (c * model.desired.unit_mean)
    for link, draw in zip(model.interferers, interference):
        z -= draw * (model.gamma * link.unit_mean)
    return z


def _outage_counts(margin: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Samples with margin <= threshold, for every threshold at once.

    Sorts `margin` in place, then finds every threshold in it: the count is
    its right insertion point, so ties count as outage.
    """
    margin.sort()
    return margin.searchsorted(thresholds, side="right")


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
    desired link first, then each interferer in model order.  Each draw is
    keyed on the sequence of fading laws drawn so far, and each distinct
    sequence of link laws is drawn once per batch, from the generator
    state saved after its prefix, so pairs share every draw they would
    make alike and each sees exactly the streams it would see alone.  Each
    pair's draws serve its whole grid through the margin of `_margin`:
    it sorts Z once and finds every threshold in it, so neither the drawing
    nor the per-sample arithmetic grows with the grid.  Ties (SINR exactly
    at threshold) count as outage, matching the event definition used by
    the closed form; the event has probability zero under the continuous
    fading model.  A level outside `db_to_linear`'s range raises its
    ValueError.  The transmit power `cfg.p_t` itself is not used.
    """
    import numpy as np

    models = {pair: signal_model(cfg, *pair) for pair in pairs}
    thresholds = {pair: _thresholds(model.gamma, pt_grid_db) for pair, model in models.items()}
    counts = {pair: np.zeros(len(pt_grid_db), dtype=np.int64) for pair in models}
    for index, start in enumerate(range(0, mc.num_samples, _BATCH)):
        size = min(_BATCH, mc.num_samples - start)
        rng = _batch_rng(mc.seed, index)
        # link-law prefix -> (draw of its last law, generator state after it)
        draws = {(): (None, rng.bit_generator.state)}
        for pair, model in models.items():
            key, unit = (), []
            for link in (model.desired,) + model.interferers:
                prefix, key = key, key + (link.fading,)
                if key not in draws:
                    rng.bit_generator.state = draws[prefix][1]
                    draw = sample_rician_shadowed(link.fading, rng, size)
                    draws[key] = (draw, rng.bit_generator.state)
                unit.append(draws[key][0])
            counts[pair] += _outage_counts(_margin(model, unit[0], unit[1:]), thresholds[pair])
    return {
        pair: [_estimate(int(count), mc.num_samples) for count in counts[pair]]
        for pair in models
    }


def mc_outage(
    cfg: SystemConfig, scheme: Scheme, node: Node, mc: McSettings
) -> McEstimate:
    """Estimate the outage probability of (scheme, node) at the transmit
    power cfg.p_t: the one-pair, one-point case of `mc_outage_curves`."""
    pair = (scheme, node)
    (estimate,) = mc_outage_curves(cfg, [pair], [cfg.p_t], mc)[pair]
    return estimate
