"""Monte Carlo outage oracle.

Draws per-sample fading realisations of the links in `outage.signal_model`
(the one description of each (scheme, node) pair, shared with the closed
form) and counts outage events.  Each link is drawn at unit mean, from its
law with `mean_power` 1, and its `mean_power` scales the draw.  The outage
event is rearranged from the power split, residual-SIC and interference
terms themselves, not through the closed form's effective threshold
transform or any series algebra, so an agreement between this estimator
and the closed-form series is evidence for both.

Every link's mean power is linear in transmit power, so each sample has
one power-free SINR margin Z (see `_margin`), and the sample is in outage
at power pt exactly when Z <= gamma / pt.  One draw of unit-mean fading
therefore serves a whole power grid: each batch forms Z once per (scheme,
node) pair, sorts Z once and finds every threshold gamma / pt in it
(common random numbers).  Each power converts through
`outage.db_to_linear`, so a level outside float range raises here as it
does in the closed form.  Each batch gets an independent substream
derived from (seed, batch index) that draws the desired link first, then
the interferers; each distinct sequence of unit-mean link laws is drawn
once per batch (`mc_outage_curves`), and an estimate depends only on
(config, scheme, node, power, settings), not on the other pairs or points
of the sweep.
Batches run on one thread per available core (`_workers`: the cores this
process may run on, else `os.cpu_count()`), capped by the batch count.
The calling thread is one of them, and every thread takes the next batch
index from one shared queue until none is left.  A batch's counts are
integers and the totals are their sums, so every estimate is identical
for any worker count.  Within a batch the draws are made depth first
along the trie of link-law prefixes and each is dropped after its last
use, and a pair's margin overwrites a draw that no later pair reads where
there is one.  A worker therefore holds at most one batch-sized array per
link of the longest pair plus one margin, and chunk-sized temporaries:
four 2 MB arrays on the reference scenario, of which three are reached.
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
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .channel import _CHUNK, sample_rician_shadowed
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


def _margin(model: SignalModel, draws: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Write the power-free SINR margin Z of each sample of unit-mean draws
    into `out` and return it.

    With X = pt u x and Y_j = pt u_j y_j, where u and u_j are the links'
    means at unit transmit power (their `mean_power`), the SINR is
    X / (sum_j Y_j + 1), or alloc X / (residual (1 - alloc) X + sum_j Y_j + 1)
    under the split (alloc, residual).  Its denominator is positive, so
    multiplying SINR <= gamma through by it, and dividing by pt > 0, gives
    the same event as Z <= gamma / pt with
        Z = c u x - gamma sum_j u_j y_j,
    where c = 1 without a split and alloc - gamma residual (1 - alloc)
    with one.  `draws` holds the desired link's draw, then the
    interferers' in model order.  Z is formed `_CHUNK` samples at a time,
    each slice read in full before it is written, so `out` may be one of
    `draws` and the temporaries stay chunk-sized; every sample takes the
    same operations in the same order as it would over whole arrays.
    """
    c = 1.0
    if model.split is not None:
        alloc, residual = model.split
        c = alloc - model.gamma * residual * (1.0 - alloc)
    scales = [model.gamma * link.mean_power for link in model.interferers]
    for start in range(0, len(out), _CHUNK):
        part = slice(start, start + _CHUNK)
        z = draws[0][part] * (c * model.desired.mean_power)
        for draw, scale in zip(draws[1:], scales):
            z -= draw[part] * scale
        out[part] = z
    return out


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


def _prefix_trie(models: dict[tuple[Scheme, Node], SignalModel]) -> tuple:
    """The trie of every pair's unit-mean link laws, desired link first,
    then the interferers.  A node is (the pairs whose laws end there, {next
    law: the node of the longer prefix})."""
    root = ([], {})
    for pair, model in models.items():
        node = root
        for link in (model.desired,) + model.interferers:
            node = node[1].setdefault(replace(link, mean_power=1.0), ([], {}))
        node[0].append(pair)
    return root


def _batch_counts(
    root: tuple,
    models: dict[tuple[Scheme, Node], SignalModel],
    thresholds: dict[tuple[Scheme, Node], np.ndarray],
    rng: np.random.Generator,
    size: int,
) -> dict[tuple[Scheme, Node], np.ndarray]:
    """Every pair's outage count at every threshold in one batch of `size`
    samples drawn from `rng`.

    Visits the trie depth first.  Each prefix is drawn once, from the
    generator state saved after its parent's draw, so the order of the
    visit changes no draw.  A prefix's longer prefixes come before its own
    pairs, so its draw dies at its last pair, whose margin overwrites it;
    the other pairs' margins take a fresh buffer, freed once counted.
    """
    import numpy as np

    counts = {}
    draws: list[np.ndarray] = []  # the draws of the prefix being visited

    def visit(node: tuple, state: dict) -> None:
        pairs, longer = node
        for law, child in longer.items():
            rng.bit_generator.state = state
            draws.append(sample_rician_shadowed(law, rng, size))
            visit(child, rng.bit_generator.state)
            draws.pop()
        for pair in pairs:
            out = draws[-1] if pair == pairs[-1] else np.empty(size)
            counts[pair] = _outage_counts(_margin(models[pair], draws, out), thresholds[pair])
            del out  # a fresh buffer goes before the next one is made

    visit(root, rng.bit_generator.state)
    return counts


def _workers() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_batches(work: Callable[[int], dict], count: int) -> list[dict]:
    """[work(0), ..., work(count - 1)], run on `_workers()` threads at most.

    The calling thread is one worker; the others are helper threads.  Each
    worker takes the next index from one shared queue until none is left.
    After the first exception no worker takes another index, every helper
    is joined, and that exception is raised in the calling thread.
    """
    import threading

    results: list[dict] = [{}] * count
    failures: list[BaseException] = []
    indices = iter(range(count))
    lock = threading.Lock()

    def worker() -> None:
        while not failures:
            with lock:
                index = next(indices, None)
            if index is None:
                return
            try:
                results[index] = work(index)
            except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
                failures.append(exc)

    # daemon: an interrupt that lands in a join leaves no helper keeping
    # the interpreter alive
    helpers = [threading.Thread(target=worker, daemon=True)
               for _ in range(min(_workers(), count) - 1)]
    for helper in helpers:
        helper.start()
    worker()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    return results


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
    desired link first, then each interferer in model order, each at unit
    mean.  Each draw is keyed on the sequence of unit-mean laws drawn so
    far, and each distinct sequence of them is drawn once per batch, from
    the generator state saved after its prefix, so pairs share every draw
    they would make alike and each sees exactly the streams it would see
    alone.  Each pair's draws serve its whole grid through the margin of
    `_margin`: it sorts Z once and finds every threshold in it, so neither
    the drawing nor the per-sample arithmetic grows with the grid.
    Batches run on `_workers()` threads and their integer counts are
    summed, so the estimates do not depend on the worker count.  Ties (SINR
    exactly at threshold) count as outage, matching the event definition
    used by the closed form; the event has probability zero under the
    continuous fading model.  A level outside `db_to_linear`'s range
    raises its ValueError.  The transmit power `cfg.p_t` itself is not
    used.
    """
    models = {pair: signal_model(cfg, *pair) for pair in pairs}
    thresholds = {pair: _thresholds(model.gamma, pt_grid_db) for pair, model in models.items()}
    root = _prefix_trie(models)
    sizes = [min(_BATCH, mc.num_samples - start) for start in range(0, mc.num_samples, _BATCH)]

    def batch(index: int) -> dict[tuple[Scheme, Node], np.ndarray]:
        return _batch_counts(root, models, thresholds, _batch_rng(mc.seed, index), sizes[index])

    batches = _map_batches(batch, len(sizes))
    return {
        pair: [_estimate(int(count), mc.num_samples)
               for count in sum(counts[pair] for counts in batches)]
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
