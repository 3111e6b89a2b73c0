"""Shared test scaffolding: the reference suburban scenario, the
event-form equivalence check and the direct-SINR outage count."""

import math

import numpy as np

from fdnoma.channel import RicianShadowedParams, sample_rician_shadowed
from fdnoma.outage import (
    FadingSet,
    Node,
    NodeGeometry,
    Scheme,
    SignalModel,
    SystemConfig,
    noma_effective_threshold,
    signal_model,
)


def unit_link(k: float, m: float) -> RicianShadowedParams:
    return RicianShadowedParams(1.0, k, m)


def suburban(
    pt_db: float = 0.0,
    r_oma: float = 0.2,
    a_gs2: float = 0.5,
    beta: float = 0.1,
    epsilon: float = 0.1,
    k_tr: int = 25,
    d_12: float = 2.0,
    d_13: float = 3.0,
) -> SystemConfig:
    """The reference scenario: K = 10 everywhere, m = 3 on the UAV-2 paths
    and m = 10 elsewhere, noise floor -131 dBm, phase noise -140 dBm."""
    geometry = NodeGeometry(
        d_1g=3.0, d_g2=2.0, d_g3=3.0, d_12=d_12, d_13=d_13, pathloss_exp=2.0
    )
    fading = FadingSet(
        link_1g=unit_link(10.0, 10.0),
        link_si=unit_link(10.0, 10.0),
        link_g2=unit_link(10.0, 3.0),
        link_g3=unit_link(10.0, 10.0),
        link_12=unit_link(10.0, 3.0),
        link_13=unit_link(10.0, 10.0),
    )
    return SystemConfig(
        p_t=pt_db,
        r_oma=r_oma,
        a_gs2=a_gs2,
        beta=beta,
        phase_noise_power=-140.0,
        noise_power=-131.0,
        epsilon=epsilon,
        k_tr=k_tr,
        geometry=geometry,
        fading=fading,
    )


def threshold_equivalence_check(
    cfg: SystemConfig, node: Node, num_samples: int = 100_000, seed: int = 0
) -> bool:
    """Sample-wise check that the raw-SINR FD-NOMA outage event at a
    downlink UAV and its effective-threshold form decide identically.

    Requires a power split (a downlink node) and a finite effective
    threshold; the two event forms are then algebraically the same, so any
    disagreement indicates a modelling or numerical fault.  Returns True
    iff zero samples disagree.
    """
    model = signal_model(cfg, Scheme.FD_NOMA, node)
    if model.split is None:
        raise ValueError(f"equivalence check requires a power split, got {node}")
    alloc, residual = model.split
    gamma_eff = noma_effective_threshold(model.gamma, alloc, residual)
    if math.isinf(gamma_eff):
        raise ValueError("equivalence check requires a finite effective threshold")
    (uplink,) = model.interferers
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    x, y = (
        sample_rician_shadowed(link.fading, rng, num_samples) * link.mean_power(cfg.pt_linear)
        for link in (model.desired, uplink)
    )
    direct = alloc * x / (residual * (1.0 - alloc) * x + y + 1.0) <= model.gamma
    transformed = x / (y + 1.0) <= gamma_eff
    return bool(np.all(direct == transformed))


def direct_outage_count(model: SignalModel, unit, pt_linear: float) -> int:
    """Outage events among one batch of unit-mean draws at one power, with
    each sample's SINR formed from the power split itself: the reference
    that Monte Carlo's margin counts are checked against.

    `unit` holds the desired link's draws, then each interferer's, in
    model order.
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
