"""Unit tests for the Monte Carlo oracle."""

import math
import os
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import fdnoma.montecarlo

from conftest import direct_outage_count, suburban, threshold_equivalence_check, unit_link
from fdnoma.channel import RicianShadowedParams, TruncatedSeries, sample_rician_shadowed
from fdnoma.montecarlo import (
    McSettings,
    _batch_rng,
    _margin,
    _outage_counts,
    _thresholds,
    mc_outage,
    mc_outage_curves,
)
from fdnoma.outage import (
    Node,
    Scheme,
    db_to_linear,
    evaluate_outage,
    rate_for,
    signal_model,
    sinr_threshold,
)

FAST = McSettings(num_samples=200_000, seed=17)


def test_settings_validation():
    with pytest.raises(ValueError):
        McSettings(num_samples=999)
    McSettings(num_samples=1000)


def test_zero_rate_outage_is_exactly_zero():
    cfg = suburban(pt_db=10.0, r_oma=0.0)
    for scheme in Scheme:
        for node in Node:
            est = mc_outage(cfg, scheme, node, McSettings(num_samples=1000, seed=3))
            assert est.probability == 0.0
            assert est.std_error == 0.0


def test_determinism_and_se_formula():
    cfg = suburban(pt_db=10.0)
    a = mc_outage(cfg, Scheme.FD_NOMA, Node.UAV2, FAST)
    b = mc_outage(cfg, Scheme.FD_NOMA, Node.UAV2, FAST)
    assert a == b
    assert a.std_error == pytest.approx(
        math.sqrt(a.probability * (1 - a.probability) / a.num_samples), rel=1e-12
    )
    assert a.num_samples == FAST.num_samples


def test_seed_changes_estimate():
    cfg = suburban(pt_db=10.0)
    a = mc_outage(cfg, Scheme.FD_NOMA, Node.UAV2, FAST)
    c = mc_outage(cfg, Scheme.FD_NOMA, Node.UAV2, replace(FAST, seed=18))
    assert a.probability != c.probability


@pytest.mark.parametrize(
    "scheme,node,pt",
    [
        (Scheme.FD_NOMA, Node.GS, 20.0),
        (Scheme.FD_NOMA, Node.UAV2, 10.0),
        (Scheme.HD_NOMA, Node.UAV2, 10.0),
        (Scheme.HD_NOMA, Node.GS, 0.0),
        (Scheme.HD_OMA, Node.UAV3, 10.0),
    ],
)
def test_estimates_match_closed_form(scheme, node, pt):
    cfg = suburban(pt_db=pt)
    est = mc_outage(cfg, scheme, node, FAST)
    closed = evaluate_outage(cfg, scheme, node).probability
    assert abs(est.probability - closed) < 3 * max(est.std_error, 1e-6)


def test_degenerate_uav2_matches_plain_cdf():
    # near-total allocation, perfect SIC, uplink interferer pushed away
    cfg = suburban(pt_db=10.0, a_gs2=1.0 - 1e-12, beta=0.0, d_12=1e6)
    est = mc_outage(cfg, Scheme.FD_NOMA, Node.UAV2, FAST)
    gamma = sinr_threshold(rate_for(Scheme.FD_NOMA, cfg.r_oma))
    desired = RicianShadowedParams(db_to_linear(cfg.p_t) / 4.0, 10.0, 3.0)
    want = TruncatedSeries(desired, (), gamma, 25).at(1.0).probability
    assert abs(est.probability - want) < 3 * est.std_error


def test_scheme_ordering_at_gs_low_power():
    cfg = suburban(pt_db=0.0)
    settings = McSettings(num_samples=200_000, seed=5)
    fd = mc_outage(cfg, Scheme.FD_NOMA, Node.GS, settings)
    hd = mc_outage(cfg, Scheme.HD_NOMA, Node.GS, settings)
    oma = mc_outage(cfg, Scheme.HD_OMA, Node.GS, settings)
    assert fd.probability + 3 * fd.std_error < hd.probability - 3 * hd.std_error
    assert hd.probability + 3 * hd.std_error < oma.probability - 3 * oma.std_error


def test_fd_gs_error_floor():
    settings = McSettings(num_samples=400_000, seed=6)
    p60 = mc_outage(suburban(pt_db=60.0), Scheme.FD_NOMA, Node.GS, settings).probability
    p70 = mc_outage(suburban(pt_db=70.0), Scheme.FD_NOMA, Node.GS, settings).probability
    assert abs(p60 - p70) <= 0.1 * max(p60, p70)


def test_infinite_effective_threshold_gives_probability_one():
    # the power split cannot carry the rate: every sample is an outage
    cfg = suburban(pt_db=30.0, r_oma=3.0)
    for scheme in (Scheme.FD_NOMA, Scheme.HD_NOMA):
        est = mc_outage(cfg, scheme, Node.UAV3, McSettings(num_samples=10_000, seed=8))
        assert est.probability == 1.0


def test_equivalence_check_reference_cases():
    cfg = suburban(pt_db=10.0)
    assert threshold_equivalence_check(cfg, Node.UAV3)
    assert threshold_equivalence_check(suburban(pt_db=10.0, beta=0.0), Node.UAV2)
    assert threshold_equivalence_check(cfg, Node.UAV2)


def test_equivalence_check_requires_finite_threshold():
    cfg = suburban(r_oma=3.0)
    with pytest.raises(ValueError):
        threshold_equivalence_check(cfg, Node.UAV3)


def test_equivalence_check_rejects_gs():
    with pytest.raises(ValueError):
        threshold_equivalence_check(suburban(), Node.GS)


def test_batch_boundary_sizes():
    # crosses the internal batch size with a remainder
    cfg = suburban(pt_db=10.0)
    est = mc_outage(cfg, Scheme.HD_OMA, Node.UAV2, McSettings(300_000, 10))
    assert est.num_samples == 300_000
    assert 0.0 < est.probability < 1.0


@pytest.mark.parametrize("r_oma", [0.2, 3.0])  # 3.0: certain outage at UAV-3
@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("node", list(Node))
def test_margin_counts_equal_direct_sinr_counts(scheme, node, r_oma):
    # sample by sample on the same draws: Z <= gamma / pt iff SINR <= gamma;
    # the margin may overwrite the last draw, as a batch's last pair does,
    # and a partial last chunk reads like the rest
    cfg = suburban(r_oma=r_oma)
    model = signal_model(cfg, scheme, node)
    grid = [30.0, 0.0, 60.0]
    rng = _batch_rng(12, 0)
    links = (model.desired,) + model.interferers
    size = (1 << 16) + 1000
    unit = [sample_rician_shadowed(replace(link, mean_power=1.0), rng, size) for link in links]
    want = [direct_outage_count(model, unit, 10.0 ** (pt / 10.0)) for pt in grid]
    fresh = _margin(model, unit, np.empty(size))
    last = unit[-1]
    assert _margin(model, unit, last) is last
    assert np.array_equal(last, fresh)
    assert _outage_counts(fresh, _thresholds(model.gamma, grid)).tolist() == want


def test_thresholds_at_extreme_powers():
    # a level outside float range raises; a subnormal power's bound
    # overflows to +inf at gamma > 0 and stays 0 at gamma = 0
    for level in (3100.0, -4000.0):
        with pytest.raises(ValueError, match=f"{level:g} dB"):
            _thresholds(0.5, [10.0, level])
    got = _thresholds(0.5, [-3230.0, 3000.0, 10.0])
    assert got.tolist() == [math.inf, 0.5 / 1e300, 0.05]
    assert _thresholds(0.0, [-3230.0, 3082.0, 0.0]).tolist() == [0.0, 0.0, 0.0]


def test_curve_at_extreme_powers_reads_limits():
    # the ends of float range: a subnormal power is certain outage at a
    # positive threshold, and 3082 dB reads the noise-free limit Z <= 0,
    # which only FD-NOMA's interference can reach; a zero threshold reads 0
    settings = McSettings(num_samples=1000, seed=2)
    pairs = [(scheme, node) for scheme in Scheme for node in Node]
    for r_oma in (0.2, 0.0):
        curves = mc_outage_curves(suburban(r_oma=r_oma), pairs, [-3230.0, 3082.0], settings)
        assert list(curves) == pairs
        for scheme, node in pairs:
            low, high = (est.probability for est in curves[scheme, node])
            assert low == (1.0 if r_oma else 0.0), (scheme, node, r_oma)
            if scheme is not Scheme.FD_NOMA or not r_oma:
                assert high == 0.0, (scheme, node, r_oma)


def test_nan_power_is_rejected_by_monte_carlo():
    # a NaN threshold would sort last and read as certain outage
    pairs = [(scheme, node) for scheme in Scheme for node in Node]
    with pytest.raises(ValueError, match="NaN"):
        mc_outage_curves(suburban(), pairs, [10.0, math.nan], McSettings(num_samples=1000))


def test_curve_equals_points_on_unsorted_grid_with_duplicates():
    cfg = suburban()
    grid = [30.0, 0.0, 60.0, 30.0, -5.0]
    settings = McSettings(num_samples=300_000, seed=21)  # two batches
    for pair in [(Scheme.FD_NOMA, Node.GS), (Scheme.HD_NOMA, Node.UAV2)]:
        curve = mc_outage_curves(cfg, [pair], grid, settings)[pair]
        points = [mc_outage(replace(cfg, p_t=pt), *pair, settings) for pt in grid]
        assert curve == points
        assert curve[0] == curve[3]
        assert mc_outage_curves(cfg, [pair], [], settings) == {pair: []}


ALL_PAIRS = [(scheme, node) for scheme in Scheme for node in Node]


def heavy_uav3_uplink():
    # m_13 = 3: fd_noma/uav3 shares fd_noma/gs's desired draw (K = 10,
    # m = 10), but its interferer's law differs from the SI link's
    cfg = suburban()
    return replace(cfg, fading=replace(cfg.fading, link_13=unit_link(10.0, 3.0)))


@pytest.mark.parametrize(
    "cfg,per_batch",
    [
        (suburban(), 5),
        (heavy_uav3_uplink(), 6),
        (replace(suburban(), epsilon=0.0), 4),
    ],
)
def test_each_distinct_link_law_sequence_is_drawn_once_per_batch(monkeypatch, cfg, per_batch):
    # reference laws per batch: K=10,m=10 | +SI (fd_noma/uav3's uplink too)
    # | +SI+error | K=10,m=3 | +uplink; m_13 = 3 adds K=10,m=10 | +K=10,m=3;
    # epsilon = 0 drops the error link from fd_noma/gs, so +SI+error goes
    sizes = []

    def counting(p, rng, size):
        sizes.append(size)
        return sample_rician_shadowed(p, rng, size)

    monkeypatch.setattr(fdnoma.montecarlo, "sample_rician_shadowed", counting)
    grid = [0.0, 15.0, 40.0]
    settings = McSettings(num_samples=300_000, seed=9)  # two batches
    together = mc_outage_curves(cfg, ALL_PAIRS, grid, settings)
    # batches may run on several threads, so only the multiset is fixed
    assert Counter(sizes) == {1 << 18: per_batch, 300_000 - (1 << 18): per_batch}
    for pair in ALL_PAIRS:
        sizes.clear()
        alone = mc_outage_curves(cfg, [pair], grid, settings)[pair]
        assert len(sizes) == 2 * (1 + len(signal_model(cfg, *pair).interferers)), pair
        # sharing draws leaves every pair the stream it sees alone
        assert together[pair] == alone, pair


# Common random numbers: a pair's draws depend only on its sequence of
# unit-mean link laws and the seed, so moving a mean power, the threshold or
# the power split acts on the same samples, and each change below moves the
# margin of every sample one way.  The estimates are therefore ordered
# exactly, not only in distribution.
ORDER_GRID = [0.0, 20.0, 40.0, 60.0]
ORDER_SETTINGS = McSettings(num_samples=1 << 16, seed=29)


def outage_table(cfg):
    """Every pair's Monte Carlo outage at 0/20/40/60 dB, one row per pair."""
    curves = mc_outage_curves(cfg, ALL_PAIRS, ORDER_GRID, ORDER_SETTINGS)
    return {pair: [est.probability for est in curves[pair]] for pair in ALL_PAIRS}


def moved_geometry(**changes):
    cfg = suburban()
    return replace(cfg, geometry=replace(cfg.geometry, **changes))


@pytest.fixture(scope="module")
def reference_table():
    return outage_table(suburban())


# (key, the better config, the worse one); None is the reference scenario
WORSE = [
    ("d_1g", None, moved_geometry(d_1g=3.5)),
    ("d_g2", None, moved_geometry(d_g2=2.5)),
    ("d_g3", None, moved_geometry(d_g3=3.5)),
    ("phase_noise_dbm", None, replace(suburban(), phase_noise_power=-137.0)),
    ("epsilon", None, suburban(epsilon=0.2)),
    ("epsilon_from_0", suburban(epsilon=0.0), None),
    ("beta", None, suburban(beta=0.2)),
    ("r_oma", None, suburban(r_oma=0.3)),
    ("d_12", suburban(d_12=2.5), None),
    ("d_13", suburban(d_13=3.5), None),
]


@pytest.mark.parametrize("key,better,worse", WORSE, ids=[row[0] for row in WORSE])
def test_monte_carlo_outage_never_falls_when_a_key_makes_links_worse(
    reference_table, key, better, worse
):
    low = reference_table if better is None else outage_table(better)
    high = reference_table if worse is None else outage_table(worse)
    moved = 0
    for pair in ALL_PAIRS:
        for pt, a, b in zip(ORDER_GRID, low[pair], high[pair]):
            assert a <= b, (key, pair, pt, a, b)
            moved += a != b
    assert moved, key


def test_monte_carlo_outage_follows_power_and_power_split(reference_table):
    # more transmit power never raises outage; a larger share a_gs2 for
    # UAV-2 never hurts UAV-2 and never helps UAV-3
    for pair, row in reference_table.items():
        assert all(b <= a for a, b in zip(row, row[1:])), (pair, row)
    shifted = outage_table(suburban(a_gs2=0.6))
    for scheme in Scheme:
        uav2 = zip(shifted[scheme, Node.UAV2], reference_table[scheme, Node.UAV2])
        uav3 = zip(reference_table[scheme, Node.UAV3], shifted[scheme, Node.UAV3])
        for low, high in [*uav2, *uav3]:
            assert low <= high, (scheme, low, high)
    assert shifted != reference_table


def fixed_workers(monkeypatch, workers):
    monkeypatch.setattr(fdnoma.montecarlo, "_workers", lambda: workers)


def test_worker_count_without_cpu_affinity_is_the_core_count(monkeypatch):
    # platforms that report no CPU affinity fall back to the machine's cores
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert fdnoma.montecarlo._workers() == (os.cpu_count() or 1)


@pytest.mark.parametrize("num_samples", [300_000, 3 * (1 << 18) + 1000])
def test_worker_count_changes_no_estimate(monkeypatch, num_samples):
    # a partial last batch, and more batches than workers; a short switch
    # interval makes a lost or repeated batch index likely to show
    cfg = suburban()
    grid = [0.0, 15.0, 40.0]
    settings = McSettings(num_samples=num_samples, seed=23)
    threads = threading.active_count()
    curves = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            fixed_workers(monkeypatch, workers)
            curves.append(mc_outage_curves(cfg, ALL_PAIRS, grid, settings))
            assert threading.active_count() == threads
            point = mc_outage(replace(cfg, p_t=15.0), Scheme.FD_NOMA, Node.GS, settings)
            assert point == curves[-1][Scheme.FD_NOMA, Node.GS][1]
    finally:
        sys.setswitchinterval(interval)
    assert curves[0] == curves[1] == curves[2]


@pytest.mark.parametrize("workers", [1, 2])
def test_peak_memory_is_four_batch_arrays_per_worker(monkeypatch, workers):
    # the reference pairs at two full batches: the deepest prefix holds
    # three draws, and a margin needs at most one more buffer
    fixed_workers(monkeypatch, workers)
    settings = McSettings(num_samples=2 << 18, seed=4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mc_outage_curves(suburban(), ALL_PAIRS, [0.0, 30.0], settings)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= workers * 4 * 8 * (1 << 18)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_exception_in_a_batch_reaches_the_caller(monkeypatch, workers):
    # batch 1 of 300_000 samples is the partial one
    fixed_workers(monkeypatch, workers)

    def failing(p, rng, size):
        if size != 1 << 18:
            raise RuntimeError("batch 1 failed")
        return sample_rician_shadowed(p, rng, size)

    monkeypatch.setattr(fdnoma.montecarlo, "sample_rician_shadowed", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="batch 1 failed"):
        mc_outage_curves(suburban(), ALL_PAIRS, [10.0], McSettings(300_000, 3))
    assert threading.active_count() == threads


def test_exception_in_a_helper_thread_reaches_the_caller(monkeypatch):
    # the caller's batch waits until a helper thread has failed in the other
    fixed_workers(monkeypatch, 2)
    helper_failed = threading.Event()

    def failing_off_the_caller(p, rng, size):
        if threading.current_thread() is not threading.main_thread():
            helper_failed.set()
            raise RuntimeError("helper failed")
        assert helper_failed.wait(timeout=60)
        return sample_rician_shadowed(p, rng, size)

    monkeypatch.setattr(fdnoma.montecarlo, "sample_rician_shadowed", failing_off_the_caller)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="helper failed"):
        mc_outage_curves(suburban(), ALL_PAIRS, [10.0], McSettings(300_000, 3))
    assert threading.active_count() == threads


@pytest.mark.parametrize(
    "thresholds",
    [
        [0.5, -1.0, 2.0],  # exactly on sampled margins: ties
        [0.0, math.inf, -math.inf],
        [2.0, 0.5, 2.0, -1.0, 0.5, 7.0],  # unsorted, duplicates
        [],
    ],
)
def test_outage_counts_equal_direct_counts(thresholds):
    rng = np.random.default_rng(31)
    margin = np.concatenate([rng.normal(size=997), [0.5, 0.5, -1.0, 2.0, 0.0, -0.0]])
    rng.shuffle(margin)
    t = np.array(thresholds, dtype=float)
    want = [np.count_nonzero(margin <= bound) for bound in t]
    assert _outage_counts(margin.copy(), t).tolist() == want
