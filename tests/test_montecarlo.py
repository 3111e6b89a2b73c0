"""Unit tests for the Monte Carlo oracle."""

import math
from dataclasses import replace

import pytest

from conftest import direct_outage_count, suburban, threshold_equivalence_check
from fdnoma.channel import RicianShadowedParams, TruncatedSeries
from fdnoma.montecarlo import (
    McSettings,
    _batch_rng,
    _draw,
    _margin,
    _outage_counts,
    _thresholds,
    mc_outage,
    mc_outage_curve,
)
from fdnoma.outage import (
    Node,
    Scheme,
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
    desired = RicianShadowedParams(cfg.pt_linear / 4.0, 10.0, 3.0)
    want = TruncatedSeries(desired, (), gamma, 25).at(desired.mean_power, ()).value
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
    # sample by sample on the same draws: Z <= gamma / pt iff SINR <= gamma
    cfg = suburban(r_oma=r_oma)
    model = signal_model(cfg, scheme, node)
    grid = [30.0, 0.0, 60.0]
    rng = _batch_rng(12, 0)
    unit = [_draw(link.fading, rng, 1 << 16) for link in (model.desired,) + model.interferers]
    counts = _outage_counts(_margin(model, unit[0], unit[1:]), _thresholds(model.gamma, grid))
    want = [direct_outage_count(model, unit, 10.0 ** (pt / 10.0)) for pt in grid]
    assert counts.tolist() == want


def test_thresholds_at_extreme_powers():
    # overflow: the noise-free limit; underflow to 0: certain outage, even at gamma 0
    got = _thresholds(0.5, [3100.0, -4000.0, 3000.0, 10.0])
    assert got.tolist() == [0.0, math.inf, 0.5 / 1e300, 0.05]
    assert _thresholds(0.0, [3100.0, -4000.0, 0.0]).tolist() == [0.0, math.inf, 0.0]


def test_curve_at_extreme_powers_reads_limits():
    cfg = suburban(r_oma=0.0)
    settings = McSettings(num_samples=1000, seed=2)
    for scheme in Scheme:
        for node in Node:
            got = mc_outage_curve(cfg, scheme, node, [-4000.0, 3100.0], settings)
            assert [est.probability for est in got] == [1.0, 0.0]


def test_curve_equals_points_on_unsorted_grid_with_duplicates():
    cfg = suburban()
    grid = [30.0, 0.0, 60.0, 30.0, -5.0]
    settings = McSettings(num_samples=300_000, seed=21)  # two batches
    for scheme, node in [(Scheme.FD_NOMA, Node.GS), (Scheme.HD_NOMA, Node.UAV2)]:
        curve = mc_outage_curve(cfg, scheme, node, grid, settings)
        points = [mc_outage(replace(cfg, p_t=pt), scheme, node, settings) for pt in grid]
        assert curve == points
        assert curve[0] == curve[3]
        assert mc_outage_curve(cfg, scheme, node, [], settings) == []
