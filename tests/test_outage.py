"""Unit tests for thresholds, the series evaluator and the scheme evaluators."""

import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from conftest import suburban, unit_link
from fdnoma.channel import (
    RicianShadowedParams,
    TruncatedSeries,
    sample_rician_shadowed,
)
from fdnoma.montecarlo import McSettings, mc_outage, mc_outage_curves
from fdnoma.outage import (
    FadingSet,
    Node,
    NodeGeometry,
    OutageCurve,
    Scheme,
    SystemConfig,
    db_to_linear,
    evaluate_outage,
    noma_effective_threshold,
    rate_for,
    signal_model,
    sinr_threshold,
)
from fdnoma.scenario import load_config

ALL_PAIRS = [(s, n) for s in Scheme for n in Node]

# Largest series truncation order a config may set.
MAX_K_TR = 63


# ---------------------------------------------------------------------------
# rates and thresholds
# ---------------------------------------------------------------------------

def test_rate_fairness_rule():
    assert rate_for(Scheme.FD_NOMA, 0.2) == pytest.approx(0.2 / 3.0, rel=1e-15)
    assert rate_for(Scheme.HD_NOMA, 0.2) == pytest.approx(0.1, rel=1e-15)
    assert rate_for(Scheme.HD_OMA, 0.2) == 0.2
    # a config cannot carry these; the rule still holds for direct callers
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="base rate must be non-negative"):
            rate_for(Scheme.HD_OMA, bad)


def test_sinr_threshold_values():
    assert sinr_threshold(0.0) == 0.0
    # hand arithmetic: 2^0.2 - 1 and 2^0.1 - 1
    assert sinr_threshold(0.2) == pytest.approx(0.14869835499703501, rel=1e-12)
    assert sinr_threshold(0.1) == pytest.approx(0.071773462536293164, rel=1e-12)
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="rate must be non-negative"):
            sinr_threshold(bad)


def test_threshold_ordering():
    for r_oma in (0.05, 0.2, 1.0, 2.5):
        fd = sinr_threshold(rate_for(Scheme.FD_NOMA, r_oma))
        hd = sinr_threshold(rate_for(Scheme.HD_NOMA, r_oma))
        oma = sinr_threshold(rate_for(Scheme.HD_OMA, r_oma))
        assert fd < hd < oma


def test_noma_effective_threshold_hand_values():
    # gamma / (alloc - (1 - alloc) residual gamma) at the reference split
    assert noma_effective_threshold(0.047294, 0.5, 1.0) == pytest.approx(
        0.047294 / (0.5 - 0.5 * 0.047294), rel=1e-14
    )
    assert noma_effective_threshold(0.047294, 0.5, 1.0) == pytest.approx(0.099283, abs=5e-6)
    assert noma_effective_threshold(0.0, 0.5, 1.0) == 0.0


def test_noma_effective_threshold_guard():
    # denominator 0.5 - 0.5 * 1.2 < 0: outage certain
    assert math.isinf(noma_effective_threshold(1.2, 0.5, 1.0))


def test_noma_effective_threshold_domain():
    with pytest.raises(ValueError):
        noma_effective_threshold(-0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        noma_effective_threshold(0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        noma_effective_threshold(0.1, 0.5, 1.5)


# ---------------------------------------------------------------------------
# generic series evaluator
# ---------------------------------------------------------------------------

def test_series_trivial_thresholds():
    desired = unit_link(10.0, 10.0)
    interferers = [unit_link(10.0, 3.0)]
    for gamma, want in ((0.0, 0.0), (math.inf, 1.0)):
        series = TruncatedSeries(desired, interferers, gamma, 25)
        assert series.at(1.0).probability == want


def test_series_reduces_to_cdf_without_interferers():
    # a vanishing interferer leaves the interference-free CDF
    desired = RicianShadowedParams(0.8, 10.0, 3.0)
    interferer = RicianShadowedParams(1e-300, 10.0, 10.0)
    for gamma in (0.03, 0.1, 0.4):
        lhs = TruncatedSeries(desired, [interferer], gamma, 25).at(1.0)
        rhs = TruncatedSeries(desired, [], gamma, 25).at(1.0)
        assert lhs.probability == pytest.approx(rhs.probability, rel=1e-12)
        assert lhs.converged == rhs.converged


def test_series_single_interferer_matches_monte_carlo():
    # UAV-3 style point: desired and interfering links both Rician shadowed
    rng = np.random.default_rng(90)
    desired = RicianShadowedParams(100.0 / 9.0, 10.0, 10.0)
    interferer = RicianShadowedParams(100.0 / 9.0, 10.0, 10.0)
    gamma = 0.0993
    series = TruncatedSeries(desired, [interferer], gamma, 25)
    closed = series.at(1.0)
    n = 10**6
    x = sample_rician_shadowed(desired, rng, n)
    y = sample_rician_shadowed(interferer, rng, n)
    emp = float(np.mean(x <= gamma * (1.0 + y)))
    se = math.sqrt(emp * (1 - emp) / n)
    assert closed.converged
    assert abs(closed.probability - emp) < 3 * se


# Abdi et al.'s (IEEE TWC 2003) measured land-mobile satellite sets (K, m):
# heavy, average and infrequent light shadowing
ABDI_HEAVY = unit_link(0.0071, 0.739)
ABDI_AVERAGE = unit_link(0.556, 5.21)
ABDI_LIGHT = unit_link(4.08, 19.4)


def test_fd_noma_meets_monte_carlo_with_abdi_shadowed_interferers():
    # non-integer m on every FD interferer (SI, and the uplink at both
    # UAVs), in two assignments of the three sets: 3 FD pairs x 2 = six
    # curves, at 4 powers each.  |z| < 3.6 over all 24 rows holds with
    # probability 0.992 (Bonferroni).
    pairs = [(Scheme.FD_NOMA, node) for node in Node]
    powers = [0.0, 10.0, 20.0, 30.0]
    misses = []
    for index, (si, up2, up3) in enumerate(
        [(ABDI_HEAVY, ABDI_AVERAGE, ABDI_LIGHT), (ABDI_LIGHT, ABDI_HEAVY, ABDI_AVERAGE)]
    ):
        base = suburban(k_tr=40)
        cfg = replace(base, fading=replace(base.fading, link_si=si, link_12=up2, link_13=up3))
        estimates = mc_outage_curves(cfg, pairs, powers, McSettings(2**19, 4100 + index))
        for pair in pairs:
            curve = OutageCurve(cfg, *pair)
            for pt, est in zip(powers, estimates[pair]):
                closed = curve.at(pt)
                z = abs(closed.probability - est.probability) / est.std_error
                if not (closed.converged and z < 3.6):
                    misses.append((index, pair[1].value, pt, closed, est, z))
    assert not misses, misses


# ---------------------------------------------------------------------------
# scheme evaluators
# ---------------------------------------------------------------------------

def test_signal_model_table():
    # interferer count and power split per pair (alloc a_gs2 = 0.5, beta = 0.1)
    cfg = suburban()
    table = {}
    for scheme, node in ALL_PAIRS:
        model = signal_model(cfg, scheme, node)
        table[scheme, node] = (len(model.interferers), model.split)
    assert table == {
        (Scheme.FD_NOMA, Node.GS): (2, None),
        (Scheme.FD_NOMA, Node.UAV2): (1, (0.5, 0.1)),
        (Scheme.FD_NOMA, Node.UAV3): (1, (0.5, 1.0)),
        (Scheme.HD_NOMA, Node.GS): (0, None),
        (Scheme.HD_NOMA, Node.UAV2): (0, (0.5, 0.1)),
        (Scheme.HD_NOMA, Node.UAV3): (0, (0.5, 1.0)),
        (Scheme.HD_OMA, Node.GS): (0, None),
        (Scheme.HD_OMA, Node.UAV2): (0, None),
        (Scheme.HD_OMA, Node.UAV3): (0, None),
    }
    # mean power pt_linear * mean_power, mean_power = 1 / distance**pathloss_exp
    assert 90.0 * signal_model(cfg, Scheme.HD_OMA, Node.GS).desired.mean_power == 10.0
    # every link's mean at unit transmit power: each distance link's
    # 1 / d**pathloss_exp, and the phase-noise/noise ratio on the SI link
    geo, eta = cfg.geometry, cfg.geometry.pathloss_exp
    fd = {node: signal_model(cfg, Scheme.FD_NOMA, node) for node in Node}
    means = {
        "1g": fd[Node.GS].desired.mean_power,
        "g2": fd[Node.UAV2].desired.mean_power,
        "g3": fd[Node.UAV3].desired.mean_power,
        "12": fd[Node.UAV2].interferers[0].mean_power,
        "13": fd[Node.UAV3].interferers[0].mean_power,
    }
    for name, mean in means.items():
        assert mean == 1.0 / getattr(geo, f"d_{name}") ** eta, name
    si, error = fd[Node.GS].interferers
    assert si == replace(cfg.fading.link_si, mean_power=cfg.si_power_ratio)
    # the estimation error: exponential power, a K = 0 link of mean epsilon
    assert error == RicianShadowedParams(cfg.epsilon, 0.0, 1.0)
    assert len(signal_model(suburban(epsilon=0.0), Scheme.FD_NOMA, Node.GS).interferers) == 1


def test_zero_rate_never_outages():
    cfg = suburban(pt_db=10.0, r_oma=0.0)
    for scheme, node in ALL_PAIRS:
        result = evaluate_outage(cfg, scheme, node)
        assert result.probability == 0.0
        assert result.threshold_used == 0.0


def test_result_metadata_fields():
    cfg = suburban(pt_db=10.0)
    result = evaluate_outage(cfg, Scheme.FD_NOMA, Node.GS)
    assert result.threshold_used == pytest.approx(sinr_threshold(0.2 / 3.0), rel=1e-14)
    assert result.converged
    u3 = evaluate_outage(cfg, Scheme.FD_NOMA, Node.UAV3)
    assert u3.threshold_used == pytest.approx(0.0992837851712387, rel=1e-10)


def test_infinite_threshold_guard_probability_one():
    # a_gs3 = 0.5 with a rate high enough that the split cannot carry it
    cfg = suburban(r_oma=3.0)
    for scheme in (Scheme.HD_NOMA, Scheme.FD_NOMA):
        result = evaluate_outage(cfg, scheme, Node.UAV3)
        assert result.probability == 1.0
        assert math.isinf(result.threshold_used)
        assert result.converged


def test_subnormal_power_at_zero_rate_reads_zero_in_both_oracles():
    # 10^(pt/10) is subnormal at -3230 dB: a zero threshold is never
    # crossed, whatever a link's mean at the power point rounds to
    cfg = suburban(pt_db=-3230.0, r_oma=0.0)
    curves = mc_outage_curves(cfg, ALL_PAIRS, [-3230.0], McSettings(num_samples=1000, seed=4))
    for pair in ALL_PAIRS:
        assert evaluate_outage(cfg, *pair).probability == 0.0, pair
        assert [est.probability for est in curves[pair]] == [0.0], pair


def test_subnormal_power_band_reads_certain_outage_or_a_named_overflow():
    # 10^(pt/10) is subnormal here: at a positive threshold the series
    # fails with its named term overflow, and Monte Carlo reads certain outage
    cfg = suburban()
    grid = [float(pt_db) for pt_db in np.arange(-3232.0, -3224.9, 0.5)]
    curves = mc_outage_curves(cfg, ALL_PAIRS, grid, McSettings(num_samples=1000, seed=4))
    for scheme, node in ALL_PAIRS:
        curve = OutageCurve(cfg, scheme, node)
        for pt_db in grid:
            with pytest.raises(OverflowError, match=r"order \d+"):
                curve.at(pt_db)
        assert {est.probability for est in curves[scheme, node]} == {1.0}


def test_underflowing_interferer_mean_drops_out_of_the_series():
    # epsilon = 1e-320 puts the estimation error's mean at 0 by -40 dB
    tiny = OutageCurve(suburban(epsilon=1e-320), Scheme.FD_NOMA, Node.GS).at(-40.0)
    assert tiny == OutageCurve(suburban(epsilon=0.0), Scheme.FD_NOMA, Node.GS).at(-40.0)


@pytest.mark.parametrize("pt_db", [-200.0, -300.0])
def test_overflowing_series_term_raises_instead_of_a_partial_sum(pt_db):
    # the truth and Monte Carlo read 1; the finite terms alone read 0 or 1
    cfg = suburban()
    for scheme, node in ALL_PAIRS:
        with pytest.raises(ArithmeticError, match=r"order \d+"):
            OutageCurve(cfg, scheme, node).at(pt_db)


def test_fd_uav_degenerate_collapse_to_cdf():
    # nearly full allocation, perfect SIC, uplink interferer pushed away:
    # the UAV-2 outage collapses to the plain CDF at gamma / alloc
    cfg = suburban(pt_db=10.0, a_gs2=1.0 - 1e-12, beta=0.0, d_12=1e6)
    result = evaluate_outage(cfg, Scheme.FD_NOMA, Node.UAV2)
    gamma = sinr_threshold(rate_for(Scheme.FD_NOMA, cfg.r_oma))
    desired = RicianShadowedParams(db_to_linear(cfg.p_t) / 4.0, 10.0, 3.0)
    series = TruncatedSeries(desired, (), gamma / (1.0 - 1e-12), 25)
    want = series.at(1.0).probability
    assert result.probability == pytest.approx(want, rel=1e-6)


def test_hd_and_oma_monotone_in_power():
    grid = [float(pt) for pt in range(0, 65, 5)]
    for scheme in (Scheme.HD_NOMA, Scheme.HD_OMA):
        for node in Node:
            values = [
                evaluate_outage(suburban(pt_db=pt), scheme, node).probability
                for pt in grid
            ]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:])), (
                scheme, node, values,
            )


def test_hd_gs_never_exceeds_oma_gs():
    for pt in range(0, 65, 5):
        cfg = suburban(pt_db=float(pt))
        hd = evaluate_outage(cfg, Scheme.HD_NOMA, Node.GS).probability
        assert hd <= evaluate_outage(cfg, Scheme.HD_OMA, Node.GS).probability + 1e-15


@pytest.mark.parametrize("r_oma", [0.2, 0.7, 1.5])
def test_hd_noma_gs_is_hd_oma_gs_at_the_same_rate(r_oma):
    # the ground station's half-duplex uplink sees no interference in either
    # scheme, so only the rate tells them apart: HD-NOMA at r_oma is HD-OMA
    # at the base rate that gives HD-OMA the same rate, bit for bit in both
    # oracles (Monte Carlo draws depend only on the pair's link laws)
    rate = rate_for(Scheme.HD_NOMA, r_oma)
    assert rate == r_oma / 2 and rate_for(Scheme.HD_OMA, rate) == rate
    noma, oma = (Scheme.HD_NOMA, Node.GS), (Scheme.HD_OMA, Node.GS)
    grid = [0.0, 10.0, 30.0]
    settings = McSettings(num_samples=2**16, seed=11)
    cfg_noma, cfg_oma = suburban(r_oma=r_oma), suburban(r_oma=rate)
    curve_noma, curve_oma = OutageCurve(cfg_noma, *noma), OutageCurve(cfg_oma, *oma)
    for pt in grid:
        assert curve_noma.at(pt) == curve_oma.at(pt), pt
    mc_noma = mc_outage_curves(cfg_noma, [noma], grid, settings)[noma]
    mc_oma = mc_outage_curves(cfg_oma, [oma], grid, settings)[oma]
    assert mc_noma == mc_oma


@pytest.mark.parametrize("k_tr", [25, 40])
def test_fd_noma_meets_its_interference_free_limits(k_tr):
    # with its interference switched off, FD-NOMA at rate r_oma / 3 is the
    # half-duplex scheme at the base rate that gives it that rate: HD-OMA
    # at the ground station (phase noise at -300 dBm, epsilon = 0), HD-NOMA
    # at a downlink UAV whose uplink interferer is 1e9 km away
    r_oma = 0.2
    quiet_gs = replace(suburban(epsilon=0.0, k_tr=k_tr), phase_noise_power=-300.0)
    limits = [
        (quiet_gs, Node.GS, Scheme.HD_OMA, r_oma / 3),
        (suburban(k_tr=k_tr, d_12=1e9), Node.UAV2, Scheme.HD_NOMA, 2 * r_oma / 3),
        (suburban(k_tr=k_tr, d_13=1e9), Node.UAV3, Scheme.HD_NOMA, 2 * r_oma / 3),
    ]
    for cfg, node, scheme, base_rate in limits:
        fd = OutageCurve(cfg, Scheme.FD_NOMA, node)
        hd = OutageCurve(replace(cfg, r_oma=base_rate), scheme, node)
        for pt in range(0, 61, 10):
            got, want = fd.at(pt).probability, hd.at(pt).probability
            assert abs(got - want) <= 1e-12, (node, pt, got, want)


# Which pairs each config key reaches, from the model description (README
# and the paper's system model), not from `signal_model`: one digit per
# pair in ALL_PAIRS order (fd_noma, hd_noma, hd_oma, each at gs uav2 uav3),
# with the value the key is moved to.
WIRING = [
    # each distance is one link's pathloss; the uplink UAV interferes at
    # the downlink UAVs only under FD-NOMA
    ("geometry", "d_1g", "3.5", "100 100 100"),
    ("geometry", "d_g2", "2.5", "010 010 010"),
    ("geometry", "d_g3", "3.5", "001 001 001"),
    ("geometry", "d_12", "2.5", "010 000 000"),
    ("geometry", "d_13", "3.5", "001 000 000"),
    ("fading", "k_1g", "12", "100 100 100"),
    ("fading", "m_1g", "12", "100 100 100"),
    # residual self-interference: the FD ground station only
    ("fading", "k_si", "12", "100 000 000"),
    ("fading", "m_si", "12", "100 000 000"),
    ("fading", "k_g2", "12", "010 010 010"),
    ("fading", "m_g2", "5", "010 010 010"),
    ("fading", "k_g3", "12", "001 001 001"),
    ("fading", "m_g3", "12", "001 001 001"),
    ("fading", "k_12", "12", "010 000 000"),
    ("fading", "m_12", "5", "010 000 000"),
    ("fading", "k_13", "12", "001 000 000"),
    ("fading", "m_13", "12", "001 000 000"),
    # the NOMA power split reaches both downlink UAVs, its SIC residual
    # only the near user UAV-2; HD-OMA has no split
    ("system", "a_gs2", "0.6", "011 011 000"),
    ("system", "beta", "0.2", "010 010 000"),
    # the self-interference ratio and the estimation error: FD ground station
    ("system", "phase_noise_dbm", "-137", "100 000 000"),
    ("system", "noise_dbm", "-128", "100 000 000"),
    ("system", "epsilon", "0.2", "100 000 000"),
    # every scheme's rate derives from r_oma
    ("system", "r_oma", "0.3", "111 111 111"),
]


def both_oracles_at_10_db(tmp_path, section=None, key=None, value=None):
    """Every pair's closed-form record and 2^16-sample Monte Carlo estimate
    at 10 dB, on the reference scenario with at most one key changed."""
    keys = {"geometry": {"d_12": "2.0", "d_13": "3.0"}, "fading": {}, "system": {}}
    if section is not None:
        keys[section][key] = value
    path = tmp_path / "wiring.ini"
    path.write_text(
        "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
            for name, entries in keys.items()
        ),
        encoding="utf-8",
    )
    cfg, _ = load_config(str(path))
    closed = {pair: OutageCurve(cfg, *pair).at(10.0) for pair in ALL_PAIRS}
    mc = mc_outage_curves(cfg, ALL_PAIRS, [10.0], McSettings(num_samples=2**16, seed=11))
    return closed, {pair: estimates[0] for pair, estimates in mc.items()}


@pytest.fixture(scope="module")
def unwired(tmp_path_factory):
    return both_oracles_at_10_db(tmp_path_factory.mktemp("unwired"))


@pytest.mark.parametrize("section,key,value,reached", WIRING, ids=[row[1] for row in WIRING])
def test_each_model_key_moves_exactly_the_pairs_it_reaches(
    tmp_path, unwired, section, key, value, reached
):
    # both oracles read one signal-model table, so their agreement cannot
    # see a wrong wire in it; this matrix can.  A pair the key does not
    # reach stays bit-identical in both oracles (a pair's draws depend only
    # on its own sequence of link laws); every other pair moves in both
    closed, mc = both_oracles_at_10_db(tmp_path, section, key, value)
    base_closed, base_mc = unwired
    for pair, flag in zip(ALL_PAIRS, reached.replace(" ", "")):
        if flag == "1":
            assert closed[pair] != base_closed[pair], pair
            assert mc[pair].probability != base_mc[pair].probability, pair
        else:
            assert closed[pair] == base_closed[pair], pair
            assert mc[pair] == base_mc[pair], pair


@pytest.mark.parametrize(
    "node,want",
    # extended-precision Gamma-mixture closed form (bench/reference.json)
    [(Node.GS, 5.5739506359e-3), (Node.UAV3, 5.8070132867e-3)],
)
def test_fd_high_power_high_order_stays_in_log_space(node, want):
    # moments of order k_tr + 1 = 61 at 60 dB exceed double range, but the
    # series terms do not
    result = evaluate_outage(suburban(pt_db=60.0, k_tr=60), Scheme.FD_NOMA, node)
    assert result.converged
    assert result.probability == pytest.approx(want, rel=5e-3)


def test_fd_floor_between_60_and_70_db():
    for node in Node:
        p60 = evaluate_outage(suburban(pt_db=60.0), Scheme.FD_NOMA, node).probability
        p70 = evaluate_outage(suburban(pt_db=70.0), Scheme.FD_NOMA, node).probability
        assert abs(p60 - p70) <= 0.1 * max(p60, p70)


def mixture_cdf(k, m, x):
    """P(X <= x) for unit-mean Rician shadowed X, at 50 digits.

    Given the line-of-sight power, X is a scaled noncentral chi-square,
    so X is a negative-binomial mixture of Gamma(j + 1, 1/(1+K)) laws with
    weights (m)_j / j! (m/(K+m))^m (K/(K+m))^j.  The weights left out
    sum to less than 1e-30, which bounds the error.
    """
    with mpmath.workdps(50):
        k, m, x = mpmath.mpf(k), mpmath.mpf(m), mpmath.mpf(x)
        q = k / (k + m)
        weight = (m / (k + m)) ** m
        total = weights = mpmath.mpf(0)
        j = 0
        while 1 - weights > mpmath.mpf(10) ** -30:
            total += weight * mpmath.gammainc(j + 1, 0, x * (1 + k), regularized=True)
            weights += weight
            weight *= (m + j) / (j + 1) * q
            j += 1
        return float(total)


@pytest.mark.parametrize(
    "k,m,r_oma,pt_db,k_tr",
    [
        # series argument (1+K) gamma / P about 28: truncation needs k_tr 63
        (20.0, 10.0, 0.2, 0.0, 63),
        # arguments 18.9 and 27.9
        (20.0, 3.0, 1.0, 10.0, 25),
        (20.0, 3.0, 1.0, 10.0, 40),
        (20.0, 3.0, 1.0, 10.0, 63),
        (30.0, 3.0, 1.0, 10.0, 25),
        (30.0, 3.0, 1.0, 10.0, 63),
    ],
)
def test_hd_oma_gs_meets_mixture_truth_at_large_series_arguments(k, m, r_oma, pt_db, k_tr):
    cfg = suburban(pt_db=pt_db, r_oma=r_oma, k_tr=k_tr)
    cfg = replace(cfg, fading=replace(cfg.fading, link_1g=unit_link(k, m)))
    model = signal_model(cfg, Scheme.HD_OMA, Node.GS)
    truth = mixture_cdf(k, m, model.gamma / (db_to_linear(pt_db) * model.desired.mean_power))
    result = evaluate_outage(cfg, Scheme.HD_OMA, Node.GS)
    assert result.converged
    assert abs(result.probability - truth) <= 1e-9, (result.probability, truth)


def test_probabilities_in_unit_interval_fuzz():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        d_g2 = float(rng.uniform(0.3, 4.0))
        cfg = SystemConfig(
            p_t=float(rng.uniform(-10.0, 75.0)),
            r_oma=float(rng.uniform(0.0, 2.5)),
            a_gs2=float(rng.uniform(0.05, 0.95)),
            beta=float(rng.uniform(0.0, 1.0)),
            phase_noise_power=float(rng.uniform(-150.0, -120.0)),
            noise_power=-131.0,
            epsilon=float(rng.uniform(0.0, 1.0)),
            k_tr=25,
            geometry=NodeGeometry(
                d_1g=float(rng.uniform(0.5, 6.0)),
                d_g2=d_g2,
                d_g3=d_g2 + float(rng.uniform(0.1, 4.0)),
                d_12=float(rng.uniform(0.5, 6.0)),
                d_13=float(rng.uniform(0.5, 6.0)),
                pathloss_exp=float(rng.uniform(1.6, 3.5)),
            ),
            fading=FadingSet(
                link_1g=unit_link(float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.5, 20.0))),
                link_si=unit_link(float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.5, 20.0))),
                link_g2=unit_link(float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.5, 20.0))),
                link_g3=unit_link(float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.5, 20.0))),
                link_12=unit_link(float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.5, 20.0))),
                link_13=unit_link(float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.5, 20.0))),
            ),
        )
        for scheme, node in ALL_PAIRS:
            result = evaluate_outage(cfg, scheme, node)
            assert 0.0 <= result.probability <= 1.0, (scheme, node, cfg)


# ---------------------------------------------------------------------------
# config type validation
# ---------------------------------------------------------------------------

def test_geometry_validation():
    with pytest.raises(ValueError):
        NodeGeometry(d_1g=3.0, d_g2=3.0, d_g3=2.0, d_12=2.0, d_13=3.0, pathloss_exp=2.0)
    with pytest.raises(ValueError):
        NodeGeometry(d_1g=0.0, d_g2=2.0, d_g3=3.0, d_12=2.0, d_13=3.0, pathloss_exp=2.0)
    with pytest.raises(ValueError):
        NodeGeometry(d_1g=3.0, d_g2=2.0, d_g3=3.0, d_12=2.0, d_13=3.0, pathloss_exp=0.5)


def test_fading_set_requires_unit_mean():
    with pytest.raises(ValueError):
        FadingSet(
            link_1g=RicianShadowedParams(2.0, 10.0, 10.0),
            link_si=unit_link(10.0, 10.0),
            link_g2=unit_link(10.0, 3.0),
            link_g3=unit_link(10.0, 10.0),
            link_12=unit_link(10.0, 3.0),
            link_13=unit_link(10.0, 10.0),
        )


def test_system_config_validation():
    with pytest.raises(ValueError):
        suburban(a_gs2=1.0)
    with pytest.raises(ValueError):
        suburban(beta=1.5)
    with pytest.raises(ValueError):
        suburban(epsilon=-0.1)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            suburban(epsilon=bad)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="p_t"):
            suburban(pt_db=bad)
    with pytest.raises(ValueError):
        suburban(k_tr=-1)
    with pytest.raises(ValueError):
        suburban(k_tr=MAX_K_TR + 1)
    suburban(k_tr=MAX_K_TR)
    with pytest.raises(ValueError):
        suburban(r_oma=-0.2)


def test_pt_conversion_and_si_ratio():
    cfg = suburban(pt_db=20.0)
    assert db_to_linear(cfg.p_t) == pytest.approx(100.0, rel=1e-14)
    assert cfg.si_power_ratio == pytest.approx(10 ** (-0.9), rel=1e-14)


def test_db_to_linear_at_float_range_edges():
    # a positive finite float or a ValueError naming the level
    for level in (3100.0, -4000.0, 3082.6, -3236.1):
        with pytest.raises(ValueError, match=f"{level:g} dB"):
            db_to_linear(level)
    assert db_to_linear(3082.0) == pytest.approx(10.0**308.2, rel=1e-12)
    assert 0.0 < db_to_linear(-3230.0) < 1e-322  # subnormal, still converts
    assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-14)
    with pytest.raises(ValueError, match="NaN"):
        db_to_linear(math.nan)


def test_nan_power_is_rejected_by_the_closed_form():
    for scheme, node in ALL_PAIRS:
        with pytest.raises(ValueError, match="NaN"):
            OutageCurve(suburban(), scheme, node).at(math.nan)


def test_epsilon_zero_drops_estimation_error_term():
    cfg0 = suburban(pt_db=20.0, epsilon=0.0)
    result = evaluate_outage(cfg0, Scheme.FD_NOMA, Node.GS)
    assert 0.0 < result.probability < 1.0
    # shrinking epsilon continuously approaches the epsilon = 0 evaluation
    tiny = replace(suburban(pt_db=20.0), epsilon=1e-12)
    assert evaluate_outage(tiny, Scheme.FD_NOMA, Node.GS).probability == pytest.approx(result.probability, rel=1e-6)
