"""Outage probability of FD/HD NOMA UAV links over Rician shadowed fading.

Closed-form truncated-series evaluators for every (scheme, node) pair and
an independent Monte Carlo simulation oracle, plus a sweep CLI.
"""

from .channel import (
    RicianShadowedParams,
    TruncatedCdf,
    rician_shadowed_moment,
    sample_rician_shadowed,
)
from .montecarlo import McEstimate, McSettings, mc_outage, mc_outage_curves
from .outage import (
    FadingSet,
    Node,
    NodeGeometry,
    OutageCurve,
    OutageResult,
    Scheme,
    SystemConfig,
    evaluate_outage,
    noma_effective_threshold,
    rate_for,
    sinr_threshold,
)
from .scenario import (
    ConfigError,
    SweepSpec,
    SweepTable,
    emit_csv,
    emit_plot_data,
    load_config,
    run_sweep,
)
from .specfun import SeriesConvergenceError, gauss_2f1

__version__ = "0.1.0"
