"""Outage probability of FD/HD NOMA UAV links over Rician shadowed fading.

Closed-form truncated-series evaluators for every (scheme, node) pair and
an independent Monte Carlo simulation oracle, plus a sweep CLI.  Lower
layers (the series evaluator, moments, the sampler, thresholds) are
imported from their modules.
"""

from .channel import OutageResult, RicianShadowedParams
from .montecarlo import McEstimate, McSettings, mc_outage, mc_outage_curves
from .outage import (
    FadingSet,
    Node,
    NodeGeometry,
    OutageCurve,
    Scheme,
    SystemConfig,
    evaluate_outage,
)
from .scenario import (
    ConfigError,
    SweepSpec,
    emit_csv,
    emit_plot_data,
    load_config,
    run_sweep,
)

__version__ = "0.1.0"
