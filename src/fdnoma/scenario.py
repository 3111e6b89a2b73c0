"""Scenario loading, transmit-power sweeps and data emission.

Configs are flat INI-style key/value files; every parameter of the
reference suburban scenario has a default, so a minimal config only has to
supply the two inter-UAV distances (they have no published value and must
be an explicit modelling choice).  dB values are converted to linear
exactly once, at load time, inside the constructed SystemConfig.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from .channel import RicianShadowedParams
from .montecarlo import McSettings, mc_outage_curves
from .outage import (
    FadingSet,
    Node,
    NodeGeometry,
    OutageCurve,
    Scheme,
    SystemConfig,
)

__all__ = [
    "ConfigError",
    "SweepSpec",
    "SweepRow",
    "SweepTable",
    "load_config",
    "run_sweep",
    "emit_csv",
    "emit_plot_data",
    "CSV_HEADER",
]

CSV_HEADER = "scheme,node,pt_db,outage_cf,converged,outage_mc,mc_se"

DEFAULT_MC_SEED = 20260809

# Reference suburban scenario; inter-UAV distances are deliberately absent
# and must be provided by every config.
_DEFAULTS: dict[str, dict[str, str]] = {
    "geometry": {
        "d_1g": "3.0",
        "d_g2": "2.0",
        "d_g3": "3.0",
        "pathloss_exp": "2.0",
    },
    "fading": {
        "k_1g": "10.0",
        "m_1g": "10.0",
        "k_si": "10.0",
        "m_si": "10.0",
        "k_g2": "10.0",
        "m_g2": "3.0",
        "k_g3": "10.0",
        "m_g3": "10.0",
        "k_12": "10.0",
        "m_12": "3.0",
        "k_13": "10.0",
        "m_13": "10.0",
    },
    "system": {
        "pt_db": "0.0",
        "r_oma": "0.2",
        "a_gs2": "0.5",
        "beta": "0.1",
        "phase_noise_dbm": "-140.0",
        "noise_dbm": "-131.0",
        "epsilon": "0.1",
        "k_tr": "25",
    },
    "sweep": {
        "pt_start_db": "0.0",
        "pt_stop_db": "60.0",
        "pt_step_db": "5.0",
        "schemes": "fd_noma,hd_noma,hd_oma",
        "nodes": "gs,uav2,uav3",
        "with_mc": "false",
        "mc_samples": "1000000",
        "mc_seed": str(DEFAULT_MC_SEED),
    },
}

_MANDATORY = (("geometry", "d_12"), ("geometry", "d_13"))

# A retired key that older configs still set; only its old default loads.
_RETIRED = ("sweep", "antithetic")


class ConfigError(ValueError):
    """Config file could not be parsed or violates an invariant."""


@dataclass(frozen=True)
class SweepSpec:
    pt_start_db: float
    pt_stop_db: float
    pt_step_db: float
    schemes: tuple[Scheme, ...]
    nodes: tuple[Node, ...]
    with_mc: bool
    mc: McSettings

    def __post_init__(self) -> None:
        for name in ("pt_start_db", "pt_stop_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.pt_step_db > 0:
            raise ValueError(f"pt_step_db must be positive, got {self.pt_step_db}")
        if not self.pt_start_db <= self.pt_stop_db:
            raise ValueError(
                f"pt_start_db {self.pt_start_db} exceeds pt_stop_db {self.pt_stop_db}"
            )
        if not self.schemes:
            raise ValueError("at least one scheme must be requested")
        if not self.nodes:
            raise ValueError("at least one node must be requested")

    def power_grid(self) -> list[float]:
        count = int(math.floor((self.pt_stop_db - self.pt_start_db) / self.pt_step_db + 1e-9))
        return [self.pt_start_db + i * self.pt_step_db for i in range(count + 1)]


@dataclass(frozen=True)
class SweepRow:
    scheme: Scheme
    node: Node
    pt_db: float
    outage_cf: float
    converged: bool
    outage_mc: float | None = None
    mc_se: float | None = None
    error: str | None = None  # why the evaluator raised; not written to CSV


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]


def _merge_defaults(parser: configparser.ConfigParser) -> dict[str, dict[str, str]]:
    merged = {section: dict(values) for section, values in _DEFAULTS.items()}
    for section in parser.sections():
        if section not in merged:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if (section, key) == _RETIRED:
                if _get_bool({key: value}, section, key):
                    raise ConfigError(
                        f"{section}.{key} = {value.strip()} is no longer supported: "
                        "antithetic sampling was removed; delete the key"
                    )
                continue
            if key not in merged[section] and (section, key) not in _MANDATORY:
                raise ConfigError(f"unknown config key {section}.{key}")
            merged[section][key] = value
    for section, key in _MANDATORY:
        if key not in merged[section]:
            raise ConfigError(
                f"mandatory key {section}.{key} is missing (inter-UAV distances "
                "have no default and must be set explicitly)"
            )
    return merged


def _get_float(section: dict[str, str], section_name: str, key: str) -> float:
    try:
        return float(section[key])
    except ValueError as exc:
        raise ConfigError(f"{section_name}.{key} is not a number: {section[key]!r}") from exc


def _get_int(section: dict[str, str], section_name: str, key: str) -> int:
    try:
        return int(section[key])
    except ValueError as exc:
        raise ConfigError(f"{section_name}.{key} is not an integer: {section[key]!r}") from exc


def _get_bool(section: dict[str, str], section_name: str, key: str) -> bool:
    value = section[key].strip().lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{section_name}.{key} is not a boolean: {section[key]!r}")


def load_config(path: str) -> tuple[SystemConfig, SweepSpec]:
    """Parse and validate a scenario file.

    Unknown sections or keys are rejected; omitted optional keys take the
    reference-scenario defaults; the inter-UAV distances d_12 and d_13 are
    mandatory.  A retired key is accepted only at its old default value.
    Raises ConfigError with the offending key or invariant.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    merged = _merge_defaults(parser)
    geo_raw, fad_raw, sys_raw, sweep_raw = (
        merged["geometry"], merged["fading"], merged["system"], merged["sweep"],
    )

    try:
        geometry = NodeGeometry(
            d_1g=_get_float(geo_raw, "geometry", "d_1g"),
            d_g2=_get_float(geo_raw, "geometry", "d_g2"),
            d_g3=_get_float(geo_raw, "geometry", "d_g3"),
            d_12=_get_float(geo_raw, "geometry", "d_12"),
            d_13=_get_float(geo_raw, "geometry", "d_13"),
            pathloss_exp=_get_float(geo_raw, "geometry", "pathloss_exp"),
        )

        def link(tag: str) -> RicianShadowedParams:
            return RicianShadowedParams(
                mean_power=1.0,
                k_factor=_get_float(fad_raw, "fading", f"k_{tag}"),
                m=_get_float(fad_raw, "fading", f"m_{tag}"),
            )

        fading = FadingSet(
            link_1g=link("1g"),
            link_si=link("si"),
            link_g2=link("g2"),
            link_g3=link("g3"),
            link_12=link("12"),
            link_13=link("13"),
        )
        cfg = SystemConfig(
            p_t=_get_float(sys_raw, "system", "pt_db"),
            r_oma=_get_float(sys_raw, "system", "r_oma"),
            a_gs2=_get_float(sys_raw, "system", "a_gs2"),
            beta=_get_float(sys_raw, "system", "beta"),
            phase_noise_power=_get_float(sys_raw, "system", "phase_noise_dbm"),
            noise_power=_get_float(sys_raw, "system", "noise_dbm"),
            epsilon=_get_float(sys_raw, "system", "epsilon"),
            k_tr=_get_int(sys_raw, "system", "k_tr"),
            geometry=geometry,
            fading=fading,
        )
        spec = SweepSpec(
            pt_start_db=_get_float(sweep_raw, "sweep", "pt_start_db"),
            pt_stop_db=_get_float(sweep_raw, "sweep", "pt_stop_db"),
            pt_step_db=_get_float(sweep_raw, "sweep", "pt_step_db"),
            schemes=_parse_enum_list(sweep_raw["schemes"], Scheme, "sweep.schemes"),
            nodes=_parse_enum_list(sweep_raw["nodes"], Node, "sweep.nodes"),
            with_mc=_get_bool(sweep_raw, "sweep", "with_mc"),
            mc=McSettings(
                num_samples=_get_int(sweep_raw, "sweep", "mc_samples"),
                seed=_get_int(sweep_raw, "sweep", "mc_seed"),
            ),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return cfg, spec


def _parse_enum_list(raw: str, enum_cls, what: str):
    values = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            values.append(enum_cls(token))
        except ValueError as exc:
            allowed = ", ".join(e.value for e in enum_cls)
            raise ConfigError(f"{what}: unknown value {token!r} (allowed: {allowed})") from exc
    return tuple(dict.fromkeys(values))  # dedupe, keep order


def _evaluate_curve(
    cfg: SystemConfig, scheme: Scheme, node: Node, grid: list[float]
) -> list[tuple[float, bool, str | None]]:
    """(outage, converged, error) of each power point of one pair.  An
    evaluator error fails its rows (NaN, converged=False) and is kept as
    text; a failure while building the curve fails all of them."""

    def failed(exc: Exception) -> tuple[float, bool, str]:
        return math.nan, False, f"{type(exc).__name__}: {exc}"

    try:
        curve = OutageCurve(cfg, scheme, node)
    except (ValueError, ArithmeticError) as exc:
        return [failed(exc)] * len(grid)
    out = []
    for pt in grid:
        try:
            result = curve.at(pt)
        except (ValueError, ArithmeticError) as exc:
            out.append(failed(exc))
        else:
            out.append((result.probability, result.converged, None))
    return out


def run_sweep(cfg: SystemConfig, spec: SweepSpec) -> SweepTable:
    """Evaluate every requested (scheme, node, transmit power) row.

    Rows are sorted by (scheme, node, pt).  The closed form of each pair
    is one `OutageCurve` over the power grid.  Monte Carlo columns are
    present iff the spec asks for them; they come from one
    `mc_outage_curves` call over every pair with seed `spec.mc.seed`,
    whose (seed, batch) substreams every row of a pair shares, so a row
    equals `mc_outage` at its power.  Evaluator errors mark the row failed
    (NaN, converged=False, `error` set) without aborting the sweep.
    """
    grid = spec.power_grid()
    combos = sorted(
        ((scheme, node) for scheme in set(spec.schemes) for node in set(spec.nodes)),
        key=lambda pair: (pair[0].value, pair[1].value),
    )
    simulated = mc_outage_curves(cfg, combos, grid, spec.mc) if spec.with_mc else {}
    rows: list[SweepRow] = []
    for scheme, node in combos:
        closed = _evaluate_curve(cfg, scheme, node, grid)
        estimates = simulated.get((scheme, node), [None] * len(grid))
        for pt, (cf, converged, error), estimate in zip(grid, closed, estimates):
            rows.append(
                SweepRow(
                    scheme=scheme,
                    node=node,
                    pt_db=pt,
                    outage_cf=cf,
                    converged=converged,
                    outage_mc=None if estimate is None else estimate.probability,
                    mc_se=None if estimate is None else estimate.std_error,
                    error=error,
                )
            )
    return SweepTable(tuple(rows))


def _fmt(value: float) -> str:
    return "%.10g" % value


def format_row(row: SweepRow) -> str:
    mc = "" if row.outage_mc is None else _fmt(row.outage_mc)
    se = "" if row.mc_se is None else _fmt(row.mc_se)
    return ",".join(
        [
            row.scheme.value,
            row.node.value,
            _fmt(row.pt_db),
            _fmt(row.outage_cf),
            "true" if row.converged else "false",
            mc,
            se,
        ]
    )


def emit_csv(table: SweepTable, path: str) -> None:
    """Write the sweep as CSV (UTF-8, LF, 10 significant digits)."""
    lines = [CSV_HEADER]
    lines.extend(format_row(row) for row in table.rows)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def emit_plot_data(table: SweepTable, path: str) -> None:
    """Write one whitespace-separated `pt_db outage` block per (scheme,
    node) series, blank-line separated, for gnuplot-style tooling."""
    series: dict[tuple[str, str], list[SweepRow]] = {}
    for row in table.rows:
        series.setdefault((row.scheme.value, row.node.value), []).append(row)
    blocks = []
    for (scheme, node), rows in sorted(series.items()):
        lines = [f"# {scheme} {node}"]
        lines.extend(f"{_fmt(r.pt_db)} {_fmt(r.outage_cf)}" for r in rows)
        blocks.append("\n".join(lines))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n\n".join(blocks) + "\n")
