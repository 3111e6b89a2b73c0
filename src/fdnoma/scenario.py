"""Scenario loading, transmit-power sweeps and data emission.

Configs are flat INI-style key/value files; every parameter of the
reference suburban scenario has a default, so a minimal config only has to
supply the two inter-UAV distances (they have no published value and must
be an explicit modelling choice).  The constructed SystemConfig keeps its
levels in dB and dBm as written; its `si_power_ratio` property converts
them to linear on every access, and the evaluators convert each power
point of a sweep themselves.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .channel import OutageResult, RicianShadowedParams
from .montecarlo import McEstimate, McSettings, mc_outage_curves
from .outage import (
    FadingSet,
    Node,
    NodeGeometry,
    OutageCurve,
    Scheme,
    SystemConfig,
    db_to_linear,
)

__all__ = [
    "ConfigError",
    "SweepSpec",
    "SweepRow",
    "load_config",
    "run_sweep",
    "emit_csv",
    "emit_plot_data",
    "CSV_HEADER",
]

CSV_HEADER = "scheme,node,pt_db,outage_cf,converged,outage_mc,mc_se"

DEFAULT_MC_SEED = 20260809

# Most transmit-power points one sweep may have; a longer grid is a config
# mistake, and building it would exhaust memory.
MAX_POWER_POINTS = 100_000

# Every config key with the text of its default, section by section: the
# reference suburban scenario.  None marks a mandatory key: the inter-UAV
# distances have no published value and must be set by every config.  The
# geometry keys are the fields of NodeGeometry.
_KEYS: dict[str, dict[str, str | None]] = {
    "geometry": {
        "d_1g": "3.0",
        "d_g2": "2.0",
        "d_g3": "3.0",
        "d_12": None,
        "d_13": None,
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

_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}

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
        for name in ("pt_start_db", "pt_stop_db", "pt_step_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.pt_step_db > 0:
            raise ValueError(f"pt_step_db must be positive, got {self.pt_step_db}")
        if not self.pt_start_db <= self.pt_stop_db:
            raise ValueError(
                f"pt_start_db {self.pt_start_db} exceeds pt_stop_db {self.pt_stop_db}"
            )
        if not self._steps() < MAX_POWER_POINTS:
            raise ValueError(
                f"pt_start_db {self.pt_start_db}, pt_stop_db {self.pt_stop_db} and "
                f"pt_step_db {self.pt_step_db} give more than {MAX_POWER_POINTS} power points"
            )
        # the grid's ends, through db_to_linear's range rule; the last point
        # may pass pt_stop_db by the rounding slack of _steps
        ends = (("pt_start_db", self.pt_start_db), ("pt_stop_db", self.power_grid()[-1]))
        for name, level in ends:
            try:
                db_to_linear(level)
            except ValueError as exc:
                raise ValueError(f"{name} must be finite as a linear power: {exc}") from None
        if not self.schemes:
            raise ValueError("at least one scheme must be requested")
        if not self.nodes:
            raise ValueError("at least one node must be requested")

    def _steps(self) -> float:
        """(stop - start) / step with slack for rounding: the grid has
        floor(steps) + 1 points."""
        return (self.pt_stop_db - self.pt_start_db) / self.pt_step_db + 1e-9

    def power_grid(self) -> list[float]:
        count = math.floor(self._steps())
        return [self.pt_start_db + i * self.pt_step_db for i in range(count + 1)]


@dataclass(frozen=True)
class SweepRow:
    """One (scheme, node, power) point: the closed form's record and the
    Monte Carlo estimate if one was asked for."""

    scheme: Scheme
    node: Node
    pt_db: float
    closed: OutageResult
    mc: McEstimate | None = None


def _parse(kind: type, text: str, name: str):
    """`text` as a float, int or bool (the words ConfigParser accepts);
    a ConfigError names the key `name`."""
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
        return kind(text)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{name} is not {_KIND_NAMES[kind]}: {text!r}") from exc


def _read_text(parser: configparser.ConfigParser) -> dict[str, dict[str, str]]:
    """Each section's key texts: the config's value, else the default."""
    if parser.defaults():
        raise ConfigError("unknown config section [DEFAULT]")
    texts = {section: dict(keys) for section, keys in _KEYS.items()}
    for section in parser.sections():
        if section not in texts:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if (section, key) == _RETIRED:
                if _parse(bool, value, f"{section}.{key}"):
                    raise ConfigError(
                        f"{section}.{key} = {value.strip()} is no longer supported: "
                        "antithetic sampling was removed; delete the key"
                    )
                continue
            if key not in texts[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            texts[section][key] = value
    missing = [f"{s}.{k}" for s, keys in texts.items() for k, v in keys.items() if v is None]
    if missing:
        raise ConfigError(
            f"mandatory key {missing[0]} is missing (inter-UAV distances "
            "have no default and must be set explicitly)"
        )
    return texts


def load_config(path: str) -> tuple[SystemConfig, SweepSpec]:
    """Parse and validate a scenario file.

    Unknown sections (`[DEFAULT]` included) or keys are rejected; omitted
    optional keys take the reference-scenario defaults; the inter-UAV
    distances d_12 and d_13 are mandatory.  A retired key is accepted only
    at its old default value.  Raises ConfigError with the offending key or
    invariant, or naming the path of a file that cannot be read as UTF-8
    text.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    texts = _read_text(parser)

    def read(section: str, key: str, kind: type = float):
        return _parse(kind, texts[section][key], f"{section}.{key}")

    try:
        geometry = NodeGeometry(**{key: read("geometry", key) for key in texts["geometry"]})

        def link(tag: str) -> RicianShadowedParams:
            k, m = read("fading", f"k_{tag}"), read("fading", f"m_{tag}")
            try:
                return RicianShadowedParams(1.0, k, m)
            except ValueError as exc:
                raise ConfigError(f"fading.k_{tag} = {k}, fading.m_{tag} = {m}: {exc}") from exc

        tags = [key[2:] for key in texts["fading"] if key.startswith("k_")]
        fading = FadingSet(**{f"link_{tag}": link(tag) for tag in tags})
        pt_db = read("system", "pt_db")
        phase_noise, noise = read("system", "phase_noise_dbm"), read("system", "noise_dbm")
        # SystemConfig's range rule for its dB levels, checked here to name the keys
        for keys, fields, level in (
            ("system.pt_db", "p_t", pt_db),
            ("system.phase_noise_dbm - system.noise_dbm", "phase_noise_power - noise_power",
             phase_noise - noise),
        ):
            try:
                db_to_linear(level)
            except ValueError as exc:
                raise ConfigError(f"{keys} ({fields}): {exc}") from exc
        cfg = SystemConfig(
            p_t=pt_db,
            r_oma=read("system", "r_oma"),
            a_gs2=read("system", "a_gs2"),
            beta=read("system", "beta"),
            phase_noise_power=phase_noise,
            noise_power=noise,
            epsilon=read("system", "epsilon"),
            k_tr=read("system", "k_tr", int),
            geometry=geometry,
            fading=fading,
        )
        samples, seed = read("sweep", "mc_samples", int), read("sweep", "mc_seed", int)
        try:
            mc = McSettings(num_samples=samples, seed=seed)
        except ValueError as exc:
            raise ConfigError(f"sweep.mc_samples: {exc}") from exc
        spec = SweepSpec(
            pt_start_db=read("sweep", "pt_start_db"),
            pt_stop_db=read("sweep", "pt_stop_db"),
            pt_step_db=read("sweep", "pt_step_db"),
            schemes=_parse_enum_list(texts["sweep"]["schemes"], Scheme, "sweep.schemes"),
            nodes=_parse_enum_list(texts["sweep"]["nodes"], Node, "sweep.nodes"),
            with_mc=read("sweep", "with_mc", bool),
            mc=mc,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return cfg, spec


def _parse_enum_list(raw: str, enum_cls, what: str):
    allowed = ", ".join(e.value for e in enum_cls)
    values = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            values.append(enum_cls(token))
        except ValueError as exc:
            raise ConfigError(f"{what}: unknown value {token!r} (allowed: {allowed})") from exc
    if not values:
        raise ConfigError(f"{what}: no value given (allowed: {allowed})")
    return tuple(dict.fromkeys(values))  # dedupe, keep order


def run_sweep(cfg: SystemConfig, spec: SweepSpec) -> tuple[SweepRow, ...]:
    """Evaluate every requested (scheme, node, transmit power) row.

    Rows are sorted by (scheme, node, pt).  The closed form of each pair
    is one `OutageCurve` over the power grid, and every pair's closed form
    is evaluated before any Monte Carlo.  Monte Carlo columns are present
    iff the spec asks for them; they come from one `mc_outage_curves`
    call over every pair with seed `spec.mc.seed`, whose (seed, batch)
    substreams every row of a pair shares, so a row equals `mc_outage` at
    its power.  Each row holds the evaluators' records as they return
    them.  The first closed-form ArithmeticError (say, a series term past
    double range far below the noise floor) ends the sweep before any
    sampling: it is raised again, same type, its message prefixed with
    the row's "{scheme} {node} at {pt} dB: " (the first power point for a
    failure while building the curve).
    """
    grid = spec.power_grid()
    combos = sorted(
        ((scheme, node) for scheme in set(spec.schemes) for node in set(spec.nodes)),
        key=lambda pair: (pair[0].value, pair[1].value),
    )
    rows: list[SweepRow] = []
    for scheme, node in combos:
        pt = grid[0]
        try:
            curve = OutageCurve(cfg, scheme, node)
            for pt in grid:
                rows.append(SweepRow(scheme, node, pt, curve.at(pt)))
        except ArithmeticError as exc:
            where = f"{scheme.value} {node.value} at {pt:g} dB"
            raise type(exc)(f"{where}: {exc}") from exc
    if spec.with_mc:
        simulated = mc_outage_curves(cfg, combos, grid, spec.mc)
        estimates = [estimate for pair in combos for estimate in simulated[pair]]
        rows = [replace(row, mc=estimate) for row, estimate in zip(rows, estimates)]
    return tuple(rows)


def _fmt(value: float) -> str:
    return "%.10g" % value


def format_row(row: SweepRow) -> str:
    mc = ["", ""] if row.mc is None else [_fmt(row.mc.probability), _fmt(row.mc.std_error)]
    return ",".join(
        [
            row.scheme.value,
            row.node.value,
            _fmt(row.pt_db),
            _fmt(row.closed.probability),
            "true" if row.closed.converged else "false",
            *mc,
        ]
    )


def emit_csv(rows: Sequence[SweepRow], path: str) -> None:
    """Write the sweep rows as CSV (UTF-8, LF, 10 significant digits)."""
    lines = [CSV_HEADER]
    lines.extend(format_row(row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def emit_plot_data(rows: Sequence[SweepRow], path: str) -> None:
    """Write one whitespace-separated `pt_db outage` block per (scheme,
    node) series, blank-line separated, for gnuplot-style tooling."""
    series: dict[tuple[str, str], list[SweepRow]] = {}
    for row in rows:
        series.setdefault((row.scheme.value, row.node.value), []).append(row)
    blocks = []
    for (scheme, node), curve in sorted(series.items()):
        lines = [f"# {scheme} {node}"]
        lines.extend(f"{_fmt(r.pt_db)} {_fmt(r.closed.probability)}" for r in curve)
        blocks.append("\n".join(lines))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n\n".join(blocks) + "\n")
