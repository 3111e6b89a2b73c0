"""Config parsing, sweep running, CSV/plot emission and the CLI."""

import configparser
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

import fdnoma.cli
import fdnoma.scenario
from fdnoma.cli import main
from fdnoma.montecarlo import McSettings, mc_outage, mc_outage_curves
from fdnoma.outage import Node, OutageCurve, Scheme, db_to_linear, evaluate_outage
from fdnoma.scenario import (
    CSV_HEADER,
    MAX_POWER_POINTS,
    ConfigError,
    SweepSpec,
    emit_csv,
    emit_plot_data,
    load_config,
    run_sweep,
)

REFERENCE = os.path.join(os.path.dirname(__file__), "..", "configs", "reference.ini")
# the closed-form sweep the benchmark runs; read here, never written
BENCH_CONFIG = os.path.join(os.path.dirname(__file__), "..", "bench", "cf_sweep.ini")
DATA = os.path.join(os.path.dirname(__file__), "data")
# `fdnoma sweep --config configs/reference.ini` output, kept byte for byte
REFERENCE_CSV = os.path.join(DATA, "reference_cf.csv")
REFERENCE_MC_CSV = os.path.join(DATA, "reference_mc.csv")
REFERENCE_MC_2BATCH_CSV = os.path.join(DATA, "reference_mc_2batch.csv")
REFERENCE_CF_1DB_K40_CSV = os.path.join(DATA, "reference_cf_1db_k40.csv")

MINIMAL = """
[geometry]
d_12 = 2.0
d_13 = 3.0
"""


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_reference():
    parser = configparser.ConfigParser(interpolation=None)
    with open(REFERENCE, encoding="utf-8") as handle:
        parser.read_file(handle)
    return parser


def reference_keys():
    """Every (section, key) that configs/reference.ini sets: all of them."""
    parser = read_reference()
    return [(section, key) for section in parser.sections() for key in parser[section]]


def reference_with(tmp_path, section, key, value=None):
    """configs/reference.ini with one key set to `value`, or left out."""
    parser = read_reference()
    if value is None:
        parser.remove_option(section, key)
    else:
        parser.set(section, key, value)
    path = tmp_path / "scenario.ini"
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)
    return str(path)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_reference_config_loads():
    cfg, spec = load_config(REFERENCE)
    assert cfg.fading.link_1g.k_factor == 10.0
    assert cfg.fading.link_g2.m == 3.0
    assert cfg.noise_power == -131.0
    assert cfg.k_tr == 25
    assert spec.power_grid() == [float(p) for p in range(0, 65, 5)]
    assert spec.schemes == (Scheme.FD_NOMA, Scheme.HD_NOMA, Scheme.HD_OMA)
    assert spec.nodes == (Node.GS, Node.UAV2, Node.UAV3)


def test_minimal_config_gets_defaults(tmp_path):
    cfg, spec = load_config(write(tmp_path, MINIMAL))
    assert cfg.geometry.d_12 == 2.0 and cfg.geometry.d_13 == 3.0
    assert cfg.geometry.d_1g == 3.0
    assert cfg.r_oma == 0.2 and cfg.a_gs2 == 0.5 and cfg.beta == 0.1
    assert cfg.epsilon == 0.1 and cfg.phase_noise_power == -140.0
    assert cfg.fading.link_12.m == 3.0 and cfg.fading.link_13.m == 10.0
    assert not spec.with_mc
    assert spec.mc.num_samples == 1_000_000
    # reference.ini repeats the library defaults beside its two distances
    assert (cfg, spec) == load_config(REFERENCE)


def test_missing_mandatory_distance(tmp_path):
    path = write(tmp_path, "[geometry]\nd_12 = 2.0\n")
    with pytest.raises(ConfigError, match="d_13"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "\n[system]\nbogus_knob = 1\n")
    with pytest.raises(ConfigError, match="bogus_knob"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "\n[turbo]\nx = 1\n")
    with pytest.raises(ConfigError, match="turbo"):
        load_config(path)


def test_default_section_rejected(tmp_path):
    # configparser hands a [DEFAULT] key to every section: the first file
    # would take geometry.d_13 from it, the second fail naming geometry.k_tr
    for text in ("[DEFAULT]\nd_13 = 3.0\n\n[geometry]\nd_12 = 2.0\n",
                 "[DEFAULT]\nk_tr = 40\n" + MINIMAL):
        with pytest.raises(ConfigError, match=re.escape("unknown config section [DEFAULT]")):
            load_config(write(tmp_path, text))


def test_reference_config_sets_every_key():
    # so the two tests below cover the loader's whole key table
    from fdnoma.scenario import _KEYS

    table = [(section, key) for section, keys in _KEYS.items() for key in keys]
    assert reference_keys() == table + [("sweep", "antithetic")]


@pytest.mark.parametrize("section,key", reference_keys())
def test_malformed_value_names_its_key(tmp_path, section, key):
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
        load_config(reference_with(tmp_path, section, key, "x"))


@pytest.mark.parametrize("section,key", reference_keys())
def test_left_out_key_takes_its_default_or_is_named(tmp_path, section, key):
    path = reference_with(tmp_path, section, key)
    if (section, key) in (("geometry", "d_12"), ("geometry", "d_13")):
        with pytest.raises(ConfigError, match=f"mandatory key {section}.{key} is missing"):
            load_config(path)
    else:
        # reference.ini repeats the library defaults
        assert load_config(path) == load_config(REFERENCE)


def test_invariant_violation_named(tmp_path):
    path = write(tmp_path, MINIMAL + "\n[system]\na_gs2 = 1.5\n")
    with pytest.raises(ConfigError, match="a_gs2"):
        load_config(path)


def test_parse_error_carries_line_number(tmp_path):
    path = write(tmp_path, "[geometry]\nd_12 = 2.0\nthis line has no delimiter\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/scenario.ini")


def test_unreadable_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match=f"config file {re.escape(str(tmp_path))} cannot be read"):
        load_config(str(tmp_path))  # a directory
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[geometry]\nd_12 = 2.0 # \xb5m\n")
    with pytest.raises(ConfigError, match="cannot be read.*utf-8"):
        load_config(str(path))


def test_bad_number_and_bool(tmp_path):
    with pytest.raises(ConfigError, match="pt_db"):
        load_config(write(tmp_path, MINIMAL + "\n[system]\npt_db = fast\n"))
    with pytest.raises(ConfigError, match="with_mc"):
        load_config(write(tmp_path, MINIMAL + "\n[sweep]\nwith_mc = maybe\n", "b.ini"))


def assert_rejected(tmp_path, capsys, path, named):
    """Load raises a ConfigError naming `named`; `fdnoma sweep` exits 1 with
    one error line naming it and writes no CSV."""
    with pytest.raises(ConfigError, match=named):
        load_config(path)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and re.search(named, err)
    assert not out.exists()


@pytest.mark.parametrize(
    "section,key,value,named",
    [
        ("system", "pt_db", "nan", "p_t"),
        ("system", "pt_db", "inf", "p_t"),
        ("system", "epsilon", "inf", "epsilon"),
        ("system", "r_oma", "inf", "r_oma"),
        ("sweep", "pt_start_db", "-inf", "pt_start_db"),
        ("sweep", "pt_stop_db", "inf", "pt_stop_db"),
        ("sweep", "pt_stop_db", "nan", "pt_stop_db"),
        ("sweep", "pt_step_db", "inf", "pt_step_db"),
        ("system", "phase_noise_dbm", "inf", "phase_noise_power"),
        ("system", "phase_noise_dbm", "nan", "phase_noise_power"),
        ("system", "noise_dbm", "inf", "noise_power"),
        ("system", "noise_dbm", "nan", "noise_power"),
        ("geometry", "d_1g", "inf", "d_1g"),
        ("geometry", "pathloss_exp", "inf", "pathloss_exp"),
        ("fading", "k_1g", "inf", "k_factor"),
        ("fading", "m_g3", "inf", "severity m"),
    ],
)
def test_non_finite_values_rejected(tmp_path, capsys, section, key, value, named):
    header = "" if section == "geometry" else f"\n[{section}]\n"  # MINIMAL ends in [geometry]
    path = write(tmp_path, MINIMAL + f"{header}{key} = {value}\n")
    assert_rejected(tmp_path, capsys, path, named)


@pytest.mark.parametrize(
    "extra,named",
    [
        # 600 001 power points
        ("\n[sweep]\npt_start_db = -3000\npt_stop_db = 3000\npt_step_db = 0.01\n", "pt_step_db"),
        # HD-OMA's threshold 2^3000 - 1 overflows
        ("\n[system]\nr_oma = 3000\n", "r_oma"),
        # 3^1000 overflows; 0.001^200 underflows to 0
        ("pathloss_exp = 1000\n", "pathloss_exp"),
        ("d_g2 = 0.001\npathloss_exp = 200\n", "d_g2"),
        # a 4131 dB phase-noise/noise gap overflows as a linear ratio
        ("\n[system]\nphase_noise_dbm = 4000\n", "phase_noise_power"),
    ],
    ids=["power_points", "rate_threshold", "loss_overflow", "loss_underflow", "si_ratio"],
)
def test_out_of_range_values_rejected(tmp_path, capsys, extra, named):
    # finite values whose derived quantities leave float range
    assert_rejected(tmp_path, capsys, write(tmp_path, MINIMAL + extra), named)


def test_retired_antithetic_key(tmp_path, capsys):
    # older configs set `antithetic = false`; they load unchanged
    config = MINIMAL + "\n[sweep]\nantithetic = {}\n"
    assert load_config(write(tmp_path, config.format("false"))) == load_config(
        write(tmp_path, MINIMAL, "minimal.ini")
    )
    path = write(tmp_path, config.format("true"), "true.ini")
    assert_rejected(tmp_path, capsys, path, "sweep.antithetic")


def test_bench_config_loads():
    _, spec = load_config(BENCH_CONFIG)
    assert len(spec.power_grid()) == 61


def test_empty_list_tokens_are_skipped(tmp_path):
    path = write(tmp_path, MINIMAL + "\n[sweep]\nschemes = fd_noma,,hd_oma,\n")
    _, spec = load_config(path)
    assert spec.schemes == (Scheme.FD_NOMA, Scheme.HD_OMA)


def test_unknown_scheme_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "\n[sweep]\nschemes = fd_noma,td_noma\n")
    with pytest.raises(ConfigError, match="td_noma"):
        load_config(path)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def single_point_spec(with_mc=False, samples=2000, seed=1234):
    return SweepSpec(
        pt_start_db=10.0,
        pt_stop_db=10.0,
        pt_step_db=5.0,
        schemes=tuple(Scheme),
        nodes=tuple(Node),
        with_mc=with_mc,
        mc=McSettings(num_samples=samples, seed=seed),
    )


def test_single_point_sweep_has_nine_sorted_rows():
    cfg, _ = load_config(REFERENCE)
    rows = run_sweep(cfg, single_point_spec())
    assert len(rows) == 9
    keys = [(r.scheme.value, r.node.value, r.pt_db) for r in rows]
    assert keys == sorted(keys)
    assert all(r.mc is None for r in rows)


def test_sweep_mc_columns_present_iff_requested():
    cfg, _ = load_config(REFERENCE)
    rows = run_sweep(cfg, single_point_spec(with_mc=True))
    assert all(r.mc is not None for r in rows)


def test_sweep_deterministic():
    cfg, _ = load_config(REFERENCE)
    spec = single_point_spec(with_mc=True)
    t1 = run_sweep(cfg, spec)
    t2 = run_sweep(cfg, spec)
    assert t1 == t2


def test_point_evaluation_equals_sweep_row_bit_for_bit():
    cfg, spec = load_config(REFERENCE)
    rows = run_sweep(cfg, spec)
    assert len(rows) == 117
    for row in rows:
        point = evaluate_outage(replace(cfg, p_t=row.pt_db), row.scheme, row.node)
        assert point == row.closed, row


def test_mc_point_equals_sweep_row_bit_for_bit():
    # the rows of `fdnoma sweep --config configs/reference.ini --mc
    # --samples 65536 --seed 7`
    cfg, spec = load_config(REFERENCE)
    mc = McSettings(65536, 7)
    rows = run_sweep(cfg, replace(spec, with_mc=True, mc=mc))
    assert len(rows) == 117
    for row in rows:
        point = mc_outage(replace(cfg, p_t=row.pt_db), row.scheme, row.node, mc)
        assert point == row.mc, row


def test_sweep_mc_columns_equal_standalone_curves():
    # pairs sharing a desired link's draws get the values they get alone
    cfg, spec = load_config(REFERENCE)
    mc = McSettings(300_000, 5)  # two batches
    sweep = run_sweep(cfg, replace(spec, with_mc=True, mc=mc))
    grid = spec.power_grid()
    for scheme in Scheme:
        for node in Node:
            pair = (scheme, node)
            rows = [r for r in sweep if (r.scheme, r.node) == pair]
            curve = mc_outage_curves(cfg, [pair], grid, mc)[pair]
            assert [r.mc for r in rows] == curve, pair


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(10.0, 0.0, 5.0, tuple(Scheme), tuple(Node), False, McSettings(seed=1))
    with pytest.raises(ValueError):
        SweepSpec(0.0, 10.0, 0.0, tuple(Scheme), tuple(Node), False, McSettings(seed=1))
    with pytest.raises(ValueError):
        SweepSpec(0.0, 10.0, 5.0, (), tuple(Node), False, McSettings(seed=1))
    with pytest.raises(ValueError, match="pt_stop_db"):
        SweepSpec(0.0, math.inf, 5.0, tuple(Scheme), tuple(Node), False, McSettings(seed=1))
    with pytest.raises(ValueError, match="node"):
        SweepSpec(0.0, 10.0, 5.0, tuple(Scheme), (), False, McSettings(seed=1))
    # a step so fine that the point count overflows
    with pytest.raises(ValueError, match="pt_start_db .*pt_stop_db .*pt_step_db"):
        SweepSpec(-3000.0, 3000.0, 5e-324, tuple(Scheme), tuple(Node), False, McSettings(seed=1))
    # the longest grid allowed, and one point more (steps of 1/64 dB are exact)
    n = MAX_POWER_POINTS
    step = 1.0 / 64.0
    stop = (n - 1) * step
    spec = SweepSpec(0.0, stop, step, tuple(Scheme), tuple(Node), False, McSettings(seed=1))
    assert len(spec.power_grid()) == n
    with pytest.raises(ValueError, match=f"more than {n} power points"):
        SweepSpec(0.0, n * step, step, tuple(Scheme), tuple(Node), False, McSettings(seed=1))
    # the last point may pass pt_stop_db by the rounding slack, here out of
    # float range while pt_stop_db is not: the rule checks the point itself
    with pytest.raises(ValueError, match="pt_stop_db must be finite"):
        SweepSpec(3081.54715559955, 3082.547155599, 1.0, tuple(Scheme), tuple(Node), False,
                  McSettings(seed=1))


def test_power_grid_without_finite_point_count_rejected(tmp_path, capsys):
    sweep = "\n[sweep]\npt_start_db = -3000\npt_stop_db = 3000\npt_step_db = 5e-324\n"
    named = "pt_start_db .*pt_stop_db .*pt_step_db"
    assert_rejected(tmp_path, capsys, write(tmp_path, MINIMAL + sweep), named)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_csv_empty_table(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv((), str(out))
    assert out.read_text(encoding="utf-8") == CSV_HEADER + "\n"


def test_emit_csv_round_trip(tmp_path):
    cfg, _ = load_config(REFERENCE)
    rows = run_sweep(cfg, single_point_spec(with_mc=True))
    out = tmp_path / "table.csv"
    emit_csv(rows, str(out))
    text = out.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    assert "\r" not in text
    for row, line in zip(rows, lines[1:]):
        scheme, node, pt, cf, conv, mc, se = line.split(",")
        assert scheme == row.scheme.value and node == row.node.value
        assert math.isclose(float(pt), row.pt_db, rel_tol=1e-9)
        assert math.isclose(float(cf), row.closed.probability, rel_tol=1e-9, abs_tol=1e-300)
        assert conv == ("true" if row.closed.converged else "false")
        assert math.isclose(float(mc), row.mc.probability, rel_tol=1e-9, abs_tol=1e-300)
        assert math.isclose(float(se), row.mc.std_error, rel_tol=1e-9, abs_tol=1e-300)


def test_emit_plot_data_blocks(tmp_path):
    cfg, _ = load_config(REFERENCE)
    spec = SweepSpec(
        pt_start_db=0.0,
        pt_stop_db=10.0,
        pt_step_db=5.0,
        schemes=(Scheme.FD_NOMA,),
        nodes=tuple(Node),
        with_mc=False,
        mc=McSettings(seed=1),
    )
    rows = run_sweep(cfg, spec)
    out = tmp_path / "plot.dat"
    emit_plot_data(rows, str(out))
    text = out.read_text(encoding="utf-8")
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 3
    assert blocks[0].startswith("# fd_noma gs")
    assert len(blocks[0].strip().split("\n")) == 4  # header + 3 power points
    # byte-identical on re-emission
    out2 = tmp_path / "plot2.dat"
    emit_plot_data(rows, str(out2))
    assert out.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_point(capsys):
    code = main(
        ["point", "--config", REFERENCE, "--scheme", "fd_noma", "--node", "uav3", "--pt", "20"]
    )
    out = capsys.readouterr().out.strip()
    assert code == 0
    scheme, node, pt, cf, conv, mc, se = out.split(",")
    assert (scheme, node, conv, mc, se) == ("fd_noma", "uav3", "true", "", "")
    assert math.isclose(float(cf), 0.006687861440918872, rel_tol=1e-8)


def test_cli_sweep_writes_outputs(tmp_path):
    out = tmp_path / "sweep.csv"
    plot = tmp_path / "sweep.dat"
    code = main(
        [
            "sweep", "--config", REFERENCE, "--out", str(out),
            "--plot-data", str(plot), "--mc", "--samples", "2000", "--seed", "7",
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 9 * 13
    assert plot.exists()


def test_cli_end_to_end_determinism(tmp_path):
    args = lambda name: [
        "sweep", "--config", REFERENCE, "--out", str(tmp_path / name),
        "--mc", "--samples", "2000", "--seed", "99",
    ]
    assert main(args("a.csv")) == 0
    assert main(args("b.csv")) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[geometry]\nd_12 = 2.0\n", encoding="utf-8")
    code = main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "d_13" in capsys.readouterr().err


def test_cli_strict_nonconvergence_exit_code(tmp_path, capsys):
    scenario = tmp_path / "hard.ini"
    scenario.write_text(
        MINIMAL + "\n[system]\nr_oma = 2.2\n"
        "\n[sweep]\npt_start_db = 0\npt_stop_db = 0\npt_step_db = 5\n"
        "schemes = fd_noma\nnodes = uav3\n",
        encoding="utf-8",
    )
    out = tmp_path / "hard.csv"
    assert main(["sweep", "--config", str(scenario), "--out", str(out)]) == 0
    code = main(["sweep", "--config", str(scenario), "--out", str(out), "--strict"])
    assert code == 2
    err = capsys.readouterr().err
    assert "converge" in err
    assert err.endswith("(first: fd_noma uav3 at 0 dB)\n")


def test_cli_sweep_evaluates_an_interferer_with_extreme_k_over_m(tmp_path, capsys):
    # K/m = 2e6 on the fd_noma/uav2 uplink interferer at non-integer m: its
    # moment table is one recurrence like any other, so every row evaluates,
    # and that curve meets Monte Carlo
    fading = "\n[fading]\nk_12 = 1e6\nm_12 = 0.5\n"
    sweep = "\n[sweep]\npt_start_db = 0\npt_stop_db = 10\n"
    path = write(tmp_path, MINIMAL + fading + sweep)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--out", str(out), "--ktr", "60", "--strict"]) == 0
    assert capsys.readouterr().err == ""
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == 27
    assert all(",nan," not in line for line in lines)
    rows = [line.split(",") for line in lines if line.startswith("fd_noma,uav2,")]
    assert [(row[2], row[4]) for row in rows] == [("0", "true"), ("5", "true"), ("10", "true")]
    cfg, _ = load_config(path)
    pair = (Scheme.FD_NOMA, Node.UAV2)
    estimates = mc_outage_curves(cfg, [pair], [0.0, 5.0, 10.0], McSettings(2**20, 21))[pair]
    for row, est in zip(rows, estimates):
        # three rows: |z| < 3 holds for all of them with probability 0.992
        assert abs(float(row[3]) - est.probability) < 3 * est.std_error, (row, est)


def test_cli_sweep_stops_at_the_first_row_whose_cdf_coefficients_overflow(tmp_path, capsys):
    # K/m = 2e6 on the uplink: at k_tr 63 the 2F1 factor of its CDF
    # coefficient of order 49 leaves double range, so building the first
    # ground station curve, whose desired link it is, ends the sweep with
    # that reason, named at the curve's first power point
    fading = "\n[fading]\nk_1g = 1e5\nm_1g = 0.05\n"
    sweep = "\n[sweep]\npt_start_db = 0\npt_stop_db = 10\n"
    path = write(tmp_path, MINIMAL + fading + sweep)
    out = tmp_path / "sweep.csv"
    plot = tmp_path / "sweep.dat"
    args = ["--config", path, "--out", str(out), "--plot-data", str(plot), "--ktr", "63"]
    assert main(["sweep"] + args) == 1
    assert capsys.readouterr().err == (
        "error: fd_noma gs at 0 dB: CDF coefficient of order 49: its 2F1 factor "
        "overflows double precision (K/m = 2e+06)\n"
    )
    assert not out.exists() and not plot.exists()


def test_closed_form_path_does_not_load_numpy():
    # numpy is imported where samples are drawn; a closed-form point, the
    # loader and a sweep without Monte Carlo never get there.  Neither path
    # loads concurrent.futures: Monte Carlo's threads come from threading
    script = f"""
import sys
from dataclasses import replace
import fdnoma
cfg, spec = fdnoma.load_config({REFERENCE!r})
fdnoma.evaluate_outage(cfg, fdnoma.Scheme.HD_OMA, fdnoma.Node.GS)
fdnoma.run_sweep(cfg, spec)
print("numpy" in sys.modules, "concurrent.futures" in sys.modules)
fdnoma.run_sweep(cfg, replace(spec, with_mc=True, mc=fdnoma.McSettings(num_samples=1000)))
print("numpy" in sys.modules, "concurrent.futures" in sys.modules)
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "True", "False"]


def test_cli_point_invalid_scheme():
    with pytest.raises(SystemExit):
        main(["point", "--config", REFERENCE, "--scheme", "xx", "--node", "gs", "--pt", "0"])


def test_cli_reference_sweep_matches_golden_csv(tmp_path):
    out = tmp_path / "reference.csv"
    assert main(["sweep", "--config", REFERENCE, "--out", str(out)]) == 0
    with open(REFERENCE_CSV, "rb") as handle:
        assert out.read_bytes() == handle.read()


def test_cli_reference_mc_sweep_matches_golden_csv(tmp_path):
    # `fdnoma sweep --config configs/reference.ini --mc --samples 65536 --seed 7`;
    # pins the Monte Carlo draw order
    out = tmp_path / "reference_mc.csv"
    args = ["--config", REFERENCE, "--out", str(out), "--mc", "--samples", "65536", "--seed", "7"]
    assert main(["sweep"] + args) == 0
    with open(REFERENCE_MC_CSV, "rb") as handle:
        assert out.read_bytes() == handle.read()


def test_cli_reference_two_batch_mc_sweep_matches_golden_csv(tmp_path):
    # `fdnoma sweep --config configs/reference.ini --mc --samples 300000 --seed 7`:
    # a full batch and a short one, so it pins the stream across batches
    out = tmp_path / "reference_mc_2batch.csv"
    args = ["--config", REFERENCE, "--out", str(out), "--mc", "--samples", "300000", "--seed", "7"]
    assert main(["sweep"] + args) == 0
    with open(REFERENCE_MC_2BATCH_CSV, "rb") as handle:
        assert out.read_bytes() == handle.read()


def test_cli_dense_sweep_at_ktr_40_matches_golden_csv(tmp_path):
    # the reference scenario at a 1 dB step (what bench/cf_sweep.ini holds),
    # `fdnoma sweep --ktr 40`: all 549 rows of the benchmark's closed-form sweep
    path = reference_with(tmp_path, "sweep", "pt_step_db", "1.0")
    out = tmp_path / "reference_cf_1db_k40.csv"
    assert main(["sweep", "--config", path, "--out", str(out), "--ktr", "40"]) == 0
    with open(REFERENCE_CF_1DB_K40_CSV, "rb") as handle:
        assert out.read_bytes() == handle.read()


def test_golden_mc_agrees_with_closed_form():
    # both oracles in one file: every Monte Carlo estimate within 5 SE of the
    # closed form, the SE floored at one sample in 65536
    with open(REFERENCE_MC_CSV, encoding="utf-8") as handle:
        header, *lines = handle.read().splitlines()
    assert header == CSV_HEADER and len(lines) == 117
    misses = []
    for line in lines:
        scheme, node, pt, cf, _, mc, se = line.split(",")
        if abs(float(mc) - float(cf)) > 5 * max(float(se), 1 / 65536):
            misses.append(line)
    assert not misses, misses


@pytest.mark.parametrize("pt", ["nan", "inf", "-inf"])
def test_cli_point_rejects_non_finite_power(capsys, pt):
    args = ["point", "--config", REFERENCE, "--scheme", "fd_noma", "--node", "gs"]
    assert main(args + [f"--pt={pt}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "p_t must be finite" in captured.err


def test_cli_arithmetic_error_exit_code(monkeypatch, capsys):
    def diverge(cfg, scheme, node):
        raise ArithmeticError("series did not converge")

    monkeypatch.setattr(fdnoma.cli, "evaluate_outage", diverge)
    args = ["point", "--config", REFERENCE, "--scheme", "fd_noma", "--node", "gs", "--pt", "60"]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: series did not converge\n"


def test_cli_point_at_highest_order(capsys):
    args = ["point", "--config", REFERENCE, "--scheme", "fd_noma", "--node", "gs"]
    assert main(args + ["--pt", "60", "--ktr", "60"]) == 0
    assert capsys.readouterr().out.startswith("fd_noma,gs,60,0.00557")


def test_cli_sweep_rejects_unsupported_ktr(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["sweep", "--config", REFERENCE, "--out", str(out), "--ktr", "70"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "k_tr" in err
    assert not out.exists()


@pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["plain", "strict"])
def test_cli_sweep_stops_at_the_first_failing_row(monkeypatch, tmp_path, capsys, strict):
    evaluate = OutageCurve.at

    def fail_at_10_db(curve, pt_db):
        if pt_db == 10.0:
            raise OverflowError("math range error")
        return evaluate(curve, pt_db)

    monkeypatch.setattr(OutageCurve, "at", fail_at_10_db)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", REFERENCE, "--out", str(out)] + strict) == 1
    assert capsys.readouterr().err == "error: fd_noma gs at 10 dB: math range error\n"
    assert not out.exists()


def test_cli_mc_sweep_at_overflowing_power(tmp_path, capsys):
    # 10^310 overflows a float: load rejects the grid's last point before
    # either oracle runs
    sweep = "\n[sweep]\npt_start_db = 3000\npt_stop_db = 3100\npt_step_db = 50\n"
    path = write(tmp_path, MINIMAL + sweep + "schemes = fd_noma\nnodes = gs\n")
    out = tmp_path / "extreme.csv"
    assert main(["sweep", "--config", path, "--out", str(out), "--mc", "--samples", "2000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "pt_stop_db must be finite as a linear power: power level 3100 dB" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "system,scheme,pt",
    [
        ("", "hd_oma", "3100"),  # 10^(pt/10) overflows
    ],
)
def test_cli_point_at_overflowing_power(tmp_path, capsys, system, scheme, pt):
    path = write(tmp_path, MINIMAL + "\n[system]\n" + system)
    args = ["point", "--config", path, "--scheme", scheme, "--node", "gs", "--pt", pt]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"p_t must be finite as a linear power: power level {pt} dB" in captured.err


@pytest.mark.parametrize("level", ["3100", "-4000"])
def test_level_outside_float_range_is_rejected_everywhere(tmp_path, capsys, level):
    # 10^(level/10) overflows, or underflows to 0: every entry point
    # refuses the level through db_to_linear's one range rule
    with pytest.raises(ValueError, match=f"power level {level} dB"):
        db_to_linear(float(level))
    for extra, named in [
        (f"\n[system]\npt_db = {level}\n", "p_t"),
        (f"\n[sweep]\npt_start_db = {level}\npt_stop_db = {level}\n", "pt_start_db"),
        (f"\n[sweep]\npt_stop_db = {level}\n", "pt_stop_db"),
        (f"\n[system]\nphase_noise_dbm = {level}\n", "phase_noise_power"),
    ]:
        assert_rejected(tmp_path, capsys, write(tmp_path, MINIMAL + extra), named)
    path = write(tmp_path, MINIMAL)
    args = ["point", "--config", path, "--scheme", "hd_oma", "--node", "gs", "--pt", level]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    cfg, _ = load_config(path)
    pt = float(level)
    settings = McSettings(num_samples=1000, seed=1)
    for pair in [(scheme, node) for scheme in Scheme for node in Node]:
        with pytest.raises(ValueError, match=f"power level {level} dB"):
            OutageCurve(cfg, *pair).at(pt)
        with pytest.raises(ValueError, match=f"power level {level} dB"):
            mc_outage_curves(cfg, [pair], [0.0, pt], settings)
        # a config cannot carry the level, so neither point evaluator is reached
        with pytest.raises(ValueError, match="p_t must be finite"):
            evaluate_outage(replace(cfg, p_t=pt), *pair)
        with pytest.raises(ValueError, match="p_t must be finite"):
            mc_outage(replace(cfg, p_t=pt), *pair, settings)


def test_cli_point_where_a_link_mean_leaves_float_range(tmp_path, capsys):
    # d_1g = 0.5 km gives the uplink a unit-power mean of 4, so at 3081 dB
    # its mean power overflows while 10^(pt/10) does not; the series takes
    # only logs and reads the noise-free floor that it reads at 3000 dB
    path = write(tmp_path, MINIMAL + "d_1g = 0.5\n")
    rows = []
    for pt in ("3000", "3081"):
        args = ["point", "--config", path, "--scheme", "fd_noma", "--node", "gs", "--pt", pt]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows.append(captured.out.split(","))
    assert rows[1][2] == "3081"
    assert rows[1][3:] == rows[0][3:]
    assert 0.0 < float(rows[1][3]) < 1.0


def test_cli_mc_sweep_stops_where_the_series_overflows(tmp_path, capsys):
    # at -300 dB every pair's leading series terms leave double range: the
    # first pair's row ends the sweep with that reason instead of a partial sum
    sweep = "\n[sweep]\npt_start_db = -300\npt_stop_db = -300\npt_step_db = 1\n"
    path = write(tmp_path, MINIMAL + sweep)
    out = tmp_path / "low.csv"
    assert main(["sweep", "--config", path, "--out", str(out), "--mc", "--samples", "2000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fd_noma gs at -300 dB: series term of order ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_mc_sweep_fails_before_any_sampling(tmp_path, capsys, monkeypatch):
    # the closed form of every pair runs first, so a failing row ends a
    # --mc sweep without drawing a sample
    calls = []

    def recorded(*args):
        calls.append(args)
        return {}

    monkeypatch.setattr(fdnoma.scenario, "mc_outage_curves", recorded)
    sweep = (
        "\n[sweep]\npt_start_db = -300\npt_stop_db = -300\npt_step_db = 1\n"
        "schemes = fd_noma\nnodes = gs\n"
    )
    path = write(tmp_path, MINIMAL + sweep)
    out = tmp_path / "low.csv"
    assert main(["sweep", "--config", path, "--out", str(out), "--mc"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fd_noma gs at -300 dB: series term of order ")
    assert err.count("\n") == 1
    assert not out.exists()
    assert calls == []


def test_point_and_sweep_fail_alike(tmp_path, capsys):
    # one failing input through both entry points: the same reason, the
    # sweep's prefixed with the row it names
    point = ["point", "--config", REFERENCE, "--scheme", "fd_noma", "--node", "gs", "--pt", "-300"]
    assert main(point) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    reason = captured.err[len("error: "):]
    parser = read_reference()
    for key, value in [("pt_start_db", "-300"), ("pt_stop_db", "-300"),
                       ("schemes", "fd_noma"), ("nodes", "gs")]:
        parser.set("sweep", key, value)
    path = str(tmp_path / "low.ini")
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)
    out = tmp_path / "low.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: fd_noma gs at -300 dB: {reason}"
    assert not out.exists()
    cfg, spec = load_config(path)
    with pytest.raises(OverflowError, match=r"^fd_noma gs at -300 dB: series term of order"):
        run_sweep(cfg, spec)
