"""Config parsing, sweep running, CSV/plot emission and the CLI."""

import math
import os
from dataclasses import replace

import pytest

import fdnoma.cli
from fdnoma.cli import main
from fdnoma.montecarlo import McSettings, mc_outage, mc_outage_curve
from fdnoma.outage import Node, OutageCurve, Scheme, evaluate_outage
from fdnoma.specfun import SeriesConvergenceError
from fdnoma.scenario import (
    CSV_HEADER,
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

MINIMAL = """
[geometry]
d_12 = 2.0
d_13 = 3.0
"""


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
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


def test_bad_number_and_bool(tmp_path):
    with pytest.raises(ConfigError, match="pt_db"):
        load_config(write(tmp_path, MINIMAL + "\n[system]\npt_db = fast\n"))
    with pytest.raises(ConfigError, match="with_mc"):
        load_config(write(tmp_path, MINIMAL + "\n[sweep]\nwith_mc = maybe\n", "b.ini"))


@pytest.mark.parametrize(
    "section,key,value,named",
    [
        ("system", "pt_db", "nan", "p_t"),
        ("system", "pt_db", "inf", "p_t"),
        ("system", "epsilon", "inf", "epsilon"),
        ("sweep", "pt_start_db", "-inf", "pt_start_db"),
        ("sweep", "pt_stop_db", "inf", "pt_stop_db"),
        ("sweep", "pt_stop_db", "nan", "pt_stop_db"),
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
    with pytest.raises(ConfigError, match=named):
        load_config(path)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert not out.exists()


def test_retired_antithetic_key(tmp_path, capsys):
    # older configs set `antithetic = false`; they load unchanged
    config = MINIMAL + "\n[sweep]\nantithetic = {}\n"
    assert load_config(write(tmp_path, config.format("false"))) == load_config(
        write(tmp_path, MINIMAL, "minimal.ini")
    )
    path = write(tmp_path, config.format("true"), "true.ini")
    with pytest.raises(ConfigError, match="sweep.antithetic"):
        load_config(path)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "sweep.antithetic" in err
    assert not out.exists()


def test_bench_config_loads():
    _, spec = load_config(BENCH_CONFIG)
    assert len(spec.power_grid()) == 61


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
    table = run_sweep(cfg, single_point_spec())
    assert len(table.rows) == 9
    keys = [(r.scheme.value, r.node.value, r.pt_db) for r in table.rows]
    assert keys == sorted(keys)
    assert all(r.outage_mc is None and r.mc_se is None for r in table.rows)


def test_sweep_mc_columns_present_iff_requested():
    cfg, _ = load_config(REFERENCE)
    table = run_sweep(cfg, single_point_spec(with_mc=True))
    assert all(r.outage_mc is not None and r.mc_se is not None for r in table.rows)


def test_sweep_deterministic():
    cfg, _ = load_config(REFERENCE)
    spec = single_point_spec(with_mc=True)
    t1 = run_sweep(cfg, spec)
    t2 = run_sweep(cfg, spec)
    assert t1 == t2


def test_point_evaluation_equals_sweep_row_bit_for_bit():
    cfg, spec = load_config(REFERENCE)
    table = run_sweep(cfg, spec)
    assert len(table.rows) == 117
    for row in table.rows:
        point = evaluate_outage(replace(cfg, p_t=row.pt_db), row.scheme, row.node)
        assert point.probability == row.outage_cf, row
        assert point.converged == row.converged, row


def test_mc_point_equals_sweep_row_bit_for_bit():
    # the rows of `fdnoma sweep --config configs/reference.ini --mc
    # --samples 65536 --seed 7`
    cfg, spec = load_config(REFERENCE)
    mc = McSettings(65536, 7)
    table = run_sweep(cfg, replace(spec, with_mc=True, mc=mc))
    assert len(table.rows) == 117
    for row in table.rows:
        point = mc_outage(replace(cfg, p_t=row.pt_db), row.scheme, row.node, mc)
        assert (point.probability, point.std_error) == (row.outage_mc, row.mc_se), row


def test_sweep_mc_columns_equal_standalone_curves():
    # pairs sharing a desired link's draws get the values they get alone
    cfg, spec = load_config(REFERENCE)
    mc = McSettings(300_000, 5)  # two batches
    table = run_sweep(cfg, replace(spec, with_mc=True, mc=mc))
    grid = spec.power_grid()
    for scheme in Scheme:
        for node in Node:
            rows = [r for r in table.rows if (r.scheme, r.node) == (scheme, node)]
            curve = mc_outage_curve(cfg, scheme, node, grid, mc)
            assert [(r.outage_mc, r.mc_se) for r in rows] == [
                (est.probability, est.std_error) for est in curve
            ], (scheme, node)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(10.0, 0.0, 5.0, tuple(Scheme), tuple(Node), False, McSettings(seed=1))
    with pytest.raises(ValueError):
        SweepSpec(0.0, 10.0, 0.0, tuple(Scheme), tuple(Node), False, McSettings(seed=1))
    with pytest.raises(ValueError):
        SweepSpec(0.0, 10.0, 5.0, (), tuple(Node), False, McSettings(seed=1))
    with pytest.raises(ValueError, match="pt_stop_db"):
        SweepSpec(0.0, math.inf, 5.0, tuple(Scheme), tuple(Node), False, McSettings(seed=1))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_csv_empty_table(tmp_path):
    from fdnoma.scenario import SweepTable

    out = tmp_path / "empty.csv"
    emit_csv(SweepTable(()), str(out))
    assert out.read_text(encoding="utf-8") == CSV_HEADER + "\n"


def test_emit_csv_round_trip(tmp_path):
    cfg, _ = load_config(REFERENCE)
    table = run_sweep(cfg, single_point_spec(with_mc=True))
    out = tmp_path / "table.csv"
    emit_csv(table, str(out))
    text = out.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    assert "\r" not in text
    for row, line in zip(table.rows, lines[1:]):
        scheme, node, pt, cf, conv, mc, se = line.split(",")
        assert scheme == row.scheme.value and node == row.node.value
        assert math.isclose(float(pt), row.pt_db, rel_tol=1e-9)
        assert math.isclose(float(cf), row.outage_cf, rel_tol=1e-9, abs_tol=1e-300)
        assert conv == ("true" if row.converged else "false")
        assert math.isclose(float(mc), row.outage_mc, rel_tol=1e-9, abs_tol=1e-300)
        assert math.isclose(float(se), row.mc_se, rel_tol=1e-9, abs_tol=1e-300)


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
    table = run_sweep(cfg, spec)
    out = tmp_path / "plot.dat"
    emit_plot_data(table, str(out))
    text = out.read_text(encoding="utf-8")
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 3
    assert blocks[0].startswith("# fd_noma gs")
    assert len(blocks[0].strip().split("\n")) == 4  # header + 3 power points
    # byte-identical on re-emission
    out2 = tmp_path / "plot2.dat"
    emit_plot_data(table, str(out2))
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
    assert "converge" in capsys.readouterr().err


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
        raise SeriesConvergenceError("series did not converge", 0.5, 10)

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


def test_cli_sweep_reports_failed_rows(monkeypatch, tmp_path, capsys):
    evaluate = OutageCurve.at

    def fail_at_10_db(curve, pt_db):
        if pt_db == 10.0:
            raise OverflowError("math range error")
        return evaluate(curve, pt_db)

    monkeypatch.setattr(OutageCurve, "at", fail_at_10_db)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", REFERENCE, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err == (
        "warning: 9 row(s) failed to evaluate "
        "(first: fd_noma gs at 10 dB: OverflowError: math range error)\n"
    )
    # the failed rows read NaN, not converged; every other byte is unchanged
    with open(REFERENCE_CSV, encoding="utf-8") as handle:
        want = [line.split(",") for line in handle.read().splitlines()]
    for fields in want:
        if fields[2] == "10":
            fields[3:5] = ["nan", "false"]
    assert out.read_text(encoding="utf-8") == "".join(",".join(f) + "\n" for f in want)
    assert main(["sweep", "--config", REFERENCE, "--out", str(out), "--strict"]) == 2
    assert "warning: 9 row(s)" in capsys.readouterr().err


def test_cli_mc_sweep_at_overflowing_power(tmp_path, capsys):
    # 10^310 overflows a float: the closed form fails that row, Monte Carlo
    # reads the noise-free limit, and the sweep still writes every row
    sweep = "\n[sweep]\npt_start_db = 3000\npt_stop_db = 3100\npt_step_db = 50\n"
    path = write(tmp_path, MINIMAL + sweep + "schemes = fd_noma\nnodes = gs\n")
    out = tmp_path / "extreme.csv"
    assert main(["sweep", "--config", path, "--out", str(out), "--mc", "--samples", "2000"]) == 0
    assert "1 row(s) failed" in capsys.readouterr().err
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [line.split(",")[2] for line in lines] == ["3000", "3050", "3100"]
    for line in lines:
        mc, se = (float(v) for v in line.split(",")[5:])
        assert math.isfinite(mc) and math.isfinite(se) and 0.0 <= mc <= 1.0


def test_mc_sweep_at_underflowing_power_is_certain_outage():
    cfg, _ = load_config(REFERENCE)
    spec = replace(
        single_point_spec(with_mc=True), pt_start_db=-4000.0, pt_stop_db=-4000.0
    )
    table = run_sweep(cfg, spec)
    assert [(r.outage_mc, r.mc_se) for r in table.rows] == [(1.0, 0.0)] * 9
