"""The contract of `fdnoma sweep` on random config files: every config
either sweeps to one probability per pair and power, or is rejected with
one error line that names a config key or the failing pair and power."""

import contextlib
import io
import math
import os
import re
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from fdnoma.cli import main
from fdnoma.scenario import _KEYS

SCHEMES = ("fd_noma", "hd_noma", "hd_oma")
NODES = ("gs", "uav2", "uav3")
# Texts no numeric or boolean key accepts, or values outside every range.
JUNK = ("nan", "inf", "-inf", "", "abc", "1e400", "-1", "0")
# The message of a row the closed form could not evaluate.
FAILED_ROW = re.compile(rf"({'|'.join(SCHEMES)}) ({'|'.join(NODES)}) at \S+ dB: ")


def text(values):
    return values.map(repr)


def log_uniform(low, high):
    return st.floats(low, high).map(lambda x: 10.0**x)


def names(choices):
    """A comma list of some of `choices`, in any order, case and spacing,
    repeats included."""
    token = st.sampled_from(choices).map(str) | st.sampled_from(choices).map(str.upper)
    return st.lists(token, min_size=1, max_size=4).map(" , ".join)


# Valid texts of every key over wide ranges; the sweep keys come from `grid`.
VALID = {
    "geometry": {
        **{key: text(log_uniform(-3.0, 3.0)) for key in ("d_1g", "d_g2", "d_g3", "d_12", "d_13")},
        "pathloss_exp": text(st.floats(1.0, 5.0)),
    },
    "fading": {
        **{f"k_{tag}": text(st.just(0.0) | log_uniform(-3.0, 4.0))
           for tag in ("1g", "si", "g2", "g3", "12", "13")},
        **{f"m_{tag}": text(log_uniform(-1.3, 2.7)) for tag in ("1g", "si", "g2", "g3", "12", "13")},
    },
    "system": {
        "pt_db": text(st.floats(-100.0, 200.0)),
        "r_oma": text(st.just(0.0) | log_uniform(-3.0, 0.7)),
        "a_gs2": text(st.floats(0.01, 0.99)),
        "beta": text(st.floats(0.0, 1.0)),
        "phase_noise_dbm": text(st.floats(-200.0, 0.0)),
        "noise_dbm": text(st.floats(-200.0, 0.0)),
        "epsilon": text(st.floats(0.0, 2.0)),
        "k_tr": text(st.integers(0, 63)),
    },
    "sweep": {
        "schemes": names(SCHEMES),
        "nodes": names(NODES),
        "mc_seed": text(st.integers(-(2**70), 2**70)),
    },
}
# Out-of-range texts of each key, beyond JUNK.
INVALID = {
    "pathloss_exp": ["0.5", "1000"],
    "a_gs2": ["1", "1.5"],
    "beta": ["1.01", "-0.2"],
    "epsilon": ["-0.1"],
    "k_tr": ["64", "200", "2.5"],
    "r_oma": ["3000"],
    "pt_db": ["5000"],
    "phase_noise_dbm": ["4000"],
    "mc_samples": ["999", "x"],
    "with_mc": ["maybe", "2"],
    "schemes": [",", "bogus", "fd_noma,x"],
    "nodes": [",", "bogus", "gs,x"],
    "pt_step_db": ["1e-7"],
    # a start above the stop, or the reverse: no grid to sweep
    "pt_start_db": ["1e300"],
    "pt_stop_db": ["-1e300"],
}
# Keys whose in-range junk ("-1", "0") could make a long grid.
GRID_KEYS = ("pt_start_db", "pt_stop_db", "pt_step_db")
KEY_NAMES = {key for keys in _KEYS.values() for key in keys}


@st.composite
def grid(draw):
    """Sweep keys for a grid of at most 15 points, negative dB included,
    with Monte Carlo only at small sample counts."""
    count = draw(st.integers(1, 15))
    start = draw(st.floats(-100.0, 200.0))
    step = draw(st.floats(0.1, 20.0))
    with_mc = draw(st.booleans())
    samples = st.integers(1000, 2000) if with_mc else st.integers(1000, 10**12)
    return {
        "pt_start_db": repr(start),
        "pt_stop_db": repr(start + (count - 1) * step),
        "pt_step_db": repr(step),
        "with_mc": draw(st.sampled_from(["true", "yes", "1"] if with_mc else ["false", "no", "0"])),
        "mc_samples": repr(draw(samples)),
    }


@st.composite
def configs(draw):
    """(sections, broken): every key valid or left out, then at most one
    key broken, a key or section added, or a mandatory key dropped."""
    sections = {"sweep": draw(grid())}
    for section, keys in VALID.items():
        for key, values in keys.items():
            if draw(st.integers(0, 9)) > 0:  # one key in ten takes its default
                sections.setdefault(section, {})[key] = draw(values)
    geometry = sections.setdefault("geometry", {})
    for key in ("d_12", "d_13"):  # mandatory
        geometry.setdefault(key, "2.0" if key == "d_12" else "3.0")
    if float(geometry.get("d_g2", 2.0)) >= float(geometry.get("d_g3", 3.0)):
        geometry["d_g2"], geometry["d_g3"] = geometry.get("d_g3", "3.0"), geometry.get("d_g2", "2.0")
    change = draw(st.sampled_from(["none", "none", "value", "key", "section", "missing"]))
    broken = None
    if change == "value":
        section = draw(st.sampled_from(sorted(_KEYS)))
        broken = draw(st.sampled_from(sorted(_KEYS[section])))
        junk = tuple(j for j in JUNK if broken not in GRID_KEYS or j not in ("-1", "0"))
        sections.setdefault(section, {})[broken] = draw(
            st.sampled_from(junk + tuple(INVALID.get(broken, ())))
        )
    elif change == "key":
        section = draw(st.sampled_from(sorted(_KEYS)))
        broken = draw(st.sampled_from(["d_99", "k_tr_max", "antithetic"]))
        sections.setdefault(section, {})[broken] = draw(st.sampled_from(["false", "true", "1"]))
    elif change == "section":
        broken = draw(st.sampled_from(["extra", "DEFAULT"]))
        sections[broken] = {"x": "1"}
    elif change == "missing":
        broken = draw(st.sampled_from(["d_12", "d_13"]))
        del sections["geometry"][broken]
    return sections, broken


def sweep(config, out, plot, strict):
    argv = ["sweep", "--config", config, "--out", out, "--plot-data", plot]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--strict"] * strict)
    return code, err.getvalue()


def requested(raw, choices):
    tokens = [t.strip().lower() for t in raw.split(",")]
    return [c for c in choices if c in tokens]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=configs())
def test_sweep_writes_every_row_or_names_its_error(config):
    sections, broken = config
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.ini")
        with open(path, "w", encoding="utf-8") as handle:
            for section, keys in sections.items():
                handle.write(f"[{section}]\n")
                handle.writelines(f"{key} = {value}\n" for key, value in keys.items())
        codes = []
        for strict in (False, True):
            out, plot = os.path.join(tmp, f"{strict}.csv"), os.path.join(tmp, f"{strict}.dat")
            code, err = sweep(path, out, plot, strict)
            codes.append(code)
            event(f"exit {code}" + (" --strict" if strict else ""))
            assert code in ((0, 1, 2) if strict else (0, 1)), (code, err)
            if code == 1:
                assert not os.path.exists(out) and not os.path.exists(plot)
                assert err.startswith("error: ") and err.count("\n") == 1, err
                named = KEY_NAMES | ({broken, f"[{broken}]"} if broken else set())
                assert FAILED_ROW.search(err) or any(
                    re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", err) for name in named
                ), err
                continue
            with open(out, encoding="utf-8") as handle:
                header, *rows = handle.read().splitlines()
            assert header.startswith("scheme,node,pt_db,outage_cf,converged")
            cells = [row.split(",") for row in rows]
            pairs = len(requested(sections["sweep"].get("schemes", ",".join(SCHEMES)), SCHEMES)) * len(
                requested(sections["sweep"].get("nodes", ",".join(NODES)), NODES)
            )
            start, stop, step = (float(sections["sweep"][k]) for k in ("pt_start_db", "pt_stop_db", "pt_step_db"))
            points = round((stop - start) / step) + 1
            assert len(rows) == pairs * points, (len(rows), pairs, points)
            for scheme, node, pt_db, probability, converged, *mc in cells:
                values = [float(v) for v in (pt_db, probability, *mc) if v]
                assert all(math.isfinite(v) for v in values), (scheme, node, values)
                assert 0.0 <= float(probability) <= 1.0
                assert converged in ("true", "false")
            assert (code == 2) == (strict and any(c[4] == "false" for c in cells)), err
            assert (err == "") == (code == 0), err
        # --strict changes only the exit code of a sweep with rows not converged
        assert codes[1] == codes[0] or codes == [0, 2], codes
