"""Benchmark of fdnoma, end to end and per layer.

    python3 bench/run.py --workload cf_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
src/ (nothing is installed).  Workloads (see bench/METRICS.md for why
each one exists and which per-layer metric should move which end-to-end
metric):

  cf_sweep   `fdnoma sweep --ktr 40 --plot-data` on the reference scenario
             with a 1 dB power step (bench/cf_sweep.ini, 549 rows), no MC.
  mc_sweep   `fdnoma sweep --mc` on configs/reference.ini (117 rows) with
             2^19 samples per row and a seed derived from --seed.
  cf_points  a closed loop, one caller, one fdnoma.evaluate_outage call at
             a time over a fixed seeded set of (pair, pt_db, k_tr) points,
             repeated in passes.

Every job runs in a fresh child interpreter with one compute thread.
With --trace 0 the run reports the end-to-end metrics, timed at nominal
machine speed (bench/calibrate.py) over --seconds of such time; with
--trace 1 it runs the workload's fixed work once untraced and once with
spans around the calls into each module (bench/tracing.py) and reports
the per-layer metrics.

Every output is checked against the frozen reference table
bench/reference.json (bench/make_reference.py).  Per-operation failures
are tallied by reason and reported as `failed`.  An operation is a
distinct sweep row or point: the repeats a run times must reproduce the
first one exactly, so `attempted` and `failed` depend on the seed only,
not on how many repeats fit in --seconds.  A wrong CSV header, row count
or order, a repeat that differs from the first, or a job that crashes
ends the run with exit code 1 and no result.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from collections import Counter

from common import BENCH, PAIRS, declared_metrics, read_ini
from tracing import COUNT_METRICS, PER_LAYER

REFERENCE_INI = os.path.join("configs", "reference.ini")
CF_SWEEP_INI = os.path.join("bench", "cf_sweep.ini")
REFERENCE_TABLE = os.path.join(BENCH, "reference.json")
WORK = ".bench_work"

WORKLOADS = ("cf_sweep", "mc_sweep", "cf_points")
CSV_HEADER = "scheme,node,pt_db,outage_cf,converged,outage_mc,mc_se"
# The calibrate.py reference each workload's timings are scaled by: the one
# whose slow/fast duration ratio matches the workload's (bench/METRICS.md).
PROBE = {"cf_sweep": "py", "mc_sweep": "np", "cf_points": "py"}

CF_SWEEP_KTR = 40
MC_SAMPLES = 1 << 19  # two 2^18-sample batches per row
SETUP_REPEATS = 11
EPOCH = 9 * 36  # every (pair, k_tr) once in the point stream (child.point_stream)
POINTS = 4 * EPOCH  # distinct points of an untraced cf_points run
TRACED_POINTS = EPOCH
JOB_TIMEOUT_S = 150

# Correctness gate.  A closed-form value misses the reference when
# |cf - ref| > CF_ATOL + CF_RTOL * ref.  The truncated series of the
# first benchmarked commit stays inside this at every k_tr in 25..60 on
# all 549 points (worst: hd_noma/uav3 at 0 dB and k_tr 25, relative error
# 2.5e-3); CF_ATOL only absorbs the 10-digit rounding of the CSV.  An MC
# value misses when it is more than MC_Z standard errors from the
# reference, the error being the largest of the reported one, the
# reference's own sqrt(p (1 - p) / N) and 1/N.
CF_ATOL = 1e-9
CF_RTOL = 5e-3
MC_Z = 5.0
# Failure reasons that mean a wrong answer presented as valid; the others
# (raised, NaN, not converged) are failures the program itself signals.
WRONG = ("out_of_range", "ref_miss", "mc_miss")

END_TO_END = declared_metrics("end_to_end")
# Reported with the end-to-end metrics but not part of them: the largest
# error of a random point stream depends on which rare points it drew, so
# it is not steady across seeds (see bench/METRICS.md).
ACCURACY = {"cf_max_abs_err": "prob", "cf_max_rel_err": "ratio"}


class Fatal(Exception):
    """The run cannot produce a trustworthy result."""


# ---------------------------------------------------------------- helpers


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise Fatal("no samples to take a percentile of")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_child(job: dict) -> dict:
    """Run bench/child.py on one job in a fresh interpreter; return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), json.dumps(job)],
            capture_output=True, text=True, env=env, timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise Fatal(f"{job['mode']} job timed out after {JOB_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise Fatal(f"{job['mode']} job exited with {proc.returncode}:\n{tail}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise Fatal(f"{job['mode']} job printed no result") from exc


def load_reference() -> dict[tuple[str, str, int], float]:
    """The reference table, after checking both scenario files still match it."""
    with open(REFERENCE_TABLE, encoding="utf-8") as handle:
        table = json.load(handle)
    frozen = table["scenario"]
    for path, allowed in ((REFERENCE_INI, set()), (CF_SWEEP_INI, {("sweep", "pt_step_db")})):
        current = read_ini(path)
        diff = {(s, k) for s in set(frozen) | set(current)
                for k in set(frozen.get(s, {})) | set(current.get(s, {}))
                if frozen.get(s, {}).get(k) != current.get(s, {}).get(k)}
        if diff - allowed:
            raise Fatal(f"{path} no longer matches the scenario of the reference table "
                        f"({sorted(diff - allowed)}); regenerate bench/reference.json")
    return {(r["scheme"], r["node"], int(r["pt_db"])): float(r["outage"]) for r in table["rows"]}


def environment() -> str:
    sha = "unknown"
    head = os.path.join(".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        sha = ref
        if ref.startswith("ref: ") and os.path.exists(os.path.join(".git", ref[5:])):
            with open(os.path.join(".git", ref[5:]), encoding="utf-8") as handle:
                sha = handle.read().strip()
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return (f"python {platform.python_version()}, numpy {numpy_version}, "
            f"nproc {len(os.sched_getaffinity(0))}, git {sha[:12]}")


# ------------------------------------------------------------ correctness


class Gate:
    """Checks outputs against the reference and tallies failures by reason."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.max_abs = 0.0
        self.max_rel = 0.0

    def check_cf(self, key, value: float | None, converged: bool | None,
                 error: str | None = None) -> list[str]:
        """Reasons why one closed-form result fails; records its error."""
        if error is not None:
            return [f"raised:{error}"]
        if value is None or not math.isfinite(value):
            return ["nan"]
        ref = self.reference[key]
        err = abs(value - ref)
        self.max_abs = max(self.max_abs, err)
        self.max_rel = max(self.max_rel, err / ref)
        if not converged:
            return ["not_converged"]
        if not 0.0 <= value <= 1.0:
            return ["out_of_range"]
        if err > CF_ATOL + CF_RTOL * ref:
            return ["ref_miss"]
        return []

    def check_mc(self, key, value: float | None, se: float | None, samples: int) -> list[str]:
        if value is None or se is None or not math.isfinite(value):
            return ["mc_nan"]
        ref = self.reference[key]
        scale = max(se, math.sqrt(ref * (1.0 - ref) / samples), 1.0 / samples)
        return ["mc_miss"] if abs(value - ref) > MC_Z * scale else []

    def tally(self, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)

    @property
    def correct(self) -> bool:
        return not any(self.reasons[r] for r in WRONG)


def expected_keys(pt_step: int) -> list[tuple[str, str, int]]:
    return [(s, n, pt) for s, n in PAIRS for pt in range(0, 61, pt_step)]


def check_sweep(gate: Gate, csv_path: str, keys: list, mc_samples: int | None) -> str:
    """Check one sweep CSV row by row; return its sha256.  Structure errors are fatal."""
    with open(csv_path, "rb") as handle:
        data = handle.read()
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        raise Fatal(f"{csv_path}: missing final newline")
    lines = lines[:-1]
    if lines[0] != CSV_HEADER:
        raise Fatal(f"{csv_path}: header {lines[0]!r}, expected {CSV_HEADER!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(keys):
        raise Fatal(f"{csv_path}: {len(rows)} rows, expected {len(keys)}")
    for row, key in zip(rows, keys):
        try:
            scheme, node, pt, cf, converged, mc, se = row
            fields = (float(pt), float(cf), float(mc) if mc else None, float(se) if se else None)
        except ValueError as exc:
            raise Fatal(f"{csv_path}: malformed row {row}") from exc
        if (scheme, node, fields[0]) != key:
            raise Fatal(f"{csv_path}: row {row[:3]} out of order, expected {key}")
        reasons = gate.check_cf(key, fields[1], converged == "true")
        if mc_samples is not None:
            reasons += gate.check_mc(key, fields[2], fields[3], mc_samples)
        elif mc or se:
            raise Fatal(f"{csv_path}: MC columns present without --mc")
        gate.tally(reasons)
    return hashlib.sha256(data).hexdigest()


def check_plot_data(dat_path: str, csv_path: str) -> None:
    """The plot data must carry the same closed-form values as the CSV."""
    with open(csv_path, encoding="utf-8") as handle:
        cf = [line.split(",")[3] for line in handle.read().splitlines()[1:]]
    with open(dat_path, encoding="utf-8") as handle:
        blocks = handle.read().rstrip("\n").split("\n\n")
    values = [line.split()[1] for block in blocks for line in block.splitlines()[1:]]
    if len(blocks) != len(PAIRS) or values != cf:
        raise Fatal(f"{dat_path}: plot data disagrees with {csv_path}")


# --------------------------------------------------------------- workloads


def sweep_job(workload: str, seed: int, out: str) -> dict:
    if workload == "cf_sweep":
        argv = ["sweep", "--config", CF_SWEEP_INI, "--out", out + ".csv",
                "--plot-data", out + ".dat", "--ktr", str(CF_SWEEP_KTR)]
    else:
        argv = ["sweep", "--config", REFERENCE_INI, "--out", out + ".csv", "--mc",
                "--samples", str(MC_SAMPLES), "--seed", str(1000 * seed + 1)]
    return {"mode": "cli", "argv": argv}


def run_sweep_once(workload: str, seed: int, gate: Gate | None, out: str,
                   trace: bool = False) -> dict:
    """One CLI run.  With a gate its rows are checked and tallied; without,
    only its sha256 is taken, for comparison with a checked run."""
    job = dict(sweep_job(workload, seed, out), probe=PROBE[workload])
    if trace:
        job.update(trace=True, spans=os.path.join(WORK, f"spans-{workload}.bin"))
    result = run_child(job)
    if result["rc"] != 0:
        raise Fatal(f"fdnoma {' '.join(job['argv'])} exited with {result['rc']}")
    keys = expected_keys(1 if workload == "cf_sweep" else 5)
    if gate is None:
        with open(out + ".csv", "rb") as handle:
            result["sha256"] = hashlib.sha256(handle.read()).hexdigest()
    else:
        samples = None if workload == "cf_sweep" else MC_SAMPLES
        result["sha256"] = check_sweep(gate, out + ".csv", keys, samples)
    if workload == "cf_sweep":
        check_plot_data(out + ".dat", out + ".csv")
    result["rows"] = len(keys)
    for ext in (".csv", ".dat"):
        if os.path.exists(out + ext):
            os.remove(out + ext)
    return result


def same_output(runs: list[dict]) -> None:
    shas = {r["sha256"] for r in runs}
    if len(shas) != 1:
        raise Fatal(f"two runs with the same seed wrote different CSVs: {sorted(shas)}")


def same_points(passes: list[list]) -> None:
    """Every pass over the same points must give the same outcomes."""
    outcomes = {json.dumps([r[:7] for r in p]) for p in passes}
    if len(outcomes) != 1:
        raise Fatal("two passes over the same points gave different results")


def check_points(gate: Gate, results: list) -> None:
    for scheme, node, pt, _k_tr, value, converged, error, *_timing in results:
        if value is not None and math.isfinite(value):
            value = float("%.10g" % value)  # as `fdnoma point` prints it
        gate.tally(gate.check_cf((scheme, node, pt), value, converged, error))


def setup_time() -> tuple[float, float]:
    """Median set-up time at nominal speed, and the raw median."""
    runs = [run_child({"mode": "setup", "config": REFERENCE_INI, "probe": "py"})
            for _ in range(SETUP_REPEATS)]
    return (percentile([r["setup_s"] for r in runs], 50),
            percentile([r["raw_setup_s"] for r in runs], 50))


def point_latencies(results: list) -> list[float]:
    """Per-call latency in ms.  A failed call counts as the slowest
    successful one, so failing fast cannot improve the tail."""
    slowest = max((r[7] for r in results if r[6] is None), default=0.0)
    return [1e3 * (r[7] if r[6] is None else max(r[7], slowest)) for r in results]


def untraced(workload: str, seed: int, seconds: float, gate: Gate) -> tuple[dict, list[str]]:
    """End-to-end metrics.  Timings are at nominal machine speed
    (calibrate.py), and so is the `seconds` of work a run measures; the
    raw figures are printed alongside."""
    metrics = {}
    metrics["setup_s"], raw_setup = setup_time()
    notes = [f"raw setup_s {raw_setup:.4f} s"]
    if workload == "cf_points":
        result = run_child({"mode": "points", "config": REFERENCE_INI, "seed": seed,
                            "count": POINTS, "seconds": seconds, "probe": PROBE[workload]})
        calls = result["results"]
        passes = [calls[i:i + POINTS] for i in range(0, len(calls), POINTS)]
        same_points(passes)
        check_points(gate, passes[0])
        latencies = point_latencies(calls)
        metrics["rows_per_s"] = len(latencies) / result["wall_s"]
        metrics["point_ms_p50"] = percentile(latencies, 50)
        metrics["point_ms_p90"] = percentile(latencies, 90)
        metrics["peak_rss_mb"] = result["rss_mb"]
        notes.append(f"{len(passes)} passes over {POINTS} points, "
                     f"{len(latencies)} calls in {result['raw_wall_s']:.2f} s raw, "
                     f"{result['wall_s']:.2f} s at nominal speed")
    else:
        runs = []
        while len(runs) < 2 or sum(r["wall_s"] for r in runs) < seconds:
            runs.append(run_sweep_once(workload, seed, None if runs else gate,
                                       os.path.join(WORK, workload)))
        same_output(runs)
        rows = runs[0]["rows"]
        per_row_ms = [r["wall_s"] * 1e3 / rows for r in runs]
        metrics["rows_per_s"] = percentile([rows / r["wall_s"] for r in runs], 50)
        metrics["point_ms_p50"] = percentile(per_row_ms, 50)
        metrics["point_ms_p90"] = percentile(per_row_ms, 90)
        metrics["peak_rss_mb"] = percentile([r["rss_mb"] for r in runs], 50)
        notes.append(f"{len(runs)} CLI runs of {rows} rows, wall "
                     f"{', '.join('%.2f' % r['raw_wall_s'] for r in runs)} s raw, "
                     f"{', '.join('%.2f' % r['wall_s'] for r in runs)} s at nominal speed")
        notes.append(f"csv sha256 {runs[0]['sha256']} (all {len(runs)} runs)")
    return metrics, notes


def traced(workload: str, seed: int, gate: Gate) -> tuple[dict, list[str]]:
    """One untraced and one traced run of the same fixed work, both under the
    workload's speed probe, so that their ratio does not follow the machine's
    speed.  The untraced run's raw and nominal-speed times are reported too."""
    spans = os.path.join(WORK, f"spans-{workload}.bin")
    if workload == "cf_points":
        job = {"mode": "points", "config": REFERENCE_INI, "seed": seed, "count": TRACED_POINTS,
               "probe": PROBE[workload]}
        plain = run_child(job)
        spanned = run_child(dict(job, trace=True, spans=spans))
        same_points([plain["results"], spanned["results"]])
        check_points(gate, plain["results"])
    else:
        out = os.path.join(WORK, workload)
        plain = run_sweep_once(workload, seed, gate, out)
        spanned = run_sweep_once(workload, seed, None, out, trace=True)
        same_output([plain, spanned])
    metrics = dict(spanned["layers"])
    metrics["trace.overhead_ratio"] = spanned["wall_s"] / plain["wall_s"]
    metrics["calibrate.raw_s"] = plain["raw_wall_s"]
    metrics["calibrate.nominal_s"] = plain["wall_s"]
    absent = sorted(set(PER_LAYER) - set(metrics))
    if absent:
        raise Fatal(f"BENCHMARK.json names per-layer metrics nothing measures: {absent}")
    notes = [f"spans written to {spans}"]
    if spanned["missing"]:
        notes.append("missing (reported as 0): " + ", ".join(spanned["missing"]))
    return metrics, notes


# -------------------------------------------------------------------- main


def report(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Run one workload and print its metrics, the last line as JSON."""
    try:
        gate = Gate(load_reference())
        os.makedirs(WORK, exist_ok=True)
        if trace:
            metrics, notes = traced(workload, seed, gate)
            units = PER_LAYER
        else:
            metrics, notes = untraced(workload, seed, seconds, gate)
            units = END_TO_END
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {workload}  seed {seed}  trace {trace}  ({environment()})")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:.6g} {unit}")
    for name, value in (("cf_max_abs_err", gate.max_abs), ("cf_max_rel_err", gate.max_rel)):
        print(f"  {name:48s} {value:.6g} {ACCURACY[name]}  (accuracy, not bounded)")
    ratio = gate.failed / gate.attempted
    reasons = ", ".join(f"{k}={v}" for k, v in sorted(gate.reasons.items())) or "none"
    print(f"  {'failed_ratio':48s} {ratio:.6g} ({gate.failed}/{gate.attempted}; {reasons})")
    if trace:
        print(f"  count metrics: {json.dumps({k: metrics[k] for k in COUNT_METRICS})}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fdnoma benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join("src", "fdnoma", "__init__.py"), REFERENCE_INI):
        if not os.path.exists(needed):
            print(f"error: {needed} not found; run from the root of an fdnoma checkout",
                  file=sys.stderr)
            return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        code = report(workload, args.seed, args.seconds, args.trace)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
