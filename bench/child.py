"""One measured job of the benchmark, run in a fresh interpreter.

    python3 bench/child.py '<json job>'

The job's "mode" is one of
  setup  - time `import fdnoma` plus `load_config(config)`;
  cli    - call fdnoma.cli.main(argv) once, as the `fdnoma` command does;
  points - a closed loop of fdnoma.evaluate_outage calls over a fixed,
           seeded set of (scheme, node, pt_db, k_tr) points, repeated in
           passes.
With "trace" set, the fdnoma functions of tracing.LAYERS are wrapped
first and the spans are written to job["spans"] at the end.

The timed work runs under a calibrate.SpeedProbe of kind job["probe"]
("py" or "np"), and every time is reported at nominal machine speed
("..._s") next to the raw wall time ("raw_..._s"), both without the
probe's own time.

The last line of standard output is one JSON object with the results.
"""

import sys
import time

from calibrate import SpeedProbe


def setup(job: dict, speed: SpeedProbe) -> dict:
    with speed:
        t0 = time.perf_counter()
        import fdnoma

        fdnoma.load_config(job["config"])
        t1 = time.perf_counter()
    return {"setup_s": speed.scaled(t0, t1), "raw_setup_s": speed.raw(t0, t1)}


def cli(job: dict, speed: SpeedProbe) -> dict:
    import fdnoma.cli

    with speed:
        t0 = time.perf_counter()
        code = fdnoma.cli.main(job["argv"])
        t1 = time.perf_counter()
    return {"rc": code, "wall_s": speed.scaled(t0, t1), "raw_wall_s": speed.raw(t0, t1)}


GOLDEN = (5 ** 0.5 - 1) / 2


def point_stream(seed: int):
    """The seeded input stream of the cf_points workload.

    Each call's pair is uniform over the 9, its pt_db uniform over the 1 dB
    grid 0..60 and its k_tr uniform over 25..60.  The stream is stratified
    in epochs: an epoch holds every (pair, k_tr) combination once, in
    random order, and one pair's pt_db values follow a Kronecker sequence
    over its k_tr values from a random offset.  Run time grows steeply with
    k_tr for fd_noma, and fd_noma fails fast at high pt_db and k_tr, so
    whole, evenly covered epochs give every run nearly the same cost mix
    and keep the latency percentiles steady across seeds.
    """
    import random

    from common import PAIRS

    rng = random.Random(seed)
    while True:
        epoch = []
        for scheme, node in PAIRS:
            offset = rng.random()
            epoch += [(scheme, node, int((offset + j * GOLDEN) % 1.0 * 61), 25 + j)
                      for j in range(36)]
        rng.shuffle(epoch)
        yield from epoch


def points(job: dict, speed: SpeedProbe) -> dict:
    """Evaluate the first job["count"] points of the stream one call at a
    time, in passes over the same points: one pass, or with job["seconds"]
    whole passes until that much work at nominal speed is done."""
    import itertools
    from dataclasses import replace

    import fdnoma

    cfg, _ = fdnoma.load_config(job["config"])
    calls = list(itertools.islice(point_stream(job["seed"]), job["count"]))
    results = []
    with speed:
        t_loop = time.perf_counter()
        while True:
            for scheme, node, pt, k_tr in calls:
                point = replace(cfg, p_t=float(pt), k_tr=k_tr)
                sch, nod = fdnoma.Scheme(scheme), fdnoma.Node(node)
                error = value = converged = None
                t0 = time.perf_counter()
                try:
                    result = fdnoma.evaluate_outage(point, sch, nod)
                    value, converged = result.probability, result.converged
                except Exception as exc:  # noqa: BLE001 - every failure is tallied by type
                    error = type(exc).__name__
                t1 = time.perf_counter()
                results.append([scheme, node, pt, k_tr, value, converged, error, t0, t1])
            t_end = time.perf_counter()
            if speed.scaled(t_loop, t_end) >= job.get("seconds", 0.0):
                break
    for row in results:
        t0, t1 = row[7:]
        row[7:] = [speed.scaled(t0, t1), speed.raw(t0, t1)]
    return {"wall_s": speed.scaled(t_loop, t_end), "raw_wall_s": speed.raw(t_loop, t_end),
            "results": results}


def main() -> int:
    import json

    job = json.loads(sys.argv[1])
    tracer = None
    if job.get("trace"):
        import fdnoma.cli  # noqa: F401 - load every module before wrapping
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    speed = SpeedProbe(job["probe"])
    out = {"setup": setup, "cli": cli, "points": points}[job["mode"]](job, speed)
    import resource

    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(job["spans"])
        out["layers"] = tracer.metrics(speed)
        out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
