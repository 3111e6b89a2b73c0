"""Machine-speed calibration for the benchmark's timings.

On a shared 2-core host (Python 3.11.7, numpy 2.4.6), each core flips
between a fast and a slow state (about 4.1 and 6.8 ms for the py reference
below) for 0.1 s to several seconds at a time, independently of the other
core: another tenant's load on the sibling hardware thread.  Medians over a 15 s run
then drift by 20 % and more between runs, which is wider than any
regression bound the benchmark could set.

So an untraced job runs under a SpeedProbe: a SIGALRM timer fires every
PERIOD seconds and the handler times one frozen reference computation in
the same process.  Work time is the wall time minus the probe's own time,
and each stretch of work between two probes is scaled by
NOMINAL / (duration of the nearest probe): a time is reported as it would
read at the nominal machine speed.  The handler runs between bytecodes, so
the probe needs no cooperation from the code being measured.

There are two references, frozen here and independent of fdnoma so that
changes to the package cannot move them: "py" is like the closed form
(pure-Python composition sums with lgamma), "np" like the Monte Carlo
oracle (numpy Gamma and normal draws).

A scaled time is right only while the measured code slows down in the slow
state by the same factor as its reference.  Pure-Python code and numpy code
do not: numpy work slows less.  Run this file to measure the factors:

    python3 bench/calibrate.py

It interleaves both references, a numpy closed-form stand-in and one unit
of fdnoma's closed form and Monte Carlo for CHECK_SECONDS, and prints each
one's slow/fast duration ratio (bench/METRICS.md records the figures).
"""

from __future__ import annotations

# Module-level imports stay minimal: the set-up job runs under a probe, and
# fdnoma would find a module loaded here already loaded, so its import
# would not count in the set-up time.
import bisect
import math
import os
import signal
import sys
from time import perf_counter

PERIOD = 0.1
# Reference durations in a fast phase of a 2-core container (Python 3.11.7,
# numpy 2.4.6); they only fix the scale of the reports.
NOMINAL = {"py": 0.0045, "np": 0.0030}


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_py() -> float:
    acc = 0.0
    for n in range(24):
        logs = [math.lgamma(n + 2) - math.fsum(math.lgamma(p + 1) for p in c)
                for c in _compositions(n + 1, 3)]
        peak = max(logs)
        acc += math.fsum(math.exp(x - peak) for x in logs)
    return acc


def reference_np() -> int:
    import numpy as np

    rng = np.random.default_rng(1)
    size = 20_000
    los = np.sqrt(rng.gamma(3.0, 1.0, size)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))
    x = np.abs(los + rng.normal(0.0, 1.0, size) + 1j * rng.normal(0.0, 1.0, size)) ** 2
    return int(np.count_nonzero(x < 1.0))


REFERENCE = {"py": reference_py, "np": reference_np}


class SpeedProbe:
    """Times a reference computation every PERIOD seconds while active.

    Use as a context manager around the timed work; then `scaled(t0, t1)`
    converts the work done between perf_counter() readings t0 and t1 to
    seconds at nominal speed, leaving out the probe's own time.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _tick(self, *_args) -> None:
        t0 = perf_counter()
        REFERENCE[self.kind]()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def __enter__(self) -> "SpeedProbe":
        REFERENCE[self.kind]()  # warm up imports and caches
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def _factor(self, t: float) -> float:
        """NOMINAL over the duration of the probe nearest to time t."""
        i = bisect.bisect_left(self.starts, t)
        near = [j for j in (i - 1, i) if 0 <= j < len(self.starts)]
        j = min(near, key=lambda k: min(abs(self.starts[k] - t), abs(self.ends[k] - t)))
        return NOMINAL[self.kind] / (self.ends[j] - self.starts[j])

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of work in [t0, t1] at nominal speed, probes excluded."""
        total, cursor = 0.0, t0
        i = bisect.bisect_right(self.ends, t0)
        while i < len(self.starts) and self.starts[i] < t1:
            start = max(self.starts[i], t0)
            if start > cursor:
                total += (start - cursor) * self._factor((cursor + start) / 2)
            cursor = max(cursor, min(self.ends[i], t1))
            i += 1
        if t1 > cursor:
            total += (t1 - cursor) * self._factor((cursor + t1) / 2)
        return total

    def raw(self, t0: float, t1: float) -> float:
        """Seconds of work in [t0, t1] at the speed measured, probes excluded."""
        return (t1 - t0) - float(self.probe_time(t0, t1))

    def probe_time(self, t0, t1):
        """Seconds the probes took inside [t0, t1]; t0 and t1 may be arrays
        of the same shape.  Call only after the probe has stopped."""
        import numpy as np

        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        cum = np.concatenate(([0.0], np.cumsum(ends - starts)))
        t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        first = np.searchsorted(ends, t0, side="right")  # first probe ending after t0
        stop = np.searchsorted(starts, t1, side="left")  # probes before it start before t1
        hit = stop > first
        last = len(starts) - 1
        head = np.clip(t0 - starts[np.minimum(first, last)], 0.0, None)
        tail = np.clip(ends[np.maximum(stop - 1, 0)] - t1, 0.0, None)
        return np.where(hit, cum[stop] - cum[first] - head - tail, 0.0)


# ------------------------------------------------- slow/fast ratio check

CHECK_SECONDS = 120


def reference_np_closed_form() -> float:
    """A closed-form sum vectorised over a power grid with numpy: the shape
    that moving fdnoma's series from Python loops to numpy would take."""
    import numpy as np

    lg = np.array([math.lgamma(k + 1) for k in range(100)])
    pt = np.linspace(0.0, 6.0, 61)[None, :]
    acc = 0.0
    for n in range(8, 100):
        k = np.arange(n + 1)[:, None]
        logs = lg[n] - lg[k] - lg[n - k] + k * np.log1p(pt) - pt * (n - k) / n
        peak = logs.max(axis=0)
        acc += float(np.log(np.exp(logs - peak).sum(axis=0)).sum())
    return acc


def check_ratios() -> int:
    """Print each unit's median duration in the fast and the slow state.

    A round runs every unit once, the py reference first, and py once more
    at the end.  It counts when both py runs agree within 10 %: as fast
    when py is within 1.2x of its 10th percentile, as slow beyond 1.4x."""
    import statistics
    from dataclasses import replace

    from common import ROOT

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fdnoma

    cfg, _ = fdnoma.load_config(os.path.join(ROOT, "configs", "reference.ini"))
    cf_point = replace(cfg, p_t=20.0, k_tr=15)
    mc_point = replace(cfg, p_t=20.0)
    fd, gs = fdnoma.Scheme("fd_noma"), fdnoma.Node("gs")
    units = {
        "py reference": reference_py,
        "np reference": reference_np,
        "numpy closed-form stand-in": reference_np_closed_form,
        "fdnoma evaluate_outage fd_noma/gs k_tr 15": lambda: fdnoma.evaluate_outage(
            cf_point, fd, gs),
        "fdnoma mc_outage fd_noma/gs 2^15 samples": lambda: fdnoma.mc_outage(
            mc_point, fd, gs, fdnoma.McSettings(num_samples=1 << 15, seed=1)),
    }
    for unit in units.values():
        unit()
    rounds = []
    end = perf_counter() + CHECK_SECONDS
    while perf_counter() < end:
        durations = []
        for unit in (*units.values(), reference_py):
            t0 = perf_counter()
            unit()
            durations.append(perf_counter() - t0)
        py = (durations[0] + durations[-1]) / 2
        if abs(durations[0] - durations[-1]) < 0.1 * py:
            rounds.append((py, durations[:-1]))
    floor = statistics.quantiles([py for py, _ in rounds], n=10)[0]
    fast = [d for py, d in rounds if py < 1.2 * floor]
    slow = [d for py, d in rounds if py > 1.4 * floor]
    print(f"{len(rounds)} rounds in {CHECK_SECONDS} s: {len(fast)} fast, {len(slow)} slow")
    if min(len(fast), len(slow)) < 50:
        print("too few rounds in one state to compare")
        return 1
    for i, name in enumerate(units):
        f = statistics.median(d[i] for d in fast)
        s = statistics.median(d[i] for d in slow)
        print(f"{name:45s} fast {f * 1e3:8.3f} ms  slow {s * 1e3:8.3f} ms  slow/fast {s / f:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(check_ratios())
