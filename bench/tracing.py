"""Spans around the calls into fdnoma's modules, recorded from outside.

The benchmark does not instrument the package itself.  Instead, before a
traced workload starts, every public function named in LAYERS is replaced
by a recording wrapper on every fdnoma module object that binds it (the
defining module, the modules that import it, and the package namespace),
so calls between modules go through the wrapper too.

Each span records its name, start, end and parent span; spans are kept in
flat arrays in memory and written out once, when the workload ends.  Self
time is a span's duration minus the time covered by its direct children.
Per-layer metrics are derived from the spans plus a few counters recorded
at the same boundaries (samples drawn, bytes written, composition items).

A function that no longer exists is reported as missing; its metrics read
0 and the run goes on.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

from common import declared_metrics

# declared layer -> wrapped public functions, and what each one counts
# beyond calls and time:
#   items   - a generator; count the items it yields (no span)
#   samples - count the samples returned
#   mc      - count the samples requested through the McSettings argument
#   bytes   - count the bytes of the file written to the path argument
#   pair    - tag the span with its (scheme, node) pair
LAYERS = {
    "specfun": {"gauss_2f1": None, "compositions": "items", "log_multinomial": None},
    "channel": {
        "rician_shadowed_moment": None,
        "exponential_moment": None,
        "cdf_truncated": None,
        "sample_rician_shadowed": "samples",
        "sample_exponential": "samples",
    },
    "outage": {"outage_series": None, "evaluate_outage": "pair"},
    "montecarlo": {"mc_outage": "mc"},
    "scenario": {"load_config": None, "run_sweep": None, "emit_csv": "bytes",
                 "emit_plot_data": "bytes"},
    "cli": {"main": None},
}

# Every per-layer metric, with its unit, as BENCHMARK.json declares them.
# metrics() derives those of the spans and counters; run.py adds
# trace.overhead_ratio and the calibrate.* figures.
PER_LAYER = declared_metrics("per_layer")

COUNT_METRICS = tuple(name for name, unit in PER_LAYER.items() if unit == "count")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.tags: list[str] = [""]
        self.name_of = array("i")
        self.parent_of = array("i")
        self.tag_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every LAYERS function on every loaded fdnoma module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fdnoma" or name.startswith("fdnoma."))]
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"fdnoma.{layer}")
            for fname, kind in functions.items():
                span = f"{layer}.{fname}"
                original = getattr(home, fname, None) if home is not None else None
                if not callable(original):
                    self.missing.append(span)
                    continue
                wrapper = self._wrap(span, original, kind)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)

    def _wrap(self, span: str, fn, kind):
        counters = self.counters
        if kind == "items":
            key = span + ".items"

            def counting(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counters[key] += 1
                    yield item
            return counting

        name_id = len(self.names)
        self.names.append(span)
        name_of, parent_of, tag_of = self.name_of, self.parent_of, self.tag_of
        start, end, stack = self.start, self.end, self._stack
        tag_id = self._tag_id

        def wrapper(*args, **kwargs):
            index = len(name_of)
            name_of.append(name_id)
            parent_of.append(stack[-1])
            tag_of.append(tag_id(args) if kind == "pair" else 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[index] = t0
                end[index] = t1
            if kind == "samples":
                counters[span + ".samples"] += int(getattr(result, "size", 1))
            elif kind == "mc":
                mc = kwargs.get("mc", args[3] if len(args) > 3 else None)
                counters[span + ".samples"] += int(getattr(mc, "num_samples", 0))
            elif kind == "bytes":
                path = kwargs.get("path", args[1] if len(args) > 1 else None)
                if isinstance(path, str) and os.path.exists(path):
                    counters[span + ".bytes"] += os.path.getsize(path)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _tag_id(self, args) -> int:
        try:
            tag = f"{args[1].value}.{args[2].value}"
        except (IndexError, AttributeError):
            return 0
        if tag not in self.tags:
            self.tags.append(tag)
        return self.tags.index(tag)

    def write(self, path: str) -> None:
        """Write the spans as one JSON header line followed by raw arrays."""
        header = {"names": self.names, "tags": self.tags, "spans": len(self.name_of),
                  "counters": dict(self.counters), "missing": self.missing,
                  "arrays": ["name_of:i", "parent_of:i", "tag_of:i", "start:d", "end:d"]}
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.parent_of, self.tag_of, self.start, self.end):
                arr.tofile(handle)

    def metrics(self, probe) -> dict[str, float]:
        """The PER_LAYER metrics of the spans and counters.  Span times
        leave out the time calibrate.SpeedProbe `probe` spent inside them."""
        import numpy as np

        n = len(self.name_of)
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        duration = (end - start - probe.probe_time(start, end)).tolist()
        covered = [0.0] * n
        for i in range(n):
            parent = self.parent_of[i]
            if parent >= 0:
                covered[parent] += duration[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        pair_ms: dict[str, list[float]] = {}
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            total[name] += duration[i]
            self_time[name] += duration[i] - covered[i]
            if self.tag_of[i]:
                pair_ms.setdefault(self.tags[self.tag_of[i]], []).append(duration[i] * 1e3)

        out: dict[str, float] = {}
        for metric in PER_LAYER:
            span, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls[span]
            elif stat == "self_s":
                out[metric] = self_time[span]
            elif stat == "s":
                out[metric] = total[span]
            elif stat in ("items", "samples", "bytes"):
                out[metric] = self.counters[metric]
            elif stat == "msamples_per_s":
                samples = self.counters[span + ".samples"]
                out[metric] = samples / total[span] / 1e6 if total[span] > 0 else 0.0
            elif stat == "ms_p50":
                pair = span.removeprefix("outage.evaluate_outage.")
                out[metric] = median(pair_ms.get(pair, []))
        return out


def median(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
