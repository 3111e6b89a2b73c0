"""Facts the benchmark's files share: the (scheme, node) pairs of the
reference scenario, the scenario reader, and the metric names and units
that BENCHMARK.json declares."""

from __future__ import annotations

import configparser
import json
import os

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

SCHEMES = ("fd_noma", "hd_noma", "hd_oma")
NODES = ("gs", "uav2", "uav3")
PAIRS = tuple((s, n) for s in SCHEMES for n in NODES)


def read_ini(path: str) -> dict[str, dict[str, str]]:
    """A scenario file as {section: {key: raw string}}, without interpolation."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as handle:
        parser.read_file(handle)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def declared_metrics(kind: str) -> dict[str, str]:
    """{name: unit} of the "end_to_end" or "per_layer" list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}
