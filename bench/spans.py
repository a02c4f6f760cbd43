"""In-memory span recording and per-layer aggregation.

A span is a dict with the fields name, start, end (perf_counter_ns), parent
(index of the enclosing span, or None), workload, case and items (the
windows, vertices, bytes or lines it handled).  Spans stay in memory until
the run ends; the parent process dumps them once and derives self times.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Every span the traced replay records, with the unit of its item count.
# The layer is the prefix: a module of ucycle, or the CLI's own steps.
SPAN_ITEMS = {
    "cli.main": "bytes",
    "cli.encode": "bytes",
    "cli.decode": "bytes",
    "gf.field_make": "elements",
    "geometry.hyperplane_points": "points",
    "constructions.plan_fibers": "directions",
    "constructions.triple_fiber_cycle": "windows",
    "constructions.two_fiber_cycle": "windows",
    "constructions.universal_cycle": "windows",
    "cycles.glue_cycles": "windows",
    "cycles.cycle_to_json_obj": "vertices",
    "cycles.cycle_from_json_obj": "vertices",
    "verify.verify_affine": "windows",
    "verify.all_affine_lines": "lines",
    "grassmann.singer_cycle": "windows",
    "grassmann.lift_affine_cycle": "windows",
    "grassmann.nested_cycles": "windows",
    "grassmann.grass_to_json_obj": "vertices",
    "verify.verify_grassmann": "windows",
    "verify.all_2subspaces": "subspaces",
    "verify.verify_nesting": "windows",
}

# Spans whose cost should be linear in the windows they handle.
PER_WINDOW = (
    "constructions.two_fiber_cycle",
    "cycles.glue_cycles",
    "verify.verify_affine",
    "verify.verify_grassmann",
)

# Counts describing the inputs, summed over the affine cycles a pass builds.
INPUT_COUNTS = ("points", "directions", "pairs", "triplets", "windows")


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.case = None
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, items: int = 0):
        """Record one call; the caller may set ``rec["items"]`` inside."""
        if name not in SPAN_ITEMS:
            raise KeyError(f"unknown span {name}")
        rec = {
            "name": name,
            "start": 0,
            "end": 0,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "case": self.case,
            "items": items,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._open.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def self_times_ns(spans: list[dict]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    One process records the spans on one thread, so children of a span
    never overlap each other.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass: time, self time, calls, items."""
    out: dict[str, float] = {}
    for name in SPAN_ITEMS:
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
        out[f"{name}.{SPAN_ITEMS[name]}"] = 0
    for s, self_ns in zip(spans, self_times_ns(spans)):
        name = s["name"]
        out[f"{name}.s"] += (s["end"] - s["start"]) / 1e9
        out[f"{name}.self_s"] += self_ns / 1e9
        out[f"{name}.calls"] += 1
        out[f"{name}.{SPAN_ITEMS[name]}"] += s["items"]
    for name in PER_WINDOW:
        windows = out[f"{name}.windows"]
        out[f"{name}.ns_per_window"] = out[f"{name}.s"] * 1e9 / windows if windows else 0.0
    return out


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric that ``layer_totals`` and the run report."""
    units: dict[str, str] = {}
    for name, item in SPAN_ITEMS.items():
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
        units[f"{name}.{item}"] = item
    for name in PER_WINDOW:
        units[f"{name}.ns_per_window"] = "ns/window"
    units["geometry.hyperplanes.calls"] = "count"
    units["geometry.hyperplanes.distinct"] = "count"
    for key in INPUT_COUNTS:
        units[f"input.{key}"] = "count"
    units["trace.untraced_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units
