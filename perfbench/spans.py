"""In-memory spans and counts for the traced benchmark run.

A span records a name, start, end and the id of the span that was open
when it began. Spans are kept in a list and written out when the run
ends. Counts are attached to the innermost open span, so they sit at
the layer boundary where the work happens.

With ``track_memory`` the tracer also records, for every span that
opens no child span, the peak of ``tracemalloc``'s traced memory above
the level at which the span began. Child spans reset the peak, so
spans with children get no peak. Memory tracking slows allocation-heavy
calls, so it runs in its own pass, never in a timed one.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

MB = 2**20


class Tracer:
    def __init__(self, track_memory: bool = False):
        self.spans: list[dict] = []
        self.track_memory = track_memory
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = {"id": len(self.spans), "parent": None if parent is None else parent["id"],
               "name": name, "start": 0.0, "end": 0.0}
        if parent is not None:
            parent["has_child"] = True
        self.spans.append(rec)
        self._open.append(rec)
        if self.track_memory:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.track_memory and not rec.get("has_child"):
                rec["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / MB
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: int) -> None:
        counts = self._open[-1].setdefault("counts", {})
        counts[name] = counts.get(name, 0) + int(value)


def per_root(spans: list[dict]) -> dict[int, dict]:
    """Aggregate each root span's subtree.

    For every root id: ``total``/``self`` (seconds per span name,
    summed), ``calls`` (each span's seconds, per name), ``peak`` (MB per
    span name, max) and ``counts`` (summed). Self time is a span's duration minus the
    durations of its direct children.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    root_of: dict[int, int] = {}
    out: dict[int, dict] = {}
    for s in spans:  # parents are recorded before their children
        root = s["id"] if s["parent"] is None else root_of[s["parent"]]
        root_of[s["id"]] = root
        agg = out.setdefault(root, {"total": defaultdict(float),
                                    "self": defaultdict(float), "calls": defaultdict(list),
                                    "peak": {}, "counts": defaultdict(int)})
        dur = s["end"] - s["start"]
        agg["total"][s["name"]] += dur
        agg["self"][s["name"]] += dur - child_time[s["id"]]
        agg["calls"][s["name"]].append(dur)
        if "peak_mb" in s:
            agg["peak"][s["name"]] = max(agg["peak"].get(s["name"], 0.0), s["peak_mb"])
        for name, value in s.get("counts", {}).items():
            agg["counts"][name] += value
    return out


PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def timing_summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in PERCENTILES:
        if len(values) * (100.0 - p) / 100.0 >= 10:
            out["percentile"] = p
            # "inclusive" interpolates linearly between order statistics
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out["value_at_percentile"] = cuts[round(p * 10) - 1]
            break
    return out


def describe(summary: dict, unit: str) -> str:
    text = f"median {summary['median']:.6g} {unit}"
    if "percentile" in summary:
        text += f", p{summary['percentile']:g} {summary['value_at_percentile']:.6g} {unit}"
    else:
        text += ", no percentile has ten samples beyond it"
    return f"{text}, n={summary['n']}"
