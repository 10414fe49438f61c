"""In-memory spans around the benchmark's calls into each cornerbie layer.

A span records its name, start, end, the span that was open when it
started (its parent) and the operation it belongs to: spans of one table
row or angle share that operation id, "<domain>/<k>" for the k-th row or
angle of an entry-point call, and the spans a call makes before its first
row (validation, boundary, decomposition, datum) carry "<domain>".
Nothing is written until the benchmark ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

# spans whose summed self time (duration minus child spans) is reported as
# "<name>.s"; assembly.build_system's is "assembly.build_system.self_s"
TIMED_SPANS = (
    "geometry.boundary",
    "geometry.decompose",
    "rhs.datum",
    "rhs.rhs_approx",
    "solve_post.cond_inf",
    "solve_post.solve_field",
    "solve_post.eval_exterior",
    "harness.validate",
)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else -1
        if parent < 0 and self.name == tr._row_start:
            tr._rows += 1
        op = f"{tr._label}/{tr._rows}" if tr._rows else tr._label
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent, op])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index or -1, op id]
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._label = ""
        self._row_start = None
        self._rows = 0

    def op(self, label: str, row_start: Optional[str] = None) -> None:
        """Label the spans that follow; each top-level span named row_start
        begins the next row or angle under that label."""
        self._label = label
        self._row_start = row_start
        self._rows = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tr: Tracer, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass that took `wall` seconds."""
    durations = defaultdict(list)
    self_time = defaultdict(float)
    top_level = 0.0
    for name, start, end, parent, _ in tr.spans:
        durations[name].append(end - start)
        self_time[name] += end - start
        if parent < 0:
            top_level += end - start
        else:
            self_time[tr.spans[parent][0]] -= end - start
    rhs = durations["rhs.rhs_approx"]
    ev = durations["solve_post.eval_exterior"]
    out = {f"{name}.s": self_time[name] for name in TIMED_SPANS}
    out.update({
        "rhs.rhs_approx.calls": len(rhs),
        "rhs.rhs_approx.us.p50": _pct(rhs, 50) * 1e6,
        "assembly.build_system.self_s": self_time["assembly.build_system"],
        "assembly.unknowns": int(tr.counts["assembly.unknowns"]),
        "assembly.matrix_entries": int(tr.counts["assembly.matrix_entries"]),
        "solve_post.cond_inf.gflop": float(tr.counts["solve_post.cond_inf.gflop"]),
        "solve_post.cond_inf.inverse_mb": float(tr.counts["solve_post.cond_inf.inverse_mb"]),
        "solve_post.eval_exterior.calls": len(ev),
        "solve_post.eval_exterior.ms.p50": _pct(ev, 50) * 1e3,
        "solve_post.eval_exterior.ms.p90": _pct(ev, 90) * 1e3,
        "geometry.decompose.calls": len(durations["geometry.decompose"]),
        "harness.self_s": wall - top_level,
    })
    return out
