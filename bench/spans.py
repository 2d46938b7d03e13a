"""In-memory spans around heraldsim's public functions, patched from outside.

A :class:`Tracer` replaces each traced function at every module attribute
that holds it, so names imported by name (``runner.counts_from_cells``,
``cli.accumulate``, ...) are traced too.  Each call records a span (name,
start, end, parent) plus the counts its ``measure`` hook reads from the
arguments and result.  Nothing inside the package changes; the patches are
removed when tracing ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

Measure = Callable[[tuple, dict, object], dict]

PACKAGE = "heraldsim"
MODULES = ("core", "qm", "pcsft", "streams", "coincidence", "runner",
           "analysis", "report", "svgplot", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counts: dict = field(default_factory=dict)


def _bins_of_clicks(args, kwargs, result) -> dict:
    return {"bins": int(result[0].size)}


def _bins_of_cells(args, kwargs, result) -> dict:
    return {"bins": int(result.sum())}


def _bytes_of_streams(args, kwargs, result) -> dict:
    return {"bytes": 3 * int(result.herald.nbytes)}


def _bytes_of_file(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _rows_returned(args, kwargs, result) -> dict:
    return {"rows": int(result)}


def _rows_of_segments(args, kwargs, result) -> dict:
    return {"rows": len(args[0].segments)}


def _bins_of_sweep(args, kwargs, result) -> dict:
    return {"bins": sum(point.counts.n_bins for point in result)}


# (module, attribute path, measure hook); the span name is "module.path".
TARGETS: tuple[tuple[str, str, Optional[Measure]], ...] = (
    ("core", "load_config", None),
    ("core", "rng_stream", None),
    ("qm", "segment_clicks", _bins_of_clicks),
    ("qm", "segment_cells", _bins_of_cells),
    ("qm", "joint_pattern_probabilities", None),
    ("pcsft", "segment_clicks", _bins_of_clicks),
    ("pcsft", "discrete_exit_steps", None),
    ("pcsft", "segment_cells", _bins_of_cells),
    ("pcsft", "field_click_probabilities", None),
    ("streams", "ClickStreams.from_bools", None),
    ("streams", "ClickStreams.concat", _bytes_of_streams),
    ("streams", "write_streams", _bytes_of_file),
    ("streams", "write_sparse_csv", _rows_returned),
    ("coincidence", "accumulate", None),
    ("coincidence", "counts_from_cells", None),
    ("coincidence", "write_segment_csv", _rows_of_segments),
    ("coincidence", "write_counts_json", None),
    ("coincidence", "read_counts_json", None),
    ("runner", "simulate_run", None),
    ("runner", "run_counts", None),
    ("runner", "run_sweep", _bins_of_sweep),
    ("analysis", "heralded_g2", None),
    ("analysis", "weighted_linear_fit", None),
    ("report", "point_record", None),
    ("report", "build_report", None),
    ("report", "write_report_json", None),
    ("svgplot", "write_report_svg", None),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable,
             measure: Optional[Measure] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Patch every target at every heraldsim attribute that holds it."""
        modules = [sys.modules[PACKAGE]] + [
            sys.modules[f"{PACKAGE}.{m}"] for m in MODULES]
        for module_name, path, measure in TARGETS:
            name = f"{module_name}.{path}"
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:  # a method: patch the class attribute itself
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__, measure))
                else:
                    patched = self.wrap(name, raw, measure)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, patched)
                continue
            original = getattr(owner, attr)
            patched = self.wrap(name, original, measure)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, patched)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.remove()


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s, self_s and the summed counts.

    busy_s sums the spans' durations; self_s is each span's duration minus
    the time its direct children cover.  The traced run has one thread, so
    sibling spans never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, dict[str, float]] = {}
    for span, covered in zip(spans, child_time):
        entry = totals.setdefault(span.name, {"calls": 0, "busy_s": 0.0,
                                              "self_s": 0.0})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - covered
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return totals


def spans_to_json(spans: list[Span], origin: float) -> list[dict]:
    """Spans as JSON records, times in seconds from ``origin``."""
    return [{"name": s.name, "start": s.start - origin, "end": s.end - origin,
             "parent": s.parent, **s.counts} for s in spans]
