"""Spans and work counts recorded around the benchmark's calls into spinscape.

Every call the benchmark makes into a layer goes through :meth:`Tracer.call`.
Untraced, a call is only timed (two clock reads), so throughput figures exist
in every run.  Traced, each call also becomes a span: name ``<layer>.<function>``
(plus an optional tag such as the solver branch), start and end times, the
parent span, and the job id shared by every span of one job.  Spans stay in
memory and are written out by the caller when the run ends.

Allocation peaks come from ``tracemalloc``, started at the start of a span and
stopped at its end, so a peak counts only what the call allocated.  It runs
only on the calls named in ``ALLOC_TRACED`` (less ``ALLOC_SKIPPED``): it slows the vectorized set-up and
solver calls by about a fifth, but the per-state Python loops of
``comm_height``, ``valley_depths`` and the samplers by 6-12x.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

ALLOC_TRACED = ("landscape.enumerate_space", "landscape.move_table", "landscape.neighborhood",
                "landscape.typical_sets", "potential.")
# fails after the 200,000-iteration CG limit, which tracemalloc slows 3x
ALLOC_SKIPPED = ("potential.capacity.large_beta",)


@dataclass
class Span:
    id: int
    name: str
    tag: str | None
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    alloc_peak: int | None = None  # bytes allocated at the peak of the call
    counts: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.name}.{self.tag}" if self.tag else self.name

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Times layer calls; records spans when ``enabled``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.totals: dict[str, float] = defaultdict(float)  # key -> seconds
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[Span] = []
        self._job = 0
        self.last: Span | None = None
        self._last_key = ""

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, tag: str | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(id=len(self.spans), name=name, tag=tag, job=self._job,
                    parent=parent.id if parent else None, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        if span.key.startswith(ALLOC_TRACED) and not span.key.startswith(ALLOC_SKIPPED):
            span.alloc_peak = 0
            tracemalloc.start()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if span.alloc_peak is not None:
            span.alloc_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        self._stack.pop()

    @contextmanager
    def job(self, name: str):
        """Root span of one job; layer calls inside it share its job id."""
        if not self.enabled:
            yield
            return
        self._job += 1
        span = self._open(f"job.{name}", None)
        try:
            yield
        finally:
            self._close(span)

    def call(self, name: str, fn, *args, tag: str | None = None, **kwargs):
        """Call ``fn`` as layer function ``name`` and time it."""
        key = f"{name}.{tag}" if tag else name
        span = self._open(name, tag) if self.enabled else None
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            if span is not None:
                self._close(span)
            self.totals[key] += dt
            self.calls[key] += 1
            self.last = span
            self._last_key = key

    def count(self, unit: str, n: float) -> None:
        """Attribute ``n`` units of work (states, unknowns, jumps, events)
        to the call that finished last."""
        self.work[(self._last_key, unit)] += n
        if self.last is not None:
            self.last.counts[unit] = self.last.counts.get(unit, 0) + n

    # -- derived figures ---------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span duration minus the part covered by its child spans, summed
        per span key."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.key] += s.duration - child_time[s.id]
        return dict(out)

    def max_alloc_per(self, prefix: str, unit: str) -> float:
        """Largest allocation peak per unit of work over spans whose name
        starts with ``prefix`` and that carry that work count."""
        best = 0.0
        for s in self.spans:
            if s.name.startswith(prefix) and s.alloc_peak is not None and s.counts.get(unit):
                best = max(best, s.alloc_peak / s.counts[unit])
        return best

    def dump(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "tag": s.tag, "job": s.job,
             "parent": s.parent, "start": s.start, "end": s.end,
             "alloc_peak_bytes": s.alloc_peak, "counts": s.counts}
            for s in self.spans
        ]
