"""In-memory spans recorded by the benchmark around calls into the program.

The benchmark owns every span: each one wraps a single call into a public
entry point of one layer (``allocation.solve`` around ``solve_allocation``,
``check.program`` around ``check_program`` ...). Nothing inside the program
is instrumented, and ``repro.obs`` stays disabled. Spans are kept in a list
and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    cpu: float  # process CPU seconds (all threads) spent inside the span
    parent: int | None  # index of the enclosing span in its pass, or None
    job: str | None


class Tracer:
    """Records spans when ``enabled``; otherwise every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def _record(self, name: str, job: str | None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, time.process_time(), parent, job)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            self._stack.pop()
            span.cpu = time.process_time() - span.cpu
            span.end = time.perf_counter()

    def span(self, name: str, job: str | None = None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, job)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children of one span never overlap (calls run one after another in a
    single thread), so their durations can be summed.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def write_spans(path, spans_per_pass: list[list[Span]], header: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(
            {**header, "spans": [[asdict(s) for s in spans] for spans in spans_per_pass]},
            fh,
        )
