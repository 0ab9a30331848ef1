"""Deterministic, sampling-free profiler over the telemetry stream.

This is not a statistical profiler: it aggregates the *explicit* spans
and hot-spot timers the library emits, so two runs of the same program
profile identically and a diff between two run logs is attributable to
real work, not sampling noise. Three layers:

* **Instrumentation** — :func:`hot` / :func:`profiled` wrap a code region
  in a named timer whose observations land in the ``prof.hot.<name>``
  histogram (count, total, min/max, percentiles). Both are constant-time
  no-ops while telemetry is disabled.
* **Aggregation** — :func:`build_span_tree` reconstructs the span forest
  from recorded span events and :func:`stage_stats` folds it into
  per-stage totals with **self time** (wall time minus time attributed to
  child spans), the quantity that actually ranks hot stages.
* **Analysis** — :func:`top_stages`, :func:`diff_stages`, and
  :func:`convergence_traces` back the ``repro obs top|diff|report`` CLI:
  ranking, two-run regression attribution, and per-iteration solver
  convergence summaries.

Everything here consumes plain event dicts (the JSONL wire form), so run
logs written by any process — including bundles merged from batch
workers — analyze identically to in-memory telemetry.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.obs import core as _core
from repro.utils.tables import format_table

__all__ = [
    "HOT_PREFIX",
    "hot",
    "profiled",
    "SpanNode",
    "StageStats",
    "build_span_tree",
    "stage_stats",
    "top_stages",
    "StageDelta",
    "diff_stages",
    "slowest_stage",
    "convergence_traces",
    "render_profile",
    "render_top",
    "render_diff",
]

#: Histogram namespace for hot-spot timers.
HOT_PREFIX = "prof.hot."


# --------------------------------------------------------------------------
# Instrumentation: hot-spot timers
# --------------------------------------------------------------------------

@contextmanager
def hot(name: str) -> Iterator[None]:
    """Time a code region into the ``prof.hot.<name>`` histogram.

    Unlike a span, a hot-spot timer carries no tree position and emits no
    event per entry — it only feeds aggregate count/total/percentiles, so
    it is cheap enough for regions entered thousands of times per run.
    Free (no clock read) while telemetry is disabled.
    """
    telemetry = _core.get()
    if not telemetry.enabled:
        yield
        return
    histogram = telemetry.histogram(HOT_PREFIX + name)
    start = time.perf_counter()
    try:
        yield
    finally:
        histogram.observe(time.perf_counter() - start)


def profiled(name: str | None = None) -> Callable:
    """Decorator form of :func:`hot`; defaults to the function's name."""

    def decorate(fn: Callable) -> Callable:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            telemetry = _core.get()
            if not telemetry.enabled:
                return fn(*args, **kwargs)
            histogram = telemetry.histogram(HOT_PREFIX + label)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                histogram.observe(time.perf_counter() - start)

        return wrapper

    return decorate


# --------------------------------------------------------------------------
# Aggregation: span tree and per-stage statistics
# --------------------------------------------------------------------------

@dataclass
class SpanNode:
    """One recorded span plus its reconstructed children."""

    name: str
    start: float
    duration: float
    depth: int
    parent: str | None
    attrs: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def self_time(self) -> float:
        """Wall time not attributed to any child span."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))


def _span_records(events: Iterable[dict]) -> list[dict]:
    return [e for e in events if e.get("type") == "span"]


def build_span_tree(events: Iterable[dict]) -> list[SpanNode]:
    """Reconstruct the span forest from recorded events.

    Spans are recorded at *finish* time carrying their start; nesting is
    recovered from the recorded depth: in start order, a span's parent is
    the most recent span at the next-shallower depth. Returns the roots
    (depth-0 spans) in start order.
    """
    nodes = [
        SpanNode(
            name=str(r.get("name", "?")),
            start=float(r.get("ts", 0.0)),
            duration=float(r.get("dur", 0.0)),
            depth=int(r.get("depth", 0)),
            parent=r.get("parent"),
            attrs=dict(r.get("attrs", {})),
        )
        for r in _span_records(events)
    ]
    nodes.sort(key=lambda n: (n.start, n.depth))
    roots: list[SpanNode] = []
    stack: list[SpanNode] = []
    for node in nodes:
        while stack and stack[-1].depth >= node.depth:
            stack.pop()
        if stack:
            stack[-1].children.append(node)
        else:
            roots.append(node)
        stack.append(node)
    return roots


@dataclass
class StageStats:
    """Aggregate timing of every span sharing one name."""

    name: str
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def add(self, node: SpanNode) -> None:
        self.count += 1
        self.total += node.duration
        self.self_time += node.self_time
        self.min = min(self.min, node.duration)
        self.max = max(self.max, node.duration)


def stage_stats(events: Iterable[dict]) -> dict[str, StageStats]:
    """Per-stage (span-name) totals and self times over a run log."""
    stats: dict[str, StageStats] = {}

    def visit(node: SpanNode) -> None:
        entry = stats.get(node.name)
        if entry is None:
            entry = stats[node.name] = StageStats(node.name)
        entry.add(node)
        for child in node.children:
            visit(child)

    for root in build_span_tree(events):
        visit(root)
    return stats


def top_stages(
    events: Iterable[dict], n: int = 10, by: str = "self"
) -> list[StageStats]:
    """The ``n`` hottest stages, ranked by self (default) or total time."""
    if by not in ("self", "total"):
        raise ValueError(f"rank key must be 'self' or 'total', got {by!r}")
    key = (lambda s: s.self_time) if by == "self" else (lambda s: s.total)
    ranked = sorted(stage_stats(events).values(), key=key, reverse=True)
    return ranked[: max(0, n)]


def slowest_stage(events: Iterable[dict]) -> StageStats | None:
    """The stage with the largest self time (None for an empty log)."""
    ranked = top_stages(events, n=1, by="self")
    return ranked[0] if ranked else None


# --------------------------------------------------------------------------
# Analysis: two-run diff
# --------------------------------------------------------------------------

@dataclass
class StageDelta:
    """One stage's timing in two runs, for regression attribution."""

    name: str
    total_a: float
    total_b: float
    self_a: float
    self_b: float
    count_a: int
    count_b: int

    @property
    def delta(self) -> float:
        """Self-time change, B minus A (positive = B slower)."""
        return self.self_b - self.self_a

    @property
    def ratio(self) -> float:
        if self.self_a <= 0.0:
            return float("inf") if self.self_b > 0.0 else 1.0
        return self.self_b / self.self_a


def diff_stages(
    events_a: Iterable[dict], events_b: Iterable[dict]
) -> list[StageDelta]:
    """Per-stage timing deltas between two run logs.

    Ranks by absolute self-time change, so the stage that explains the
    most wall-clock difference comes first — the regression-attribution
    view behind ``repro obs diff``.
    """
    stats_a = stage_stats(events_a)
    stats_b = stage_stats(events_b)
    deltas = []
    for name in sorted(set(stats_a) | set(stats_b)):
        a = stats_a.get(name)
        b = stats_b.get(name)
        deltas.append(
            StageDelta(
                name=name,
                total_a=a.total if a else 0.0,
                total_b=b.total if b else 0.0,
                self_a=a.self_time if a else 0.0,
                self_b=b.self_time if b else 0.0,
                count_a=a.count if a else 0,
                count_b=b.count if b else 0,
            )
        )
    deltas.sort(key=lambda d: abs(d.delta), reverse=True)
    return deltas


# --------------------------------------------------------------------------
# Analysis: solver convergence traces
# --------------------------------------------------------------------------

@dataclass
class ConvergenceTrace:
    """One solver attempt's per-iteration convergence records."""

    method: str
    job: str | None
    iterations: list[dict] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def _objectives(self) -> list[float]:
        return [
            float(r["objective"])
            for r in self.iterations
            if isinstance(r.get("objective"), (int, float))
        ]

    @property
    def first_objective(self) -> float | None:
        vals = self._objectives()
        return vals[0] if vals else None

    @property
    def last_objective(self) -> float | None:
        vals = self._objectives()
        return vals[-1] if vals else None

    def last(self, key: str) -> float | None:
        """The last numeric ``key`` field of the trace's iterations."""
        for record in reversed(self.iterations):
            value = record.get(key)
            if isinstance(value, (int, float)):
                return float(value)
        return None

    @property
    def last_gap(self) -> float | None:
        """The duality gap at the last iteration."""
        return self.last("gap")


def convergence_traces(events: Iterable[dict]) -> list[ConvergenceTrace]:
    """Group ``solver.iteration`` events into per-attempt traces.

    A new trace starts whenever the method or owning job changes, or the
    solver's iteration counter resets (a fresh attempt).
    """
    traces: list[ConvergenceTrace] = []
    current: ConvergenceTrace | None = None
    last_nit = None
    for event in events:
        if event.get("type") != "event" or event.get("name") != "solver.iteration":
            continue
        method = str(event.get("method", "?"))
        job = event.get("job")
        nit = event.get("nit")
        fresh = (
            current is None
            or current.method != method
            or current.job != job
            or (
                isinstance(nit, (int, float))
                and isinstance(last_nit, (int, float))
                and nit <= last_nit
            )
        )
        if fresh:
            current = ConvergenceTrace(method=method, job=job)
            traces.append(current)
        current.iterations.append(event)
        last_nit = nit if isinstance(nit, (int, float)) else None
    return traces


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} us"


def render_top(events: Sequence[dict], n: int = 10, by: str = "self") -> str:
    """The hot-stage ranking as a monospace table."""
    ranked = top_stages(events, n=n, by=by)
    if not ranked:
        return "(no spans in run log)"
    rows = [
        (
            s.name,
            s.count,
            _fmt_seconds(s.self_time),
            _fmt_seconds(s.total),
            _fmt_seconds(s.max),
        )
        for s in ranked
    ]
    return format_table(
        ["stage", "count", "self", "total", "max"],
        rows,
        title=f"top {len(ranked)} stage(s) by {by} time",
    )


def render_diff(
    events_a: Sequence[dict],
    events_b: Sequence[dict],
    n: int = 15,
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """Two-run per-stage delta table plus the headline attribution."""
    deltas = diff_stages(events_a, events_b)
    if not deltas:
        return "(no spans in either run log)"
    rows = []
    for d in deltas[: max(1, n)]:
        ratio = "new" if d.count_a == 0 else (
            "gone" if d.count_b == 0 else f"{d.ratio:.2f}x"
        )
        rows.append(
            (
                d.name,
                _fmt_seconds(d.self_a),
                _fmt_seconds(d.self_b),
                ("+" if d.delta >= 0 else "-") + _fmt_seconds(abs(d.delta)),
                ratio,
            )
        )
    lines = [
        format_table(
            ["stage", f"self {label_a}", f"self {label_b}", "delta", "ratio"],
            rows,
            title=f"per-stage self-time deltas ({label_b} - {label_a}), "
            "largest first",
        )
    ]
    slow_a = slowest_stage(events_a)
    slow_b = slowest_stage(events_b)
    if slow_a is not None:
        lines.append(
            f"slowest stage in {label_a}: {slow_a.name} "
            f"({_fmt_seconds(slow_a.self_time)} self)"
        )
    if slow_b is not None:
        lines.append(
            f"slowest stage in {label_b}: {slow_b.name} "
            f"({_fmt_seconds(slow_b.self_time)} self)"
        )
    headline = deltas[0]
    direction = "slower" if headline.delta >= 0 else "faster"
    lines.append(
        f"biggest change: {headline.name} is "
        f"{_fmt_seconds(abs(headline.delta))} {direction} in {label_b}"
    )
    return "\n".join(lines)


def render_convergence(events: Sequence[dict], limit: int = 12) -> str | None:
    """Solver convergence summary table, or None without iteration events."""
    traces = convergence_traces(events)
    if not traces:
        return None
    def fmt(value: float | None, spec: str) -> str:
        return "-" if value is None else format(value, spec)

    rows = [
        (
            trace.job if trace.job is not None else "-",
            trace.method,
            trace.n_iterations,
            fmt(trace.first_objective, ".6g"),
            fmt(trace.last_objective, ".6g"),
            fmt(trace.last_gap, ".3g"),
            fmt(trace.last("primal_residual"), ".3g"),
            fmt(trace.last("dual_residual"), ".3g"),
            fmt(trace.last("step"), ".3g"),
        )
        for trace in traces[:limit]
    ]
    extra = (
        f"\n({len(traces) - limit} more trace(s) not shown)"
        if len(traces) > limit
        else ""
    )
    return (
        format_table(
            ["job", "method", "iters", "objective[0]", "objective[-1]",
             "gap", "primal res", "dual res", "step"],
            rows,
            title="solver convergence traces",
        )
        + extra
    )


def render_profile(
    events: Sequence[dict], title: str = "run profile", top: int = 10
) -> str:
    """Span tree with self/total time, hot-stage ranking, convergence.

    The full-fat ``repro obs report`` view of a run-log JSONL file.
    """
    lines = [f"== {title} =="]
    roots = build_span_tree(events)
    if roots:
        lines.append("")
        lines.append("-- span tree (total / self) --")

        def visit(node: SpanNode) -> None:
            indent = "  " * node.depth
            pad = max(4, 30 - len(indent) - len(node.name))
            lines.append(
                f"{indent}{node.name}{' ' * pad}"
                f"{_fmt_seconds(node.duration):>10}  "
                f"{_fmt_seconds(node.self_time):>10}"
            )
            for child in node.children:
                visit(child)

        for root in roots:
            visit(root)
        lines.append("")
        lines.append(render_top(events, n=top))
    convergence = render_convergence(events)
    if convergence is not None:
        lines.append("")
        lines.append(convergence)
    metrics = [e for e in events if e.get("type") == "metrics"]
    if metrics:
        snapshot = metrics[-1].get("metrics", {})
        counters = snapshot.get("counters", {})
        if counters:
            lines.append("")
            lines.append(
                format_table(
                    ["counter", "value"], sorted(counters.items())
                )
            )
        hots = {
            name[len(HOT_PREFIX):]: stats
            for name, stats in snapshot.get("histograms", {}).items()
            if name.startswith(HOT_PREFIX) and stats.get("count")
        }
        if hots:
            rows = [
                (name, s["count"], s["sum"], s["mean"], s["max"])
                for name, s in sorted(
                    hots.items(), key=lambda kv: kv[1]["sum"], reverse=True
                )
            ]
            lines.append("")
            lines.append(
                format_table(
                    ["hot spot", "count", "total s", "mean s", "max s"], rows
                )
            )
    if len(lines) == 1:
        lines.append("(empty run log)")
    return "\n".join(lines)
