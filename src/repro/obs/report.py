"""Human-readable run report from collected telemetry.

Renders the span tree (phase timings with *self* time — wall time minus
time attributed to child spans — and attributes inline), a solver
convergence summary when per-iteration records were captured, and the
metrics registry: the terminal-friendly complement to the JSONL event
stream. ``paradigm-mdg ... --obs-report`` prints this after a run; for
offline analysis of a run-log *file*, see :mod:`repro.obs.prof` and the
``repro obs`` CLI.
"""

from __future__ import annotations

from repro.obs.core import NullTelemetry, Telemetry
from repro.utils.tables import format_table

__all__ = ["render_report"]

#: Span attributes small enough to show inline next to the timing bar.
_MAX_INLINE_ATTRS = 4


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} us"


def _format_attrs(attrs: dict) -> str:
    shown = list(attrs.items())[:_MAX_INLINE_ATTRS]
    if not shown:
        return ""
    parts = []
    for key, value in shown:
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    suffix = " ..." if len(attrs) > _MAX_INLINE_ATTRS else ""
    return "  [" + ", ".join(parts) + suffix + "]"


def _render_convergence(telemetry: Telemetry | NullTelemetry) -> str | None:
    """Solver convergence summary from captured per-iteration events."""
    events = telemetry.collected_events()
    if not events:
        return None
    from repro.obs.prof import render_convergence

    return render_convergence(events)


def _render_resilience(telemetry: Telemetry | NullTelemetry) -> str | None:
    """Crash-tolerance summary from captured ``resilience.*`` events.

    One line per event kind (lease claims/reclaims, worker crashes, chaos
    injections) so a chaotic run's recovery story is visible without
    grepping the JSONL stream.
    """
    events = telemetry.collected_events()
    counts: dict[str, int] = {}
    for record in events:
        name = record.get("name", "")
        if not isinstance(name, str) or not name.startswith("resilience."):
            continue
        counts[name] = counts.get(name, 0) + 1
    if not counts:
        return None
    rows = [(name, counts[name]) for name in sorted(counts)]
    return "\n".join(["-- resilience --", format_table(["event", "count"], rows)])


def render_report(
    telemetry: Telemetry | NullTelemetry, title: str = "run report"
) -> str:
    """Span tree + metrics tables as monospace text."""
    lines = [f"== {title} =="]

    spans = list(telemetry.spans)
    if spans:
        # Self time = duration minus the time spent in direct children
        # (matched by depth in start order), the quantity that actually
        # ranks a phase's own cost.
        ordered = sorted(spans, key=lambda s: (s.start, s.depth))
        child_total: dict[int, float] = {}
        stack: list = []
        for sp in ordered:
            while stack and stack[-1].depth >= sp.depth:
                stack.pop()
            if stack:
                parent = stack[-1]
                child_total[id(parent)] = (
                    child_total.get(id(parent), 0.0) + sp.duration
                )
            stack.append(sp)
        lines.append("")
        lines.append("-- phases (total / self wall time) --")
        # Finish order interleaves siblings and parents; start order reads
        # as the run actually unfolded.
        for sp in sorted(spans, key=lambda s: (s.start, -s.depth)):
            indent = "  " * sp.depth
            self_time = max(0.0, sp.duration - child_total.get(id(sp), 0.0))
            lines.append(
                f"{indent}{sp.name:<{max(4, 28 - len(indent))}} "
                f"{_format_duration(sp.duration):>10} "
                f"{_format_duration(self_time):>10}{_format_attrs(sp.attrs)}"
            )

    convergence = _render_convergence(telemetry)
    if convergence is not None:
        lines.append("")
        lines.append(convergence)

    resilience = _render_resilience(telemetry)
    if resilience is not None:
        lines.append("")
        lines.append(resilience)

    metrics = getattr(telemetry, "metrics", None)
    if metrics is not None:
        snapshot = metrics.snapshot()
        if snapshot["counters"]:
            rows = [(name, value) for name, value in snapshot["counters"].items()]
            lines.append("")
            lines.append(format_table(["counter", "value"], rows))
        if snapshot["gauges"]:
            rows = [(name, value) for name, value in snapshot["gauges"].items()]
            lines.append("")
            lines.append(format_table(["gauge", "value"], rows))
        if snapshot["histograms"]:
            rows = []
            for name, stats in snapshot["histograms"].items():
                if stats["count"] == 0:
                    rows.append((name, 0, "-", "-", "-", "-"))
                else:
                    rows.append(
                        (
                            name,
                            stats["count"],
                            stats["mean"],
                            stats["min"],
                            stats["max"],
                            stats["p95"],
                        )
                    )
            lines.append("")
            lines.append(
                format_table(
                    ["histogram", "count", "mean", "min", "max", "p95"], rows
                )
            )

    if len(lines) == 1:
        lines.append("(no telemetry collected)")
    return "\n".join(lines)
