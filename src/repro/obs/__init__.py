"""``repro.obs`` — spans, metrics, and structured run telemetry.

The observability layer for the whole allocate -> schedule -> simulate
pipeline. Disabled by default (every call is a constant-time no-op);
enable it globally with :func:`configure` or scoped with :func:`use`:

.. code-block:: python

    from repro import obs

    telemetry = obs.configure(jsonl_path="run.jsonl")
    compile_mdg(mdg, machine)             # instrumented internally
    print(obs.render_report(telemetry))   # phase timings + metrics
    obs.shutdown()                        # flush JSONL, restore no-op

Instrumented library code only ever does::

    with obs.span("allocate", nodes=n) as sp:
        ...
        sp.set_attr("phi", phi)
    obs.counter("solver.attempts").inc()
    obs.event("psa.schedule", node=name, est=est, pst=pst)

On the wire (JSONL / the in-memory collector), everything is a dict with
a ``type`` of ``run_start``, ``span``, ``event``, or ``metrics``.

Metric/event namespaces emitted by the library: ``solver.*`` and
``psa.*`` (compilation), ``sim.*`` (the machine simulator), ``fault.*``
and ``recovery.*`` (fault injection and repair), ``store.*``
(checkpoint-cache hits/misses/corruption — see :mod:`repro.store`),
``pipeline.postcondition`` (failed re-validation of resumed or strict
runs), ``batch.*`` (worker-pool compilation, including per-job subtrees
merged from worker processes — see :mod:`repro.obs.bundle`),
``resilience.*`` (lease claims/reclaims, worker crashes and respawns,
chaos injections — see :mod:`repro.resilience`), and ``prof.hot.*`` (explicit hot-spot timers —
see :mod:`repro.obs.prof`).

Analysis and export live in submodules: :mod:`repro.obs.prof` (span-tree
profiles, top-N ranking, two-run diffs, solver convergence traces),
:mod:`repro.obs.export` (Prometheus / OTLP-JSON metric exporters), and
:mod:`repro.obs.runlog` (run-log JSONL validation backing the OBS check
rules).
"""

from repro.obs.bundle import capture_bundle, merge_bundle
from repro.obs.core import (
    NullTelemetry,
    Span,
    Telemetry,
    configure,
    counter,
    detach,
    enabled,
    event,
    gauge,
    get,
    histogram,
    shutdown,
    span,
    use,
)
from repro.obs.export import to_otlp_json, to_prometheus, write_metrics
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.prof import hot, profiled
from repro.obs.report import render_report
from repro.obs.sinks import JsonlSink, MemorySink, read_jsonl, read_run_log

__all__ = [
    "Span",
    "Telemetry",
    "NullTelemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MemorySink",
    "JsonlSink",
    "read_jsonl",
    "read_run_log",
    "render_report",
    "capture_bundle",
    "merge_bundle",
    "hot",
    "profiled",
    "to_prometheus",
    "to_otlp_json",
    "write_metrics",
    "configure",
    "shutdown",
    "detach",
    "use",
    "get",
    "enabled",
    "span",
    "event",
    "counter",
    "gauge",
    "histogram",
]
