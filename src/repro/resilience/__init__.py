"""``repro.resilience`` — crash-tolerant execution for batch pipelines.

The layer that lets a :class:`~repro.batch.compiler.BatchCompiler` sweep
survive the realistic behavior of a production fleet: SIGKILL'd workers,
hanging solver backends, torn artifact writes, and stragglers. Four
pieces, composable but independently usable:

:mod:`.deadline`
    :class:`Deadline` wall-clock budgets propagated as ambient context
    through pipeline stages (solver, PSA, simulator all check
    cooperatively).
:mod:`.lease`
    :class:`LeaseManager` — atomic, expiring job-ownership records
    written through the content-addressed store, the substrate that
    turns worker death into bounded re-execution instead of lost or
    duplicated jobs.
:mod:`.chaos`
    :class:`ChaosSpec` / :class:`ChaosInjector` — deterministic, seeded
    fault injection (worker kills, lease-expiry races, artifact
    corruption, stalls) used by tests, ``bench_chaos.py``, and
    ``repro batch --chaos``.
:mod:`.engine`
    The executor itself: lease-claiming worker processes with heartbeat
    threads, parent-side respawn of crashed workers, idempotent result
    artifacts. Reached via :meth:`BatchCompiler.run_resilient` or
    ``repro batch --resilient``.
"""

from repro.resilience.chaos import (
    ChaosInjector,
    ChaosSpec,
    chaos_problems,
    is_chaos_doc,
    load_chaos_spec,
)
from repro.resilience.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.resilience.engine import (
    BATCH_RESULT_VERSION,
    RESULT_KIND,
    ResilienceOptions,
    count_executions,
    execute_resilient,
)
from repro.resilience.lease import (
    LEASE_KIND,
    LEASE_SCHEMA_VERSION,
    LeaseManager,
    LeaseRecord,
    lease_key,
)

__all__ = [
    "Deadline",
    "deadline_scope",
    "current_deadline",
    "check_deadline",
    "LeaseManager",
    "LeaseRecord",
    "lease_key",
    "LEASE_KIND",
    "LEASE_SCHEMA_VERSION",
    "ChaosSpec",
    "ChaosInjector",
    "chaos_problems",
    "load_chaos_spec",
    "is_chaos_doc",
    "ResilienceOptions",
    "execute_resilient",
    "count_executions",
    "RESULT_KIND",
    "BATCH_RESULT_VERSION",
]
