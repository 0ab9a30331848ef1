"""The crash-tolerant batch executor.

Architecture: the parent spawns ``workers`` plain ``multiprocessing``
processes (not a :class:`~concurrent.futures.ProcessPoolExecutor` — a
SIGKILL'd pool worker marks the whole pool broken, which is exactly the
failure this executor exists to survive). Workers share no queues; all
coordination happens through the filesystem in the batch coordination
directory:

* ``batch-lease/``   expiring ownership records (:mod:`.lease`),
* ``batch-result/``  idempotent completion artifacts (one per job),
* ``exec-log/``      one marker file per actual execution attempt.

A worker loops over the task list, skips jobs whose result artifact
already exists, claims one open job at a time via its lease, runs it with
a heartbeat thread stamping the current pipeline stage into the lease,
writes the result artifact, and releases the lease. It exits 0 only once
*every* result artifact exists and verifies (checksum + schema version) —
a corrupt result is quarantined by the verification read and the job
re-runs. The parent's only duties are respawning crashed workers (up to
``max_respawns``) and synthesizing error records for jobs lost after the
respawn budget is exhausted, stamped with the failing stage and elapsed
time read from the dead worker's lease.

Exactly-once: completion is keyed by the result artifact, written
atomically and bit-deterministic, so at-least-once *execution* (the
unavoidable contract under SIGKILL) converges to exactly-once
*completion* with bit-identical payloads. The ``exec-log`` markers make
the execution count observable — a clean run has exactly one marker per
job; a chaos run with an injected lease expiry shows the double
execution explicitly.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro import obs
from repro.errors import ReproError
from repro.resilience.chaos import ChaosInjector, ChaosSpec
from repro.resilience.lease import LeaseManager, lease_key
from repro.store import ArtifactStore

__all__ = [
    "RESULT_KIND",
    "BATCH_RESULT_VERSION",
    "ResilienceOptions",
    "execute_resilient",
]

RESULT_KIND = "batch-result"
#: Version 2 records carry no ``warm_start`` / ``layout_key``; version 1
#: results left in a cache directory are quarantined and their jobs re-run.
BATCH_RESULT_VERSION = 2

_EXEC_LOG_DIR = "exec-log"


@dataclass(frozen=True)
class ResilienceOptions:
    """Knobs of the crash-tolerant executor (picklable into workers)."""

    #: Worker process count; ``None`` lets the compiler pick (its own
    #: worker count, minimum 2 — one worker cannot reclaim its own crash).
    workers: int | None = None
    #: Lease time-to-live between heartbeats. Recovery latency after a
    #: SIGKILL is bounded by one ttl, so small ttls recover fast at the
    #: cost of more heartbeat I/O.
    lease_ttl: float = 5.0
    #: Heartbeat period; ``None`` = ttl / 3.
    heartbeat_interval: float | None = None
    #: Per-job wall-clock budget (ambient :class:`.Deadline`).
    deadline_seconds: float | None = None
    #: Total crashed-worker respawns before surviving jobs are declared
    #: lost.
    max_respawns: int = 8
    #: Parent monitor / idle worker poll period.
    poll_seconds: float = 0.05
    #: Hard wall-clock cap on the whole batch; ``None`` = unbounded.
    wall_limit_seconds: float | None = None
    #: Deterministic fault injection (tests and `repro batch --chaos`).
    chaos: ChaosSpec | None = None


def _exec_marker(coord_root: str, key: str, attempt: int, owner: str) -> None:
    """Record one actual execution (observability + test assertions)."""
    marker_dir = Path(coord_root) / _EXEC_LOG_DIR
    marker_dir.mkdir(parents=True, exist_ok=True)
    (marker_dir / f"{key}.{attempt}.{owner}").touch()


def count_executions(coord_root: str | Path) -> dict[str, int]:
    """Execution markers per lease key under ``coord_root``."""
    marker_dir = Path(coord_root) / _EXEC_LOG_DIR
    counts: dict[str, int] = {}
    if marker_dir.is_dir():
        for marker in marker_dir.iterdir():
            key = marker.name.split(".", 1)[0]
            counts[key] = counts.get(key, 0) + 1
    return counts


# ----- worker side ----------------------------------------------------------


def _run_one(task, lease, leases: LeaseManager, store: ArtifactStore,
             chaos: ChaosInjector | None, interval: float,
             coord_root: str) -> None:
    """Execute one claimed job: heartbeat, chaos hooks, result artifact."""
    from repro.batch.compiler import _execute_job

    job_id = task.job.job_id
    key = lease_key(job_id)
    current_stage = ["claimed"]
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(interval):
            if not leases.heartbeat(job_id, stage=current_stage[0]):
                # Ownership lost (expiry/reclaim). Keep computing: the
                # result is idempotent, and abandoning now would waste
                # the work if the reclaimer also dies.
                return

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    try:
        if chaos is not None:
            chaos.stall(job_id, lease.attempt)
            if chaos.should_kill(job_id, lease.attempt):
                chaos.kill_self(job_id)  # never returns
        record = _execute_job(
            task, on_stage=lambda s: current_stage.__setitem__(0, s)
        )
        record["attempt"] = lease.attempt
        record.pop("obs_bundle", None)
        record["obs_bundle"] = None
        _exec_marker(coord_root, key, lease.attempt, leases.owner)
        path = store.store(
            RESULT_KIND, key, record, BATCH_RESULT_VERSION,
            meta={"job": job_id, "owner": leases.owner},
        )
        if chaos is not None:
            chaos.maybe_corrupt(job_id, lease.attempt, path)
    finally:
        stop.set()
        beater.join(timeout=max(1.0, interval * 2))
        leases.release(job_id)


def _worker_main(worker_id: int, tasks, coord_root: str,
                 options: ResilienceOptions) -> None:
    """Worker process body: scan → claim → execute until all jobs done.

    Exits 0 only when every job has a *valid* result artifact; the
    verification load quarantines corrupt results, which re-opens those
    jobs for the next scan.
    """
    # This process was forked mid-batch: drop the parent's telemetry
    # collector without closing its sinks (the file handles are shared).
    obs.detach()
    owner = f"worker-{worker_id}-pid{os.getpid()}"
    leases = LeaseManager(coord_root, owner=owner, ttl=options.lease_ttl)
    store = ArtifactStore(coord_root)
    chaos = ChaosInjector(options.chaos) if options.chaos is not None else None
    interval = options.heartbeat_interval or max(0.02, options.lease_ttl / 3.0)

    while True:
        progressed = False
        open_tasks = [
            task for task in tasks
            if not store.path_for(
                RESULT_KIND, lease_key(task.job.job_id)
            ).exists()
        ]
        if not open_tasks:
            # Everything *looks* done; now verify. A corrupt artifact is
            # quarantined here, reappears as an open job, and re-runs.
            if all(
                store.load(
                    RESULT_KIND, lease_key(task.job.job_id),
                    BATCH_RESULT_VERSION,
                ) is not None
                for task in tasks
            ):
                return
            continue
        for task in open_tasks:
            job_id = task.job.job_id
            ttl = None
            if chaos is not None and leases.read(job_id) is None:
                # Expiry injection applies to the *first* claim only;
                # reclaims (an existing lease/tombstone) use the real ttl.
                ttl = chaos.claim_ttl(job_id)
            lease = leases.claim(job_id, ttl=ttl)
            if lease is None:
                continue
            if store.path_for(RESULT_KIND, lease_key(job_id)).exists():
                # Completed by another worker between scan and claim.
                leases.release(job_id)
                continue
            _run_one(task, lease, leases, store, chaos, interval, coord_root)
            progressed = True
        if not progressed:
            time.sleep(options.poll_seconds)


# ----- parent side ----------------------------------------------------------


def _lost_job_record(job_id: str, leases: LeaseManager) -> dict[str, Any]:
    """An error record for a job with no result after recovery gave up.

    The dead worker's lease is the black box recorder: it carries the
    stage the worker last heartbeat from and when the claim started.
    """
    from repro.batch.jobs import JobResult

    lease = leases.read(job_id)
    stage = lease.stage if lease is not None else ""
    attempt = lease.attempt if lease is not None else 1
    elapsed = max(0.0, time.time() - lease.claimed_at) if lease is not None else 0.0
    return JobResult(
        job_id=job_id,
        ok=False,
        error=(
            "job lost: worker crashed and the respawn budget was "
            f"exhausted (last stage {stage or 'unknown'!r})"
        ),
        error_type="WorkerLost",
        stage=stage,
        attempt=attempt,
        latency_seconds=elapsed,
    ).to_dict()


def execute_resilient(
    tasks: Sequence[Any],
    options: ResilienceOptions,
    coord_root: str,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Run ``tasks`` under the lease-based executor.

    Returns ``(records, summary)`` with records in task order. Never
    raises for worker death; jobs that could not be completed come back
    as ``WorkerLost`` error records.
    """
    workers = options.workers or 2
    if workers < 1:
        raise ReproError(f"resilient executor needs >= 1 worker, got {workers}")
    job_ids = [task.job.job_id for task in tasks]
    if len(set(job_ids)) != len(job_ids):
        raise ReproError("resilient executor requires unique job ids")

    ctx = multiprocessing.get_context()
    store = ArtifactStore(coord_root)
    leases = LeaseManager(coord_root, owner="parent", ttl=options.lease_ttl)
    start = time.monotonic()
    summary: dict[str, Any] = {
        "workers": workers,
        "worker_crashes": 0,
        "respawns": 0,
        "lost_jobs": 0,
        "wall_limit_hit": False,
    }

    def _spawn(worker_id: int):
        proc = ctx.Process(
            target=_worker_main,
            args=(worker_id, list(tasks), coord_root, options),
            daemon=True,
        )
        proc.start()
        return proc

    procs = {i: _spawn(i) for i in range(workers)}
    next_id = workers
    finished: set[int] = set()
    abandoned: set[int] = set()

    try:
        while True:
            for slot, proc in list(procs.items()):
                if slot in finished or slot in abandoned:
                    continue
                if proc.is_alive():
                    continue
                if proc.exitcode == 0:
                    finished.add(slot)
                    continue
                summary["worker_crashes"] += 1
                obs.counter("resilience.worker.crashed").inc()
                obs.event(
                    "resilience.worker.crash",
                    slot=slot,
                    pid=proc.pid,
                    exitcode=proc.exitcode,
                )
                if summary["respawns"] < options.max_respawns:
                    summary["respawns"] += 1
                    obs.counter("resilience.worker.respawned").inc()
                    procs[slot] = _spawn(next_id)
                    next_id += 1
                else:
                    abandoned.add(slot)
            if len(finished) + len(abandoned) == len(procs):
                break
            if (
                options.wall_limit_seconds is not None
                and time.monotonic() - start > options.wall_limit_seconds
            ):
                summary["wall_limit_hit"] = True
                obs.event(
                    "resilience.wall_limit",
                    limit=options.wall_limit_seconds,
                )
                break
            time.sleep(options.poll_seconds)
    finally:
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in procs.values():
            proc.join(timeout=5.0)

    records: list[dict[str, Any]] = []
    for job_id in job_ids:
        artifact = store.load(
            RESULT_KIND, lease_key(job_id), BATCH_RESULT_VERSION
        )
        if artifact is not None:
            records.append(dict(artifact.payload))
        else:
            summary["lost_jobs"] += 1
            records.append(_lost_job_record(job_id, leases))

    reclaims = sum(1 for lease in leases.leases() if lease.attempt > 1)
    executions = sum(count_executions(coord_root).values())
    summary["reclaims"] = reclaims
    summary["executions"] = executions
    if obs.enabled():
        obs.counter("resilience.jobs.lost").inc(summary["lost_jobs"])
        obs.event(
            "resilience.batch.complete",
            **{k: v for k, v in summary.items()},
        )
    return records, summary
