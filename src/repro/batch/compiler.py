"""High-throughput batch compilation with structural reuse.

:class:`BatchCompiler` pushes many pipeline jobs through a worker pool.
Each job runs the pipeline's one stage sequence (:mod:`repro.pipeline`:
allocate -> schedule -> codegen -> optionally simulate), with two reuse
layers on top of :mod:`repro.store` as its allocate step:

* **Structural solve cache** — each compiled convex program is hashed by
  its exact structure (see :mod:`repro.batch.structural`); a hit returns
  the stored solution *re-certified through the KKT certificate* before
  anything downstream trusts it. A cached entry that fails certification
  is quarantined and the job re-solves — a poisoned cache degrades to a
  slow batch, never to a wrong answer.
* **Warm-start reuse** — a job whose program is a *layout neighbor* of a
  previously solved one (same structure, different cost scaling) seeds
  :attr:`ConvexSolverOptions.initial_allocation` with the neighbor's
  optimum, replacing the uniform multistart ladder with one solve that
  starts near the answer.

Determinism contract: results are bit-identical across the inline serial
executor, any worker count, and cached re-runs. Structural hits return
the exact floats the original solve produced, and warm starts only
consult neighbors that existed *before* the batch started (the parent
snapshots the warm-start index), so intra-batch completion races can
never steer a job's solver trajectory.

Telemetry crosses the process boundary by value: when the parent's
telemetry is enabled, each worker (or the inline executor) runs its job
under a private in-memory collector and ships the captured spans, events
(including per-iteration solver convergence records), and metrics back
inside the job record as an *obs bundle* (:mod:`repro.obs.bundle`). The
parent merges every bundle under a synthetic per-job ``batch.job`` span,
so a 4-worker sweep and a serial run of the same jobs produce equivalent
span and metric sets in the parent run log. Aggregate ``batch.*``
counters and events are additionally emitted by the parent from the
returned records, so summary metrics are complete even for crashed
workers that never shipped a bundle.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro import obs
from repro.batch.jobs import BatchJob, JobResult
from repro.errors import ReproError
from repro.utils.tables import format_table

__all__ = ["BATCH_ALLOCATION_VERSION", "BatchCompiler", "BatchReport"]

#: Schema versions of the two batch artifact kinds.
BATCH_ALLOCATION_VERSION = 1
BATCH_WARMSTART_VERSION = 1

_ALLOCATION_KIND = "batch-allocation"
_WARMSTART_KIND = "batch-warmstart"


@dataclass(frozen=True)
class _WorkerTask:
    """Everything one worker needs, picklable and self-contained."""

    index: int
    job: BatchJob
    cache_dir: str | None
    resume: bool
    strict: bool
    #: Warm-start layout keys that existed when the batch started. Jobs
    #: only read neighbors from this snapshot (determinism; see module
    #: docstring).
    warm_keys: frozenset[str]
    #: Capture the job's telemetry into an obs bundle for the parent to
    #: merge. Set from ``obs.enabled()`` in the parent at submit time.
    capture_obs: bool = False
    #: Per-job wall-clock budget (seconds). Installed as the ambient
    #: :class:`repro.resilience.Deadline` around the job body, where the
    #: solver, PSA, and simulator check it cooperatively.
    deadline_seconds: float | None = None


def _resolve_mdg(source: dict[str, Any]):
    """Materialize the job's MDG inside the worker process."""
    kind = source.get("kind")
    if kind == "program":
        from repro.programs import PROGRAM_FACTORIES

        factory = PROGRAM_FACTORIES[source["name"]]
        return factory(int(source["n"])).mdg
    if kind == "file":
        from repro.graph.serialization import load_mdg

        return load_mdg(source["path"])
    if kind == "doc":
        from repro.graph.serialization import mdg_from_dict

        return mdg_from_dict(source["doc"])
    raise ReproError(f"unknown batch job source kind {kind!r}")


def _resolve_machine(job: BatchJob):
    if job.machine_params is not None:
        return job.machine_params
    from repro.machine.presets import PRESETS

    try:
        factory = PRESETS[job.machine]
    except KeyError as exc:
        raise ReproError(f"unknown machine preset {job.machine!r}") from exc
    return factory(job.processors)


def _allocation_payload(problem, allocation) -> dict[str, Any]:
    """The scale-free stored form of a solved allocation."""
    solver = allocation.info.get("solver", {})
    return {
        "processors_by_index": [
            float(allocation.processors[name])
            for name in problem.layout.node_names
        ],
        "phi_scaled": (
            None
            if allocation.phi is None
            else float(allocation.phi) / problem.time_scale
        ),
        "method": str(solver.get("method", "")),
        "iterations": int(solver.get("iterations", -1)),
    }


def _allocation_from_payload(problem, payload: dict[str, Any]):
    """Rebuild an Allocation for *this* problem from a stored payload.

    Raises :class:`ReproError` (via ValidationError/KeyError translation)
    when the payload does not fit the problem — the caller treats that as
    a poisoned entry.
    """
    from repro.allocation.result import Allocation
    from repro.errors import ValidationError

    names = problem.layout.node_names
    raw = payload.get("processors_by_index")
    if not isinstance(raw, list) or len(raw) != len(names):
        raise ValidationError(
            f"stored allocation covers {0 if not isinstance(raw, list) else len(raw)} "
            f"variables where the problem has {len(names)}"
        )
    processors = {name: float(raw[i]) for i, name in enumerate(names)}
    phi_scaled = payload.get("phi_scaled")
    phi = None if phi_scaled is None else float(phi_scaled) * problem.time_scale
    a_exact, c_exact = problem.evaluate_allocation(processors)
    return Allocation(
        processors=processors,
        phi=phi,
        average_finish_time=a_exact,
        critical_path_time=c_exact,
        info={
            "solver": {
                "method": payload.get("method", ""),
                "iterations": int(payload.get("iterations", -1)),
                "phi_scaled": phi_scaled,
            },
            "structural_cache": True,
        },
    )


def _load_or_solve(task: _WorkerTask, normalized, machine, result):
    """The allocation stage with structural-cache and warm-start reuse.

    Fills ``result.cache`` / ``result.warm_start`` / key fields in place
    and returns the :class:`~repro.allocation.result.Allocation`.
    """
    from repro.allocation.certificate import (
        CERTIFIED_STATIONARITY_TOL,
        certify_allocation,
    )
    from repro.allocation.formulation import ConvexAllocationProblem
    from repro.allocation.solver import ConvexSolverOptions, solve_allocation
    from repro.batch.structural import layout_key, structural_key
    from repro.store import ArtifactStore

    problem = ConvexAllocationProblem(normalized, machine)
    store = None
    if task.cache_dir is not None:
        store = ArtifactStore(task.cache_dir, strict=task.strict)
        result.cache = "miss"
    skey = structural_key(problem)
    lkey = layout_key(problem)
    result.structural_key = skey
    result.layout_key = lkey

    if store is not None and task.resume:
        path = store.path_for(_ALLOCATION_KIND, skey)
        existed = path.exists()
        artifact = store.load(_ALLOCATION_KIND, skey, BATCH_ALLOCATION_VERSION)
        if artifact is not None:
            try:
                allocation = _allocation_from_payload(problem, artifact.payload)
                certificate = certify_allocation(problem, allocation)
            except ReproError as exc:
                store.quarantine(path, reason=f"batch payload rejected: {exc}")
                result.cache = "poisoned"
            else:
                if certificate.is_optimal(
                    stationarity_tol=CERTIFIED_STATIONARITY_TOL
                ):
                    result.cache = "hit"
                    return allocation
                store.quarantine(
                    path,
                    reason="batch allocation failed KKT re-certification "
                    f"(residual {certificate.stationarity_residual:.3g}, "
                    f"violation {certificate.max_violation:.3g})",
                )
                result.cache = "poisoned"
        elif existed:
            # The store itself rejected the envelope (bad checksum /
            # version) and already quarantined the file.
            result.cache = "poisoned"

    options = task.job.solver or ConvexSolverOptions()
    if store is not None and task.resume and lkey in task.warm_keys:
        warm = store.load(_WARMSTART_KIND, lkey, BATCH_WARMSTART_VERSION)
        if warm is not None:
            raw = warm.payload.get("processors_by_index")
            names = problem.layout.node_names
            if isinstance(raw, list) and len(raw) == len(names):
                options = replace(
                    options,
                    initial_allocation={
                        name: float(raw[i]) for i, name in enumerate(names)
                    },
                    # The warm attempt replaces the uniform multistart
                    # ladder; the solver's jittered-restart ladder remains
                    # as the safety net if it stalls.
                    multistart_targets=(),
                )
                result.warm_start = True

    allocation = solve_allocation(normalized, machine, options)
    if store is not None:
        store.store(
            _ALLOCATION_KIND,
            skey,
            _allocation_payload(problem, allocation),
            BATCH_ALLOCATION_VERSION,
            meta={"stage": "batch-allocation", "job": task.job.job_id},
        )
        if lkey not in task.warm_keys and not store.path_for(
            _WARMSTART_KIND, lkey
        ).exists():
            store.store(
                _WARMSTART_KIND,
                lkey,
                {
                    "processors_by_index": [
                        float(allocation.processors[name])
                        for name in problem.layout.node_names
                    ]
                },
                BATCH_WARMSTART_VERSION,
                meta={"stage": "batch-warmstart", "job": task.job.job_id},
            )
    return allocation


def _execute_job(task: _WorkerTask, on_stage=None) -> dict[str, Any]:
    """Run one job end to end; always returns a JSON-safe record.

    This is the function the process pool pickles — it must stay at
    module level, and it must never raise: any failure becomes an
    ``ok=False`` record so one broken job cannot kill the sweep.

    When ``task.capture_obs`` is set, the job runs under a private
    in-memory telemetry collector (installed globally *for this process
    or, inline, for the duration of this call*) and the captured spans,
    events, and metrics travel back in the record's ``obs_bundle`` for
    the parent to merge. The same path runs in both executors, which is
    what makes serial and parallel telemetry equivalent.

    ``on_stage`` (resilient executor only) is called with each stage name
    as the job enters it, so the heartbeat thread can stamp the current
    stage into the lease record.
    """
    if task.capture_obs:
        local = obs.Telemetry(sinks=[obs.MemorySink()])
        with obs.use(local):
            record = _execute_job_body(task, on_stage)
        record["obs_bundle"] = obs.capture_bundle(local)
        return record
    return _execute_job_body(task, on_stage)


def _execute_job_body(task: _WorkerTask, on_stage=None) -> dict[str, Any]:
    from repro.machine.fidelity import HardwareFidelity
    from repro.pipeline import _run_stages
    from repro.resilience.deadline import Deadline, deadline_scope

    job = task.job
    result = JobResult(job_id=job.job_id, ok=False)
    start = time.perf_counter()

    def enter(stage: str) -> None:
        result.stage = stage
        if on_stage is not None:
            on_stage(stage)

    deadline = (
        Deadline(task.deadline_seconds)
        if task.deadline_seconds is not None
        else None
    )
    try:
        with deadline_scope(deadline):
            enter("resolve")
            mdg = _resolve_mdg(job.source)
            machine = _resolve_machine(job)
            fidelity = (
                HardwareFidelity.named(job.fidelity)
                if isinstance(job.fidelity, str)
                else job.fidelity
            )
            # task.strict governs the structural store; post-conditions
            # only warn, since a cache hit is already KKT-certified by
            # _load_or_solve and must not be certified twice.
            run = _run_stages(
                mdg,
                machine,
                style=job.style,
                allocate=lambda normalized: _load_or_solve(
                    task, normalized, machine, result
                ),
                psa_options=job.psa,
                simulate=job.simulate,
                fidelity=fidelity,
                on_stage=enter,
            )
            allocation = run.compilation.allocation
            result.phi = allocation.phi
            result.predicted_makespan = run.compilation.predicted_makespan
            result.processors = {
                k: float(v) for k, v in allocation.processors.items()
            }
            solver_info = allocation.info.get("solver", {})
            if isinstance(solver_info, dict):
                result.solver_iterations = int(solver_info.get("iterations", -1))
            attempts = allocation.info.get("attempts")
            if isinstance(attempts, (list, tuple)):
                result.solver_attempts = len(attempts)
            if run.simulation is not None:
                result.measured_makespan = run.simulation.makespan
            result.ok = True
            result.stage = "done"
    except Exception as exc:  # noqa: BLE001 - per-job isolation by design
        result.error = str(exc)
        result.error_type = type(exc).__name__
        # A deadline may expire in a deeper stage than the one this body
        # last entered (e.g. inside the simulator loop); trust it.
        exc_stage = getattr(exc, "stage", "")
        if exc_stage:
            result.stage = exc_stage
    result.latency_seconds = time.perf_counter() - start
    return result.to_dict()


@dataclass
class BatchReport:
    """Ordered results plus aggregate throughput statistics."""

    results: list[JobResult]
    wall_seconds: float
    workers: int
    cache_dir: str | None = None
    #: Crash/recovery summary from the resilient executor (worker crashes,
    #: respawns, lease reclaims, executions); None for the plain executors.
    resilience: dict[str, Any] | None = None

    @property
    def n_ok(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def n_failed(self) -> int:
        return len(self.results) - self.n_ok

    @property
    def jobs_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return len(self.results) / self.wall_seconds

    def _latency_percentile(self, q: float) -> float:
        latencies = sorted(r.latency_seconds for r in self.results)
        if not latencies:
            return 0.0
        k = min(len(latencies) - 1, max(0, round(q * (len(latencies) - 1))))
        return latencies[k]

    @property
    def latency_p50(self) -> float:
        return self._latency_percentile(0.50)

    @property
    def latency_p95(self) -> float:
        return self._latency_percentile(0.95)

    def cache_count(self, kind: str) -> int:
        return sum(1 for r in self.results if r.cache == kind)

    @property
    def warm_starts(self) -> int:
        return sum(1 for r in self.results if r.warm_start)

    def to_dict(self) -> dict[str, Any]:
        return {
            "results": [r.to_dict() for r in self.results],
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "jobs": len(self.results),
            "ok": self.n_ok,
            "failed": self.n_failed,
            "jobs_per_second": self.jobs_per_second,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "cache_hits": self.cache_count("hit"),
            "cache_misses": self.cache_count("miss"),
            "cache_poisoned": self.cache_count("poisoned"),
            "warm_starts": self.warm_starts,
            "resilience": self.resilience,
        }

    def render_text(self) -> str:
        rows = []
        for r in self.results:
            status = "ok" if r.ok else f"ERROR ({r.error_type})"
            if not r.ok and r.stage:
                status += f" @{r.stage}"
            rows.append(
                (
                    r.job_id,
                    status,
                    "-" if r.phi is None else f"{r.phi:.6g}",
                    "-"
                    if r.predicted_makespan is None
                    else f"{r.predicted_makespan:.6g}",
                    r.cache + ("+warm" if r.warm_start else ""),
                    f"{r.latency_seconds:.3f}",
                )
            )
        table = format_table(
            ["job", "status", "phi (s)", "T_psa (s)", "cache", "latency (s)"],
            rows,
            title=f"batch: {len(self.results)} job(s), {self.workers} worker(s)",
        )
        summary = (
            f"wall {self.wall_seconds:.3f} s | "
            f"{self.jobs_per_second:.2f} jobs/s | "
            f"p50 {self.latency_p50:.3f} s | p95 {self.latency_p95:.3f} s | "
            f"cache {self.cache_count('hit')} hit / "
            f"{self.cache_count('miss')} miss / "
            f"{self.cache_count('poisoned')} poisoned | "
            f"{self.warm_starts} warm start(s) | "
            f"{self.n_failed} failed"
        )
        if self.resilience is not None:
            res = self.resilience
            summary += (
                f"\nresilience: {res.get('worker_crashes', 0)} worker "
                f"crash(es), {res.get('respawns', 0)} respawn(s), "
                f"{res.get('reclaims', 0)} lease reclaim(s), "
                f"{res.get('executions', 0)} execution(s) for "
                f"{len(self.results)} job(s), "
                f"{res.get('lost_jobs', 0)} lost"
            )
        return f"{table}\n{summary}"


class BatchCompiler:
    """Run many pipeline jobs through a worker pool with solve reuse.

    Parameters
    ----------
    workers:
        ``0`` or ``1`` selects the inline serial executor (deterministic
        single-process debugging); larger values use a
        :class:`~concurrent.futures.ProcessPoolExecutor` of that size.
    cache_dir:
        Root of the structural solve cache (an
        :class:`~repro.store.ArtifactStore` directory, shareable with the
        checkpoint store). ``None`` disables all reuse.
    resume:
        When ``True`` (default) cached artifacts are read back; ``False``
        only writes them (mirroring :func:`repro.pipeline.run_resumable`).
    strict:
        Propagated to the store: damaged artifacts raise instead of being
        quarantined and recomputed.
    deadline_seconds:
        Per-job wall-clock budget enforced cooperatively inside the
        worker (solver attempts, PSA, simulation); an over-budget job
        becomes an ``ok=False`` record with ``error_type``
        ``DeadlineExceeded``. ``None`` disables budgets.
    """

    def __init__(
        self,
        workers: int = 0,
        cache_dir: str | None = None,
        resume: bool = True,
        strict: bool = False,
        solver_options: Any = None,
        psa_options: Any = None,
        deadline_seconds: float | None = None,
    ):
        if workers < 0:
            raise ReproError(f"workers must be >= 0, got {workers!r}")
        self.workers = int(workers)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.resume = bool(resume)
        self.strict = bool(strict)
        self.solver_options = solver_options
        self.psa_options = psa_options
        self.deadline_seconds = (
            float(deadline_seconds) if deadline_seconds is not None else None
        )

    # ----- task construction ----------------------------------------------

    def _snapshot_warm_keys(self) -> frozenset[str]:
        """Layout keys with a warm-start entry *before* this batch runs."""
        if self.cache_dir is None or not self.resume:
            return frozenset()
        from pathlib import Path

        warm_dir = Path(self.cache_dir) / _WARMSTART_KIND
        if not warm_dir.is_dir():
            return frozenset()
        return frozenset(p.stem for p in warm_dir.glob("*.json"))

    def _tasks(self, jobs: Sequence[BatchJob]) -> list[_WorkerTask]:
        warm_keys = self._snapshot_warm_keys()
        capture_obs = obs.enabled()
        tasks = []
        for i, job in enumerate(jobs):
            if job.solver is None and self.solver_options is not None:
                job = replace(job, solver=self.solver_options)
            if job.psa is None and self.psa_options is not None:
                job = replace(job, psa=self.psa_options)
            tasks.append(
                _WorkerTask(
                    index=i,
                    job=job,
                    cache_dir=self.cache_dir,
                    resume=self.resume,
                    strict=self.strict,
                    warm_keys=warm_keys,
                    capture_obs=capture_obs,
                    deadline_seconds=self.deadline_seconds,
                )
            )
        return tasks

    # ----- execution --------------------------------------------------------

    def run(self, jobs: Sequence[BatchJob]) -> BatchReport:
        """Execute every job; results come back in submission order."""
        tasks = self._tasks(jobs)
        start = time.perf_counter()
        with obs.span(
            "batch",
            jobs=len(tasks),
            workers=self.workers,
            cached=self.cache_dir is not None,
        ):
            if self.workers <= 1:
                records = [_execute_job(task) for task in tasks]
            else:
                records = self._run_pool(tasks)
            self._merge_bundles(records)
        wall = time.perf_counter() - start
        results = [JobResult(**record) for record in records]
        report = BatchReport(
            results=results,
            wall_seconds=wall,
            workers=self.workers,
            cache_dir=self.cache_dir,
        )
        self._emit_telemetry(report)
        return report

    def _run_pool(self, tasks: list[_WorkerTask]) -> list[dict[str, Any]]:
        """Dispatch to a process pool; collect ordered, crash-tolerant."""
        records: list[dict[str, Any] | None] = [None] * len(tasks)
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            submitted_at = time.perf_counter()
            pending = {pool.submit(_execute_job, task): task for task in tasks}
            while pending:
                done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
                for future in done:
                    task = pending.pop(future)
                    try:
                        records[task.index] = future.result()
                    except Exception as exc:  # worker process died
                        records[task.index] = JobResult(
                            job_id=task.job.job_id,
                            ok=False,
                            error=f"worker crashed: {exc}",
                            error_type=type(exc).__name__,
                            # The pool cannot say which stage died (the
                            # resilient executor can, via the lease), but
                            # wall time since submit bounds the triage.
                            stage="worker",
                            latency_seconds=time.perf_counter() - submitted_at,
                        ).to_dict()
        # ``None`` can only remain if the executor lost track of a future
        # entirely (broken pool); surface it as an error record.
        for i, record in enumerate(records):
            if record is None:
                records[i] = JobResult(
                    job_id=tasks[i].job.job_id,
                    ok=False,
                    error="worker pool lost the job",
                    error_type="WorkerCrash",
                ).to_dict()
        return records  # type: ignore[return-value]

    def run_resilient(self, jobs: Sequence[BatchJob], options=None) -> BatchReport:
        """Execute the batch under the crash-tolerant executor.

        Jobs are claimed through expiring lease records in the
        coordination directory (``cache_dir``, or a private temporary
        directory when caching is off), worker processes that die are
        respawned, and completed jobs are recorded as idempotent result
        artifacts — see :mod:`repro.resilience.engine`. ``options`` is a
        :class:`repro.resilience.ResilienceOptions`; its worker count
        defaults to this compiler's.
        """
        import tempfile

        from repro.resilience.engine import ResilienceOptions, execute_resilient

        if options is None:
            options = ResilienceOptions()
        if options.workers is None:
            options = replace(options, workers=max(2, self.workers))
        if options.deadline_seconds is None and self.deadline_seconds is not None:
            options = replace(options, deadline_seconds=self.deadline_seconds)

        # Worker obs bundles cannot cross the artifact boundary (they are
        # merged live in the pool executor); the resilient executor trades
        # per-job span subtrees for crash tolerance.
        tasks = [
            replace(task, capture_obs=False,
                    deadline_seconds=options.deadline_seconds)
            for task in self._tasks(jobs)
        ]
        start = time.perf_counter()
        tmp_dir = None
        if self.cache_dir is not None:
            coord_root = self.cache_dir
        else:
            tmp_dir = tempfile.TemporaryDirectory(prefix="repro-batch-coord-")
            coord_root = tmp_dir.name
        try:
            with obs.span(
                "batch.resilient",
                jobs=len(tasks),
                workers=options.workers,
                lease_ttl=options.lease_ttl,
                chaos=options.chaos is not None,
            ):
                records, summary = execute_resilient(tasks, options, coord_root)
        finally:
            if tmp_dir is not None:
                tmp_dir.cleanup()
        wall = time.perf_counter() - start
        results = [JobResult(**record) for record in records]
        report = BatchReport(
            results=results,
            wall_seconds=wall,
            workers=options.workers,
            cache_dir=self.cache_dir,
            resilience=summary,
        )
        self._emit_telemetry(report)
        return report

    # ----- telemetry --------------------------------------------------------

    @staticmethod
    def _merge_bundles(records: list[dict[str, Any]]) -> None:
        """Merge worker obs bundles into the parent telemetry, then drop
        them from the records so reports and JSON dumps stay small.

        Runs while the ``batch`` span is still open, so each merged
        subtree nests under it. Crashed workers have no bundle — their
        jobs simply contribute no subtree (the aggregate ``batch.*``
        events still record them).
        """
        telemetry = obs.get()
        for record in records:
            bundle = record.pop("obs_bundle", None) if record else None
            if bundle is None or not telemetry.enabled:
                continue
            try:
                obs.merge_bundle(
                    telemetry, bundle, job_id=str(record.get("job_id", "?"))
                )
            except (ValueError, TypeError, KeyError) as exc:
                obs.event(
                    "batch.bundle_rejected",
                    job=str(record.get("job_id", "?")),
                    error=str(exc),
                )

    @staticmethod
    def _emit_telemetry(report: BatchReport) -> None:
        """Replay per-job summary records into the parent's telemetry.

        Complements the merged worker bundles: these aggregates are
        derived from the returned records alone, so they are complete
        even for jobs whose worker crashed before shipping telemetry.
        """
        if not obs.enabled():
            return
        obs.counter("batch.jobs").inc(len(report.results))
        latency = obs.histogram("batch.job.latency")
        for r in report.results:
            latency.observe(r.latency_seconds)
            if not r.ok:
                obs.counter("batch.jobs.failed").inc()
            if r.cache in ("hit", "miss", "poisoned"):
                obs.counter(f"batch.cache.{r.cache}").inc()
            if r.warm_start:
                obs.counter("batch.warm_start").inc()
            obs.event(
                "batch.job",
                job=r.job_id,
                ok=r.ok,
                cache=r.cache,
                warm_start=r.warm_start,
                latency=r.latency_seconds,
                error=r.error,
            )
        obs.event(
            "batch.complete",
            jobs=len(report.results),
            failed=report.n_failed,
            wall_seconds=report.wall_seconds,
            jobs_per_second=report.jobs_per_second,
            latency_p50=report.latency_p50,
            latency_p95=report.latency_p95,
            cache_hits=report.cache_count("hit"),
            cache_misses=report.cache_count("miss"),
            cache_poisoned=report.cache_count("poisoned"),
            warm_starts=report.warm_starts,
        )
