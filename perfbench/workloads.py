"""The benchmark's three workloads.

Each workload is a closed loop: one submitting process issues its jobs in
a fixed order and starts the next only when the previous one returned.
``setup`` builds the inputs (from the seed); ``run_pass`` runs every job
once through the public entry points of the layers and returns a
:class:`PassResult`. Every call into a layer sits inside a span named after
the layer, so a traced pass yields per-layer self times. Solver options are
left at their defaults everywhere.

See README.md for why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import functools
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from repro import HardwareFidelity, MachineSimulator, cm5
from repro.allocation import (
    ConvexAllocationProblem,
    ConvexSolverOptions,
    certify_allocation,
    solve_allocation,
    uniform_allocation,
)
from repro.batch import BatchCompiler, BatchJob
from repro.check import Severity, check_program
from repro.codegen import generate_mpmd_program, generate_spmd_program
from repro.faults import FaultSpec, ProcessorFailure, repair_schedule
from repro.graph import layered_random_mdg
from repro.programs import PROGRAM_FACTORIES, complex_matmul_program, strassen_program
from repro.runtime import ValueExecutor
from repro.scheduling import prioritized_schedule, spmd_schedule

#: Batch caches live here, inside the checkout, and are removed after each pass.
SCRATCH = Path(__file__).resolve().parent / "out" / "tmp"

FAILED_PROCESSOR = 3

#: Value of a count the program did not report (e.g. ``Allocation.info``
#: without iteration records). Distinct from 0, which means "no work".
MISSING = -1.0


@dataclass
class JobOutcome:
    job_id: str
    latency: float = 0.0
    problems: list[str] = field(default_factory=list)
    phi: float | None = None
    makespan: float | None = None  # ideal simulated MPMD makespan
    spmd_makespan: float | None = None
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class PassResult:
    wall: float
    jobs: list[JobOutcome]
    #: Per-layer counts and ratios the workload measured itself, summed
    #: over the pass; span self times are added by the runner.
    layers: dict[str, float]


def add(layers: dict[str, float], key: str, value: float) -> None:
    """Sum ``value`` into ``layers[key]``; a MISSING part makes it MISSING."""
    if value == MISSING or layers.get(key) == MISSING:
        layers[key] = MISSING
    else:
        layers[key] = layers.get(key, 0.0) + value


def run_jobs(jobs, tracer) -> PassResult:
    """Run ``(job_id, fn)`` pairs in order, calling ``fn(out, tracer, layers)``.

    A job that raises is recorded as failed and the loop goes on.
    """
    layers: dict[str, float] = {}
    outcomes = []
    start = time.perf_counter()
    for job_id, fn in jobs:
        out = JobOutcome(job_id)
        t0 = time.perf_counter()
        with tracer.span("job", job_id):
            try:
                fn(out, tracer, layers)
            except Exception as exc:  # noqa: BLE001 - a failed job is a result
                traceback.print_exc(file=sys.stderr)
                out.problems.append(f"raised {type(exc).__name__}: {exc}")
        out.latency = time.perf_counter() - t0
        outcomes.append(out)
    return PassResult(time.perf_counter() - start, outcomes, layers)


def mpmd_stage(mdg, processors, machine, out, tracer, layers):
    """PSA, MPMD codegen, ``check_program`` and an ideal simulation."""
    job = out.job_id
    with tracer.span("scheduling.psa", job):
        schedule = prioritized_schedule(mdg, processors, machine)
    with tracer.span("codegen.mpmd", job):
        program = generate_mpmd_program(schedule, machine)
    with tracer.span("check.program", job):
        report = check_program(program, schedule=schedule, mdg=mdg, machine=machine)
    # Recorded before simulating: a miscompiled program may not simulate.
    out.problems += checks.finding_problems(report)
    add(layers, "scheduling.nodes", mdg.n_nodes)
    add(layers, "codegen.instructions", program.n_instructions)
    add(layers, "check.error_findings", report.count(Severity.ERROR))
    with tracer.span("sim.mpmd", job):
        sim = MachineSimulator().run(program, record_trace=False)
    out.problems += checks.makespan_problems("MPMD", sim.makespan, schedule.makespan)
    out.makespan = sim.makespan
    return schedule, program


def fault_stage(schedule, program, machine, seed, out, tracer, layers) -> None:
    """Simulate with processor 3 failing at half the nominal makespan, then
    repair the schedule on the survivors."""
    job = out.job_id
    spec = FaultSpec(
        seed=seed,
        processor_failures=(ProcessorFailure(FAILED_PROCESSOR, schedule.makespan / 2.0),),
    )
    with tracer.span("sim.faulted", job):
        faulted = MachineSimulator(faults=spec).run(program, record_trace=False)
    repair = None
    if faulted.halted:
        with tracer.span("faults.repair", job):
            repair = repair_schedule(
                schedule,
                machine,
                failed_processors=faulted.failed_processors,
                completed_nodes=faulted.info.get("completed_nodes", ()),
                failure_time=faulted.makespan,
            )
        add(layers, "faults.rescheduled_nodes", len(repair.report.rescheduled_nodes))
    out.problems += checks.fault_problems(faulted, repair)


def solver_counts(allocation, layers) -> None:
    """Attempt and iteration counts, read from ``Allocation.info`` if there."""
    attempts = allocation.info.get("attempts")
    if not isinstance(attempts, list):
        for key in ("allocation.attempts", "allocation.iterations",
                    "allocation.maxiter_attempts"):
            add(layers, key, MISSING)
        return
    iterations = [a["iterations"] for a in attempts if "iterations" in a]
    cap = getattr(ConvexSolverOptions(), "max_iterations", None)
    add(layers, "allocation.attempts", len(attempts))
    add(layers, "allocation.iterations", sum(iterations))
    add(layers, "allocation.maxiter_attempts",
        MISSING if cap is None else sum(1 for i in iterations if i >= cap))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def finalize(self, passes: list[PassResult]) -> None:
        """Fill in outputs that are computed after timing ends (default: none)."""


class PaperMPMD(Workload):
    """The paper's Section 6 programs on a 64-node CM-5, full user path."""

    name = "paper_mpmd"
    PROGRAMS = ((complex_matmul_program, 64), (strassen_program, 128))
    PROCESSORS = 64

    def setup(self) -> None:
        self.machine = cm5(self.PROCESSORS)
        self.bundles = [factory(n) for factory, n in self.PROGRAMS]
        self.fidelity = dataclasses.replace(HardwareFidelity.cm5_like(), seed=self.seed)

    def run_pass(self, tracer) -> PassResult:
        return run_jobs([(b.name, functools.partial(self._job, b)) for b in self.bundles],
                        tracer)

    def _job(self, bundle, out, tracer, layers) -> None:
        job, machine = out.job_id, self.machine
        with tracer.span("graph.normalize", job):
            mdg = bundle.mdg.normalized()
        with tracer.span("allocation.solve", job):
            allocation = solve_allocation(mdg, machine)
        with tracer.span("allocation.certify", job):
            certificate = certify_allocation(
                ConvexAllocationProblem(mdg, machine), allocation
            )
        solver_counts(allocation, layers)
        layers["allocation.kkt_residual_max"] = max(
            layers.get("allocation.kkt_residual_max", 0.0),
            certificate.stationarity_residual,
        )
        out.phi = allocation.phi

        schedule, program = mpmd_stage(
            mdg, allocation.processors, machine, out, tracer, layers
        )
        out.problems += checks.theorem3_problems(schedule, machine, allocation.phi)
        with tracer.span("sim.fidelity", job):
            MachineSimulator(self.fidelity).run(program, record_trace=False)
        fault_stage(schedule, program, machine, self.seed, out, tracer, layers)

        groups, placement = {}, {}
        for name in bundle.app.computational_nodes():
            entry = schedule.entry(name)
            groups[name] = entry.width
            placement[name] = entry.processors
        with tracer.span("runtime.execute", job):
            report = ValueExecutor(bundle.app).run(groups, placement)
        with tracer.span("runtime.verify", job):
            out.problems += checks.value_problems(bundle.app, report)
        add(layers, "runtime.wire_bytes", report.total_wire_bytes())

        with tracer.span("scheduling.spmd", job):
            spmd = spmd_schedule(mdg, machine)
        with tracer.span("codegen.spmd", job):
            spmd_program = generate_spmd_program(mdg, machine)
        with tracer.span("sim.spmd", job):
            spmd_sim = MachineSimulator().run(spmd_program, record_trace=False)
        out.problems += checks.makespan_problems("SPMD", spmd_sim.makespan, spmd.makespan)
        out.spmd_makespan = spmd_sim.makespan
        add(layers, "codegen.spmd_instructions", spmd_program.n_instructions)


class LayeredDownstream(Workload):
    """Seeded random layered MDGs under the uniform allocation: no solver."""

    name = "layered_downstream"
    SIZES = (10, 15, 25)  # L x L layers -> 102 / 227 / 627 normalized nodes
    PROCESSORS = 64

    def setup(self) -> None:
        self.machine = cm5(self.PROCESSORS)
        self.graphs = [
            layered_random_mdg(size, size, seed=np.random.default_rng([self.seed, size]))
            for size in self.SIZES
        ]

    def run_pass(self, tracer) -> PassResult:
        return run_jobs([(g.name, functools.partial(self._job, g)) for g in self.graphs],
                        tracer)

    def _job(self, graph, out, tracer, layers) -> None:
        job, machine = out.job_id, self.machine
        with tracer.span("graph.normalize", job):
            mdg = graph.normalized()
        with tracer.span("allocation.uniform", job):
            allocation = uniform_allocation(mdg, machine)
        # No convex solve here: Phi's objective max(A_p, C_p) is evaluated
        # at the allocation the job schedules.
        out.phi = max(allocation.average_finish_time, allocation.critical_path_time)

        schedule, program = mpmd_stage(
            mdg, allocation.processors, machine, out, tracer, layers
        )
        fault_stage(schedule, program, machine, self.seed, out, tracer, layers)

        # The SPMD side of the speedup comes from the analytic SPMD
        # schedule, which an ideal simulation realizes exactly.
        with tracer.span("scheduling.spmd", job):
            out.spmd_makespan = spmd_schedule(mdg, machine).makespan


def _cpu_seconds() -> float:
    """CPU time of this process plus its finished (waited-for) children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _store_size(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*.json") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class BatchSweep(Workload):
    """Cold then resumed ``BatchCompiler.run`` over the program registry.

    The inputs are the fixed registry programs; the seed changes none.
    """

    name = "batch_sweep"
    PROGRAMS = ("complex", "fft2d", "jacobi", "reduction", "pipeline")
    COLD_SIZE = 64
    NEIGHBOUR_SIZES = (32, 16)  # same layouts as COLD_SIZE: warm starts
    WORKERS = 2
    PROCESSORS = 16

    def setup(self) -> None:
        self.cold_jobs = [self._job("cold", p, self.COLD_SIZE) for p in self.PROGRAMS]
        self.resume_jobs = [
            self._job("resume", p, n)
            for n in (self.COLD_SIZE, *self.NEIGHBOUR_SIZES)
            for p in self.PROGRAMS
        ]

    def _job(self, phase: str, program: str, n: int) -> BatchJob:
        return BatchJob(
            job_id=f"{phase}-{program}-{n}",
            source={"kind": "program", "name": program, "n": n},
            processors=self.PROCESSORS,
            simulate=True,
        )

    def run_pass(self, tracer) -> PassResult:
        SCRATCH.mkdir(parents=True, exist_ok=True)
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=SCRATCH))
        layers: dict[str, float] = {}
        try:
            compiler = BatchCompiler(workers=self.WORKERS, cache_dir=str(cache_dir))
            cold, cold_wall, cold_cpu = self._run(compiler, self.cold_jobs, tracer, "batch.cold")
            resume, resume_wall, resume_cpu = self._run(
                compiler, self.resume_jobs, tracer, "batch.resume"
            )
            layers["store.artifacts"], layers["store.bytes"] = _store_size(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        wall = cold_wall + resume_wall
        results = cold.results + resume.results
        layers["batch.dispatch_s"] = sum(
            w - sum(r.latency_seconds for r in rep.results) / self.WORKERS
            for rep, w in ((cold, cold_wall), (resume, resume_wall))
        )
        layers["batch.cpu_per_wall"] = (cold_cpu + resume_cpu) / wall
        outcome = {r.job_id: self._outcome_class(r) for r in results}
        for kind, key in (("hit", "hits"), ("warm", "warm_starts"),
                          ("miss", "misses"), ("poisoned", "poisoned")):
            latencies = [r.latency_seconds for r in results if outcome[r.job_id] == kind]
            layers[f"batch.{key}"] = len(latencies)
            if kind != "poisoned":
                layers[f"batch.{kind}_s_p50"] = (
                    statistics.median(latencies) if latencies else 0.0
                )
        for r in results:
            if outcome[r.job_id] != "hit":
                add(layers, "allocation.attempts",
                    MISSING if r.solver_attempts < 0 else r.solver_attempts)
                add(layers, "allocation.iterations",
                    MISSING if r.solver_iterations < 0 else r.solver_iterations)

        cold_by_program = {r.job_id.split("-")[1]: r for r in cold.results}
        outcomes = []
        for r in results:
            out = JobOutcome(
                r.job_id,
                latency=r.latency_seconds,
                phi=r.phi,
                makespan=r.measured_makespan,
                detail={"cache": outcome[r.job_id], "stage": r.stage},
            )
            if not r.ok:
                out.problems.append(f"{r.error_type}: {r.error}")
            else:
                out.problems += checks.makespan_problems(
                    "MPMD", r.measured_makespan, r.predicted_makespan
                )
                if outcome[r.job_id] == "hit":
                    out.problems += checks.hit_problems(
                        r, cold_by_program[r.job_id.split("-")[1]]
                    )
            outcomes.append(out)
        return PassResult(wall, outcomes, layers)

    @staticmethod
    def _outcome_class(result) -> str:
        if result.cache == "miss" and result.warm_start:
            return "warm"
        return result.cache

    @staticmethod
    def _run(compiler, jobs, tracer, span_name):
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        with tracer.span(span_name):
            report = compiler.run(jobs)
        return report, time.perf_counter() - t0, _cpu_seconds() - cpu0

    def finalize(self, passes) -> None:
        """Attach each job's SPMD makespan (analytic SPMD schedule, which an
        ideal simulation realizes exactly); computed after timing ends."""
        machine = cm5(self.PROCESSORS)
        reference: dict[str, float] = {}
        for p in passes:
            for out in p.jobs:
                _, program, n = out.job_id.split("-")
                key = f"{program}-{n}"
                if key not in reference:
                    mdg = PROGRAM_FACTORIES[program](int(n)).mdg.normalized()
                    reference[key] = spmd_schedule(mdg, machine).makespan
                out.spmd_makespan = reference[key]


WORKLOADS = {w.name: w for w in (PaperMPMD, LayeredDownstream, BatchSweep)}
