"""The end-to-end compilation pipeline (Section 1.2's five steps).

The paper's compiler is one stage sequence, written once here in
:func:`_run_stages`: normalize → allocate (convex program) → schedule
(PSA) → post-conditions → codegen → optional ``verify_program`` gate →
simulate → repair if the simulated machine lost processors. Every stage
gets its ``obs`` span, its cooperative deadline check and an ``on_stage``
callback; given an artifact store, the normalized MDG, allocation,
schedule and simulation are also checkpointed.

Three callers run that sequence:

* :func:`compile_mdg` stops after codegen: no store, no simulation.
  :func:`execute_bundle` and :func:`execute_with_faults` add simulation
  (and repair) and then value-execute the program on the machine.
* :func:`run_resumable` is the crash-safe variant: every stage output is
  frozen to a content-addressed artifact store, so a run killed at any
  point can be re-issued and picks up from its last completed stage.
* Batch jobs (:mod:`repro.batch.compiler`) use the structural solve cache
  as the allocate step and stamp each stage into their lease.

:func:`compile_spmd` is the separate, two-stage SPMD baseline, and
:func:`measure` replays a compiled program on the machine simulator.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from repro import obs
from repro.obs.prof import hot as _hot
from repro.allocation.certificate import (
    CERTIFIED_STATIONARITY_TOL,
    certify_allocation,
)
from repro.allocation.formulation import ConvexAllocationProblem
from repro.allocation.result import ALLOCATION_SCHEMA_VERSION, Allocation
from repro.allocation.solver import ConvexSolverOptions, solve_allocation
from repro.codegen.mpmd import generate_mpmd_program
from repro.codegen.program import MPMDProgram
from repro.codegen.spmd import generate_spmd_program
from repro.errors import ReproError, SchedulingError
from repro.faults.injector import FaultInjector
from repro.faults.recovery import ScheduleRepair, repair_schedule
from repro.faults.spec import FaultSpec
from repro.graph.mdg import MDG
from repro.graph.serialization import mdg_to_dict
from repro.io.results import (
    SCHEDULE_SCHEMA_VERSION,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.machine.fidelity import HardwareFidelity
from repro.machine.parameters import MachineParameters
from repro.resilience.deadline import check_deadline
from repro.scheduling.baselines import spmd_schedule
from repro.scheduling.psa import PSAOptions, prioritized_schedule
from repro.scheduling.schedule import Schedule
from repro.sim.engine import MachineSimulator, SimulationResult
from repro.store import ArtifactStore, content_hash

__all__ = [
    "CompilationResult",
    "compile_mdg",
    "compile_spmd",
    "measure",
    "BundleExecution",
    "execute_bundle",
    "FaultedExecution",
    "execute_with_faults",
    "check_postconditions",
    "ResumableRun",
    "run_resumable",
]


@dataclass
class CompilationResult:
    """Everything the pipeline produced for one (MDG, machine) pair."""

    mdg: MDG
    machine: MachineParameters
    allocation: Allocation
    schedule: Schedule
    program: MPMDProgram
    style: str = "MPMD"
    info: dict = field(default_factory=dict)

    @property
    def phi(self) -> float | None:
        """The convex optimum (None for SPMD compilations)."""
        return self.allocation.phi

    @property
    def predicted_makespan(self) -> float:
        """The schedule's analytic finish time (``T_psa`` for MPMD)."""
        return self.schedule.makespan


def check_postconditions(
    mdg: MDG,
    machine: MachineParameters,
    allocation: Allocation,
    schedule: Schedule,
    *,
    strict: bool = False,
    certify: bool = False,
    source: str = "fresh",
) -> list[str]:
    """Re-check what the pipeline is supposed to guarantee.

    Always re-validates the schedule's structural invariants; with
    ``certify=True`` (used whenever a stage was *resumed from an artifact*
    rather than freshly computed, and in strict compilations) the convex
    allocation is additionally re-certified through its KKT certificate.
    An analytic-fallback allocation is never a certified optimum and is
    reported as such rather than run through the certificate.

    Every failed check emits a ``pipeline.postcondition`` warning event;
    under ``strict=True`` the first batch of failures raises
    :class:`~repro.errors.SchedulingError` instead of letting a bad
    schedule flow downstream. Returns the list of problems found.
    """
    problems = [
        f"schedule.validate: {problem}" for problem in schedule.validation_errors()
    ]

    # The solver flags a fallback with info["fallback"]; unlike the
    # info["solver"] record, that flag survives Allocation.to_dict, so
    # resumed allocations carry it too.
    if certify and allocation.phi is not None:
        if allocation.info.get("fallback"):
            problems.append(
                "allocation is the analytic fallback, not a certified optimum"
            )
        else:
            try:
                problem = ConvexAllocationProblem(mdg, machine)
                cert = certify_allocation(problem, allocation)
                if not cert.is_optimal(stationarity_tol=CERTIFIED_STATIONARITY_TOL):
                    problems.append(
                        "allocation certificate: stationarity residual "
                        f"{cert.stationarity_residual:.3g}, max violation "
                        f"{cert.max_violation:.3g} — not a certified optimum"
                    )
            except ReproError as exc:
                problems.append(f"allocation certificate: {exc}")

    if problems:
        obs.counter("pipeline.postcondition.failed").inc(len(problems))
        for problem in problems:
            obs.event(
                "pipeline.postcondition", ok=False, source=source, problem=problem
            )
        if strict:
            raise SchedulingError(
                f"pipeline post-conditions failed ({source}): "
                + "; ".join(problems)
            )
    return problems


def _verify_program(
    program: MPMDProgram,
    schedule,
    machine: MachineParameters,
    artifact: str,
) -> None:
    """The opt-in post-codegen gate: comm family over the fresh program.

    Raises :class:`~repro.errors.CheckError` on error-severity findings
    so a miscompiled program never reaches the simulator or executor.
    """
    from repro.check import Severity, check_program

    with obs.span("check.program", artifact=artifact):
        report = check_program(
            program,
            schedule=schedule,
            mdg=schedule.mdg,
            machine=machine,
            artifact=artifact,
        )
    report.raise_if(Severity.ERROR)


def compile_mdg(
    mdg: MDG,
    machine: MachineParameters,
    psa_options: PSAOptions | None = None,
    solver_options: ConvexSolverOptions | None = None,
    strict: bool = False,
    check: bool = False,
    check_strict: bool = False,
    verify_program: bool = False,
) -> CompilationResult:
    """Allocate (convex program), schedule (PSA), and generate MPMD code.

    With ``strict=True`` the pipeline's post-conditions are enforced:
    the schedule is re-validated and the allocation re-certified (KKT),
    raising on failure instead of emitting warning events.

    With ``check=True`` the static analyzer's graph/cost/ir pass families
    run as a pre-flight gate *before* the solver is invoked, raising
    :class:`~repro.errors.CheckError` on error-severity findings
    (``check_strict=True`` rejects warning-severity findings too).

    With ``verify_program=True`` the comm pass family statically verifies
    the generated MPMD program (send/recv matching, deadlock-freedom,
    schedule and cost-model consistency) *after* codegen, raising
    :class:`~repro.errors.CheckError` on error-severity findings before
    the program reaches the simulator or executor.
    """
    return _run_stages(
        mdg,
        machine,
        psa_options=psa_options,
        solver_options=solver_options,
        strict=strict,
        check=check,
        check_strict=check_strict,
        verify_program=verify_program,
    ).compilation


def compile_spmd(
    mdg: MDG,
    machine: MachineParameters,
    verify_program: bool = False,
) -> CompilationResult:
    """The all-processors SPMD compilation used as the Figure 8 baseline."""
    with obs.span(
        "compile", style="SPMD", machine=machine.name, processors=machine.processors
    ):
        normalized = mdg.normalized()
        with obs.span("schedule") as sp:
            schedule = spmd_schedule(normalized, machine)
            sp.set_attr("makespan", schedule.makespan)
        with obs.span("codegen"):
            program = generate_spmd_program(normalized, machine)
        if verify_program:
            _verify_program(program, schedule, machine, f"mdg:{mdg.name}")
    allocation = Allocation(
        processors={name: float(w) for name, w in schedule.allocation().items()},
        phi=None,
        info={"style": "SPMD"},
    )
    return CompilationResult(
        mdg=normalized,
        machine=machine,
        allocation=allocation,
        schedule=schedule,
        program=program,
        style="SPMD",
    )


@dataclass
class BundleExecution:
    """Everything :func:`execute_bundle` produced for one program bundle."""

    compilation: CompilationResult
    simulation: SimulationResult
    value_report: object  # repro.runtime.executor.ExecutionReport

    @property
    def predicted_makespan(self) -> float:
        return self.compilation.predicted_makespan

    @property
    def measured_makespan(self) -> float:
        return self.simulation.makespan

    @property
    def locality_fraction(self) -> float:
        return self.value_report.locality_fraction()


def _execute_values(bundle, run: "ResumableRun", faults, verify: bool):
    """Value-execute ``bundle`` on the processors ``run`` placed it on.

    Nodes the repair rescheduled run on their *new* (surviving)
    processors; every other node keeps its compiled placement. With
    ``verify=True`` each node's distributed result is checked against
    the sequential reference.
    """
    from repro.runtime.executor import ValueExecutor
    from repro.runtime.verify import verify_against_reference

    repair = run.repair
    repaired_names = (
        set(repair.report.rescheduled_nodes) if repair is not None else set()
    )
    groups: dict[str, int] = {}
    placement: dict[str, tuple[int, ...]] = {}
    for name in bundle.app.computational_nodes():
        if name in repaired_names and repair.physical_schedule is not None:
            entry = repair.physical_schedule.entry(name)
        else:
            entry = run.compilation.schedule.entry(name)
        groups[name] = entry.width
        placement[name] = entry.processors
    report = ValueExecutor(bundle.app).run(groups, placement, faults=faults)
    if verify:
        with obs.span("verify", recovered=repair is not None):
            verify_against_reference(bundle.app, report)
    return report


def execute_bundle(
    bundle,
    machine: MachineParameters,
    fidelity: HardwareFidelity | None = None,
    psa_options: PSAOptions | None = None,
    verify: bool = True,
) -> BundleExecution:
    """Compile, simulate, and value-execute a program bundle in one call.

    The value execution uses the *schedule's* processor groups and
    physical placement, so locality statistics reflect the compiled
    program; with ``verify=True`` (default) every node's distributed
    result is checked against the sequential reference.
    """
    with obs.span("execute_bundle", bundle=getattr(bundle, "name", "?")):
        run = _run_stages(
            bundle.mdg, machine, psa_options=psa_options, simulate=True,
            fidelity=fidelity,
        )
        report = _execute_values(bundle, run, None, verify)
    return BundleExecution(
        compilation=run.compilation, simulation=run.simulation, value_report=report
    )


def measure(
    result: CompilationResult,
    fidelity: HardwareFidelity | None = None,
    record_trace: bool = True,
    faults: FaultSpec | FaultInjector | None = None,
) -> SimulationResult:
    """Run the compiled program on the simulated machine.

    With default (ideal) fidelity the measured makespan realizes the
    analytic model exactly; pass
    :meth:`HardwareFidelity.cm5_like() <repro.machine.fidelity.HardwareFidelity.cm5_like>`
    for realistic deviations (the Figure 9 configuration). ``faults``
    injects a degraded machine (see :mod:`repro.faults`); a run that loses
    processors returns a *partial* result with ``info["halted"]`` set.
    """
    check_deadline("simulate")
    simulator = MachineSimulator(fidelity, faults=faults)
    with obs.span(
        "simulate",
        style=result.style,
        ideal=simulator.fidelity.is_ideal,
        record_trace=record_trace,
        faulted=faults is not None,
    ) as sp:
        sim = simulator.run(result.program, record_trace=record_trace)
        sp.set_attr("makespan", sim.makespan)
        if sim.halted:
            sp.set_attr("halted", True)
    return sim


@dataclass
class FaultedExecution:
    """Outcome of one fault-injected run, after any schedule repair."""

    compilation: CompilationResult
    simulation: SimulationResult
    repair: ScheduleRepair | None
    value_report: object  # repro.runtime.executor.ExecutionReport

    @property
    def recovered(self) -> bool:
        """True when processors died and schedule repair was performed."""
        return self.repair is not None

    @property
    def nominal_makespan(self) -> float:
        return self.compilation.predicted_makespan

    @property
    def repaired_makespan(self) -> float:
        """Finish time including the fault: the repaired estimate when
        processors died, otherwise the measured (possibly slowed) makespan."""
        if self.repair is not None:
            return self.repair.report.repaired_makespan
        return self.simulation.makespan

    @property
    def degradation(self) -> float:
        if self.repair is not None:
            return self.repair.report.degradation
        if self.nominal_makespan == 0.0:
            return 1.0
        return self.simulation.makespan / self.nominal_makespan


def execute_with_faults(
    bundle,
    machine: MachineParameters,
    faults: FaultSpec | FaultInjector,
    fidelity: HardwareFidelity | None = None,
    psa_options: PSAOptions | None = None,
    verify: bool = True,
    repair_overhead: float = 0.0,
    record_trace: bool = False,
) -> FaultedExecution:
    """Compile, simulate under ``faults``, repair, re-execute, verify.

    The program bundle is compiled and simulated exactly like
    :func:`execute_bundle`, but on the fault-injected machine. If the
    simulation halts (permanent processor losses), the unfinished residual
    graph is re-scheduled on the survivors via
    :func:`repro.faults.recovery.repair_schedule`, and the value execution
    places the rescheduled nodes on their *new* (surviving) processors —
    completed nodes keep their nominal placement. ``verify=True`` then
    checks the distributed answer against the sequential reference, so a
    recovered run is demonstrably still correct.
    """
    if isinstance(faults, FaultInjector):
        spec = faults.spec
    elif isinstance(faults, FaultSpec):
        spec = faults
    else:
        raise TypeError(
            f"faults must be a FaultSpec or FaultInjector, got "
            f"{type(faults).__name__}"
        )

    with obs.span(
        "execute_with_faults",
        bundle=getattr(bundle, "name", "?"),
        fault_seed=spec.seed,
    ):
        run = _run_stages(
            bundle.mdg,
            machine,
            psa_options=psa_options,
            simulate=True,
            fidelity=fidelity,
            faults=faults,
            record_trace=record_trace,
            repair_overhead=repair_overhead,
        )
        report = _execute_values(bundle, run, faults, verify)
    return FaultedExecution(
        compilation=run.compilation,
        simulation=run.simulation,
        repair=run.repair,
        value_report=report,
    )


# ----- the stage sequence ----------------------------------------------------

#: Stage schema versions. Bump one when its payload shape changes; cached
#: artifacts written under the old version are treated as stale on resume.
MDG_STAGE_VERSION = 1
SIMULATION_STAGE_VERSION = 1
RECOVERY_STAGE_VERSION = 1

_STALL_ENV = "REPRO_STORE_STALL_AFTER"
_STALL_SECONDS_ENV = "REPRO_STORE_STALL_SECONDS"


def _test_stall(stage: str) -> None:
    """CI/test hook: sleep after persisting ``stage``'s artifact.

    Lets the kill-and-resume smoke test SIGKILL the process at a
    deterministic point ("after the allocation stage") instead of racing
    the scheduler. No-op unless ``REPRO_STORE_STALL_AFTER`` names this
    stage.
    """
    if os.environ.get(_STALL_ENV) == stage:
        time.sleep(float(os.environ.get(_STALL_SECONDS_ENV, "30")))


def _options_fingerprint(options: Any) -> Any:
    """A canonical-JSON-safe identity for a stage-options dataclass."""
    if options is None:
        return None
    fingerprint = asdict(options)
    for key, value in fingerprint.items():
        if isinstance(value, tuple):
            fingerprint[key] = list(value)
    return fingerprint


def _machine_fingerprint(machine: MachineParameters) -> dict:
    return {
        "name": machine.name,
        "processors": machine.processors,
        "transfer": asdict(machine.transfer),
    }


def _stage_keys(
    normalized: MDG,
    machine: MachineParameters,
    solver_options: ConvexSolverOptions | None,
    psa_options: PSAOptions | None,
    fidelity: HardwareFidelity | None,
    faults: FaultSpec | FaultInjector | None,
    record_trace: bool,
) -> dict[str, str]:
    """The content-hash key each checkpointed stage kind is filed under."""
    base = content_hash(
        {
            "mdg": mdg_to_dict(normalized),
            "machine": _machine_fingerprint(machine),
            "solver": _options_fingerprint(solver_options),
            "psa": _options_fingerprint(psa_options),
        }
    )
    spec = faults.spec if isinstance(faults, FaultInjector) else faults
    sim = content_hash(
        {
            "base": base,
            "fidelity": _options_fingerprint(fidelity),
            "faults": spec.to_dict() if spec is not None else None,
            "record_trace": bool(record_trace),
        }
    )
    return {
        "mdg": base, "allocation": base, "schedule": base,
        "simulation": sim, "recovery": sim,
    }


@dataclass
class ResumableRun:
    """Everything the stage sequence produced, plus its provenance.

    ``stage_sources`` maps each stage kind to ``"cache"`` (resumed from a
    valid artifact) or ``"computed"`` (ran this time); ``keys`` holds the
    content-hash cache key each stage was filed under (empty when no
    store was given).
    """

    compilation: CompilationResult
    simulation: SimulationResult | None
    repair: ScheduleRepair | None
    stage_sources: dict[str, str]
    keys: dict[str, str]
    cache_dir: str | None

    @property
    def resumed_stages(self) -> list[str]:
        return sorted(k for k, v in self.stage_sources.items() if v == "cache")


def _simulation_payload(sim: SimulationResult, record_trace: bool) -> dict:
    safe_info: dict[str, Any] = {}
    for key, value in sim.info.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe_info[key] = value
        elif isinstance(value, (list, tuple, set)):
            items = sorted(value) if isinstance(value, set) else list(value)
            if all(isinstance(v, (str, int, float, bool)) for v in items):
                safe_info[key] = items
    payload: dict[str, Any] = {
        "makespan": sim.makespan,
        "processor_finish": {str(k): v for k, v in sim.processor_finish.items()},
        "info": safe_info,
        "trace": None,
    }
    if record_trace:
        payload["trace"] = [
            {
                "processor": e.processor,
                "kind": e.kind,
                "node": e.node,
                "start": e.start,
                "end": e.end,
                "detail": e.detail,
            }
            for e in sim.trace
        ]
    return payload


def _simulation_from_payload(payload: dict) -> SimulationResult:
    from repro.sim.trace import ExecutionTrace, TraceEvent

    trace = ExecutionTrace()
    for event in payload.get("trace") or ():
        trace.add(
            TraceEvent(
                processor=int(event["processor"]),
                kind=str(event["kind"]),
                node=str(event["node"]),
                start=float(event["start"]),
                end=float(event["end"]),
                detail=str(event.get("detail", "")),
            )
        )
    info = dict(payload.get("info", {}))
    info["resumed_from_cache"] = True
    return SimulationResult(
        makespan=float(payload["makespan"]),
        processor_finish={
            int(k): float(v) for k, v in payload.get("processor_finish", {}).items()
        },
        trace=trace,
        info=info,
    )


def _run_stages(
    mdg: MDG,
    machine: MachineParameters,
    *,
    style: str = "MPMD",
    allocate: Callable[[MDG], Allocation] | None = None,
    solver_options: ConvexSolverOptions | None = None,
    psa_options: PSAOptions | None = None,
    strict: bool = False,
    check: bool = False,
    check_strict: bool = False,
    verify_program: bool = False,
    simulate: bool = False,
    fidelity: HardwareFidelity | None = None,
    faults: FaultSpec | FaultInjector | None = None,
    record_trace: bool = False,
    repair_overhead: float = 0.0,
    store: ArtifactStore | None = None,
    resume: bool = True,
    on_stage: Callable[[str], None] | None = None,
) -> ResumableRun:
    """The compiler's one stage sequence; every pipeline entry point runs it.

    ``allocate`` replaces the default convex solve (the batch structural
    cache plugs in here); ``on_stage`` is called with each stage name as
    the sequence enters it. ``style="SPMD"`` swaps the allocate-to-codegen
    stages for :func:`compile_spmd`. Given a ``store``, every stage output
    is filed to it and, with ``resume``, resumed from it.
    """
    if check or check_strict:
        from repro.check import preflight_check

        preflight_check(
            mdg, machine, strict=check_strict, artifact=f"mdg:{mdg.name}"
        )

    sources: dict[str, str] = {}
    keys: dict[str, str] = {}

    def enter(stage: str) -> None:
        check_deadline(stage)
        if on_stage is not None:
            on_stage(stage)

    def load(kind: str, version: int, decode: Callable[[Any], Any]) -> Any:
        """The stage's valid artifact, decoded, or None to compute it.

        A payload the decoder rejects is reported as ``store.corrupt``
        and recomputed (raised under a strict store), never trusted.
        """
        sources[kind] = "computed"
        if store is None or not resume:
            return None
        artifact = store.load(kind, keys[kind], version)
        if artifact is None:
            return None
        try:
            value = decode(artifact.payload)
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            if store.strict:
                raise
            obs.event(
                "store.corrupt", kind=kind, reason=f"payload rejected: {exc}"
            )
            return None
        sources[kind] = "cache"
        return value

    def save(kind: str, version: int, payload: Callable[[], Any], **meta) -> None:
        if store is not None:
            store.store(
                kind, keys[kind], payload(), version, meta={"stage": kind, **meta}
            )
            _test_stall(kind)

    if style == "SPMD":
        enter("schedule")
        compilation = compile_spmd(mdg, machine, verify_program=verify_program)
    else:
        with obs.span(
            "compile", style="MPMD", machine=machine.name,
            processors=machine.processors,
        ) as compile_span:
            with _hot("mdg.normalize"):
                normalized = mdg.normalized()
            compile_span.set_attr("nodes", normalized.n_nodes)
            if store is not None:
                keys = _stage_keys(
                    normalized, machine, solver_options, psa_options,
                    fidelity, faults, record_trace,
                )
            # The normalized MDG is cheap to recompute, but filing it makes
            # a cache directory self-describing.
            if load("mdg", MDG_STAGE_VERSION, lambda _payload: normalized) is None:
                save(
                    "mdg", MDG_STAGE_VERSION, lambda: mdg_to_dict(normalized),
                    name=normalized.name,
                )

            allocation = load(
                "allocation", ALLOCATION_SCHEMA_VERSION, Allocation.from_dict
            )
            if allocation is None:
                enter("allocate")
                with obs.span("allocate") as sp:
                    if allocate is None:
                        allocation = solve_allocation(
                            normalized, machine, solver_options
                        )
                    else:
                        allocation = allocate(normalized)
                    sp.set_attr("phi", allocation.phi)
                save("allocation", ALLOCATION_SCHEMA_VERSION, allocation.to_dict)

            schedule = load("schedule", SCHEDULE_SCHEMA_VERSION, schedule_from_dict)
            if schedule is None:
                enter("schedule")
                with obs.span("schedule") as sp:
                    schedule = prioritized_schedule(
                        normalized, allocation.processors, machine, psa_options
                    )
                    sp.set_attr("makespan", schedule.makespan)
                save(
                    "schedule", SCHEDULE_SCHEMA_VERSION,
                    lambda: schedule_to_dict(schedule),
                )

            # Anything resumed from disk is re-certified before the
            # pipeline builds on it.
            resumed = [k for k in ("allocation", "schedule") if sources[k] == "cache"]
            with _hot("pipeline.postconditions"):
                check_postconditions(
                    normalized,
                    machine,
                    allocation,
                    schedule,
                    strict=strict,
                    certify=strict or bool(resumed),
                    source=("resume:" + "+".join(resumed)) if resumed else "fresh",
                )

            # Codegen is deterministic and cheap — never checkpointed.
            enter("codegen")
            with obs.span("codegen") as sp:
                program = generate_mpmd_program(schedule, machine)
                sp.set_attr("instructions", program.n_instructions)
            if verify_program:
                _verify_program(program, schedule, machine, f"mdg:{mdg.name}")
        compilation = CompilationResult(
            mdg=normalized,
            machine=machine,
            allocation=allocation,
            schedule=schedule,
            program=program,
            style="MPMD",
        )

    simulation: SimulationResult | None = None
    repair: ScheduleRepair | None = None
    if simulate:
        simulation = load(
            "simulation", SIMULATION_STAGE_VERSION, _simulation_from_payload
        )
        if simulation is None:
            enter("simulate")
            simulation = measure(
                compilation, fidelity, record_trace=record_trace, faults=faults
            )
            save(
                "simulation", SIMULATION_STAGE_VERSION,
                lambda: _simulation_payload(simulation, record_trace),
            )
        if simulation.halted:
            # Repair is recomputed even on resume (it is fast and needs
            # live Schedule objects); its report is filed as the run's
            # artifact of record.
            repair = repair_schedule(
                compilation.schedule,
                machine,
                failed_processors=simulation.failed_processors,
                completed_nodes=simulation.info.get("completed_nodes", ()),
                failure_time=simulation.makespan,
                psa_options=psa_options,
                repair_overhead=repair_overhead,
            )
            sources["recovery"] = "computed"
            save("recovery", RECOVERY_STAGE_VERSION, repair.report.to_dict)

    return ResumableRun(
        compilation=compilation,
        simulation=simulation,
        repair=repair,
        stage_sources=sources,
        keys={kind: key for kind, key in keys.items() if kind in sources},
        cache_dir=None,
    )


def run_resumable(
    mdg: MDG,
    machine: MachineParameters,
    *,
    cache_dir: str | os.PathLike | None,
    resume: bool = True,
    strict: bool = False,
    simulate: bool = True,
    fidelity: HardwareFidelity | None = None,
    faults: FaultSpec | FaultInjector | None = None,
    psa_options: PSAOptions | None = None,
    solver_options: ConvexSolverOptions | None = None,
    record_trace: bool = False,
    repair_overhead: float = 0.0,
    check: bool = False,
    check_strict: bool = False,
    verify_program: bool = False,
) -> ResumableRun:
    """Compile (and optionally simulate) with per-stage checkpointing.

    Every stage output — normalized MDG, allocation, schedule, simulation
    (with its trace when ``record_trace``), recovery report — is written
    to ``cache_dir`` as a checksummed artifact keyed by the content hash
    of its inputs. With ``resume=True`` stages whose valid artifacts
    already exist are skipped; corrupted or stale artifacts are
    quarantined and recomputed (``store.corrupt``), never trusted and
    never fatal — unless ``strict=True``, where they raise.

    A schedule or allocation loaded from an artifact is re-checked before
    use: :meth:`Schedule.validate` plus the KKT optimality certificate
    (see :func:`check_postconditions`), so a tampered-but-checksum-valid
    cache still cannot smuggle an invalid schedule into execution.

    ``cache_dir=None`` degrades to a plain uncached run. ``check=True``
    runs the static analyzer's pre-flight gate (graph/cost/ir families)
    before any stage — including before the allocation solver — raising
    :class:`~repro.errors.CheckError` on error findings;
    ``check_strict=True`` also rejects warnings. ``verify_program=True``
    adds the post-codegen gate: the comm family statically verifies the
    generated program (send/recv matching, deadlock-freedom, schedule
    and cost consistency) before simulation.
    """
    store = (
        ArtifactStore(cache_dir, strict=strict) if cache_dir is not None else None
    )
    with obs.span(
        "run_resumable",
        machine=machine.name,
        processors=machine.processors,
        cached=store is not None,
        resume=resume,
    ):
        run = _run_stages(
            mdg,
            machine,
            solver_options=solver_options,
            psa_options=psa_options,
            strict=strict,
            check=check,
            check_strict=check_strict,
            verify_program=verify_program,
            simulate=simulate,
            fidelity=fidelity,
            faults=faults,
            record_trace=record_trace,
            repair_overhead=repair_overhead,
            store=store,
            resume=resume,
        )
    run.cache_dir = str(cache_dir) if cache_dir is not None else None
    return run
