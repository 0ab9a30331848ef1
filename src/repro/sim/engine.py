"""The machine simulator: executes an MPMD program and reports times.

Semantics
---------
Each processor runs its instruction stream strictly in order (real MPMD
node programs are sequential). Sends are non-blocking for the *edge* but
occupy the sender for ``t^S``; a message is *posted* when its send
completes. A receive blocks until every matching sender has posted, then
charges the network delay (data moves at receive time — the CM-5's CMMD
behaviour the paper describes) followed by the receive processing cost.

Progress is driven by a worklist sweep: repeatedly advance every processor
as far as it can go; if a full sweep advances nothing and instructions
remain, the program has deadlocked (only possible for hand-built programs —
generated ones are deadlock-free by construction, which a test asserts).
The raised :class:`~repro.errors.DeadlockError` carries every stalled
receive and the first wait-for cycle among them (processors and
instruction indices). This loop is the only MPMD interpreter: the comm
check family's deadlock rule (COMM005) runs programs through it too, via
:meth:`MachineSimulator.execute`, which skips ``validate()``.

Fidelity
--------
With :meth:`~repro.machine.fidelity.HardwareFidelity.ideal` hardware every
operation costs exactly what the analytic model predicts, but execution is
*self-timed*: a processor starts each operation as soon as its program
order and message dependencies allow, like a real MPMD binary. The
simulated makespan therefore never exceeds the schedule's predicted
makespan (the schedule is a feasible timing of the same op order) and
matches it exactly when the schedule has no forced idling. Non-ideal fidelity
perturbs compute (curvature on the parallel part), start-ups (partial
serialization of a node's 2nd, 3rd, ... message at the same processor)
and, optionally, applies seeded multiplicative jitter — producing the
"actual" times of the Figure 9 experiment.

Faults
------
A :class:`~repro.faults.spec.FaultSpec` (or prebuilt
:class:`~repro.faults.injector.FaultInjector`) adds a degraded-machine
layer on top of fidelity: per-processor slowdowns scale all local
processing; transient node-execution failures charge failed attempts plus
exponential backoff and, when the retry budget is exhausted, escalate to a
permanent processor loss; receives can see link latency spikes and
dropped messages (each retransmit recharges the message processing cost);
and scheduled :class:`~repro.faults.spec.ProcessorFailure` entries kill a
processor at the first instruction boundary at or after their time. When
processors die, the run *halts* instead of deadlocking: the returned
result carries ``info["halted"]``, the completed/unfinished node sets, and
the failure times — everything
:func:`repro.faults.recovery.repair_schedule` needs to re-schedule the
residual graph on the survivors. All fault decisions come from seeded
per-processor streams, so runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.obs.prof import HOT_PREFIX as _HOT_PREFIX
from repro.codegen.pretty import program_summary
from repro.codegen.program import ComputeOp, MPMDProgram, RecvOp, SendOp
from repro.errors import DeadlockError, SimulationError
from repro.faults.injector import FaultInjector, FaultSession
from repro.faults.spec import FaultSpec
from repro.machine.fidelity import HardwareFidelity
from repro.resilience.deadline import check_deadline
from repro.sim.trace import ExecutionTrace, TraceEvent

__all__ = ["MachineSimulator", "SimulationResult", "BlockedAt"]


@dataclass
class SimulationResult:
    """Outcome of one simulated execution."""

    makespan: float
    processor_finish: dict[int, float]
    trace: ExecutionTrace
    info: dict = field(default_factory=dict)

    def node_finish_times(self) -> dict[str, float]:
        return self.trace.node_finish_times()

    @property
    def halted(self) -> bool:
        """True when a permanent fault stopped the run before completion."""
        return bool(self.info.get("halted", False))

    @property
    def failed_processors(self) -> tuple[int, ...]:
        return tuple(self.info.get("failed_processors", ()))

    def busy_fraction(self, total_processors: int) -> float:
        """Machine-wide useful-work fraction over the makespan."""
        if self.makespan == 0.0:
            return 1.0
        busy = sum(
            self.trace.busy_time(q) for q in range(total_processors)
        )
        return busy / (total_processors * self.makespan)


class _ProcessorState:
    __slots__ = ("clock", "pc", "node_msg_count", "rng")

    def __init__(self, seed: int, proc: int):
        self.clock = 0.0
        self.pc = 0
        # messages already issued for the node currently executing, used
        # for start-up serialization; reset when the node changes.
        self.node_msg_count: dict[str, int] = {}
        self.rng = np.random.default_rng((seed, proc))


@dataclass(frozen=True)
class BlockedAt:
    """One processor stuck at one receive when a run stops progressing."""

    processor: int
    index: int
    edge: tuple[str, str]
    #: Processors whose outstanding sends this receive is waiting for
    #: (empty when every expected sender already finished without posting
    #: — a dropped send rather than a cycle).
    waiting_on: tuple[int, ...]

    def describe(self) -> str:
        return (
            f"proc {self.processor} at instruction {self.index} "
            f"(recv {self.edge[0]}->{self.edge[1]})"
        )


def _wait_cycle(by_proc: dict[int, BlockedAt]) -> tuple[BlockedAt, ...]:
    """The first cycle (DFS from the lowest processor) in the wait-for graph.

    A blocked processor waits for every blocked processor that still holds
    a send it needs.
    """
    stack: list[int] = []
    done: set[int] = set()

    def visit(p: int) -> tuple[int, ...]:
        stack.append(p)
        for q in by_proc[p].waiting_on:
            if q in stack:
                return tuple(stack[stack.index(q) :])
            if q in by_proc and q not in done:
                found = visit(q)
                if found:
                    return found
        stack.pop()
        done.add(p)
        return ()

    for p in sorted(by_proc):
        found = () if p in done else visit(p)
        if found:
            return tuple(by_proc[q] for q in found)
    return ()


def _deadlock(
    program: MPMDProgram,
    state: dict[int, "_ProcessorState"],
    pending_sends: dict[tuple[str, str], int],
    remaining: int,
    limit: int = 8,
) -> DeadlockError:
    """The no-progress error: every stalled receive and the wait-for cycle.

    Only a receive can block (computes and sends always execute), so each
    unfinished stream is stopped at a :class:`~repro.codegen.program.RecvOp`.
    """
    outstanding: dict[tuple[str, str], set[int]] = {}
    for q, ps in state.items():
        for op in program.streams[q][ps.pc :]:
            if isinstance(op, SendOp):
                outstanding.setdefault(op.edge, set()).add(q)
    by_proc: dict[int, BlockedAt] = {}
    for q in sorted(state):
        pc = state[q].pc
        if pc < len(program.streams[q]):
            edge = program.streams[q][pc].edge
            waiting = tuple(sorted(outstanding.get(edge, set()) - {q}))
            by_proc[q] = BlockedAt(q, pc, edge, waiting)
    blocked = tuple(by_proc.values())
    cycle = _wait_cycle(by_proc)

    details = [
        f"proc {b.processor}: node {b.edge[1]!r} blocked on recv tag "
        f"{b.edge[0]}->{b.edge[1]} ({pending_sends.get(b.edge, 0)} unposted "
        f"send(s), pc={b.index}, t={state[b.processor].clock:.6g})"
        for b in blocked[:limit]
    ]
    if len(blocked) > limit:
        details.append(f"... {len(blocked) - limit} more")
    if cycle:
        chain = " -> ".join(b.describe() for b in cycle + cycle[:1])
        details.insert(0, f"wait-for cycle {chain}")
    total = program.n_instructions
    return DeadlockError(
        f"no progress with {remaining} instructions left; " + "; ".join(details),
        blocked=blocked,
        wait_cycle=cycle,
        executed=total - remaining,
        total=total,
    )


class MachineSimulator:
    """Executes :class:`~repro.codegen.program.MPMDProgram` instances.

    ``faults`` accepts a :class:`~repro.faults.spec.FaultSpec` or a
    prebuilt :class:`~repro.faults.injector.FaultInjector`; each ``run``
    gets a fresh, deterministically seeded fault session.
    """

    def __init__(
        self,
        fidelity: HardwareFidelity | None = None,
        faults: FaultSpec | FaultInjector | None = None,
    ):
        self.fidelity = fidelity or HardwareFidelity.ideal()
        if isinstance(faults, FaultSpec):
            faults = FaultInjector(faults)
        if faults is not None and not isinstance(faults, FaultInjector):
            raise SimulationError(
                f"faults must be a FaultSpec or FaultInjector, got "
                f"{type(faults).__name__}"
            )
        self.faults = faults

    def run(self, program: MPMDProgram, record_trace: bool = True) -> SimulationResult:
        """Simulate ``program`` to completion (or to a fault-induced halt).

        ``program.validate()`` first, then :meth:`execute`. Raises
        :class:`DeadlockError` if no processor can make progress while
        instructions remain and no fault explains the stall.
        """
        program.validate()
        result = self.execute(program, record_trace)
        if obs.enabled():
            self._record_telemetry(program, result.trace, result.makespan, record_trace)
        return result

    def execute(
        self, program: MPMDProgram, record_trace: bool = True
    ) -> SimulationResult:
        """:meth:`run` without ``validate()`` or the per-run telemetry, so
        COMM005 can judge programs ``validate()`` rejects (a dropped send).
        """
        fidelity = self.fidelity
        procs = sorted(program.streams)
        state = {q: _ProcessorState(fidelity.seed, q) for q in procs}
        trace = ExecutionTrace()

        session: FaultSession | None = (
            self.faults.session() if self.faults is not None else None
        )
        telemetry_on = obs.enabled()
        fail_at: dict[int, float | None] = {}
        expected_computes: dict[str, int] = {}
        done_computes: dict[str, int] = {}
        if session is not None:
            fail_at = {q: session.failure_time(q) for q in procs}
            for stream in program.streams.values():
                for op in stream:
                    if isinstance(op, ComputeOp):
                        expected_computes[op.node] = (
                            expected_computes.get(op.node, 0) + 1
                        )
            done_computes = dict.fromkeys(expected_computes, 0)

        # Per edge: number of sends still unposted, and the latest post time.
        # Each registered sender posts once; a send op on an edge that no
        # registry names counts for itself (never the case after validate()).
        registered = program.senders.keys() | program.receivers.keys()
        pending_sends = {
            edge: len(program.senders.get(edge, ())) for edge in registered
        }
        for stream in program.streams.values():
            for op in stream:
                if isinstance(op, SendOp) and op.edge not in registered:
                    pending_sends[op.edge] = pending_sends.get(op.edge, 0) + 1
        post_time = dict.fromkeys(pending_sends, 0.0)

        remaining = program.n_instructions

        def kill(q: int, at: float, reason: str) -> None:
            """Permanently lose processor ``q``: drop its residual stream."""
            nonlocal remaining
            session.mark_dead(q, at)
            remaining -= len(program.streams[q]) - state[q].pc
            if record_trace:
                trace.add(
                    TraceEvent(
                        processor=q,
                        kind="fault",
                        node="",
                        start=at,
                        end=at,
                        detail=f"processor lost ({reason})",
                    )
                )
            if telemetry_on:
                obs.counter("faults.processors_lost").inc()
                obs.event(
                    "fault.processor_lost",
                    level="warning",
                    processor=q,
                    time=at,
                    reason=reason,
                )

        sweeps = 0
        halted = False
        if telemetry_on:
            # Hot-spot timer per worklist sweep: the simulator's unit of
            # forward progress, and where all its time goes.
            sweep_time = obs.histogram(_HOT_PREFIX + "sim.sweep")
        while remaining > 0:
            sweeps += 1
            if not sweeps & 0xFF:
                # Cooperative deadline check (ambient, near-free when no
                # deadline is active); every 256 sweeps keeps it off the
                # hot path of small programs.
                check_deadline("simulate")
            if telemetry_on:
                sweep_t0 = time.perf_counter()
            progressed = False
            for q in procs:
                ps = state[q]
                stream = program.streams[q]
                if session is not None and session.is_dead(q):
                    continue
                while ps.pc < len(stream):
                    if session is not None:
                        deadline = fail_at.get(q)
                        if deadline is not None and ps.clock >= deadline:
                            kill(q, ps.clock, "scheduled failure")
                            progressed = True
                            break
                    op = stream[ps.pc]
                    if isinstance(op, RecvOp):
                        if pending_sends.get(op.edge, 0) > 0:
                            break  # blocked on matching sends
                        delay = op.network_delay
                        plan = None
                        if session is not None:
                            plan = session.message_plan(q)
                            delay *= plan.spike_factor
                        ready = post_time.get(op.edge, 0.0) + delay
                        start = max(ps.clock, ready)
                        if record_trace and start > ps.clock:
                            trace.add(
                                TraceEvent(
                                    processor=q,
                                    kind="wait",
                                    node=op.target,
                                    start=ps.clock,
                                    end=start,
                                    detail=f"recv {op.source}->{op.target}",
                                )
                            )
                        idx = ps.node_msg_count.get(op.target, 0)
                        cost = (
                            op.startup_cost * fidelity.startup_scale(idx)
                            + op.byte_cost
                        ) * fidelity.jitter_factor(ps.rng)
                        retransmit_cost = 0.0
                        if session is not None:
                            cost *= session.slowdown(q)
                            if plan is not None and plan.retransmits:
                                retransmit_cost = plan.retransmits * cost
                            if telemetry_on and plan is not None and not plan.clean:
                                if plan.spike_factor != 1.0:
                                    obs.counter("faults.link_spikes").inc()
                                if plan.retransmits:
                                    obs.counter("faults.dropped_messages").inc(
                                        plan.retransmits
                                    )
                                obs.event(
                                    "fault.link",
                                    processor=q,
                                    edge=f"{op.source}->{op.target}",
                                    spike_factor=plan.spike_factor,
                                    retransmits=plan.retransmits,
                                )
                        ps.node_msg_count[op.target] = idx + 1
                        end = start + cost
                        if record_trace:
                            trace.add(
                                TraceEvent(
                                    processor=q,
                                    kind="recv",
                                    node=op.target,
                                    start=start,
                                    end=end,
                                    detail=f"{op.source}->{op.target}",
                                )
                            )
                        if retransmit_cost > 0.0:
                            if record_trace:
                                trace.add(
                                    TraceEvent(
                                        processor=q,
                                        kind="fault",
                                        node=op.target,
                                        start=end,
                                        end=end + retransmit_cost,
                                        detail=(
                                            f"retransmit x{plan.retransmits} "
                                            f"{op.source}->{op.target}"
                                        ),
                                    )
                                )
                            end += retransmit_cost
                        ps.clock = end
                    elif isinstance(op, SendOp):
                        idx = ps.node_msg_count.get(op.source, 0)
                        cost = (
                            op.startup_cost * fidelity.startup_scale(idx)
                            + op.byte_cost
                        ) * fidelity.jitter_factor(ps.rng)
                        if session is not None:
                            cost *= session.slowdown(q)
                        ps.node_msg_count[op.source] = idx + 1
                        start = ps.clock
                        end = start + cost
                        if record_trace:
                            trace.add(
                                TraceEvent(
                                    processor=q,
                                    kind="send",
                                    node=op.source,
                                    start=start,
                                    end=end,
                                    detail=f"{op.source}->{op.target}",
                                )
                            )
                        ps.clock = end
                        pending_sends[op.edge] -= 1
                        post_time[op.edge] = max(post_time[op.edge], end)
                    else:  # ComputeOp
                        serial = op.cost - op.parallel_cost
                        # Curvature applies to the part that shrank with p.
                        width = op_width(program, op.node)
                        cost = (
                            serial
                            + op.parallel_cost * fidelity.compute_scale(width)
                        ) * fidelity.jitter_factor(ps.rng)
                        start = ps.clock
                        if session is not None:
                            cost *= session.slowdown(q)
                            plan = session.compute_plan(q)
                            if plan.exhausted:
                                if telemetry_on:
                                    obs.counter("faults.retries_exhausted").inc()
                                    obs.event(
                                        "fault.retries_exhausted",
                                        level="warning",
                                        processor=q,
                                        node=op.node,
                                        attempts=plan.failures + 1,
                                    )
                                kill(q, start, f"retries exhausted on {op.node!r}")
                                progressed = True
                                break
                            if plan.failures:
                                retry_cost = (
                                    plan.failures
                                    * cost
                                    * session.spec.attempt_fraction
                                    + plan.backoff_total
                                )
                                if record_trace and retry_cost > 0.0:
                                    trace.add(
                                        TraceEvent(
                                            processor=q,
                                            kind="fault",
                                            node=op.node,
                                            start=start,
                                            end=start + retry_cost,
                                            detail=(
                                                f"{plan.failures} failed "
                                                f"attempt(s) + backoff"
                                            ),
                                        )
                                    )
                                start += retry_cost
                                if telemetry_on:
                                    obs.counter("faults.transient_failures").inc(
                                        plan.failures
                                    )
                                    obs.event(
                                        "fault.transient",
                                        processor=q,
                                        node=op.node,
                                        failures=plan.failures,
                                        backoff=plan.backoff_total,
                                    )
                        end = start + cost
                        if record_trace and end > ps.clock:
                            trace.add(
                                TraceEvent(
                                    processor=q,
                                    kind="compute",
                                    node=op.node,
                                    start=start,
                                    end=end,
                                )
                            )
                        ps.clock = end
                        if session is not None:
                            done_computes[op.node] += 1
                        # A new node's messages start a fresh pipeline.
                        ps.node_msg_count[op.node] = 0
                    ps.pc += 1
                    remaining -= 1
                    progressed = True
            if telemetry_on:
                sweep_time.observe(time.perf_counter() - sweep_t0)
            if not progressed:
                if session is not None and session.dead:
                    # Survivors are starved by the dead processors; stop
                    # here and let schedule repair take over.
                    halted = True
                    break
                raise _deadlock(program, state, pending_sends, remaining)
        halted = halted or remaining > 0

        if record_trace:
            trace.validate_sequential()
        finish = {q: state[q].clock for q in procs}
        makespan = max(finish.values(), default=0.0)
        info = {
            "fidelity_ideal": fidelity.is_ideal,
            "style": program.info.get("style", "?"),
            "mdg": program.info.get("mdg", "?"),
        }
        if session is not None:
            completed = sorted(
                name
                for name, done in done_computes.items()
                if done >= expected_computes[name]
            )
            unfinished = sorted(set(expected_computes) - set(completed))
            info.update(
                {
                    "fault_injection": True,
                    "fault_seed": session.spec.seed,
                    "halted": halted,
                    "failed_processors": sorted(session.dead),
                    "failure_times": dict(sorted(session.dead.items())),
                    "completed_nodes": completed,
                    "unfinished_nodes": unfinished,
                }
            )
            if telemetry_on and halted:
                obs.event(
                    "fault.halt",
                    level="warning",
                    failed_processors=sorted(session.dead),
                    completed=len(completed),
                    unfinished=len(unfinished),
                    time=makespan,
                )
        if telemetry_on:
            obs.counter("sim.sweeps").inc(sweeps)
        return SimulationResult(
            makespan=makespan,
            processor_finish=finish,
            trace=trace,
            info=info,
        )


    def _record_telemetry(
        self,
        program: MPMDProgram,
        trace: ExecutionTrace,
        makespan: float,
        record_trace: bool,
    ) -> None:
        """Post-run accounting (only called when telemetry is enabled).

        Instruction mix and message volume are static per program, so the
        hot execution loop stays untouched; only utilization needs the
        recorded trace (wait time is dynamic).
        """
        summary = program_summary(program)
        sends, recvs = int(summary["sends"]), int(summary["receives"])
        computes, bytes_sent = int(summary["computes"]), summary["bytes_sent"]
        obs.counter("sim.runs").inc()
        obs.counter("sim.instructions").inc(program.n_instructions)
        obs.counter("sim.sends").inc(sends)
        obs.counter("sim.recvs").inc(recvs)
        obs.counter("sim.bytes_sent").inc(bytes_sent)
        obs.gauge("sim.makespan").set(makespan)
        utilization = None
        if record_trace and makespan > 0.0:
            n_procs = len(program.streams)
            busy = sum(trace.busy_time(q) for q in program.streams)
            utilization = busy / (n_procs * makespan)
            obs.gauge("sim.utilization").set(utilization)
        obs.event(
            "sim.run",
            processors=len(program.streams),
            instructions=program.n_instructions,
            sends=sends,
            recvs=recvs,
            computes=computes,
            bytes_sent=bytes_sent,
            makespan=makespan,
            utilization=utilization,
            trace_events=len(trace) if record_trace else 0,
        )


def op_width(program: MPMDProgram, node: str) -> int:
    """Processor-group width of ``node`` in ``program``'s allocation."""
    allocation = program.info.get("allocation")
    try:
        return int(allocation[node])
    except (LookupError, TypeError, ValueError, OverflowError):
        return 1  # unallocated node, or junk in a hand-edited document
