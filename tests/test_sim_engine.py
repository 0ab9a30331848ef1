"""Unit tests for the machine simulator."""

import pytest

from repro.codegen.program import ComputeOp, MPMDProgram, RecvOp, SendOp
from repro.errors import DeadlockError
from repro.machine.fidelity import HardwareFidelity
from repro.sim.engine import MachineSimulator
from repro.sim.trace import ExecutionTrace, TraceEvent


def hand_program() -> MPMDProgram:
    """Proc 0 computes 'a' (2 s) then sends; proc 1 receives then computes
    'b' (1 s). Edge delay 0.5 s, send 0.1 s, recv 0.2 s."""
    program = MPMDProgram(total_processors=2)
    program.streams[0] = [
        ComputeOp("a", 2.0, parallel_cost=1.5),
        SendOp("a", "b", startup_cost=0.1, byte_cost=0.0),
    ]
    program.streams[1] = [
        RecvOp("a", "b", startup_cost=0.2, byte_cost=0.0, network_delay=0.5),
        ComputeOp("b", 1.0, parallel_cost=0.0),
    ]
    program.senders[("a", "b")] = (0,)
    program.receivers[("a", "b")] = (1,)
    program.info["allocation"] = {"a": 1, "b": 1}
    return program


class TestIdealExecution:
    def test_timing_exact(self):
        result = MachineSimulator().run(hand_program())
        # a: [0, 2]; send: [2, 2.1]; data ready: 2.6; recv: [2.6, 2.8];
        # b: [2.8, 3.8].
        assert result.processor_finish[0] == pytest.approx(2.1)
        assert result.processor_finish[1] == pytest.approx(3.8)
        assert result.makespan == pytest.approx(3.8)

    def test_node_finish_times(self):
        result = MachineSimulator().run(hand_program())
        finish = result.node_finish_times()
        assert finish["a"] == pytest.approx(2.1)  # includes its send
        assert finish["b"] == pytest.approx(3.8)

    def test_wait_recorded_in_trace(self):
        result = MachineSimulator().run(hand_program())
        waits = [e for e in result.trace if e.kind == "wait"]
        assert len(waits) == 1
        assert waits[0].processor == 1
        assert waits[0].duration == pytest.approx(2.6)

    def test_trace_sequential_per_processor(self):
        result = MachineSimulator().run(hand_program())
        result.trace.validate_sequential()

    def test_busy_fraction(self):
        result = MachineSimulator().run(hand_program())
        # Busy: proc0 2.1, proc1 1.2; total 3.3 of 2 * 3.8.
        assert result.busy_fraction(2) == pytest.approx(3.3 / 7.6)

    def test_record_trace_false(self):
        result = MachineSimulator().run(hand_program(), record_trace=False)
        assert len(result.trace) == 0
        assert result.makespan == pytest.approx(3.8)


class TestFidelityEffects:
    def test_compute_curvature_slows_parallel_part(self):
        fidelity = HardwareFidelity(compute_curvature=0.1, p_ref=1)
        # width of 'a' is 1 -> scale = 1 + 0.1*(1-1)/1 = 1: no change.
        result = MachineSimulator(fidelity).run(hand_program())
        assert result.makespan == pytest.approx(3.8)

        program = hand_program()
        program.info["allocation"] = {"a": 8, "b": 1}
        result = MachineSimulator(fidelity).run(program)
        # scale = 1 + 0.1 * 7 = 1.7 on the 1.5 s parallel part of 'a'.
        assert result.makespan == pytest.approx(3.8 + 1.5 * 0.7)

    def test_startup_serialization_hits_second_message(self):
        fidelity = HardwareFidelity(startup_serialization=1.0)
        program = MPMDProgram(total_processors=2)
        program.streams[0] = [
            ComputeOp("a", 1.0),
            SendOp("a", "b", 0.1, 0.0),
            SendOp("a", "c", 0.1, 0.0),
        ]
        program.streams[1] = [
            RecvOp("a", "b", 0.0, 0.0),
            ComputeOp("b", 0.0),
            RecvOp("a", "c", 0.0, 0.0),
            ComputeOp("c", 0.0),
        ]
        for edge in (("a", "b"), ("a", "c")):
            program.senders[edge] = (0,)
            program.receivers[edge] = (1,)
        program.info["allocation"] = {"a": 1, "b": 1, "c": 1}
        result = MachineSimulator(fidelity).run(program)
        # First send 0.1, second doubled to 0.2.
        assert result.processor_finish[0] == pytest.approx(1.3)

    def test_jitter_reproducible(self):
        fidelity = HardwareFidelity(jitter=0.05, seed=11)
        r1 = MachineSimulator(fidelity).run(hand_program())
        r2 = MachineSimulator(fidelity).run(hand_program())
        assert r1.makespan == r2.makespan
        assert r1.makespan != pytest.approx(3.8, abs=1e-9)

    def test_different_seeds_differ(self):
        r1 = MachineSimulator(HardwareFidelity(jitter=0.05, seed=1)).run(hand_program())
        r2 = MachineSimulator(HardwareFidelity(jitter=0.05, seed=2)).run(hand_program())
        assert r1.makespan != r2.makespan


class TestDeadlockDetection:
    def test_recv_without_send_deadlocks(self):
        program = MPMDProgram(total_processors=1)
        program.streams[0] = [RecvOp("ghost", "a", 0.1, 0.0)]
        program.senders[("ghost", "a")] = (1,)  # nobody will ever send
        program.receivers[("ghost", "a")] = (0,)
        # validate() would flag it; bypass to exercise the engine guard.
        program.streams[0].insert(0, SendOp("ghost", "a", 0.0, 0.0))
        program.streams[0].append(SendOp("ghost", "a", 0.0, 0.0))
        # Now two sends and one recv but senders count is 1... construct a
        # genuinely blocked case instead: two procs waiting on each other.
        program = MPMDProgram(total_processors=2)
        program.streams[0] = [
            RecvOp("b", "a", 0.0, 0.0),
            ComputeOp("a", 0.0),
            SendOp("a", "b", 0.0, 0.0),
        ]
        program.streams[1] = [
            RecvOp("a", "b", 0.0, 0.0),
            ComputeOp("b", 0.0),
            SendOp("b", "a", 0.0, 0.0),
        ]
        program.senders[("a", "b")] = (0,)
        program.receivers[("a", "b")] = (1,)
        program.senders[("b", "a")] = (1,)
        program.receivers[("b", "a")] = (0,)
        with pytest.raises(DeadlockError, match="no progress"):
            MachineSimulator().run(program)

    def test_cross_recv_deadlock_exposes_wait_cycle(self):
        program = MPMDProgram(total_processors=2)
        program.streams[0] = [
            RecvOp("b", "a", 0.0, 0.0),
            ComputeOp("a", 0.0),
            SendOp("a", "b", 0.0, 0.0),
        ]
        program.streams[1] = [
            RecvOp("a", "b", 0.0, 0.0),
            ComputeOp("b", 0.0),
            SendOp("b", "a", 0.0, 0.0),
        ]
        program.senders[("a", "b")] = (0,)
        program.receivers[("a", "b")] = (1,)
        program.senders[("b", "a")] = (1,)
        program.receivers[("b", "a")] = (0,)
        with pytest.raises(DeadlockError) as excinfo:
            MachineSimulator().run(program)
        error = excinfo.value
        # Each processor is stuck at its first instruction, a receive whose
        # only sender is the other processor.
        cycle = [(b.processor, b.index, b.edge, b.waiting_on) for b in error.wait_cycle]
        assert cycle == [(0, 0, ("b", "a"), (1,)), (1, 0, ("a", "b"), (0,))]
        assert error.blocked == error.wait_cycle
        assert (error.executed, error.total) == (0, 6)
        assert (
            "wait-for cycle proc 0 at instruction 0 (recv b->a) -> "
            "proc 1 at instruction 0 (recv a->b) -> proc 0 at instruction 0"
        ) in str(error)


class TestTrace:
    def test_event_validation(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            TraceEvent(processor=0, kind="compute", node="a", start=2.0, end=1.0)

    def test_overlap_detected(self):
        from repro.errors import SimulationError

        trace = ExecutionTrace()
        trace.add(TraceEvent(0, "compute", "a", 0.0, 2.0))
        trace.add(TraceEvent(0, "compute", "b", 1.0, 3.0))
        with pytest.raises(SimulationError, match="overlap"):
            trace.validate_sequential()

    def test_for_processor_and_node(self):
        trace = ExecutionTrace()
        trace.add(TraceEvent(0, "compute", "a", 0.0, 1.0))
        trace.add(TraceEvent(1, "compute", "b", 0.0, 2.0))
        assert len(trace.for_processor(0)) == 1
        assert trace.for_node("b")[0].end == 2.0

    def test_busy_time_excludes_waits(self):
        trace = ExecutionTrace()
        trace.add(TraceEvent(0, "wait", "a", 0.0, 5.0))
        trace.add(TraceEvent(0, "compute", "a", 5.0, 6.0))
        assert trace.busy_time(0) == pytest.approx(1.0)
