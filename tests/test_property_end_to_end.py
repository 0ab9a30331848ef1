"""Property tests tying schedule, codegen, and simulator together."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.allocation.solver import solve_allocation
from repro.codegen.mpmd import generate_mpmd_program
from repro.codegen.program import RecvOp, SendOp
from repro.costs.transfer import TransferCostParameters
from repro.graph.generators import layered_random_mdg
from repro.machine.fidelity import HardwareFidelity
from repro.machine.parameters import MachineParameters
from repro.scheduling.psa import prioritized_schedule
from repro.sim.engine import MachineSimulator

machines = st.builds(
    lambda p: MachineParameters(
        f"m{p}", p, TransferCostParameters(1e-4, 5e-9, 8e-5, 4e-9, 1e-9)
    ),
    st.sampled_from([4, 8, 16]),
)

graphs = st.builds(
    lambda seed, layers, width: layered_random_mdg(
        layers, width, seed=seed
    ).normalized(),
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=3),
)


def compile_chain(mdg, machine):
    allocation = solve_allocation(mdg, machine)
    schedule = prioritized_schedule(mdg, allocation.processors, machine)
    program = generate_mpmd_program(schedule, machine)
    return schedule, program


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs, machines)
def test_generated_programs_never_deadlock(mdg, machine):
    _, program = compile_chain(mdg, machine)
    result = MachineSimulator().run(program, record_trace=False)
    assert result.makespan >= 0.0


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs, machines)
def test_ideal_simulation_bounded_by_schedule(mdg, machine):
    """Self-timed execution of the generated program can only beat the
    schedule's conservative prediction, never exceed it."""
    schedule, program = compile_chain(mdg, machine)
    result = MachineSimulator().run(program, record_trace=False)
    assert result.makespan <= schedule.makespan * (1 + 1e-9)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs, machines)
def test_simulation_at_least_critical_compute_path(mdg, machine):
    """The simulated makespan can never undercut the pure compute time of
    the longest chain at the given allocation (sanity lower bound)."""
    schedule, program = compile_chain(mdg, machine)
    result = MachineSimulator().run(program, record_trace=False)
    allocation = schedule.allocation()
    from repro.graph.analysis import longest_path_lengths

    compute_path = max(
        longest_path_lengths(
            mdg,
            node_weight=lambda n: mdg.node(n).processing.cost(allocation[n]),
        ).values()
    )
    assert result.makespan >= compute_path * (1 - 1e-9)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs, machines)
def test_nonideal_fidelity_only_slows_down(mdg, machine):
    """Curvature and serialization add cost; with zero jitter the noisy
    run is deterministically at least as slow as the ideal one."""
    _, program = compile_chain(mdg, machine)
    ideal = MachineSimulator().run(program, record_trace=False).makespan
    slow = MachineSimulator(
        HardwareFidelity(compute_curvature=0.1, startup_serialization=0.5)
    ).run(program, record_trace=False).makespan
    assert slow >= ideal * (1 - 1e-9)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs, machines)
def test_message_matching_is_complete(mdg, machine):
    """Every edge's sends and receives pair up across the program."""
    _, program = compile_chain(mdg, machine)
    sends = {}
    recvs = {}
    for _, op in program.instructions():
        if isinstance(op, SendOp):
            sends[op.edge] = sends.get(op.edge, 0) + 1
        elif isinstance(op, RecvOp):
            recvs[op.edge] = recvs.get(op.edge, 0) + 1
    assert set(sends) == set(recvs)
    for edge in sends:
        assert sends[edge] == len(program.senders[edge])
        assert recvs[edge] == len(program.receivers[edge])
