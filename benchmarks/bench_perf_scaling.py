"""P1 — performance of the compiler pipeline itself.

Micro-benchmarks of the three expensive stages — convex allocation, PSA
scheduling, machine simulation — at a few MDG sizes, so regressions in
the library's own speed are caught. These use pytest-benchmark's real
statistics (multiple rounds), unlike the one-shot experiment benches.
"""

import pytest

from repro.allocation.solver import solve_allocation
from repro.codegen.mpmd import generate_mpmd_program
from repro.graph.generators import layered_random_mdg
from repro.machine.presets import cm5
from repro.scheduling.psa import prioritized_schedule
from repro.sim.engine import MachineSimulator


def make_graph(n_layers, width, seed=123):
    return layered_random_mdg(n_layers, width, seed=seed).normalized()


@pytest.mark.parametrize("layers,width", [(3, 3), (5, 5), (7, 7)])
def test_solver_scaling(benchmark, layers, width):
    mdg = make_graph(layers, width)
    machine = cm5(64)
    # One warm solve per round is plenty for trend data; the solver takes
    # seconds at the largest size, so cap the rounds explicitly.
    result = benchmark.pedantic(
        lambda: solve_allocation(mdg, machine), rounds=3, iterations=1
    )
    assert result.phi > 0


@pytest.mark.parametrize("layers,width", [(3, 3), (5, 5), (8, 8), (10, 10)])
def test_psa_scaling(benchmark, layers, width):
    mdg = make_graph(layers, width)
    machine = cm5(64)
    # The PSA is microseconds-fast; give it a fixed uniform allocation so
    # this bench does not pay (or measure) a big solve.
    allocation = {name: 8.0 for name in mdg.node_names()}
    schedule = benchmark(
        lambda: prioritized_schedule(mdg, allocation, machine)
    )
    assert schedule.is_complete


@pytest.mark.parametrize("layers,width", [(3, 3), (5, 5), (8, 8)])
def test_simulator_scaling(benchmark, layers, width):
    mdg = make_graph(layers, width)
    machine = cm5(64)
    allocation = {name: 8.0 for name in mdg.node_names()}
    schedule = prioritized_schedule(mdg, allocation, machine)
    program = generate_mpmd_program(schedule, machine)
    simulator = MachineSimulator()
    result = benchmark(lambda: simulator.run(program, record_trace=False))
    assert result.makespan > 0
