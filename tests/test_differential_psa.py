"""Differential test: convex solver + PSA vs the exhaustive oracle.

On graphs small enough for :func:`exhaustive_best_allocation` to
enumerate every power-of-two allocation, the full pipeline must agree
with the brute-force oracle:

* the continuous optimum ``Phi`` lower-bounds the oracle's best exact
  ``max(A, C)`` (with ``t_n = 0`` the relaxation is inert, so this is a
  theorem, not a heuristic);
* PSA schedules built from *either* allocation are precedence-valid;
* neither schedule finishes before ``Phi``.

Hypothesis drives seeded ``random_mdg`` topologies (``derandomize=True``
keeps CI deterministic).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.exhaustive import exhaustive_best_allocation
from repro.allocation.solver import solve_allocation
from repro.costs.transfer import TransferCostParameters
from repro.graph.generators import random_mdg
from repro.machine.parameters import MachineParameters
from repro.scheduling.psa import prioritized_schedule

MACHINE = MachineParameters(
    "diff4",
    4,
    TransferCostParameters(t_ss=1e-4, t_ps=5e-9, t_sr=8e-5, t_pr=4e-9, t_n=0.0),
)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    edge_probability=st.sampled_from([0.15, 0.35, 0.6]),
)
def test_solver_psa_agrees_with_exhaustive_oracle(n, seed, edge_probability):
    mdg = random_mdg(n, seed=seed, edge_probability=edge_probability).normalized()

    oracle = exhaustive_best_allocation(mdg, MACHINE)
    solved = solve_allocation(mdg, MACHINE)

    # With t_n = 0 the monomial relaxation is inert, so the continuous
    # optimum must lower-bound the best integer allocation's exact cost.
    assert solved.phi <= oracle.phi * (1 + 1e-4)

    schedule_solved = prioritized_schedule(mdg, solved.processors, MACHINE)
    schedule_oracle = prioritized_schedule(mdg, oracle.processors, MACHINE)

    # Precedence-validity of both schedules (raises on violation).
    schedule_solved.validate()
    schedule_oracle.validate()

    # No schedule of an integer allocation can beat the continuous bound.
    assert schedule_solved.makespan >= solved.phi * (1 - 1e-6)
    assert schedule_oracle.makespan >= solved.phi * (1 - 1e-6)

    # Same processor budget on both sides.
    assert schedule_solved.total_processors == MACHINE.processors
    assert schedule_oracle.total_processors == MACHINE.processors


@settings(max_examples=6, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_oracle_makespan_never_beats_phi_on_dense_graphs(seed):
    """Dense 5-node graphs stress the transfer terms specifically."""
    mdg = random_mdg(
        5, seed=seed, edge_probability=0.8, transfer_probability=0.9
    ).normalized()
    oracle = exhaustive_best_allocation(mdg, MACHINE)
    solved = solve_allocation(mdg, MACHINE)
    assert solved.phi <= oracle.phi * (1 + 1e-4)
    schedule = prioritized_schedule(mdg, oracle.processors, MACHINE)
    schedule.validate()
    assert schedule.makespan >= solved.phi * (1 - 1e-6)
