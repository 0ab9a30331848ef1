"""Property tests of the Section 5 theorems on random MDGs.

These are the strongest checks in the suite: for arbitrary random graphs
and machine configurations, the PSA's realized finish time must respect
the Theorem 1 and Theorem 3 bounds, and the convex optimum must
lower-bound everything the exhaustive oracle can enumerate.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.allocation.exhaustive import exhaustive_best_allocation
from repro.allocation.solver import solve_allocation
from repro.costs.node_weights import MDGCostModel
from repro.costs.transfer import TransferCostParameters
from repro.graph.generators import layered_random_mdg, random_mdg
from repro.machine.parameters import MachineParameters
from repro.scheduling.bounds import verify_theorem1, verify_theorem3
from repro.scheduling.psa import PSAOptions, prioritized_schedule

machines = st.builds(
    lambda p, scale: MachineParameters(
        f"m{p}",
        p,
        TransferCostParameters(
            t_ss=1e-4 * scale, t_ps=5e-9 * scale, t_sr=8e-5 * scale,
            t_pr=4e-9 * scale, t_n=1e-9 * scale,
        ),
    ),
    st.sampled_from([4, 8, 16, 32]),
    st.sampled_from([0.0, 1.0, 10.0]),
)

graphs = st.builds(
    lambda seed, layers, width: layered_random_mdg(
        layers, width, seed=seed
    ).normalized(),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=3),
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs, machines)
def test_theorem1_and_3_hold_on_random_graphs(mdg, machine):
    allocation = solve_allocation(mdg, machine)
    schedule = prioritized_schedule(mdg, allocation.processors, machine)
    r1 = verify_theorem1(schedule, machine)
    r3 = verify_theorem3(schedule, machine, allocation.phi)
    assert r1.holds, f"Theorem 1 violated: {r1}"
    assert r3.holds, f"Theorem 3 violated: {r3}"


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs, machines)
def test_psa_respects_its_allocation_lower_bound(mdg, machine):
    """T_psa >= max(A_PB, C_PB): no schedule can beat its own bound."""
    allocation = solve_allocation(mdg, machine)
    schedule = prioritized_schedule(mdg, allocation.processors, machine)
    cm = MDGCostModel(mdg, machine.transfer_model())
    lower = cm.makespan_lower_bound(
        schedule.info["allocation"], machine.processors
    )
    assert schedule.makespan >= lower * (1 - 1e-9)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([4, 8]),
)
def test_phi_lower_bounds_exhaustive(seed, p):
    """The continuous optimum can never exceed any integer allocation's
    max(A, C) — global optimality evidence for the convex solver."""
    mdg = random_mdg(4, seed=seed, edge_probability=0.5).normalized()
    machine = MachineParameters(
        "m", p, TransferCostParameters(1e-4, 5e-9, 8e-5, 4e-9, 0.0)
    )
    allocation = solve_allocation(mdg, machine)
    oracle = exhaustive_best_allocation(mdg, machine)
    assert allocation.phi <= oracle.phi * (1 + 1e-4)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs, machines)
def test_schedule_invariants_on_random_graphs(mdg, machine):
    """Validation (precedence, booking, widths, durations) never fails on
    solver+PSA output, for any random graph/machine drawn."""
    allocation = solve_allocation(mdg, machine)
    schedule = prioritized_schedule(mdg, allocation.processors, machine)
    schedule.validate(schedule.info["weights"])
    assert schedule.useful_work_area() <= (
        machine.processors * schedule.makespan * (1 + 1e-9)
    )
