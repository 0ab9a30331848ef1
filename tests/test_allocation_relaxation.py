"""Pinning down the 1D network-delay relaxation's semantics.

For 1D transfers the symbolic model replaces ``1/max(p_i, p_j)`` with the
monomial upper bound ``(p_i p_j)^(-1/2)`` (docs/theory.md §1). These
tests nail the consequences:

* with ``t_n = 0`` (the CM-5) the relaxation is inert and Phi is a true
  lower bound on every integer allocation's cost;
* with ``t_n > 0`` the relaxed Phi is *conservative*: it can only
  overestimate, never underestimate, the exact cost of the solution it
  returns.
"""

import pytest

from repro.allocation.exhaustive import exhaustive_best_allocation
from repro.allocation.formulation import ConvexAllocationProblem
from repro.allocation.solver import solve_allocation
from repro.costs.node_weights import MDGCostModel
from repro.costs.transfer import TransferCostParameters
from repro.graph.generators import fork_join_mdg
from repro.machine.parameters import MachineParameters


def machine_with_tn(t_n: float) -> MachineParameters:
    return MachineParameters(
        "net",
        16,
        TransferCostParameters(t_ss=1e-4, t_ps=5e-9, t_sr=8e-5, t_pr=4e-9, t_n=t_n),
    )


class TestWithZeroNetworkDelay:
    def test_phi_lower_bounds_integer_allocations(self):
        machine = machine_with_tn(0.0)
        mdg = fork_join_mdg(3, seed=4).normalized()
        allocation = solve_allocation(mdg, machine)
        oracle = exhaustive_best_allocation(mdg, machine)
        assert allocation.phi <= oracle.phi * (1 + 1e-4)


class TestWithPositiveNetworkDelay:
    @pytest.mark.parametrize("t_n", [1e-9, 1e-7])
    def test_relaxed_phi_conservative_at_its_solution(self, t_n):
        """Phi >= the exact max(A, C) of the returned allocation."""
        machine = machine_with_tn(t_n)
        mdg = fork_join_mdg(3, seed=4).normalized()
        allocation = solve_allocation(mdg, machine)
        cm = MDGCostModel(mdg, machine.transfer_model())
        exact = cm.makespan_lower_bound(allocation.processors, 16)
        assert allocation.phi >= exact * (1 - 1e-6)

    def test_relaxation_exact_for_equal_groups(self):
        """When the solution uses equal group sizes on a 1D edge, the
        geometric mean equals the max and the gap closes."""
        machine = machine_with_tn(1e-7)
        mdg = fork_join_mdg(1, seed=0).normalized()  # fork -> branch -> join
        allocation = solve_allocation(mdg, machine)
        groups = [
            allocation.processors[n]
            for n in mdg.node_names()
            if not mdg.node(n).is_dummy
        ]
        if max(groups) / min(groups) < 1.001:  # symmetric solution
            cm = MDGCostModel(mdg, machine.transfer_model())
            exact = cm.makespan_lower_bound(allocation.processors, 16)
            assert allocation.phi == pytest.approx(exact, rel=1e-3)

    def test_network_delay_raises_phi(self):
        mdg = fork_join_mdg(3, seed=4).normalized()
        phi_free = solve_allocation(mdg, machine_with_tn(0.0)).phi
        phi_slow = solve_allocation(mdg, machine_with_tn(1e-7)).phi
        assert phi_slow > phi_free

    def test_formulation_counts_network_terms(self):
        """t_n > 0 adds monomials to the stacked term arrays."""
        mdg = fork_join_mdg(2, seed=0).normalized()
        with_net = ConvexAllocationProblem(mdg, machine_with_tn(1e-8))
        without = ConvexAllocationProblem(mdg, machine_with_tn(0.0))
        assert with_net._bt_coeffs.size > without._bt_coeffs.size
