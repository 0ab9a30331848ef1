"""Unit tests for the KKT optimality certificate."""

import pytest

from repro.allocation.certificate import certify_allocation
from repro.allocation.formulation import ConvexAllocationProblem
from repro.allocation.solver import solve_allocation
from repro.errors import SolverError
from repro.graph.generators import (
    fork_join_mdg,
    layered_random_mdg,
    paper_example_mdg,
)
from repro.machine.presets import cm5


class TestCertificate:
    def test_solver_output_certifies(self, machine4):
        mdg = paper_example_mdg().normalized()
        allocation = solve_allocation(mdg, machine4)
        problem = ConvexAllocationProblem(mdg, machine4)
        cert = certify_allocation(problem, allocation)
        assert cert.is_optimal()
        assert cert.phi == pytest.approx(allocation.phi, rel=1e-3)

    def test_certifies_with_transfers(self, cm5_16):
        mdg = fork_join_mdg(3, seed=1).normalized()
        allocation = solve_allocation(mdg, cm5_16)
        problem = ConvexAllocationProblem(mdg, cm5_16)
        cert = certify_allocation(problem, allocation)
        assert cert.is_optimal(stationarity_tol=1e-3)

    def test_rejects_suboptimal_point(self, cm5_16):
        mdg = fork_join_mdg(3, seed=1).normalized()
        allocation = solve_allocation(mdg, cm5_16)
        problem = ConvexAllocationProblem(mdg, cm5_16)
        # Interior, clearly non-optimal point: everything on 2 processors.
        bad = allocation.with_processors(
            {name: 2.0 for name in allocation.processors}
        )
        cert = certify_allocation(problem, bad)
        assert not cert.is_optimal()
        assert cert.stationarity_residual > 1e-3

    def test_certificate_fields(self, machine4):
        mdg = paper_example_mdg().normalized()
        allocation = solve_allocation(mdg, machine4)
        problem = ConvexAllocationProblem(mdg, machine4)
        cert = certify_allocation(problem, allocation)
        assert cert.n_active >= 1
        assert cert.max_violation <= 1e-6

    def test_missing_node_rejected(self, machine4):
        mdg = paper_example_mdg().normalized()
        allocation = solve_allocation(mdg, machine4)
        problem = ConvexAllocationProblem(mdg, machine4)
        partial = allocation.with_processors({"N1": 4.0})
        with pytest.raises(SolverError, match="missing"):
            certify_allocation(problem, partial)

    @pytest.mark.parametrize("seed", [3, 17, 51])
    def test_random_graphs_certify(self, seed):
        machine = cm5(32)
        mdg = layered_random_mdg(3, 3, seed=seed).normalized()
        allocation = solve_allocation(mdg, machine)
        problem = ConvexAllocationProblem(mdg, machine)
        cert = certify_allocation(problem, allocation)
        assert cert.is_optimal(stationarity_tol=1e-2), cert
