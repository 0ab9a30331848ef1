"""Tests for the convex allocation solver — correctness against oracles."""

import math

import pytest

from repro.allocation.exhaustive import exhaustive_best_allocation
from repro.allocation.formulation import ConvexAllocationProblem
from repro.allocation.result import Allocation
from repro.allocation.solver import ConvexSolverOptions, solve_allocation
from repro.costs.node_weights import MDGCostModel
from repro.costs.processing import AmdahlProcessingCost
from repro.costs.transfer import ArrayTransfer, TransferCostParameters, TransferKind
from repro.errors import AllocationError, SolverError
from repro.graph.generators import fork_join_mdg, paper_example_mdg
from repro.graph.mdg import MDG
from repro.machine.parameters import MachineParameters
from repro.machine.presets import cm5
from tests.corpus import CORPUS


class TestAllocationResult:
    def test_integral_detection(self):
        a = Allocation(processors={"a": 2.0, "b": 4.0})
        assert a.is_integral
        assert a.as_integer() == {"a": 2, "b": 4}

    def test_fractional_rejected_by_as_integer(self):
        a = Allocation(processors={"a": 2.5})
        assert not a.is_integral
        with pytest.raises(AllocationError):
            a.as_integer()

    def test_rejects_empty(self):
        with pytest.raises(AllocationError):
            Allocation(processors={})

    def test_rejects_non_positive(self):
        with pytest.raises(AllocationError):
            Allocation(processors={"a": 0.0})

    def test_makespan_lower_bound(self):
        a = Allocation(
            processors={"a": 1.0}, average_finish_time=2.0, critical_path_time=3.0
        )
        assert a.makespan_lower_bound == 3.0
        assert Allocation(processors={"a": 1.0}).makespan_lower_bound is None

    def test_with_processors_resets_diagnostics(self):
        a = Allocation(
            processors={"a": 2.7}, phi=1.0, average_finish_time=1.0,
            critical_path_time=1.0,
        )
        b = a.with_processors({"a": 2.0}, note="rounded")
        assert b.processors == {"a": 2.0}
        assert b.phi == 1.0
        assert b.average_finish_time is None
        assert b.info["note"] == "rounded"


class TestSolverOnMotivatingExample:
    """The Figure 1/2 example: the solver must find the paper's scheme."""

    def test_optimal_allocation_shape(self, machine4):
        mdg = paper_example_mdg().normalized()
        result = solve_allocation(mdg, machine4)
        # The paper's Figure 2(b): N1 on all 4, N2 and N3 on 2 each.
        assert result.processors["N1"] == pytest.approx(4.0, abs=0.05)
        assert result.processors["N2"] == pytest.approx(2.0, abs=0.05)
        assert result.processors["N3"] == pytest.approx(2.0, abs=0.05)

    def test_phi_matches_exhaustive(self, machine4):
        mdg = paper_example_mdg().normalized()
        result = solve_allocation(mdg, machine4)
        oracle = exhaustive_best_allocation(mdg, machine4)
        # Continuous optimum <= best power-of-two allocation value.
        assert result.phi <= oracle.phi * (1 + 1e-6)
        # And here the integer optimum is achievable continuously.
        assert result.phi == pytest.approx(oracle.phi, rel=2e-3)

    def test_beats_spmd(self, machine4):
        from repro.allocation.baselines import spmd_allocation

        mdg = paper_example_mdg().normalized()
        result = solve_allocation(mdg, machine4)
        spmd = spmd_allocation(mdg, machine4)
        assert result.phi < spmd.makespan_lower_bound


class TestSolverGeneral:
    def test_phi_lower_bounds_exhaustive_with_transfers(self, cm5_16):
        mdg = fork_join_mdg(3, seed=1).normalized()
        result = solve_allocation(mdg, cm5_16)
        oracle = exhaustive_best_allocation(mdg, cm5_16)
        assert result.phi <= oracle.phi * (1 + 1e-6)

    def test_diagnostics_use_exact_model(self, cm5_16):
        mdg = fork_join_mdg(2, seed=3).normalized()
        result = solve_allocation(mdg, cm5_16)
        cm = MDGCostModel(mdg, cm5_16.transfer_model())
        assert result.average_finish_time == pytest.approx(
            cm.average_finish_time(result.processors, 16)
        )
        assert result.critical_path_time == pytest.approx(
            cm.critical_path_time(result.processors)
        )

    def test_allocations_within_bounds(self, cm5_16):
        mdg = fork_join_mdg(4, seed=2).normalized()
        result = solve_allocation(mdg, cm5_16)
        for name, value in result.processors.items():
            assert 1.0 - 1e-9 <= value <= 16.0 + 1e-6, name

    def test_dummy_nodes_pinned_to_one(self, machine4):
        mdg = paper_example_mdg().normalized()  # two sinks -> dummy STOP
        result = solve_allocation(mdg, machine4)
        from repro.graph.mdg import STOP_NAME

        assert result.processors[STOP_NAME] == pytest.approx(1.0)

    def test_single_node_graph(self):
        machine = MachineParameters("m", 8, TransferCostParameters.zero())
        mdg = MDG("solo")
        mdg.add_node("only", AmdahlProcessingCost(0.2, 1.0))
        result = solve_allocation(mdg, machine)
        # A_p = T*p/8 grows with p, C_p = T shrinks: optimum interior or at 8.
        assert 1.0 <= result.processors["only"] <= 8.0
        assert result.phi <= 1.0  # never worse than serial

    def test_chain_prefers_full_machine_without_transfers(self):
        """With no transfers and a chain, every node should use all p
        (pure data parallelism is optimal when A_p does not bind)."""
        machine = MachineParameters("m", 4, TransferCostParameters.zero())
        mdg = MDG("chain")
        mdg.add_node("a", AmdahlProcessingCost(0.0, 1.0))
        mdg.add_node("b", AmdahlProcessingCost(0.0, 1.0))
        mdg.add_edge("a", "b")
        result = solve_allocation(mdg, machine)
        assert result.processors["a"] == pytest.approx(4.0, rel=1e-3)
        assert result.processors["b"] == pytest.approx(4.0, rel=1e-3)
        assert result.phi == pytest.approx(0.5, rel=1e-3)

    def test_transfer_costs_pull_allocations_down(self):
        """Expensive start-ups make huge groups unattractive: the optimum
        with transfers allocates no more than without."""
        mdg = fork_join_mdg(2, seed=5)
        free = MachineParameters("free", 16, TransferCostParameters.zero())
        costly = MachineParameters(
            "costly",
            16,
            TransferCostParameters(t_ss=5e-2, t_ps=1e-6, t_sr=5e-2, t_pr=1e-6),
        )
        a_free = solve_allocation(mdg.normalized(), free)
        a_costly = solve_allocation(mdg.normalized(), costly)
        total_free = sum(
            v for k, v in a_free.processors.items() if k.startswith("branch")
        )
        total_costly = sum(
            v for k, v in a_costly.processors.items() if k.startswith("branch")
        )
        assert total_costly <= total_free + 1e-6

    def test_info_records_convergence(self, machine4):
        result = solve_allocation(paper_example_mdg().normalized(), machine4)
        record = result.info["solver"]
        options = ConvexSolverOptions()
        assert record["method"] == "interior-point"
        assert record["status"] == "converged"
        assert 0 < record["iterations"] < options.max_iterations
        assert record["gap"] <= options.tolerance
        assert record["primal_residual"] <= options.feasibility_tolerance
        assert record["dual_residual"] <= options.feasibility_tolerance
        assert result.info["attempts"] == [record]
        assert result.phi == pytest.approx(15.75, rel=5e-3)
        # Phi is exactly the solver's scaled objective in seconds.
        problem = ConvexAllocationProblem(paper_example_mdg().normalized(), machine4)
        assert result.phi == problem.seconds(record["phi_scaled"])

    def test_iteration_cap_raises(self, machine4):
        with pytest.raises(SolverError, match="did not converge"):
            solve_allocation(
                paper_example_mdg().normalized(),
                machine4,
                ConvexSolverOptions(max_iterations=2),
            )

    def test_one_processor_machine_fixes_every_node(self):
        """On P = 1 every log p is pinned to 0: all fixed, none free."""
        machine = MachineParameters("m", 1, TransferCostParameters.zero())
        mdg = fork_join_mdg(2, seed=3).normalized()
        result = solve_allocation(mdg, machine)
        assert set(result.processors.values()) == {1.0}
        cm = MDGCostModel(mdg, machine.transfer_model())
        assert result.phi == pytest.approx(
            cm.makespan_lower_bound(result.processors, 1), rel=1e-9
        )

    def test_zero_cost_graph_has_zero_phi(self):
        """Every finish time is identically zero: nothing is left to solve."""
        from repro.costs.processing import ZeroProcessingCost

        machine = MachineParameters("m", 8, TransferCostParameters.zero())
        mdg = MDG("free")
        mdg.add_node("a", ZeroProcessingCost())
        mdg.add_node("b", ZeroProcessingCost())
        mdg.add_edge("a", "b")
        result = solve_allocation(mdg, machine)
        assert result.phi == 0.0
        assert result.info["solver"]["status"] == "converged"

    def test_info_records_solver_details(self, machine4):
        result = solve_allocation(paper_example_mdg().normalized(), machine4)
        assert "solver" in result.info
        assert result.info["total_processors"] == 4


class TestFormulation:
    def test_feasible_initial_point(self, cm5_16):
        mdg = fork_join_mdg(3, seed=1).normalized()
        problem = ConvexAllocationProblem(mdg, cm5_16)
        for target in (1.0, 4.0, 16.0):
            z0 = problem.initial_point(target)
            assert problem.max_violation(z0) <= 1e-9

    def test_gradient_matches_finite_differences(self, cm5_16):
        import numpy as np

        mdg = fork_join_mdg(2, seed=8).normalized()
        problem = ConvexAllocationProblem(mdg, cm5_16)
        z = problem.initial_point(3.0)
        jac = problem.constraint_jacobian(z)
        eps = 1e-7
        for k in range(problem.n_vars):
            zp, zm = z.copy(), z.copy()
            zp[k] += eps
            zm[k] -= eps
            numeric = (problem.constraint_values(zp) - problem.constraint_values(zm)) / (
                2 * eps
            )
            assert np.allclose(jac[:, k], numeric, rtol=1e-4, atol=1e-6)

    def test_hessian_combination_symmetric_psd(self, cm5_16):
        import numpy as np

        mdg = fork_join_mdg(2, seed=8).normalized()
        problem = ConvexAllocationProblem(mdg, cm5_16)
        z = problem.initial_point(2.0)
        v = np.ones(problem.n_nonlinear_constraints)
        h = problem.constraint_hessian(z, v)
        assert np.allclose(h, h.T)
        eig = np.linalg.eigvalsh(h)
        assert np.all(eig >= -1e-8 * max(1.0, abs(eig).max()))

    def test_time_scale_applied(self, cm5_16):
        mdg = fork_join_mdg(2, seed=8).normalized()
        problem = ConvexAllocationProblem(mdg, cm5_16)
        z0 = problem.initial_point(2.0)
        assert problem.phi_seconds(z0) == pytest.approx(
            z0[problem.layout.phi_index] * problem.time_scale
        )
        # Scaled objective should be O(1).
        assert 1e-3 < z0[problem.layout.phi_index] < 1e3


class TestExhaustive:
    def test_guard_against_explosion(self):
        mdg = fork_join_mdg(10, seed=0).normalized()
        with pytest.raises(AllocationError, match="enumerate"):
            exhaustive_best_allocation(mdg, cm5(64), max_combinations=100)

    def test_returns_integral_powers(self, machine4):
        mdg = paper_example_mdg().normalized()
        result = exhaustive_best_allocation(mdg, machine4)
        from repro.utils.intmath import is_power_of_two

        for value in result.as_integer().values():
            assert is_power_of_two(value)

    def test_phi_is_exact_max(self, machine4):
        mdg = paper_example_mdg().normalized()
        result = exhaustive_best_allocation(mdg, machine4)
        assert result.phi == pytest.approx(
            max(result.average_finish_time, result.critical_path_time)
        )


@pytest.fixture(scope="module")
def oracle_runs():
    """Every corpus program on cm5(8): the interior-point allocation and
    trust-constr run directly on the problem's own constraint objects."""
    import warnings

    from scipy.optimize import minimize

    machine = cm5(8)
    runs = {}
    for name, factory in sorted(CORPUS.items()):
        mdg = factory().normalized()
        problem = ConvexAllocationProblem(mdg, machine)
        constraints = [problem.nonlinear_constraint()]
        if problem.linear_constraint() is not None:
            constraints.append(problem.linear_constraint())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            scipy_result = minimize(
                problem.objective,
                problem.initial_point(),
                jac=problem.objective_gradient,
                hess=problem.objective_hessian,
                method="trust-constr",
                bounds=problem.bounds(),
                constraints=constraints,
                options={
                    "maxiter": 300,
                    "gtol": 1e-12,
                    "xtol": 1e-16,
                    "barrier_tol": 1e-14,
                    "initial_barrier_parameter": 1e-3,
                    "sparse_jacobian": True,
                },
            )
        runs[name] = (problem, solve_allocation(mdg, machine), scipy_result)
    return runs


class TestScipyOracle:
    """trust-constr is the reference: its Phi may only be higher.

    scipy's Phi is the exact cost ``max(A, C)`` of its allocation, so a
    point that trust-constr leaves slightly infeasible cannot undercut the
    optimum. When trust-constr stops early (it hits ``maxiter`` on some of
    these programs), the oracle is looser, never the solver wrong.
    """

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_scipy_phi_is_never_lower(self, oracle_runs, name):
        problem, allocation, scipy_result = oracle_runs[name]
        scipy_phi = max(
            problem.evaluate_allocation(
                problem.allocation_from_point(scipy_result.x)
            )
        )
        assert scipy_phi >= allocation.phi * (1 - 1e-9)
        assert scipy_phi <= allocation.phi * (1 + 1e-4)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_phi_is_the_exact_cost_of_its_allocation(self, oracle_runs, name):
        problem, allocation, _ = oracle_runs[name]
        exact = max(problem.evaluate_allocation(allocation.processors))
        assert allocation.phi == pytest.approx(exact, rel=1e-9)
