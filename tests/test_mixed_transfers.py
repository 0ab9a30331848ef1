"""Edges carrying several arrays of mixed 1D/2D kinds.

Section 4: "multiple arrays may be transferred [and] there may be both
type of transfers occurring between a given pair of nodes... Our actual
implementation uses an extended form of these functions." These tests
exercise exactly that extended form through every layer: cost assembly,
the convex formulation, the PSA, codegen and the simulator.
"""

import pytest

from repro.allocation.solver import solve_allocation
from repro.codegen.mpmd import generate_mpmd_program
from repro.codegen.program import RecvOp, SendOp
from repro.costs.node_weights import MDGCostModel
from repro.costs.transfer import ArrayTransfer, TransferCostParameters, TransferKind
from repro.graph.mdg import MDG
from repro.graph.builders import amdahl
from repro.machine.parameters import MachineParameters
from repro.scheduling.psa import prioritized_schedule
from repro.sim.engine import MachineSimulator

MACHINE = MachineParameters(
    "mixed",
    8,
    TransferCostParameters(t_ss=1e-4, t_ps=5e-9, t_sr=8e-5, t_pr=4e-9, t_n=1e-9),
)


def mixed_edge_mdg() -> MDG:
    """Two nodes, one edge carrying a 1D array, a 2D array, and a second
    (smaller) 1D array — the paper's fully general case."""
    mdg = MDG("mixed")
    mdg.add_node("producer", amdahl(0.1, 0.5))
    mdg.add_node("consumer", amdahl(0.1, 0.8))
    mdg.add_edge(
        "producer",
        "consumer",
        [
            ArrayTransfer(32768.0, TransferKind.ROW2ROW, "big-1d"),
            ArrayTransfer(16384.0, TransferKind.ROW2COL, "mid-2d"),
            ArrayTransfer(8192.0, TransferKind.COL2COL, "small-1d"),
        ],
    )
    return mdg


class TestCostAssembly:
    def test_edge_costs_sum_over_arrays(self):
        mdg = mixed_edge_mdg()
        cm = MDGCostModel(mdg, MACHINE.transfer_model())
        tm = cm.transfer_model
        transfers = mdg.edge("producer", "consumer").transfers
        alloc = {"producer": 2, "consumer": 4}
        expected_send = sum(tm.send_cost(t, 2, 4) for t in transfers)
        weight = cm.node_weight("producer", alloc)
        assert weight == pytest.approx(
            mdg.node("producer").processing.cost(2) + expected_send
        )

    def test_edge_weight_sums_network_components(self):
        mdg = mixed_edge_mdg()
        cm = MDGCostModel(mdg, MACHINE.transfer_model())
        tm = cm.transfer_model
        transfers = mdg.edge("producer", "consumer").transfers
        alloc = {"producer": 2, "consumer": 4}
        expected = sum(tm.network_cost(t, 2, 4) for t in transfers)
        assert cm.edge_weight(mdg.edge("producer", "consumer"), alloc) == (
            pytest.approx(expected)
        )

    def test_max_var_needed_for_the_1d_parts(self):
        mdg = mixed_edge_mdg()
        cm = MDGCostModel(mdg, MACHINE.transfer_model())
        assert [(e.source, e.target) for e in cm.edges_needing_max_var()] == [
            ("producer", "consumer")
        ]

    def test_posynomial_matches_numeric_on_mixed_edge(self):
        mdg = mixed_edge_mdg()
        cm = MDGCostModel(mdg, MACHINE.transfer_model())
        proc_var = {"producer": "Pp", "consumer": "Pc"}
        max_var = {("producer", "consumer"): "M"}
        poly = cm.node_weight_posynomial("producer", proc_var, max_var)
        alloc = {"producer": 2.0, "consumer": 4.0}
        values = {"Pp": 2.0, "Pc": 4.0, "M": 4.0}
        assert poly.evaluate(values) == pytest.approx(
            cm.node_weight("producer", alloc)
        )


class TestFullPipelineOnMixedEdges:
    def test_solver_handles_mixed_edge(self):
        mdg = mixed_edge_mdg().normalized()
        allocation = solve_allocation(mdg, MACHINE)
        assert allocation.phi > 0
        # Conservative relaxation: Phi >= exact cost at the solution.
        cm = MDGCostModel(mdg, MACHINE.transfer_model())
        assert allocation.phi >= cm.makespan_lower_bound(
            allocation.processors, 8
        ) * (1 - 1e-6)

    def test_schedule_and_simulate(self):
        mdg = mixed_edge_mdg().normalized()
        allocation = solve_allocation(mdg, MACHINE)
        schedule = prioritized_schedule(mdg, allocation.processors, MACHINE)
        schedule.validate(schedule.info["weights"])
        program = generate_mpmd_program(schedule, MACHINE)
        result = MachineSimulator().run(program, record_trace=False)
        assert result.makespan <= schedule.makespan * (1 + 1e-9)

    def test_codegen_aggregates_mixed_transfers_into_one_op_pair(self):
        """One edge -> one SendOp/RecvOp per participating processor,
        whose costs are the sums over all three arrays."""
        mdg = mixed_edge_mdg().normalized()
        allocation = {"producer": 2.0, "consumer": 4.0}
        schedule = prioritized_schedule(mdg, allocation, MACHINE)
        program = generate_mpmd_program(schedule, MACHINE)
        tm = MACHINE.transfer_model()
        transfers = mdg.edge("producer", "consumer").transfers
        widths = schedule.allocation()
        p_i, p_j = widths["producer"], widths["consumer"]

        sends = [
            op
            for _q, op in program.instructions()
            if isinstance(op, SendOp) and op.edge == ("producer", "consumer")
        ]
        assert len(sends) == p_i
        expected_send = sum(tm.send_cost(t, p_i, p_j) for t in transfers)
        assert sends[0].startup_cost + sends[0].byte_cost == pytest.approx(
            expected_send
        )

        recvs = [
            op
            for _q, op in program.instructions()
            if isinstance(op, RecvOp) and op.edge == ("producer", "consumer")
        ]
        assert len(recvs) == p_j
        expected_delay = sum(tm.network_cost(t, p_i, p_j) for t in transfers)
        assert recvs[0].network_delay == pytest.approx(expected_delay)
