"""Unit tests for bottom-up MDG coarsening."""

import pytest

from repro.costs.processing import AmdahlProcessingCost
from repro.costs.transfer import ArrayTransfer, TransferKind
from repro.errors import GraphError
from repro.graph.coarsen import coarsen_mdg, expand_allocation
from repro.graph.generators import layered_random_mdg
from repro.graph.mdg import MDG
from repro.programs import complex_matmul_program, strassen_program


def chain_with_bytes(byte_list):
    mdg = MDG("chain")
    names = [f"n{k}" for k in range(len(byte_list) + 1)]
    for name in names:
        mdg.add_node(name, AmdahlProcessingCost(0.1, 1.0))
    for k, nbytes in enumerate(byte_list):
        mdg.add_edge(
            names[k],
            names[k + 1],
            [ArrayTransfer(float(nbytes), TransferKind.ROW2ROW)],
        )
    return mdg


class TestCoarsenBasics:
    def test_target_reached(self):
        mdg = chain_with_bytes([100, 200, 300, 400])
        result = coarsen_mdg(mdg, 2)
        assert result.coarse.n_nodes == 2
        result.coarse.validate()

    def test_heaviest_edge_merged_first(self):
        mdg = chain_with_bytes([100, 999, 100])
        result = coarsen_mdg(mdg, 3)
        grouped = [m for m in result.members.values() if len(m) == 2]
        assert grouped == [["n1", "n2"]]  # the 999-byte edge

    def test_internalized_bytes_tracked(self):
        mdg = chain_with_bytes([100, 999, 100])
        result = coarsen_mdg(mdg, 3)
        assert result.internalized_bytes == 999.0

    def test_compute_cost_preserved(self):
        mdg = chain_with_bytes([1, 1])
        result = coarsen_mdg(mdg, 1)
        total = sum(node.processing.cost(1.0) for node in mdg.nodes())
        merged = sum(node.processing.cost(1.0) for node in result.coarse.nodes())
        assert merged == pytest.approx(total)

    def test_no_op_when_target_not_smaller(self):
        mdg = chain_with_bytes([1, 1])
        result = coarsen_mdg(mdg, 10)
        assert result.coarse.n_nodes == mdg.n_nodes
        assert all(len(m) == 1 for m in result.members.values())

    def test_members_partition_nodes(self):
        mdg = layered_random_mdg(4, 3, seed=8)
        result = coarsen_mdg(mdg, 4)
        all_members = sorted(
            name for group in result.members.values() for name in group
        )
        assert all_members == sorted(mdg.node_names())

    def test_coarse_graph_stays_acyclic(self):
        for seed in (1, 2, 3, 4):
            mdg = layered_random_mdg(4, 4, seed=seed)
            result = coarsen_mdg(mdg, 3)
            result.coarse.validate()  # raises CycleError if broken

    def test_diamond_merge_avoids_cycle(self):
        """Merging across one branch of a diamond must not produce a
        cycle with the other branch."""
        mdg = MDG("d")
        for name in ("top", "l", "r", "bot"):
            mdg.add_node(name, AmdahlProcessingCost(0.1, 1.0))
        big = [ArrayTransfer(1000.0, TransferKind.ROW2ROW)]
        small = [ArrayTransfer(10.0, TransferKind.ROW2ROW)]
        mdg.add_edge("top", "l", big)
        mdg.add_edge("top", "r", small)
        mdg.add_edge("l", "bot", small)
        mdg.add_edge("r", "bot", small)
        result = coarsen_mdg(mdg, 3)
        result.coarse.validate()
        assert result.coarse.n_nodes == 3

    def test_paper_programs_coarsen(self):
        for bundle in (complex_matmul_program(32), strassen_program(32)):
            result = coarsen_mdg(bundle.mdg, 6)
            assert result.coarse.n_nodes <= 8  # may stop early on structure
            result.coarse.validate()


class TestExpandAllocation:
    def test_members_inherit_group(self):
        mdg = chain_with_bytes([100, 999, 100])
        result = coarsen_mdg(mdg, 3)
        coarse_alloc = {name: 4.0 for name in result.coarse.node_names()}
        fine = expand_allocation(result, coarse_alloc)
        assert set(fine) == set(mdg.node_names())
        assert all(v == 4.0 for v in fine.values())

    def test_missing_coarse_node_rejected(self):
        mdg = chain_with_bytes([1])
        result = coarsen_mdg(mdg, 1)
        with pytest.raises(GraphError, match="missing"):
            expand_allocation(result, {})

    def test_expanded_allocation_schedules(self, cm5_16):
        """End-to-end: coarse convex solve -> expand -> fine PSA."""
        from repro.allocation.solver import solve_allocation
        from repro.scheduling.psa import prioritized_schedule

        mdg = strassen_program(64).mdg.normalized()
        result = coarsen_mdg(mdg, 8)
        coarse_alloc = solve_allocation(result.coarse.normalized(), cm5_16)
        fine = expand_allocation(
            result,
            {
                k: v
                for k, v in coarse_alloc.processors.items()
                if k in result.coarse
            },
        )
        schedule = prioritized_schedule(mdg, fine, cm5_16)
        assert schedule.is_complete
        schedule.validate(schedule.info["weights"])
