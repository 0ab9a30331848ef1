"""Unit tests for placement-aware locality accounting."""

import pytest

from repro.errors import DistributionError
from repro.programs import pipeline_program, reduction_tree_program
from repro.runtime.executor import ValueExecutor
from repro.runtime.verify import verify_against_reference


class TestLocalityAccounting:
    def test_aligned_placement_all_local(self):
        """Producer and consumer on the same processors with matching
        rank order: every 1D-aligned message stays on-processor."""
        bundle = pipeline_program(stages=1, n=8)
        nodes = bundle.app.computational_nodes()
        allocation = {name: 2 for name in nodes}
        placement = {name: (0, 1) for name in nodes}
        report = ValueExecutor(bundle.app).run(allocation, placement)
        verify_against_reference(bundle.app, report)
        for stat in report.transfers:
            assert stat.local_bytes == stat.bytes_moved, stat
        assert report.locality_fraction() == 1.0
        assert report.total_wire_bytes() == 0

    def test_disjoint_placement_nothing_local(self):
        bundle = pipeline_program(stages=1, n=8)
        nodes = bundle.app.computational_nodes()
        allocation = {name: 2 for name in nodes}
        placement = {
            name: (2 * k, 2 * k + 1) for k, name in enumerate(nodes)
        }
        report = ValueExecutor(bundle.app).run(allocation, placement)
        assert all(s.local_bytes == 0 for s in report.transfers)
        assert report.locality_fraction() == 0.0
        assert report.total_wire_bytes() == report.total_bytes_moved()

    def test_partial_overlap(self):
        bundle = pipeline_program(stages=1, n=8)
        nodes = bundle.app.computational_nodes()
        allocation = {name: 2 for name in nodes}
        placement = {name: (0, 1) for name in nodes}
        placement[nodes[0]] = (0, 5)  # rank 1 moved off
        report = ValueExecutor(bundle.app).run(allocation, placement)
        assert 0.0 < report.locality_fraction() < 1.0

    def test_no_placement_means_zero_locals(self):
        bundle = pipeline_program(stages=1, n=8)
        report = ValueExecutor(bundle.app).run(
            {name: 2 for name in bundle.app.computational_nodes()}
        )
        assert all(s.local_messages == 0 for s in report.transfers)
        assert report.total_wire_bytes() == report.total_bytes_moved()

    def test_wrong_placement_width_rejected(self):
        bundle = pipeline_program(stages=1, n=8)
        nodes = bundle.app.computational_nodes()
        placement = {name: (0,) for name in nodes}  # groups are 2-wide
        with pytest.raises(DistributionError, match="exactly"):
            ValueExecutor(bundle.app).run(
                {name: 2 for name in nodes}, placement
            )

    def test_schedule_placement_end_to_end(self, cm5_16):
        """Feed the PSA's actual processor assignments into the executor:
        the schedule's processor reuse shows up as locality."""
        from repro.allocation.solver import solve_allocation
        from repro.scheduling.psa import prioritized_schedule

        bundle = reduction_tree_program(levels=2, n=16)
        mdg = bundle.mdg.normalized()
        allocation = solve_allocation(mdg, cm5_16)
        schedule = prioritized_schedule(mdg, allocation.processors, cm5_16)
        groups = {}
        placement = {}
        for name in bundle.app.computational_nodes():
            entry = schedule.entry(name)
            groups[name] = entry.width
            placement[name] = entry.processors
        report = ValueExecutor(bundle.app).run(groups, placement)
        verify_against_reference(bundle.app, report)
        # The PSA reuses freed processors, so some traffic is local.
        assert 0.0 <= report.locality_fraction() <= 1.0
        assert report.total_wire_bytes() + sum(
            s.local_bytes for s in report.transfers
        ) == report.total_bytes_moved()
