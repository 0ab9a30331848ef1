"""Unit tests for the HLFET and EFT list-scheduler variants."""

import pytest

from repro.allocation.solver import solve_allocation
from repro.graph.generators import fork_join_mdg, layered_random_mdg, paper_example_mdg
from repro.scheduling.psa import PSAOptions, prioritized_schedule
from repro.scheduling.variants import eft_schedule, hlfet_schedule


@pytest.fixture(params=[hlfet_schedule, eft_schedule])
def variant(request):
    return request.param


class TestVariantsProduceValidSchedules:
    def test_validates(self, variant, cm5_16):
        mdg = layered_random_mdg(3, 3, seed=9).normalized()
        allocation = solve_allocation(mdg, cm5_16)
        schedule = variant(mdg, allocation.processors, cm5_16)
        schedule.validate(schedule.info["weights"])
        assert schedule.is_complete

    def test_algorithm_labelled(self, cm5_16):
        mdg = fork_join_mdg(2, seed=0).normalized()
        allocation = solve_allocation(mdg, cm5_16)
        assert (
            hlfet_schedule(mdg, allocation.processors, cm5_16).info["algorithm"]
            == "HLFET"
        )
        assert (
            eft_schedule(mdg, allocation.processors, cm5_16).info["algorithm"]
            == "EFT"
        )

    def test_deterministic(self, variant, cm5_16):
        mdg = layered_random_mdg(3, 3, seed=13).normalized()
        allocation = solve_allocation(mdg, cm5_16)
        s1 = variant(mdg, allocation.processors, cm5_16)
        s2 = variant(mdg, allocation.processors, cm5_16)
        assert s1.makespan == s2.makespan

    def test_respects_processor_bound(self, variant, cm5_16):
        mdg = fork_join_mdg(2, seed=0).normalized()
        schedule = variant(
            mdg,
            {name: 16.0 for name in mdg.node_names()},
            cm5_16,
            PSAOptions(processor_bound=4),
        )
        assert all(e.width <= 4 for e in schedule)

    def test_same_preprocessing_as_psa(self, variant, cm5_16):
        """Variants share the rounding/bounding steps: identical
        allocations after preprocessing."""
        mdg = layered_random_mdg(3, 2, seed=21).normalized()
        allocation = solve_allocation(mdg, cm5_16)
        psa = prioritized_schedule(mdg, allocation.processors, cm5_16)
        alt = variant(mdg, allocation.processors, cm5_16)
        assert psa.info["allocation"] == alt.info["allocation"]
        assert psa.info["processor_bound"] == alt.info["processor_bound"]


class TestVariantQuality:
    def test_all_above_lower_bound(self, cm5_16):
        from repro.costs.node_weights import MDGCostModel

        mdg = layered_random_mdg(4, 3, seed=33).normalized()
        allocation = solve_allocation(mdg, cm5_16)
        cm = MDGCostModel(mdg, cm5_16.transfer_model())
        for scheduler in (prioritized_schedule, hlfet_schedule, eft_schedule):
            schedule = scheduler(mdg, allocation.processors, cm5_16)
            lower = cm.makespan_lower_bound(schedule.info["allocation"], 16)
            assert schedule.makespan >= lower * (1 - 1e-9)

    def test_no_variant_catastrophically_worse(self, cm5_16):
        """On moderate graphs the three priority rules stay within 2x of
        each other — they differ in constants, not asymptotics."""
        mdg = layered_random_mdg(4, 4, seed=44).normalized()
        allocation = solve_allocation(mdg, cm5_16)
        times = {
            s.__name__: s(mdg, allocation.processors, cm5_16).makespan
            for s in (prioritized_schedule, hlfet_schedule, eft_schedule)
        }
        assert max(times.values()) <= 2.0 * min(times.values()), times

    def test_identical_on_motivating_example(self, machine4):
        """Tiny graph, one obvious schedule: all rules agree."""
        mdg = paper_example_mdg().normalized()
        allocation = solve_allocation(mdg, machine4)
        options = PSAOptions(processor_bound="machine")
        makespans = {
            s(mdg, allocation.processors, machine4, options).makespan
            for s in (prioritized_schedule, hlfet_schedule, eft_schedule)
        }
        assert len(makespans) == 1
