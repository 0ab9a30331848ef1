"""Unit tests for SVG Gantt export."""

import pytest

from repro.allocation.solver import solve_allocation
from repro.errors import ValidationError
from repro.graph.generators import paper_example_mdg
from repro.scheduling.psa import PSAOptions, prioritized_schedule
from repro.scheduling.schedule import Schedule
from repro.viz.svg import save_schedule_svg, schedule_svg


@pytest.fixture
def schedule(machine4):
    mdg = paper_example_mdg().normalized()
    allocation = solve_allocation(mdg, machine4)
    return prioritized_schedule(
        mdg, allocation.processors, machine4, PSAOptions(processor_bound="machine")
    )


class TestScheduleSvg:
    def test_wellformed_document(self, schedule):
        svg = schedule_svg(schedule)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert svg.count("<svg") == 1

    def test_one_box_per_processor_occupancy(self, schedule):
        svg = schedule_svg(schedule, show_labels=False)
        boxes = svg.count("<title>")
        expected = sum(
            e.width for e in schedule.entries.values() if e.duration > 0
        )
        assert boxes == expected

    def test_processor_lanes_labelled(self, schedule):
        svg = schedule_svg(schedule)
        for proc in range(4):
            assert f">P{proc}</text>" in svg

    def test_makespan_in_header(self, schedule):
        assert f"{schedule.makespan:.4g}s" in schedule_svg(schedule)

    def test_deterministic(self, schedule):
        assert schedule_svg(schedule) == schedule_svg(schedule)

    def test_node_names_escaped(self, machine4):
        from repro.costs.processing import AmdahlProcessingCost
        from repro.graph.mdg import MDG
        from repro.scheduling.schedule import ScheduledNode

        mdg = MDG("esc")
        mdg.add_node("a<b>&c", AmdahlProcessingCost(0.1, 1.0))
        schedule = Schedule(mdg=mdg, total_processors=1)
        schedule.add(ScheduledNode("a<b>&c", 0.0, 1.0, (0,)))
        svg = schedule_svg(schedule)
        assert "a&lt;b&gt;&amp;c" in svg
        assert "a<b>" not in svg

    def test_empty_schedule_rejected(self, machine4):
        from repro.graph.generators import paper_example_mdg as factory

        empty = Schedule(mdg=factory(), total_processors=4)
        with pytest.raises(ValidationError, match="empty"):
            schedule_svg(empty)

    def test_narrow_width_rejected(self, schedule):
        with pytest.raises(ValidationError):
            schedule_svg(schedule, width=50)

    def test_save_to_file(self, schedule, tmp_path):
        path = tmp_path / "gantt.svg"
        save_schedule_svg(schedule, path)
        assert path.read_text().startswith("<svg")
