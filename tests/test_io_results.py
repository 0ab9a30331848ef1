"""Unit tests for schedule/result serialization."""

import json

import pytest

from repro.allocation.solver import solve_allocation
from repro.errors import ValidationError
from repro.graph.generators import fork_join_mdg
from repro.io.results import (
    comparison_to_dict,
    experiment_to_json,
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.scheduling.psa import prioritized_schedule


@pytest.fixture
def schedule(cm5_16):
    mdg = fork_join_mdg(2, seed=0).normalized()
    allocation = solve_allocation(mdg, cm5_16)
    return prioritized_schedule(mdg, allocation.processors, cm5_16)


class TestScheduleRoundTrip:
    def test_entries_preserved(self, schedule):
        restored = schedule_from_dict(schedule_to_dict(schedule))
        assert restored.makespan == pytest.approx(schedule.makespan)
        assert set(restored.entries) == set(schedule.entries)
        for name, entry in schedule.entries.items():
            other = restored.entry(name)
            assert other.start == pytest.approx(entry.start)
            assert other.processors == entry.processors

    def test_structural_validation_after_load(self, schedule):
        restored = schedule_from_dict(schedule_to_dict(schedule))
        restored.validate()  # structure-only (weights not serialized)

    def test_metrics_survive(self, schedule):
        restored = schedule_from_dict(schedule_to_dict(schedule))
        assert restored.useful_work_area() == pytest.approx(
            schedule.useful_work_area()
        )

    def test_info_scalars_kept_objects_dropped(self, schedule):
        data = schedule_to_dict(schedule)
        assert data["info"]["processor_bound"] == schedule.info["processor_bound"]
        assert "weights" not in data["info"]  # live object, not serializable

    def test_json_serializable(self, schedule):
        json.dumps(schedule_to_dict(schedule))

    def test_file_round_trip(self, schedule, tmp_path):
        path = tmp_path / "sched.json"
        save_schedule(schedule, path)
        restored = load_schedule(path)
        assert restored.total_processors == schedule.total_processors

    def test_bad_schema_version(self, schedule):
        data = schedule_to_dict(schedule)
        data["schema_version"] = 7
        with pytest.raises(ValidationError, match="schema"):
            schedule_from_dict(data)


class TestExperimentSerialization:
    def test_comparison_row(self, cm5_16):
        from repro.analysis.comparison import compare_spmd_mpmd
        from repro.machine.fidelity import HardwareFidelity

        row = compare_spmd_mpmd(
            fork_join_mdg(2, seed=0), cm5_16, HardwareFidelity.ideal()
        )
        data = comparison_to_dict(row)
        assert data["processors"] == 16
        assert "mpmd_speedup" in data

    def test_non_dataclass_rejected(self):
        with pytest.raises(ValidationError):
            comparison_to_dict({"not": "a dataclass"})

    def test_experiment_document(self, cm5_16):
        from repro.analysis.comparison import phi_vs_tpsa

        rows = [phi_vs_tpsa(fork_join_mdg(2, seed=0), cm5_16)]
        text = experiment_to_json(rows, "table3")
        document = json.loads(text)
        assert document["experiment"] == "table3"
        assert len(document["rows"]) == 1
        assert document["rows"][0]["processors"] == 16
