"""The one stage sequence: its callers agree, and its post-conditions hold.

``compile_mdg``, ``run_resumable``, ``execute_with_faults``, the CLI and
batch jobs all run the same allocate → schedule → post-conditions →
codegen → simulate → repair sequence, so the same inputs must give the
same answers through every one of them.
"""

from __future__ import annotations

import json
import re

import pytest

import repro.allocation.certificate as certificate_module
import repro.pipeline as pipeline_module
from repro import obs
from repro.allocation.solver import ConvexSolverOptions
from repro.batch import BatchCompiler, BatchJob
from repro.cli import main
from repro.errors import SchedulingError
from repro.faults import load_fault_spec
from repro.graph.generators import paper_example_mdg
from repro.machine.fidelity import HardwareFidelity
from repro.machine.presets import cm5
from repro.pipeline import compile_mdg, execute_with_faults, run_resumable
from repro.programs import complex_matmul_program

#: Every solver attempt times out, so a non-strict solve returns the
#: uniform analytic fallback.
FALLBACK_OPTIONS = ConvexSolverOptions(timeout_seconds=1e-9, strict=False)


class TestFallbackPostconditions:
    def test_resumed_fallback_is_reported_as_fallback(self, tmp_path):
        first = run_resumable(
            paper_example_mdg(), cm5(8), cache_dir=tmp_path, simulate=False,
            solver_options=FALLBACK_OPTIONS,
        )
        assert first.compilation.allocation.info["fallback"] is True

        telemetry = obs.Telemetry(sinks=[obs.MemorySink()])
        with obs.use(telemetry):
            second = run_resumable(
                paper_example_mdg(), cm5(8), cache_dir=tmp_path, simulate=False,
                solver_options=FALLBACK_OPTIONS,
            )
        assert second.stage_sources["allocation"] == "cache"
        problems = [
            e["problem"]
            for e in telemetry.collected_events()
            if e.get("name") == "pipeline.postcondition"
        ]
        assert problems == [
            "allocation is the analytic fallback, not a certified optimum"
        ]

    def test_strict_fallback_raises(self):
        with pytest.raises(SchedulingError, match="analytic fallback"):
            compile_mdg(
                paper_example_mdg(), cm5(8), solver_options=FALLBACK_OPTIONS,
                strict=True,
            )


class TestFaultRepairParity:
    """The CI fault-smoke run gives one repair through every entry point."""

    def test_three_entry_points_repair_identically(self, tmp_path, capsys):
        spec_path = tmp_path / "faults.json"
        spec_path.write_text(
            json.dumps(
                {"seed": 7,
                 "processor_failures": [{"processor": 1, "at_time": 1e-4}]}
            )
        )
        spec = load_fault_spec(spec_path)
        bundle = complex_matmul_program(16)
        ideal = HardwareFidelity.ideal()

        library = execute_with_faults(bundle, cm5(8), spec, fidelity=ideal)
        resumable = run_resumable(
            bundle.mdg, cm5(8), cache_dir=None, faults=spec, fidelity=ideal
        )
        assert library.repair is not None and resumable.repair is not None
        assert (
            resumable.repair.report.repaired_makespan
            == library.repair.report.repaired_makespan
        )
        assert (
            resumable.repair.report.rescheduled_nodes
            == library.repair.report.rescheduled_nodes
        )

        assert main(
            ["simulate", "--program", "complex", "--n", "16", "-p", "8",
             "--fidelity", "ideal", "--faults", str(spec_path)]
        ) == 0
        out = capsys.readouterr().out
        match = re.search(
            r"repaired  : (\S+) s on .*, (\d+) node\(s\) rescheduled", out
        )
        assert match, out
        report = library.repair.report
        assert match.group(1) == f"{report.repaired_makespan:.6g}"
        assert int(match.group(2)) == len(report.rescheduled_nodes)


class TestBatchCertification:
    def test_structural_hit_is_certified_once(self, tmp_path, monkeypatch):
        jobs = [
            BatchJob(
                job_id=job_id,
                source={"kind": "program", "name": "complex", "n": 16},
                processors=8,
                simulate=True,
            )
            for job_id in ("a", "b")
        ]
        compiler = BatchCompiler(cache_dir=str(tmp_path))
        compiler.run(jobs[:1])

        calls = []
        real = certificate_module.certify_allocation

        def counting(problem, allocation, *args, **kwargs):
            calls.append(allocation)
            return real(problem, allocation, *args, **kwargs)

        monkeypatch.setattr(certificate_module, "certify_allocation", counting)
        monkeypatch.setattr(pipeline_module, "certify_allocation", counting)
        report = compiler.run(jobs)
        assert [r.cache for r in report.results] == ["hit", "hit"]
        assert len(calls) == 2
