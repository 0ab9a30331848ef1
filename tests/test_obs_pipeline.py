"""End-to-end telemetry: the instrumented pipeline and the CLI flags."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.machine.presets import cm5
from repro.pipeline import compile_mdg, measure
from repro.programs import complex_matmul_program

PIPELINE_PHASES = {"compile", "allocate", "schedule", "codegen", "simulate"}


@pytest.fixture
def telemetry():
    t = obs.Telemetry(sinks=[obs.MemorySink()])
    with obs.use(t):
        yield t


class TestInstrumentedPipeline:
    def test_phase_spans_cover_the_pipeline(self, telemetry):
        result = compile_mdg(complex_matmul_program(16).mdg, cm5(16))
        measure(result)
        names = {s.name for s in telemetry.spans}
        assert PIPELINE_PHASES <= names

    def test_solver_telemetry(self, telemetry):
        compile_mdg(complex_matmul_program(16).mdg, cm5(16))
        metrics = telemetry.metrics.snapshot()
        assert metrics["counters"]["solver.attempts"] == 1
        assert metrics["counters"]["solver.solves"] == 1
        assert metrics["histograms"]["solver.iterations"]["count"] == 1
        iterations = metrics["histograms"]["solver.iterations"]["max"]
        assert iterations >= 1
        # One event per interior-point iteration, plus the starting point.
        iteration_events = [
            e
            for e in telemetry.collected_events()
            if e.get("name") == "solver.iteration"
        ]
        assert len(iteration_events) == iterations + 1
        for e in iteration_events:
            assert e["method"] == "interior-point"
            for key in ("gap", "primal_residual", "dual_residual", "step"):
                assert key in e

    def test_psa_decision_events(self, telemetry):
        result = compile_mdg(complex_matmul_program(16).mdg, cm5(16))
        events = telemetry.collected_events()
        prepare = [e for e in events if e.get("name") == "psa.prepare"]
        assert prepare and prepare[0]["processor_bound"] >= 1
        scheduled = [e for e in events if e.get("name") == "psa.schedule"]
        assert len(scheduled) == len(result.schedule.entries)
        for e in scheduled:
            assert e["start"] == pytest.approx(max(e["est"], e["pst"]))
            assert e["finish"] >= e["start"]
        metrics = telemetry.metrics.snapshot()
        assert metrics["histograms"]["psa.ready_queue_length"]["count"] > 0

    def test_simulator_telemetry(self, telemetry):
        result = compile_mdg(complex_matmul_program(16).mdg, cm5(16))
        sim = measure(result)
        metrics = telemetry.metrics.snapshot()
        assert metrics["counters"]["sim.instructions"] == result.program.n_instructions
        assert 0.0 < metrics["gauges"]["sim.utilization"] <= 1.0
        assert metrics["gauges"]["sim.makespan"] == pytest.approx(sim.makespan)
        runs = [
            e for e in telemetry.collected_events() if e.get("name") == "sim.run"
        ]
        assert runs
        assert runs[0]["sends"] > 0 and runs[0]["recvs"] > 0
        assert runs[0]["makespan"] == pytest.approx(sim.makespan)

    def test_runtime_transfer_telemetry(self, telemetry):
        from repro.pipeline import execute_bundle

        bundle = complex_matmul_program(8)
        execution = execute_bundle(bundle, cm5(8))
        metrics = telemetry.metrics.snapshot()
        assert metrics["counters"]["runtime.nodes_executed"] > 0
        events = telemetry.collected_events()
        transfer = [e for e in events if e.get("name") == "runtime.transfer"]
        assert transfer
        total = [e for e in events if e.get("name") == "runtime.execute"]
        assert total[0]["bytes_moved"] == execution.value_report.total_bytes_moved()

    def test_frontend_telemetry(self, telemetry):
        from repro.frontend import LoopProgram, compile_loop_program

        prog = LoopProgram("obs_demo")
        prog.declare("A", 16, 16).declare("B", 16, 16).declare("C", 16, 16)
        prog.loop("initA", "matinit", writes="A")
        prog.loop("initB", "matinit", writes="B")
        prog.loop("mul", "matmul", writes="C", reads=("A", "B"))
        compile_loop_program(prog)
        assert any(s.name == "frontend" for s in telemetry.spans)
        lower = [
            e
            for e in telemetry.collected_events()
            if e.get("name") == "frontend.lower"
        ]
        assert lower and lower[0]["loops"] == 3

    def test_coarsen_span(self, telemetry):
        from repro.graph.coarsen import coarsen_mdg

        mdg = complex_matmul_program(16).mdg.normalized()
        result = coarsen_mdg(mdg, 4)
        span = [s for s in telemetry.spans if s.name == "coarsen"][0]
        assert span.attrs["nodes_before"] == mdg.n_nodes
        assert span.attrs["nodes_after"] == result.coarse.n_nodes


class TestCliTelemetryFlags:
    def test_compile_log_json_covers_every_phase(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        status = main(
            [
                "compile",
                "--program",
                "complex",
                "--n",
                "16",
                "-p",
                "16",
                "--log-json",
                str(log),
            ]
        )
        assert status == 0
        events = obs.read_jsonl(log)  # every line parses
        spans = {e["name"] for e in events if e["type"] == "span"}
        assert {"compile", "allocate", "schedule", "codegen"} <= spans
        assert events[-1]["type"] == "metrics"

    def test_simulate_metrics_out(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        metrics_path = tmp_path / "metrics.json"
        status = main(
            [
                "simulate",
                "--program",
                "complex",
                "--n",
                "16",
                "-p",
                "16",
                "--log-json",
                str(log),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert status == 0
        spans = {
            e["name"] for e in obs.read_jsonl(log) if e["type"] == "span"
        }
        assert {"allocate", "schedule", "simulate"} <= spans
        metrics = json.loads(metrics_path.read_text())
        assert metrics["histograms"]["solver.iterations"]["count"] >= 1
        assert 0.0 < metrics["gauges"]["sim.utilization"] <= 1.0

    def test_obs_report_flag(self, capsys):
        status = main(
            [
                "compile",
                "--program",
                "complex",
                "--n",
                "16",
                "-p",
                "16",
                "--obs-report",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "run report" in out
        assert "allocate" in out
        assert "solver.attempts" in out

    def test_flags_leave_global_state_disabled(self, tmp_path):
        main(
            [
                "compile",
                "--program",
                "complex",
                "--n",
                "16",
                "-p",
                "16",
                "--metrics-out",
                str(tmp_path / "m.json"),
            ]
        )
        assert not obs.enabled()

    def test_trace_includes_pipeline_track(self, tmp_path):
        out = tmp_path / "trace.json"
        status = main(
            [
                "trace",
                "--program",
                "complex",
                "--n",
                "16",
                "-p",
                "16",
                "-o",
                str(out),
            ]
        )
        assert status == 0
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {0, 1}
        pipeline_names = {
            e["name"] for e in events if e["ph"] == "X" and e["pid"] == 1
        }
        assert {"compile", "allocate", "schedule", "simulate"} <= pipeline_names
        thread_labels = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 0
        }
        assert "proc 0" in thread_labels
        assert not obs.enabled()
