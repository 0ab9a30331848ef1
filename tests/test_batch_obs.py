"""Cross-process telemetry: worker bundles and serial/parallel equivalence.

The regression guarded here: batch workers run in separate processes, so
before bundles existed their spans, solver convergence events, and
metrics were silently dropped from the parent's run log. Now a parallel
sweep must profile equivalently to a serial one.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro import obs
from repro.batch import BatchCompiler, BatchJob
from repro.check import check_file
from repro.cli import main
from repro.obs.bundle import JOB_SPAN, capture_bundle, merge_bundle
from repro.obs.runlog import run_log_problems
from repro.obs.sinks import read_jsonl


def jobs():
    # Two structurally different jobs so the structural solve cache
    # cannot collapse them into one solve (each must emit solver spans).
    return [
        BatchJob(
            job_id="c16",
            source={"kind": "program", "name": "complex", "n": 16},
            processors=8,
        ),
        BatchJob(
            job_id="f16",
            source={"kind": "program", "name": "fft2d", "n": 16},
            processors=8,
        ),
    ]


def run_batch(workers, log_path):
    """Run the simulated jobs, keeping events in memory and in a JSONL log."""
    telemetry = obs.Telemetry(sinks=[obs.MemorySink(), obs.JsonlSink(log_path)])
    with obs.use(telemetry):
        report = BatchCompiler(workers=workers).run(
            [replace(job, simulate=True) for job in jobs()]
        )
    telemetry.close()
    return telemetry, report


@pytest.fixture(scope="module")
def batch_logs(tmp_path_factory):
    """One serial and one 2-worker run, shared by every test that only
    reads their telemetry: ``{workers: (telemetry, report, log_path)}``."""
    root = tmp_path_factory.mktemp("batch-logs")
    runs = {}
    for workers in (0, 2):
        path = root / f"workers{workers}.jsonl"
        runs[workers] = (*run_batch(workers, path), path)
    return runs


def span_names(telemetry):
    return {
        (e["name"], e.get("job"))
        for e in telemetry.collected_events()
        if e["type"] == "span"
    }


def solver_iteration_jobs(telemetry):
    return {
        e.get("job")
        for e in telemetry.collected_events()
        if e["type"] == "event" and e["name"] == "solver.iteration"
    }


class TestBundles:
    def test_capture_excludes_run_start_and_metrics(self):
        worker = obs.Telemetry(sinks=[obs.MemorySink()])
        with obs.use(worker):
            with obs.span("compile"):
                obs.event("solver.iteration", nit=1)
            obs.counter("solver.evals.objective").inc(3)
        bundle = capture_bundle(worker)
        types = {e["type"] for e in bundle["events"]}
        assert types == {"span", "event"}
        assert bundle["metrics"]["counters"]["solver.evals.objective"] == 3.0
        json.dumps(bundle)  # must survive the process boundary as JSON

    def test_merge_replays_under_job_span(self):
        worker = obs.Telemetry(sinks=[obs.MemorySink()])
        with obs.use(worker):
            with obs.span("compile"):
                with obs.span("allocate"):
                    obs.event("solver.iteration", nit=1, objective=2.0)
        bundle = capture_bundle(worker)

        parent = obs.Telemetry(sinks=[obs.MemorySink()])
        with obs.use(parent):
            with obs.span("batch"):
                merge_bundle(parent, bundle, job_id="j1")
        spans = {
            e["name"]: e
            for e in parent.collected_events()
            if e["type"] == "span"
        }
        assert set(spans) == {"batch", JOB_SPAN, "compile", "allocate"}
        assert spans[JOB_SPAN]["depth"] == 1
        assert spans["compile"]["depth"] == 2
        assert spans["compile"]["parent"] == JOB_SPAN
        assert spans["allocate"]["depth"] == 3
        assert spans["allocate"]["attrs"]["job"] == "j1"
        iteration = next(
            e
            for e in parent.collected_events()
            if e["type"] == "event" and e["name"] == "solver.iteration"
        )
        assert iteration["job"] == "j1"
        assert parent.metrics is not worker.metrics
        # The merged stream is a valid run log.
        assert run_log_problems(parent.collected_events()) == []

    def test_merge_folds_worker_metrics(self):
        worker = obs.Telemetry(sinks=[obs.MemorySink()])
        with obs.use(worker):
            obs.counter("solver.evals.objective").inc(5)
            obs.histogram("prof.hot.solver.objective").observe(0.25)
        parent = obs.Telemetry(sinks=[obs.MemorySink()])
        merge_bundle(parent, capture_bundle(worker), job_id="j1")
        assert parent.metrics.counter("solver.evals.objective").value == 5.0
        hist = parent.metrics.histogram("prof.hot.solver.objective")
        assert hist.count == 1
        assert hist.total == 0.25

    def test_merge_rejects_unknown_version(self):
        parent = obs.Telemetry(sinks=[obs.MemorySink()])
        with pytest.raises(ValueError, match="unsupported obs bundle"):
            merge_bundle(parent, {"version": 99, "events": []}, job_id="x")
        with pytest.raises(ValueError):
            merge_bundle(parent, None, job_id="x")

    def test_no_bundle_captured_when_disabled(self):
        assert not obs.enabled()
        report = BatchCompiler().run(jobs()[:1])
        assert report.results[0].ok
        assert report.results[0].obs_bundle is None


class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def both_runs(self, batch_logs):
        return tuple(batch_logs[workers][:2] for workers in (0, 2))

    def test_all_jobs_succeed(self, both_runs):
        (_, serial_report), (_, parallel_report) = both_runs
        assert serial_report.n_failed == 0
        assert parallel_report.n_failed == 0

    def test_span_sets_equivalent(self, both_runs):
        (serial, _), (parallel, _) = both_runs
        assert span_names(serial) == span_names(parallel)

    def test_per_job_subtrees_present_in_parallel_run(self, both_runs):
        _, (parallel, _) = both_runs
        names = span_names(parallel)
        for job_id in ("c16", "f16"):
            assert (JOB_SPAN, job_id) in names
            assert any(
                name.startswith("solver") and job == job_id
                for name, job in names
            ), f"no solver spans for {job_id}"

    def test_convergence_events_survive_the_process_boundary(self, both_runs):
        (serial, _), (parallel, _) = both_runs
        assert solver_iteration_jobs(parallel) == {"c16", "f16"}
        assert solver_iteration_jobs(serial) == {"c16", "f16"}

    def test_metric_sets_equivalent(self, both_runs):
        (serial, _), (parallel, _) = both_runs
        for kind in ("counters", "gauges", "histograms"):
            assert set(serial.metrics.snapshot()[kind]) == set(
                parallel.metrics.snapshot()[kind]
            ), kind

    def test_merged_streams_are_valid_run_logs(self, both_runs):
        (serial, _), (parallel, _) = both_runs
        assert run_log_problems(serial.collected_events()) == []
        assert run_log_problems(parallel.collected_events()) == []


class TestBatchCliFourWorkers:
    def test_parent_log_contains_per_job_solver_spans(self, tmp_path, capsys):
        """Acceptance: a 4-worker batch leaves per-job solver spans (and
        per-iteration convergence events) in the parent's run log."""
        manifest = tmp_path / "sweep.json"
        manifest.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "jobs": [
                        {"id": "c16", "program": "complex", "n": 16,
                         "processors": 8},
                        {"id": "f16", "program": "fft2d", "n": 16,
                         "processors": 8},
                    ],
                }
            )
        )
        log = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "batch",
                    str(manifest),
                    "--workers",
                    "4",
                    "--no-cache",
                    "--log-json",
                    str(log),
                ]
            )
            == 0
        )
        capsys.readouterr()
        events = read_jsonl(log)
        spans = [e for e in events if e.get("type") == "span"]
        job_spans = {
            e.get("job") for e in spans if e.get("name") == JOB_SPAN
        }
        assert job_spans == {"c16", "f16"}
        for job_id in ("c16", "f16"):
            assert any(
                str(e.get("name", "")).startswith("solver")
                and e.get("job") == job_id
                for e in spans
            ), f"no solver spans for {job_id} in parent log"
            assert any(
                e.get("type") == "event"
                and e.get("name") == "solver.iteration"
                and e.get("job") == job_id
                for e in events
            ), f"no convergence events for {job_id} in parent log"
        # The parent log is clean: repro check would find nothing.
        assert run_log_problems(events) == []


STAGE_SPANS = {"allocate", "schedule", "codegen", "simulate"}


class TestPerStageSpans:
    """Batch jobs run the pipeline's stage sequence, so every merged job
    subtree carries the same per-stage spans as a single compile."""

    @pytest.fixture(scope="class")
    def logs(self, batch_logs):
        for _, report, _ in batch_logs.values():
            assert report.n_failed == 0
        return {workers: run[2] for workers, run in batch_logs.items()}

    @staticmethod
    def stage_spans_by_job(path):
        by_job: dict[str, set[str]] = {}
        for e in read_jsonl(path):
            if e.get("type") == "span" and e.get("job") is not None:
                by_job.setdefault(e["job"], set()).add(e["name"])
        return by_job

    def test_every_job_has_every_stage_span(self, logs):
        for path in logs.values():
            by_job = self.stage_spans_by_job(path)
            assert set(by_job) == {"c16", "f16"}
            for job_id, names in by_job.items():
                assert JOB_SPAN in names
                assert STAGE_SPANS <= names, (path.name, job_id, names)

    def test_serial_and_pool_span_sets_equal(self, logs):
        assert self.stage_spans_by_job(logs[0]) == self.stage_spans_by_job(
            logs[2]
        )

    def test_repro_check_finds_nothing(self, logs):
        for path in logs.values():
            report = check_file(path)
            assert len(report) == 0, report.render_text()
