"""Batch compiler: executors, manifests, error isolation, CLI."""

from __future__ import annotations

import json

import pytest

from repro.batch import (
    BatchCompiler,
    BatchJob,
    load_manifest,
    manifest_problems,
)
from repro.cli import main
from repro.errors import IngestError, ReproError
from repro.graph.generators import layered_random_mdg
from repro.machine.presets import cm5

SMALL = {"kind": "program", "name": "complex", "n": 16}


def small_job(job_id="j", **kwargs):
    kwargs.setdefault("processors", 8)
    return BatchJob(job_id=job_id, source=dict(SMALL), **kwargs)


# ----- jobs and manifests ---------------------------------------------------


def test_from_mdg_round_trips_the_graph(machine8):
    mdg = layered_random_mdg(3, 2, seed=5)
    job = BatchJob.from_mdg(mdg, machine_params=machine8)
    assert job.job_id == mdg.name
    assert job.source["kind"] == "doc"
    report = BatchCompiler().run([job])
    assert report.results[0].ok
    assert set(report.results[0].processors) == set(
        mdg.normalized().node_names()
    )


def test_manifest_problems_accepts_valid_doc(tmp_path):
    doc = {
        "schema_version": 1,
        "jobs": [{"id": "a", "program": "complex", "n": 16}],
    }
    assert manifest_problems(doc, base_dir=tmp_path) == []


@pytest.mark.parametrize(
    "doc,needle",
    [
        ([], "must be a JSON object"),
        ({"jobs": []}, "non-empty array"),
        ({"schema_version": 99, "jobs": [{"program": "complex"}]},
         "unsupported value"),
        ({"jobs": [{"program": "complex", "graph": "x.json"}]},
         "exactly one of"),
        ({"jobs": [{}]}, "exactly one of"),
        ({"jobs": [{"program": "nosuch"}]}, "unknown built-in"),
        ({"jobs": [{"program": "complex", "n": 0}]}, "positive integer"),
        ({"jobs": [{"program": "complex", "machine": "cray"}]},
         "unknown preset"),
        ({"jobs": [{"program": "complex", "fidelity": "exact"}]},
         "fidelity"),
        ({"jobs": [{"program": "complex", "frobnicate": 1}]},
         "unknown job field"),
        ({"jobs": [{"id": "x", "program": "complex"},
                   {"id": "x", "program": "fft2d"}]}, "duplicate job id"),
        ({"jobs": [{"graph": "missing.json"}]}, "file not found"),
    ],
)
def test_manifest_problems_rejects(doc, needle, tmp_path):
    problems = manifest_problems(doc, base_dir=tmp_path)
    assert problems and any(needle in p for p in problems), problems


def test_load_manifest_raises_with_diagnostics(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"jobs": [{"graph": "missing.json"}]}))
    with pytest.raises(IngestError) as err:
        load_manifest(path)
    assert any("file not found" in d for d in err.value.diagnostics)


def test_load_manifest_resolves_graph_relative_to_manifest(tmp_path, machine8):
    from repro.graph.serialization import save_mdg

    mdg = layered_random_mdg(2, 2, seed=3)
    (tmp_path / "graphs").mkdir()
    save_mdg(mdg, tmp_path / "graphs" / "g.json")
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps(
            {"jobs": [{"id": "g", "graph": "graphs/g.json",
                       "machine": "cm5", "processors": 8}]}
        )
    )
    jobs = load_manifest(path)
    assert jobs[0].source["kind"] == "file"
    report = BatchCompiler().run(jobs)
    assert report.results[0].ok, report.results[0].error


# ----- executors ------------------------------------------------------------


def test_serial_and_parallel_results_are_bit_identical(tmp_path):
    jobs = [
        BatchJob.from_mdg(
            layered_random_mdg(2, 2, seed=s).normalized(),
            job_id=f"g{s}",
            machine_params=cm5(8),
        )
        for s in (1, 2, 3)
    ]
    serial = BatchCompiler(workers=0, cache_dir=str(tmp_path / "a")).run(jobs)
    parallel = BatchCompiler(workers=2, cache_dir=str(tmp_path / "b")).run(jobs)
    assert [r.job_id for r in serial.results] == [r.job_id for r in parallel.results]
    for a, b in zip(serial.results, parallel.results):
        assert a.ok and b.ok
        assert a.processors == b.processors
        assert a.phi == b.phi
        assert a.predicted_makespan == b.predicted_makespan


def test_job_error_is_isolated():
    jobs = [
        BatchJob(job_id="bad", source={"kind": "file", "path": "/nope.json"}),
        small_job("good"),
    ]
    report = BatchCompiler().run(jobs)
    assert [r.ok for r in report.results] == [False, True]
    bad = report.results[0]
    assert bad.error_type == "IngestError" and bad.error
    assert report.n_failed == 1 and report.n_ok == 1


def test_unknown_source_kind_is_an_error_record():
    report = BatchCompiler().run(
        [BatchJob(job_id="x", source={"kind": "telepathy"})]
    )
    assert not report.results[0].ok
    assert "telepathy" in report.results[0].error


def test_negative_workers_rejected():
    with pytest.raises(ReproError):
        BatchCompiler(workers=-1)


def test_simulate_records_measured_makespan():
    report = BatchCompiler().run([small_job(simulate=True)])
    result = report.results[0]
    assert result.ok
    assert result.measured_makespan is not None
    assert result.measured_makespan > 0


def test_spmd_style_jobs_run():
    report = BatchCompiler().run([small_job(style="SPMD", simulate=True)])
    result = report.results[0]
    assert result.ok
    assert result.phi is None  # SPMD has no convex objective
    assert result.cache == "off"
    assert result.predicted_makespan > 0


def test_report_aggregates(tmp_path):
    report = BatchCompiler(cache_dir=str(tmp_path)).run(
        [small_job("a"), small_job("b")]
    )
    assert report.cache_count("miss") == 1
    assert report.cache_count("hit") == 1
    doc = report.to_dict()
    assert doc["jobs"] == 2 and doc["failed"] == 0
    assert doc["jobs_per_second"] > 0
    assert doc["latency_p95"] >= doc["latency_p50"] > 0
    text = report.render_text()
    assert "jobs/s" in text and "1 hit" in text


# ----- CLI ------------------------------------------------------------------


def write_manifest(tmp_path, jobs):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"schema_version": 1, "jobs": jobs}))
    return path


def test_cli_batch_smoke(tmp_path, capsys):
    path = write_manifest(
        tmp_path,
        [
            {"id": "a", "program": "complex", "n": 16, "processors": 8},
            {"id": "b", "program": "complex", "n": 16, "processors": 8},
        ],
    )
    out_path = tmp_path / "report.json"
    status = main(
        [
            "batch", str(path),
            "--cache-dir", str(tmp_path / "cache"),
            "--resume",
            "--output", str(out_path),
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "jobs/s" in out
    doc = json.loads(out_path.read_text())
    assert doc["ok"] == 2
    assert doc["cache_hits"] == 1  # b is isomorphic to a


def test_cli_batch_preflight_rejects_bad_manifest(tmp_path, capsys):
    path = write_manifest(tmp_path, [{"id": "a", "graph": "missing.json"}])
    status = main(["batch", str(path)])
    err = capsys.readouterr().err
    assert status == 2
    assert "file not found" in err


def test_cli_batch_exit_1_on_failed_job(tmp_path, monkeypatch):
    from repro.graph.serialization import save_mdg

    save_mdg(layered_random_mdg(2, 2, seed=1), tmp_path / "g.json")
    path = write_manifest(
        tmp_path,
        [
            {"id": "good", "program": "complex", "n": 16, "processors": 8},
            {"id": "bad", "graph": "g.json", "processors": 8},
        ],
    )
    # Sabotage the graph after pre-flight would have passed: truncate it.
    orig = __import__("repro.batch.compiler", fromlist=["_resolve_mdg"])
    real = orig._resolve_mdg

    def flaky(source):
        if source.get("kind") == "file":
            raise ReproError("boom")
        return real(source)

    monkeypatch.setattr(orig, "_resolve_mdg", flaky)
    assert main(["batch", str(path)]) == 1


def test_cli_batch_resume_requires_cache_dir(tmp_path):
    path = write_manifest(
        tmp_path, [{"id": "a", "program": "complex", "n": 16}]
    )
    with pytest.raises(SystemExit):
        main(["batch", str(path), "--resume"])


def test_unknown_fidelity_name_fails_the_job():
    # The name is resolved before the solve, so the job fails fast.
    report = BatchCompiler().run([small_job(simulate=True, fidelity="cm5_like")])
    (bad,) = report.results
    assert not bad.ok
    assert bad.error_type == "ReproError"
    assert "cm5_like" in bad.error and "ideal, cm5" in bad.error
