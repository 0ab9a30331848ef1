"""Run-log robustness: validation, tolerant reads, concurrent writers, CLI."""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.cli import main
from repro.obs.runlog import SCHEMA_PROBLEM, STRUCTURE_PROBLEM, run_log_problems
from repro.obs.sinks import JsonlSink, read_jsonl, read_run_log


def span(name, ts, dur, depth, parent=None, job=None):
    record = {
        "type": "span",
        "name": name,
        "ts": ts,
        "dur": dur,
        "depth": depth,
        "parent": parent,
        "attrs": {},
    }
    if job is not None:
        record["job"] = job
        record["attrs"]["job"] = job
    return record


GOOD = [
    {"type": "run_start", "ts": 0.0},
    span("allocate", 0.1, 0.4, 1, "compile"),
    span("schedule", 0.5, 0.3, 1, "compile"),
    span("compile", 0.0, 1.0, 0),
    {"type": "event", "name": "done", "ts": 1.0},
    {"type": "metrics", "ts": 1.0, "metrics": {}},
]


def write_log(tmp_path, records, name="run.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestRunLogProblems:
    def test_clean_log(self):
        assert run_log_problems(GOOD) == []

    def test_missing_type(self):
        problems = run_log_problems([{"ts": 0.0}])
        assert any(
            kind == SCHEMA_PROBLEM and "missing string 'type'" in msg
            for kind, msg in problems
        )

    def test_unknown_type(self):
        problems = run_log_problems([{"type": "trace", "ts": 0.0}])
        assert any("unknown record type" in msg for _, msg in problems)

    def test_span_without_duration_is_schema_problem(self):
        bad = {"type": "span", "name": "allocate", "ts": 0.0, "depth": 0}
        kinds = {k for k, _ in run_log_problems([bad])}
        assert SCHEMA_PROBLEM in kinds

    def test_non_object_record(self):
        problems = run_log_problems(["not a dict"])
        assert problems[0][0] == SCHEMA_PROBLEM

    def test_first_record_must_be_run_start(self):
        problems = run_log_problems([span("a", 0.0, 1.0, 0)])
        assert any(
            kind == STRUCTURE_PROBLEM and "run_start" in msg
            for kind, msg in problems
        )

    def test_negative_duration(self):
        events = [{"type": "run_start", "ts": 0.0}, span("a", 0.0, -1.0, 0)]
        assert any("negative" in msg for _, msg in run_log_problems(events))

    def test_unbalanced_nesting_detected(self):
        events = [
            {"type": "run_start", "ts": 0.0},
            span("orphan", 0.1, 0.1, 2),  # no depth-1 span anywhere
            span("root", 0.0, 1.0, 0),
        ]
        assert any(
            "no enclosing depth-1 span" in msg
            for _, msg in run_log_problems(events)
        )

    def test_child_outside_parent_interval_detected(self):
        events = [
            {"type": "run_start", "ts": 0.0},
            span("late", 5.0, 1.0, 1),  # outside root's [0, 1]
            span("root", 0.0, 1.0, 0),
        ]
        assert any("enclosing" in msg for _, msg in run_log_problems(events))

    def test_declared_parent_must_exist(self):
        events = [
            {"type": "run_start", "ts": 0.0},
            span("child", 0.1, 0.2, 1, parent="ghost"),
            span("root", 0.0, 1.0, 0),
        ]
        assert any(
            "declares parent 'ghost'" in msg
            for _, msg in run_log_problems(events)
        )

    def test_backwards_timestamps_detected(self):
        events = [
            {"type": "run_start", "ts": 0.0},
            {"type": "event", "name": "b", "ts": 5.0},
            {"type": "event", "name": "a", "ts": 1.0},
        ]
        assert any(
            "timestamp went backwards" in msg
            for _, msg in run_log_problems(events)
        )

    def test_span_monotonic_key_is_finish_time(self):
        # Inner finishes before outer but is emitted first: legal.
        events = [
            {"type": "run_start", "ts": 0.0},
            span("inner", 0.2, 0.3, 1, "outer"),
            span("outer", 0.0, 1.0, 0),
        ]
        assert run_log_problems(events) == []

    def test_parallel_job_groups_may_interleave(self):
        # Two workers' subtrees interleaved in file order: per-group
        # monotonicity and per-group nesting must both hold.
        events = [
            {"type": "run_start", "ts": 0.0},
            span("compile", 0.5, 0.4, 2, job="b"),
            span("compile", 0.1, 0.3, 2, job="a"),  # earlier, other group
            span("batch.job", 0.5, 0.4, 1, job="b"),
            span("batch.job", 0.1, 0.3, 1, job="a"),
            span("batch", 0.0, 1.0, 0),
        ]
        assert run_log_problems(events) == []


class TestTolerantRead:
    def test_truncated_and_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [
            json.dumps({"type": "run_start", "ts": 0.0}),
            '{"type": "span", "name": "allocate", "ts": 0.1, "du',  # torn
            "42",  # not an object
            json.dumps({"type": "event", "name": "done", "ts": 1.0}),
        ]
        path.write_text("\n".join(lines) + "\n")
        events, corrupt = read_run_log(path)
        assert corrupt == 2
        assert [e["type"] for e in events] == ["run_start", "event"]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('\n{"type": "run_start", "ts": 0.0}\n\n')
        events, corrupt = read_run_log(path)
        assert corrupt == 0
        assert len(events) == 1

    def test_undecodable_bytes_do_not_abort(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(
            json.dumps({"type": "run_start", "ts": 0.0}).encode()
            + b"\n\xff\xfe garbage\n"
        )
        events, corrupt = read_run_log(path)
        assert len(events) == 1
        assert corrupt == 1

    def test_strict_reader_still_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            read_jsonl(path)


class TestConcurrentSink:
    def test_threaded_writers_never_tear_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)
        n_threads, n_events = 8, 200

        def writer(tid):
            for i in range(n_events):
                sink.emit({"type": "event", "name": f"t{tid}", "ts": float(i),
                           "payload": "x" * 64})

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()

        events, corrupt = read_run_log(path)
        assert corrupt == 0
        assert len(events) == n_threads * n_events
        counts = {}
        for e in events:
            counts[e["name"]] = counts.get(e["name"], 0) + 1
        assert all(v == n_events for v in counts.values())

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"type": "event", "name": "late", "ts": 0.0})
        sink.close()  # idempotent


class TestObsCli:
    def test_report_renders_profile(self, tmp_path, capsys):
        path = write_log(tmp_path, GOOD)
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run profile" in out
        assert "compile" in out
        assert "allocate" in out
        assert "problem(s) detected" not in out

    def test_report_flags_problems(self, tmp_path, capsys):
        path = write_log(
            tmp_path, [span("orphan", 0.1, 0.1, 2), span("root", 0.0, 1.0, 0)]
        )
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run-log problem(s) detected" in out
        assert "OBS001/OBS002" in out

    def test_report_tolerates_corrupt_lines(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps({"type": "run_start", "ts": 0.0}) + "\n"
            + json.dumps(span("compile", 0.0, 1.0, 0)) + "\n"
            + '{"type": "span", "na'  # torn final line of a killed run
        )
        assert main(["obs", "report", str(path)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 corrupt line(s)" in captured.err
        assert "compile" in captured.out

    def test_top_ranks_stages(self, tmp_path, capsys):
        path = write_log(tmp_path, GOOD)
        assert main(["obs", "top", str(path), "-n", "2", "--by", "total"]) == 0
        out = capsys.readouterr().out
        assert "top 2 stage(s) by total time" in out
        assert "compile" in out

    def test_diff_names_slowest_stage(self, tmp_path, capsys):
        slow = [
            {"type": "run_start", "ts": 0.0},
            span("allocate", 0.1, 2.4, 1, "compile"),
            span("schedule", 2.5, 0.3, 1, "compile"),
            span("compile", 0.0, 3.0, 0),
        ]
        path_a = write_log(tmp_path, GOOD, "a.jsonl")
        path_b = write_log(tmp_path, slow, "b.jsonl")
        assert main(["obs", "diff", str(path_a), str(path_b)]) == 0
        out = capsys.readouterr().out
        assert "per-stage self-time deltas" in out
        assert "slowest stage in b.jsonl: allocate" in out
        assert "biggest change: allocate" in out
        assert "slower in b.jsonl" in out

    def test_missing_run_log_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="run log not found"):
            main(["obs", "report", str(tmp_path / "absent.jsonl")])

    def test_end_to_end_cli_log_then_report(self, tmp_path, capsys):
        """A --log-json run's output feeds obs report with zero problems."""
        path = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "compile",
                    "--program",
                    "complex",
                    "--n",
                    "16",
                    "-p",
                    "4",
                    "--log-json",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        events, corrupt = read_run_log(path)
        assert corrupt == 0
        assert run_log_problems(events) == []
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "solver convergence traces" in out
        assert "hot spot" in out

    def test_report_shows_solver_convergence_columns(self, tmp_path, capsys):
        """One traced solve: the report shows its gap, residuals and step."""
        from repro.allocation import solve_allocation
        from repro.graph.generators import paper_example_mdg
        from repro.machine.presets import cm5

        path = tmp_path / "solve.jsonl"
        obs.configure(jsonl_path=str(path), memory=False)
        try:
            allocation = solve_allocation(paper_example_mdg(), cm5(4))
        finally:
            obs.shutdown()
        events, corrupt = read_run_log(path)
        assert corrupt == 0
        iterations = [e for e in events if e.get("name") == "solver.iteration"]
        assert len(iterations) == allocation.info["solver"]["iterations"] + 1
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        table = out[out.index("solver convergence traces"):]
        header = table.splitlines()[2]
        for column in ("gap", "primal res", "dual res", "step"):
            assert column in header
        assert "interior-point" in table
        assert f"{allocation.info['solver']['gap']:.3g}" in table


def test_obs_use_is_thread_scoped_enough_for_sink_sharing():
    """Many threads emitting through one Telemetry's sink stay intact."""
    t = obs.Telemetry(sinks=[obs.MemorySink()])
    with obs.use(t):
        threads = [
            threading.Thread(
                target=lambda i=i: obs.event("tick", worker=i)
            )
            for i in range(8)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    names = [e["name"] for e in t.collected_events() if e["type"] == "event"]
    assert names.count("tick") == 8
