"""Unit tests for the comm pass family (COMM001-COMM008)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.check import check_file, check_mdg, check_program
from repro.codegen.program import ComputeOp
from repro.codegen.serialization import (
    load_program,
    parse_program,
    program_from_dict,
    program_to_dict,
    save_program,
)
from repro.errors import CheckError, CodegenError, DeadlockError
from repro.graph.generators import paper_example_mdg
from repro.machine.presets import cm5
from repro.pipeline import compile_mdg, compile_spmd, run_resumable
from repro.sim.engine import MachineSimulator


@pytest.fixture(scope="module")
def compiled():
    machine = cm5(8)
    return compile_mdg(paper_example_mdg(), machine), machine


@pytest.fixture(scope="module")
def compiled_bytes():
    # The paper example's edges are pure zero-byte sync messages; byte
    # reconciliation needs a program that actually moves data.
    from repro.programs import PROGRAM_FACTORIES

    machine = cm5(8)
    bundle = PROGRAM_FACTORIES["complex"](16)
    return compile_mdg(bundle.mdg, machine), machine


@pytest.fixture
def program_doc(compiled):
    compilation, _ = compiled
    return copy.deepcopy(program_to_dict(compilation.program))


def rule_ids(report) -> set[str]:
    return {f.rule_id for f in report}


def findings_for(report, rule_id):
    return [f for f in report if f.rule_id == rule_id]


def minimal_doc(streams, edges, total=2):
    return {
        "kind": "mpmd_program",
        "schema_version": 1,
        "total_processors": total,
        "streams": streams,
        "edges": edges,
        "info": {},
    }


class TestCOMM001Structure:
    def test_clean_compiled_program(self, program_doc):
        assert len(check_program(program_doc)) == 0

    def test_bad_schema_version(self, program_doc):
        program_doc["schema_version"] = 99
        report = check_program(program_doc)
        assert rule_ids(report) == {"COMM001"}
        assert any("schema version" in f.message for f in report)

    def test_out_of_range_stream(self, program_doc):
        program_doc["streams"]["999"] = []
        report = check_program(program_doc)
        assert rule_ids(report) == {"COMM001"}
        assert any("out of range" in f.message for f in report)

    def test_unknown_op_kind(self, program_doc):
        key = next(iter(program_doc["streams"]))
        program_doc["streams"][key].append({"op": "barrier"})
        report = check_program(program_doc)
        assert "COMM001" in rule_ids(report)

    def test_negative_cost(self, program_doc):
        key = next(iter(program_doc["streams"]))
        program_doc["streams"][key].append(
            {"op": "compute", "node": "x", "cost": -1.0}
        )
        report = check_program(program_doc)
        assert "COMM001" in rule_ids(report)

    def test_registry_out_of_range(self, program_doc):
        program_doc["edges"][0]["senders"].append(500)
        report = check_program(program_doc)
        assert "COMM001" in rule_ids(report)
        # Structural problems suppress the semantic rules: no noise.
        assert not rule_ids(report) - {"COMM001"}

    def test_structural_problems_have_locations(self, program_doc):
        program_doc["streams"]["999"] = []
        finding = findings_for(check_program(program_doc), "COMM001")[0]
        assert "$.streams.999" in finding.location


class TestCOMM002DroppedSend:
    def test_dropped_send_detected(self, program_doc):
        for key, ops in program_doc["streams"].items():
            idx = next(
                (i for i, o in enumerate(ops) if o["op"] == "send"), None
            )
            if idx is not None:
                removed = ops.pop(idx)
                break
        report = check_program(program_doc)
        found = findings_for(report, "COMM002")
        assert found
        # The finding names the silent sender and the edge.
        assert any(f"proc {key}" in f.message for f in found)
        assert any(removed["source"] in f.message for f in found)
        assert any(f.location.startswith("$.edges[") for f in found)

    def test_recv_without_any_send(self):
        doc = minimal_doc(
            {"1": [{"op": "recv", "source": "a", "target": "b"}]},
            [{"source": "a", "target": "b", "senders": [], "receivers": [1]}],
        )
        report = check_program(doc)
        assert any(
            "never sent" in f.message for f in findings_for(report, "COMM002")
        )


class TestCOMM003OrphansAndDuplicates:
    def test_duplicated_recv(self, program_doc):
        for key, ops in program_doc["streams"].items():
            idx = next(
                (i for i, o in enumerate(ops) if o["op"] == "recv"), None
            )
            if idx is not None:
                ops.insert(idx, copy.deepcopy(ops[idx]))
                break
        report = check_program(program_doc)
        found = findings_for(report, "COMM003")
        assert found
        assert any("2 recv ops" in f.message for f in found)

    def test_orphan_send(self):
        doc = minimal_doc(
            {"0": [{"op": "send", "source": "a", "target": "b"}]},
            [{"source": "a", "target": "b", "senders": [0], "receivers": []}],
        )
        report = check_program(doc)
        assert any(
            "leaked" in f.message for f in findings_for(report, "COMM003")
        )

    def test_unregistered_sender_processor(self):
        # Proc 1 also posts the a->b send, but only proc 0 is registered.
        doc = minimal_doc(
            {
                "0": [{"op": "send", "source": "a", "target": "b"}],
                "1": [
                    {"op": "send", "source": "a", "target": "b"},
                    {"op": "recv", "source": "a", "target": "b"},
                ],
            },
            [{"source": "a", "target": "b", "senders": [0], "receivers": [1]}],
        )
        report = check_program(doc)
        assert any(
            "not in the edge's sender registry" in f.message
            for f in findings_for(report, "COMM003")
        ), [str(f) for f in report]

    def test_registered_receiver_without_recv(self, program_doc):
        for key, ops in program_doc["streams"].items():
            idx = next(
                (i for i, o in enumerate(ops) if o["op"] == "recv"), None
            )
            if idx is not None:
                ops.pop(idx)
                break
        report = check_program(program_doc)
        assert any(
            "registered receiver" in f.message
            for f in findings_for(report, "COMM003")
        )


class TestCOMM004ByteSkew:
    def test_byte_skew_detected(self, program_doc):
        done = False
        for ops in program_doc["streams"].values():
            for o in ops:
                if o["op"] == "send":
                    o["bytes_sent"] += max(1.0, 0.01 * o["bytes_sent"])
                    done = True
                    break
            if done:
                break
        assert done
        report = check_program(program_doc)
        found = findings_for(report, "COMM004")
        assert found
        assert any("byte(s) sent" in f.message for f in found)
        assert all(f.location.startswith("$.edges[") for f in found)

    def test_balanced_bytes_clean(self, program_doc):
        assert not findings_for(check_program(program_doc), "COMM004")


class TestCOMM005Deadlock:
    def test_crossed_recvs_report_wait_cycle(self):
        doc = minimal_doc(
            {
                "0": [
                    {"op": "recv", "source": "c", "target": "d"},
                    {"op": "send", "source": "a", "target": "b"},
                ],
                "1": [
                    {"op": "recv", "source": "a", "target": "b"},
                    {"op": "send", "source": "c", "target": "d"},
                ],
            },
            [
                {"source": "a", "target": "b", "senders": [0], "receivers": [1]},
                {"source": "c", "target": "d", "senders": [1], "receivers": [0]},
            ],
        )
        report = check_program(doc)
        found = findings_for(report, "COMM005")
        assert found
        message = found[0].message
        assert "wait-for cycle" in message
        assert "proc 0 at instruction 0" in message
        assert "proc 1 at instruction 0" in message

    def test_dropped_send_stalls_without_cycle(self, program_doc):
        for ops in program_doc["streams"].values():
            idx = next(
                (i for i, o in enumerate(ops) if o["op"] == "send"), None
            )
            if idx is not None:
                ops.pop(idx)
                break
        report = check_program(program_doc)
        found = findings_for(report, "COMM005")
        assert found
        assert any("stalled" in f.message for f in found)

    def test_execution_completes_on_clean_program(self, program_doc):
        program = program_from_dict(program_doc)
        # Completed: a stall would raise DeadlockError instead.
        result = MachineSimulator().execute(program)
        assert not result.halted
        # executed == total: every message op ran (sends and receives are
        # always traced) and every stream reached its end.
        messages = sum(
            not isinstance(op, ComputeOp) for _, op in program.instructions()
        )
        assert sum(e.kind in ("send", "recv") for e in result.trace) == messages
        assert set(result.processor_finish) == set(program.streams)

    def test_deadlock_report_names_indices(self):
        program, problems = parse_program(
            minimal_doc(
                {
                    "0": [
                        {"op": "compute", "node": "a", "cost": 1.0},
                        {"op": "recv", "source": "x", "target": "a"},
                    ],
                },
                [{"source": "x", "target": "a", "senders": [0], "receivers": [0]}],
                total=1,
            )
        )
        assert not problems
        with pytest.raises(DeadlockError) as excinfo:
            MachineSimulator().execute(program)
        result = excinfo.value
        assert result.executed == 1 < result.total
        assert result.blocked[0].processor == 0
        assert result.blocked[0].index == 1
        assert result.blocked[0].edge == ("x", "a")


class TestCOMM006Order:
    def test_recv_after_compute(self, program_doc):
        done = False
        for ops in program_doc["streams"].values():
            for i, o in enumerate(ops):
                if o["op"] != "recv":
                    continue
                node = o["target"]
                ci = next(
                    (j for j in range(i + 1, len(ops))
                     if ops[j]["op"] == "compute" and ops[j]["node"] == node),
                    None,
                )
                if ci is not None:
                    ops.insert(ci, ops.pop(i))
                    done = True
                    break
            if done:
                break
        assert done
        report = check_program(program_doc)
        found = findings_for(report, "COMM006")
        assert found
        assert any("recv" in f.message for f in found)
        assert all(f.location.startswith("$.streams.") for f in found)

    def test_send_before_compute(self):
        doc = minimal_doc(
            {
                "0": [
                    {"op": "send", "source": "a", "target": "b"},
                    {"op": "compute", "node": "a", "cost": 1.0},
                ],
                "1": [
                    {"op": "recv", "source": "a", "target": "b"},
                    {"op": "compute", "node": "b", "cost": 1.0},
                ],
            },
            [{"source": "a", "target": "b", "senders": [0], "receivers": [1]}],
        )
        found = findings_for(check_program(doc), "COMM006")
        assert found
        assert any("send phase" in f.message for f in found)

    def test_double_compute(self, program_doc):
        for ops in program_doc["streams"].values():
            idx = next(
                (i for i, o in enumerate(ops) if o["op"] == "compute"), None
            )
            if idx is not None:
                ops.append(copy.deepcopy(ops[idx]))
                break
        found = findings_for(check_program(program_doc), "COMM006")
        assert any("computed 2 times" in f.message for f in found)

    def test_topological_precedence_violation(self):
        # b depends on a (edge a->b) but proc 0 computes b first.
        doc = minimal_doc(
            {
                "0": [
                    {"op": "compute", "node": "b", "cost": 1.0},
                    {"op": "compute", "node": "a", "cost": 1.0},
                    {"op": "send", "source": "a", "target": "b"},
                    {"op": "recv", "source": "a", "target": "b"},
                ],
            },
            [{"source": "a", "target": "b", "senders": [0], "receivers": [0]}],
            total=1,
        )
        found = findings_for(check_program(doc), "COMM006")
        assert any("topological precedence" in f.message for f in found)


class TestCOMM007ScheduleAgreement:
    def test_clean_program_agrees(self, compiled):
        compilation, machine = compiled
        report = check_program(
            compilation.program,
            schedule=compilation.schedule,
            machine=machine,
        )
        assert len(report) == 0

    def test_moved_compute_detected(self, compiled):
        compilation, machine = compiled
        doc = copy.deepcopy(program_to_dict(compilation.program))
        moved = None
        for key, ops in doc["streams"].items():
            for i, o in enumerate(ops):
                if o["op"] == "compute":
                    moved = ops.pop(i)
                    break
            if moved is not None:
                break
        report = check_program(
            doc, schedule=compilation.schedule, machine=machine
        )
        found = findings_for(report, "COMM007")
        assert any(
            f"node {moved['node']!r}" in f.message for f in found
        )

    def test_width_mismatch_detected(self, compiled):
        compilation, machine = compiled
        doc = copy.deepcopy(program_to_dict(compilation.program))
        name = next(iter(doc["info"]["allocation"]))
        doc["info"]["allocation"][name] += 1
        report = check_program(
            doc, schedule=compilation.schedule, machine=machine
        )
        assert any(
            "width" in f.message for f in findings_for(report, "COMM007")
        )

    def test_without_schedule_rule_is_silent(self, program_doc):
        assert not findings_for(check_program(program_doc), "COMM007")


class TestCOMM008CostReconciliation:
    def test_clean_program_reconciles(self, compiled):
        compilation, machine = compiled
        report = check_program(
            compilation.program,
            schedule=compilation.schedule,
            mdg=compilation.schedule.mdg,
            machine=machine,
        )
        assert len(report) == 0

    def test_byte_total_mismatch_with_mdg(self, compiled_bytes):
        compilation, machine = compiled_bytes
        doc = copy.deepcopy(program_to_dict(compilation.program))
        for ops in doc["streams"].values():
            sends = [o for o in ops if o["op"] == "send" and o["bytes_sent"] > 0]
            if sends:
                sends[0]["bytes_sent"] *= 3
                break
        report = check_program(
            doc, mdg=compilation.schedule.mdg, machine=machine
        )
        assert any(
            "MDG's transfers total" in f.message
            for f in findings_for(report, "COMM008")
        )

    def test_missing_sync_edge_detected(self, compiled):
        compilation, machine = compiled
        doc = copy.deepcopy(program_to_dict(compilation.program))
        gone = doc["edges"].pop()
        edge = (gone["source"], gone["target"])
        for ops in doc["streams"].values():
            ops[:] = [
                o for o in ops
                if o["op"] == "compute"
                or (o["source"], o["target"]) != edge
            ]
        report = check_program(
            doc, mdg=compilation.schedule.mdg, machine=machine
        )
        assert any(
            "has no messages" in f.message
            for f in findings_for(report, "COMM008")
        )

    def test_silently_free_communication_detected(self, compiled_bytes):
        compilation, machine = compiled_bytes
        doc = copy.deepcopy(program_to_dict(compilation.program))
        # Zero out every byte cost while the CM-5 machine prices bytes.
        victims = set()
        for ops in doc["streams"].values():
            for o in ops:
                if o["op"] in ("send", "recv"):
                    if o.get("bytes_sent", o.get("bytes_received", 0)) > 0:
                        victims.add((o["source"], o["target"]))
                    o["byte_cost"] = 0.0
        assert victims, "corpus program should move real bytes"
        report = check_program(
            doc, mdg=compilation.schedule.mdg, machine=machine
        )
        assert any(
            "silently free" in f.message
            for f in findings_for(report, "COMM008")
        )

    def test_phantom_edge_detected(self, compiled):
        compilation, machine = compiled
        doc = copy.deepcopy(program_to_dict(compilation.program))
        doc["edges"].append(
            {"source": "ghost", "target": "town", "senders": [0],
             "receivers": [1]}
        )
        doc["streams"]["0"].append(
            {"op": "send", "source": "ghost", "target": "town"}
        )
        doc["streams"]["1"].append(
            {"op": "recv", "source": "ghost", "target": "town"}
        )
        report = check_program(
            doc, mdg=compilation.schedule.mdg, machine=machine
        )
        assert any(
            "does not exist in the MDG" in f.message
            for f in findings_for(report, "COMM008")
        )


class TestIntegration:
    def test_check_file_routes_program_artifacts(self, tmp_path, compiled):
        compilation, _ = compiled
        path = save_program(compilation.program, tmp_path / "prog.json")
        report = check_file(path)
        assert report.artifacts == [str(path)]
        assert len(report) == 0
        assert any(name.startswith("comm.") for name in report.passes_run)
        # MDG families must not have produced noise.
        assert not any(
            name.startswith("graph.") for name in report.passes_run
        )

    def test_check_file_reports_broken_artifact(self, tmp_path, compiled):
        compilation, _ = compiled
        doc = program_to_dict(compilation.program)
        doc["streams"]["999"] = []
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        report = check_file(path)
        assert "COMM001" in rule_ids(report)

    def test_check_mdg_runs_comm_family_after_compile(self):
        report = check_mdg(paper_example_mdg(), cm5(8))
        assert any(name.startswith("comm.") for name in report.passes_run)
        assert len(report) == 0

    def test_pipeline_verify_program_gate_clean(self):
        result = compile_mdg(paper_example_mdg(), cm5(8), verify_program=True)
        assert result.program.n_instructions > 0
        spmd = compile_spmd(paper_example_mdg(), cm5(8), verify_program=True)
        assert spmd.program.n_instructions > 0

    def test_run_resumable_verify_program_gate(self, tmp_path):
        run = run_resumable(
            paper_example_mdg(),
            cm5(8),
            cache_dir=tmp_path / "cache",
            simulate=False,
            verify_program=True,
        )
        assert run.compilation.program.n_instructions > 0

    def test_pipeline_gate_rejects_broken_codegen(self, monkeypatch):
        import repro.pipeline as pipeline_mod
        from repro.codegen.program import MPMDProgram, RecvOp

        def broken_codegen(schedule, machine):
            # A recv with no matching send: straight to the gate.
            program = MPMDProgram(total_processors=schedule.total_processors)
            program.streams[0] = [
                RecvOp(source="a", target="b", startup_cost=0.0, byte_cost=0.0)
            ]
            program.senders[("a", "b")] = (1,)
            program.receivers[("a", "b")] = (0,)
            return program

        monkeypatch.setattr(
            pipeline_mod, "generate_mpmd_program", broken_codegen
        )
        with pytest.raises(CheckError, match="COMM"):
            compile_mdg(paper_example_mdg(), cm5(8), verify_program=True)


def _first_op(doc, kind):
    for key in sorted(doc["streams"]):
        for i, op in enumerate(doc["streams"][key]):
            if op["op"] == kind:
                return key, i, op
    raise AssertionError(f"no {kind} op")


def _parallel_cost_above_cost(doc):
    _, _, op = _first_op(doc, "compute")
    op["parallel_cost"] = op["cost"] + 1.0


def _duplicate_registry_id(doc):
    doc["edges"][0]["senders"].append(doc["edges"][0]["senders"][0])


def _out_of_range_stream(doc):
    doc["streams"]["999"] = []


def _unknown_op_kind(doc):
    doc["streams"][sorted(doc["streams"])[0]].append({"op": "barrier"})


def _bad_schema_version(doc):
    doc["schema_version"] = 99


def _nan_cost(doc):
    _first_op(doc, "compute")[2]["cost"] = float("nan")


def _dropped_send(doc):
    key, i, _ = _first_op(doc, "send")
    doc["streams"][key].pop(i)


class TestParserAgreement:
    """``check_program`` and ``program_from_dict`` read documents with one
    parser: COMM001 fires exactly when the loader refuses the document."""

    @pytest.mark.parametrize(
        "mutate, structural",
        [
            (None, False),
            (_parallel_cost_above_cost, True),
            (_duplicate_registry_id, True),
            (_out_of_range_stream, True),
            (_unknown_op_kind, True),
            (_bad_schema_version, True),
            (_nan_cost, True),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)).strip("_"),
    )
    def test_comm001_iff_loader_raises(self, program_doc, mutate, structural):
        if mutate is not None:
            mutate(program_doc)
        comm001 = bool(findings_for(check_program(program_doc), "COMM001"))
        try:
            program_from_dict(program_doc)
            raised = False
        except CodegenError:
            raised = True
        assert comm001 == raised == structural

    def test_semantic_breakage_is_not_structural(self, program_doc):
        # A dropped send is COMM002's finding: the document still parses,
        # and only validate() makes the loader refuse it.
        _dropped_send(program_doc)
        report = check_program(program_doc)
        assert not findings_for(report, "COMM001")
        assert findings_for(report, "COMM002")
        assert not parse_program(program_doc)[1]


class TestNonFiniteNumbers:
    def test_nan_and_infinity_are_structural_problems(self, tmp_path, program_doc):
        ckey, ci, compute = _first_op(program_doc, "compute")
        rkey, ri, recv = _first_op(program_doc, "recv")
        compute["cost"] = float("nan")
        recv["network_delay"] = float("inf")
        path = tmp_path / "nonfinite.prog.json"
        path.write_text(json.dumps(program_doc))  # writes NaN / Infinity
        assert "NaN" in path.read_text() and "Infinity" in path.read_text()

        report = check_file(path)
        found = {(f.location, f.message) for f in findings_for(report, "COMM001")}
        assert (
            f"$.streams.{ckey}[{ci}].cost",
            "must be a finite number, got nan",
        ) in found
        assert (
            f"$.streams.{rkey}[{ri}].network_delay",
            "must be a finite number, got inf",
        ) in found
        assert rule_ids(report) == {"COMM001"}
        with pytest.raises(CodegenError, match="finite"):
            load_program(path)

    def test_integer_too_large_for_a_float(self, program_doc):
        key, i, send = _first_op(program_doc, "send")
        send["bytes_sent"] = 10**400  # a JSON integer literal parses as int
        found = findings_for(check_program(program_doc), "COMM001")
        assert [f.location for f in found] == [f"$.streams.{key}[{i}].bytes_sent"]
        assert "finite" in found[0].message
