"""Property tests for the comm family: every corpus program verifies
clean, and each seeded mutation class trips its specific COMM rule.

The mutation harness mirrors tests/test_check_property.py: hypothesis
picks a precompiled program document and an op to mutate; the mutated
document must produce the mutation class's rule with an edge-level
location (or a wait-for cycle, for deadlocks), and the pristine document
must stay clean — the analyzer neither under- nor over-reports.
"""

from __future__ import annotations

import copy
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_program
from repro.codegen.serialization import program_from_dict, program_to_dict
from repro.errors import CodegenError, DeadlockError
from repro.machine.presets import cm5
from repro.pipeline import compile_mdg
from repro.sim.engine import MachineSimulator
from tests.corpus import CORPUS


@functools.lru_cache(maxsize=None)
def compiled(name: str, processors: int = 8):
    machine = cm5(processors)
    compilation = compile_mdg(CORPUS[name](), machine)
    return compilation, machine


@functools.lru_cache(maxsize=None)
def base_doc(name: str) -> dict:
    compilation, _ = compiled(name)
    return program_to_dict(compilation.program)


def fresh_doc(name: str) -> dict:
    return copy.deepcopy(base_doc(name))


def rule_ids(report) -> set[str]:
    return {f.rule_id for f in report}


#: The hypothesis pool: one byte-moving program, one pure-sync paper
#: graph, one synthetic — enough shape diversity without compiling
#: inside @given.
POOL = ("complex", "paper_example", "fork_join")

pool_names = st.sampled_from(POOL)
pick = st.integers(0, 10_000)


def ops_of(doc, kind):
    """Every (stream_key, index) whose op has ``kind``."""
    return [
        (key, i)
        for key in sorted(doc["streams"])
        for i, o in enumerate(doc["streams"][key])
        if o["op"] == kind
    ]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_program_verifies_clean(name):
    compilation, machine = compiled(name)
    report = check_program(
        compilation.program,
        schedule=compilation.schedule,
        mdg=compilation.schedule.mdg,
        machine=machine,
        artifact=f"corpus:{name}",
    )
    assert len(report) == 0, report.render_text()


@pytest.mark.parametrize(
    "name", ["complex", "strassen", "fft2d", "jacobi", "paper_example"]
)
def test_corpus_program_verifies_clean_at_16(name):
    compilation, machine = compiled(name, 16)
    report = check_program(
        compilation.program,
        schedule=compilation.schedule,
        mdg=compilation.schedule.mdg,
        machine=machine,
    )
    assert len(report) == 0, report.render_text()


@settings(max_examples=25, deadline=None)
@given(name=pool_names, k=pick)
def test_dropped_send_trips_comm002(name, k):
    doc = fresh_doc(name)
    sends = ops_of(doc, "send")
    key, i = sends[k % len(sends)]
    doc["streams"][key].pop(i)
    report = check_program(doc)
    assert "COMM002" in rule_ids(report)
    found = [f for f in report if f.rule_id == "COMM002"]
    # Edge-level location, naming the dropped sender.
    assert any(f.location.startswith("$.edges[") for f in found)
    assert any(f"proc {key}" in f.message for f in found)


@settings(max_examples=25, deadline=None)
@given(name=pool_names, k=pick)
def test_duplicated_recv_trips_comm003(name, k):
    doc = fresh_doc(name)
    recvs = ops_of(doc, "recv")
    key, i = recvs[k % len(recvs)]
    doc["streams"][key].insert(i, copy.deepcopy(doc["streams"][key][i]))
    report = check_program(doc)
    assert "COMM003" in rule_ids(report)
    found = [f for f in report if f.rule_id == "COMM003"]
    assert any(f.location.startswith("$.edges[") for f in found)


@settings(max_examples=25, deadline=None)
@given(name=pool_names, k=pick)
def test_reordered_stream_trips_comm006(name, k):
    # Move a message op across its block boundary: a recv is pushed past
    # its node's compute (or a send pulled in front of it).
    doc = fresh_doc(name)
    candidates = []
    for key in sorted(doc["streams"]):
        ops = doc["streams"][key]
        for i, o in enumerate(ops):
            if o["op"] != "recv":
                continue
            for j in range(i + 1, len(ops)):
                if ops[j]["op"] == "compute" and ops[j]["node"] == o["target"]:
                    candidates.append((key, i, j))
                    break
    key, i, j = candidates[k % len(candidates)]
    ops = doc["streams"][key]
    ops.insert(j, ops.pop(i))  # recv now sits after its compute
    report = check_program(doc)
    assert "COMM006" in rule_ids(report)
    found = [f for f in report if f.rule_id == "COMM006"]
    assert any(f.location.startswith(f"$.streams.{key}[") for f in found)


@settings(max_examples=25, deadline=None)
@given(name=pool_names, k=pick)
def test_byte_skew_trips_comm004(name, k):
    doc = fresh_doc(name)
    sends = ops_of(doc, "send")
    key, i = sends[k % len(sends)]
    op = doc["streams"][key][i]
    op["bytes_sent"] += max(1.0, 0.01 * op["bytes_sent"])
    report = check_program(doc)
    assert "COMM004" in rule_ids(report)
    found = [f for f in report if f.rule_id == "COMM004"]
    assert any(f.location.startswith("$.edges[") for f in found)


@settings(max_examples=25, deadline=None)
@given(k=pick)
def test_precedence_violating_order_trips_comm006(k):
    # Swap two computes connected by an edge on one stream: the
    # dependent node now runs first.
    doc = fresh_doc("complex")
    edges = {(e["source"], e["target"]) for e in doc["edges"]}
    candidates = []
    for key in sorted(doc["streams"]):
        computes = [
            (i, o["node"])
            for i, o in enumerate(doc["streams"][key])
            if o["op"] == "compute"
        ]
        for a in range(len(computes)):
            for b in range(a + 1, len(computes)):
                if (computes[a][1], computes[b][1]) in edges:
                    candidates.append((key, computes[a][0], computes[b][0]))
    key, i, j = candidates[k % len(candidates)]
    ops = doc["streams"][key]
    ops[i], ops[j] = ops[j], ops[i]
    report = check_program(doc)
    found = [f for f in report if f.rule_id == "COMM006"]
    assert found
    assert any("precedence" in f.message or "phase" in f.message
               for f in found)


@settings(max_examples=10, deadline=None)
@given(k=pick)
def test_dropped_send_also_stalls_abstract_execution(k):
    # The deadlock rule reports the exact blocked receive left behind by
    # a dropped send (processor + instruction index).
    doc = fresh_doc("paper_example")
    sends = ops_of(doc, "send")
    key, i = sends[k % len(sends)]
    doc["streams"][key].pop(i)
    report = check_program(doc)
    found = [f for f in report if f.rule_id == "COMM005"]
    assert found
    assert all(f.location.startswith("$.streams.") for f in found)
    assert any(
        "at instruction" in f.message for f in found
    )


def test_mutations_do_not_corrupt_base_docs():
    # The lru_cache'd documents must stay pristine across the suite.
    for name in POOL:
        compilation, machine = compiled(name)
        assert base_doc(name) == program_to_dict(compilation.program)
        assert len(check_program(fresh_doc(name), machine=machine)) == 0


# The harness's mutation classes, as functions of (document, pick), for
# the differential property below.


def _nth(doc, kind, k):
    found = ops_of(doc, kind)
    return found[k % len(found)]


def _drop_send(doc, k):
    key, i = _nth(doc, "send", k)
    doc["streams"][key].pop(i)


def _duplicate_recv(doc, k):
    key, i = _nth(doc, "recv", k)
    doc["streams"][key].insert(i, copy.deepcopy(doc["streams"][key][i]))


def _skew_bytes(doc, k):
    key, i = _nth(doc, "send", k)
    op = doc["streams"][key][i]
    op["bytes_sent"] += max(1.0, 0.01 * op["bytes_sent"])


def _recv_after_compute(doc, k):
    candidates = [
        (key, i, j)
        for key in sorted(doc["streams"])
        for i, o in enumerate(doc["streams"][key])
        if o["op"] == "recv"
        for j in range(i + 1, len(doc["streams"][key]))
        if doc["streams"][key][j].get("node") == o["target"]
    ]
    if candidates:
        key, i, j = candidates[k % len(candidates)]
        ops = doc["streams"][key]
        ops.insert(j, ops.pop(i))


def _swap_dependent_computes(doc, k):
    edges = {(e["source"], e["target"]) for e in doc["edges"]}
    candidates = []
    for key in sorted(doc["streams"]):
        computes = [
            (i, o["node"])
            for i, o in enumerate(doc["streams"][key])
            if o["op"] == "compute"
        ]
        candidates += [
            (key, a[0], b[0])
            for n, a in enumerate(computes)
            for b in computes[n + 1 :]
            if (a[1], b[1]) in edges
        ]
    if candidates:
        key, i, j = candidates[k % len(candidates)]
        ops = doc["streams"][key]
        ops[i], ops[j] = ops[j], ops[i]


MUTATIONS = (
    _drop_send,
    _duplicate_recv,
    _skew_bytes,
    _recv_after_compute,
    _swap_dependent_computes,
)


@settings(max_examples=40, deadline=None)
@given(name=pool_names, mutate=st.sampled_from(MUTATIONS), k=pick)
def test_simulator_deadlocks_iff_comm005_fires(name, mutate, k):
    # The checker and the simulator share one interpreter: on every mutated
    # program the simulator accepts (validate() passes), a DeadlockError
    # from the simulator and a COMM005 finding must go together.
    doc = fresh_doc(name)
    mutate(doc, k)
    try:
        program = program_from_dict(doc)
    except CodegenError:
        return  # validate() refuses it; the simulator never runs it
    comm005 = any(f.rule_id == "COMM005" for f in check_program(doc))
    try:
        MachineSimulator().run(program)
        deadlocked = False
    except DeadlockError:
        deadlocked = True
    assert deadlocked == comm005
