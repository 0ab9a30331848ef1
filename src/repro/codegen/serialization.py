"""Canonical JSON serialization of :class:`MPMDProgram`.

The on-disk form (kind ``"mpmd_program"``) is what ``repro compile
--emit-program`` writes and what ``repro check`` consumes for offline
program verification: one op dict per instruction, streams keyed by
processor id, and the sender/receiver registries flattened into an
``edges`` list.

:func:`parse_program` is the one reader of that form. It walks a
document once, building real ops, and collects every structural problem
(with its JSON path) instead of stopping at the first: the ``comm``
check family reports those problems as COMM001 findings, and
:func:`program_from_dict` / :func:`load_program` raise them as one
:class:`CodegenError`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.codegen.program import (
    ComputeOp,
    Instruction,
    MPMDProgram,
    RecvOp,
    SendOp,
)
from repro.errors import CodegenError

__all__ = [
    "PROGRAM_SCHEMA_VERSION",
    "PROGRAM_DOC_KIND",
    "program_to_dict",
    "parse_program",
    "program_from_dict",
    "save_program",
    "load_program",
    "is_program_doc",
]

#: Bumped on incompatible changes to the program document layout.
PROGRAM_SCHEMA_VERSION = 1

#: The ``kind`` discriminator that routes a JSON file to the comm family.
PROGRAM_DOC_KIND = "mpmd_program"


#: Per op kind: its class and the fields that must be finite non-negative
#: numbers (absent fields default to zero).
_OP_FIELDS = {
    "compute": (ComputeOp, ("cost", "parallel_cost")),
    "send": (SendOp, ("startup_cost", "byte_cost", "bytes_sent")),
    "recv": (
        RecvOp,
        ("startup_cost", "byte_cost", "network_delay", "bytes_received"),
    ),
}
_OP_KINDS = {cls: kind for kind, (cls, _) in _OP_FIELDS.items()}


def _op_to_dict(op: Instruction) -> dict[str, Any]:
    kind = _OP_KINDS.get(type(op))
    if kind is None:
        raise CodegenError(f"unknown instruction type {type(op).__name__}")
    return {"op": kind, **vars(op)}


def program_to_dict(program: MPMDProgram) -> dict[str, Any]:
    """The canonical JSON-serializable document form of ``program``."""
    edges = sorted(set(program.senders) | set(program.receivers))
    return {
        "schema_version": PROGRAM_SCHEMA_VERSION,
        "kind": PROGRAM_DOC_KIND,
        "total_processors": program.total_processors,
        "streams": {
            str(proc): [_op_to_dict(op) for op in program.streams[proc]]
            for proc in sorted(program.streams)
        },
        "edges": [
            {
                "source": source,
                "target": target,
                "senders": list(program.senders.get((source, target), ())),
                "receivers": list(program.receivers.get((source, target), ())),
            }
            for source, target in edges
        ],
        "info": dict(program.info),
    }


Problems = list[tuple[str, str]]


def _read_op(entry: Any, where: str, problems: Problems) -> Instruction | None:
    if not isinstance(entry, dict):
        problems.append((where, "instruction must be an object"))
        return None
    kind = entry.get("op")
    if kind not in _OP_FIELDS:
        problems.append((where, f"unknown op kind {kind!r}"))
        return None
    cls, numeric = _OP_FIELDS[kind]
    fields: dict[str, Any] = {}
    for name in numeric:
        raw = entry.get(name, 0.0)
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw < 0:
            problems.append(
                (f"{where}.{name}", f"must be a non-negative number, got {raw!r}")
            )
            return None
        try:
            value = float(raw)
        except OverflowError:  # an integer literal too large for a float
            value = math.inf
        if not math.isfinite(value):
            problems.append(
                (f"{where}.{name}", f"must be a finite number, got {raw!r}")
            )
            return None
        fields[name] = value
    if kind == "compute":
        node = entry.get("node")
        if not isinstance(node, str) or not node:
            problems.append((f"{where}.node", "compute op needs a node name"))
            return None
        fields["node"] = node
    else:
        source, target = entry.get("source"), entry.get("target")
        if not isinstance(source, str) or not isinstance(target, str):
            problems.append((where, f"{kind} op needs string source/target"))
            return None
        fields.update(source=source, target=target)
    try:
        return cls(**fields)
    except CodegenError as exc:  # e.g. parallel_cost above cost
        problems.append((where, str(exc)))
        return None


def _read_registry(
    raw: Any, where: str, total: int, problems: Problems
) -> tuple[int, ...]:
    if not isinstance(raw, list):
        problems.append((where, "must be a list of processor ids"))
        return ()
    procs: list[int] = []
    for k, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, int):
            problems.append(
                (f"{where}[{k}]", f"processor id must be an integer, got {value!r}")
            )
        elif not 0 <= value < total:
            problems.append(
                (f"{where}[{k}]", f"processor {value} out of range [0, {total})")
            )
        else:
            procs.append(value)
    if len(set(procs)) != len(procs):
        problems.append((where, "duplicate processor ids in registry"))
    return tuple(procs)


def parse_program(doc: Any) -> tuple[MPMDProgram, Problems]:
    """Walk a program document once, building the program as it goes.

    Never raises: every structural problem is collected as a ``(JSON
    path, message)`` pair and the offending piece is left out of the
    returned program, which is therefore only meaningful when the list
    is empty. Edge registries keep the document's entry order.
    """
    problems: Problems = []
    if not isinstance(doc, dict):
        problems.append(("$", "program document must be a JSON object"))
        return MPMDProgram(total_processors=0), problems
    if doc.get("kind") != PROGRAM_DOC_KIND:
        problems.append(
            (
                "$.kind",
                f"not a program document: expected {PROGRAM_DOC_KIND!r}, "
                f"got {doc.get('kind')!r}",
            )
        )
    version = doc.get("schema_version")
    if version != PROGRAM_SCHEMA_VERSION:
        problems.append(
            (
                "$.schema_version",
                f"unsupported schema version {version!r} "
                f"(this build reads {PROGRAM_SCHEMA_VERSION})",
            )
        )
    total = doc.get("total_processors")
    if isinstance(total, bool) or not isinstance(total, int) or total <= 0:
        problems.append(
            ("$.total_processors", f"must be a positive integer, got {total!r}")
        )
        total = 0
    info = doc.get("info", {})
    program = MPMDProgram(
        total_processors=total, info=dict(info) if isinstance(info, dict) else {}
    )

    raw_streams = doc.get("streams", {})
    if not isinstance(raw_streams, dict):
        problems.append(("$.streams", "must be an object keyed by processor id"))
        raw_streams = {}
    for key, ops in raw_streams.items():
        where = f"$.streams.{key}"
        try:
            proc = int(key)
        except (TypeError, ValueError):
            problems.append((where, f"stream key {key!r} is not an integer"))
            continue
        if not 0 <= proc < total:
            problems.append((where, f"processor {proc} out of range [0, {total})"))
        elif proc in program.streams:
            problems.append((where, f"duplicate stream for processor {proc}"))
        elif not isinstance(ops, list):
            problems.append((where, "stream must be a list of instructions"))
        else:
            parsed = [
                _read_op(op, f"{where}[{i}]", problems) for i, op in enumerate(ops)
            ]
            if None not in parsed:
                program.streams[proc] = parsed

    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        problems.append(("$.edges", "must be a list"))
        raw_edges = []
    for i, entry in enumerate(raw_edges):
        where = f"$.edges[{i}]"
        if not isinstance(entry, dict):
            problems.append((where, "edge entry must be an object"))
            continue
        edge = (entry.get("source"), entry.get("target"))
        if not all(isinstance(name, str) for name in edge):
            problems.append((where, "edge entry needs string source/target"))
        elif edge in program.senders:
            problems.append((where, f"duplicate edge entry {edge[0]}->{edge[1]}"))
        else:
            program.senders[edge] = _read_registry(
                entry.get("senders", []), f"{where}.senders", total, problems
            )
            program.receivers[edge] = _read_registry(
                entry.get("receivers", []), f"{where}.receivers", total, problems
            )
    return program, problems


def program_from_dict(doc: Any) -> MPMDProgram:
    """Rebuild an :class:`MPMDProgram` from its document form.

    :func:`parse_program` plus a :class:`CodegenError` naming the
    problems it found, then :meth:`MPMDProgram.validate`.
    """
    program, problems = parse_program(doc)
    if problems:
        shown = "; ".join(f"{where}: {message}" for where, message in problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise CodegenError(f"invalid program document: {shown}{more}")
    program.validate()
    return program


def save_program(program: MPMDProgram, path: str | Path) -> Path:
    """Write ``program`` to ``path`` as canonical JSON (atomic)."""
    from repro.store.artifact import atomic_write_text

    path = Path(path)
    atomic_write_text(
        path, json.dumps(program_to_dict(program), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_program(path: str | Path) -> MPMDProgram:
    """Read a program document from ``path`` and reconstruct it."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CodegenError(f"cannot read program file {path}: {exc}") from exc
    return program_from_dict(doc)


def is_program_doc(doc: Any) -> bool:
    """True when ``doc`` looks like a serialized MPMD program."""
    return isinstance(doc, dict) and doc.get("kind") == PROGRAM_DOC_KIND
