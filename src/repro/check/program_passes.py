"""The ``comm`` pass family: static verification of MPMD programs.

Eight rules over one MPMD program: a constructed
:class:`~repro.codegen.program.MPMDProgram` handed in by
``check_program``, or a serialized artifact (kind ``"mpmd_program"``)
read once by :func:`repro.codegen.serialization.parse_program`. Deadlock
freedom is judged by the simulator's own interpreter loop
(:meth:`repro.sim.engine.MachineSimulator.execute`), so the checker and
the simulator cannot disagree about what a program does:

* COMM001 — structural validity of the artifact itself;
* COMM002 — every receive has its matching sends (no dropped sends);
* COMM003 — no orphan sends, duplicate messages, or registry mismatches;
* COMM004 — per-edge byte totals balance between senders and receivers;
* COMM005 — execution with ideal hardware completes (deadlock-freedom),
  otherwise the finding names the exact wait-for cycle;
* COMM006 — stream order respects node phases (recv, compute, send) and
  the topological precedence the message edges imply;
* COMM007 — the program agrees with its schedule (placement, widths,
  start-time order) when one is in the context;
* COMM008 — per-edge message bytes reconcile with the MDG's transfer
  bytes and are actually priced by the cost model (generalizing IR002's
  "silently free communication" check end to end).

COMM002–COMM008 only run on structurally valid documents: a broken
artifact gets precise COMM001 findings instead of noise from every rule
downstream.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from repro.check.core import CheckContext, Finding, Pass, Rule, Severity
from repro.codegen.program import ComputeOp, MPMDProgram, RecvOp, SendOp
from repro.codegen.serialization import is_program_doc, parse_program
from repro.errors import DeadlockError
from repro.sim.engine import MachineSimulator

__all__ = ["PROGRAM_PASSES"]

#: Relative tolerance for byte reconciliation — bytes are accumulated as
#: floats (length / width per participating processor), so exact equality
#: is too strict but anything beyond rounding noise is a real skew.
_BYTE_REL_TOL = 1e-6

COMM001 = Rule(
    rule_id="COMM001",
    title="Program artifact must be structurally valid",
    severity=Severity.ERROR,
    description=(
        "A program document must carry the mpmd_program kind, a supported "
        "schema version, streams keyed by in-range processor ids, "
        "well-formed instructions, and registries naming in-range "
        "processors."
    ),
    example='{"kind": "mpmd_program", "streams": {"9": []}, "total_processors": 2}',
)

COMM002 = Rule(
    rule_id="COMM002",
    title="Every receive needs matching sends",
    severity=Severity.ERROR,
    description=(
        "Each registered sender of an edge must post its send: a receive "
        "whose expected senders never all post blocks forever on a real "
        "machine (a dropped send)."
    ),
    example="edge (a, b) registers sender proc 0 but proc 0's stream has no send",
)

COMM003 = Rule(
    rule_id="COMM003",
    title="No orphan or duplicate messages",
    severity=Severity.ERROR,
    description=(
        "Sends without any receive leak buffers; duplicate sends or "
        "receives of one edge on one processor double-count messages; "
        "message ops on processors outside the edge's registry (or "
        "registered receivers that never receive) break matching."
    ),
    example="proc 1 posts send (a, b) twice",
)

COMM004 = Rule(
    rule_id="COMM004",
    title="Per-edge byte totals must balance",
    severity=Severity.ERROR,
    description=(
        "The bytes sent over an edge must equal the bytes received over "
        "it (within rounding): a skew means the generated pack/unpack "
        "loops disagree about the redistribution volume."
    ),
    example="edge (a, b) sends 4096 bytes but receives 2048",
)

COMM005 = Rule(
    rule_id="COMM005",
    title="Abstract execution must complete (deadlock-freedom)",
    severity=Severity.ERROR,
    description=(
        "Executing all streams with nonblocking sends and blocking "
        "receives must terminate; a blocked fixpoint is a deadlock, and "
        "the finding reports the wait-for cycle (processors and "
        "instruction indices) or the stalled receives."
    ),
    example="proc 0 waits on proc 1's send while proc 1 waits on proc 0's",
)

COMM006 = Rule(
    rule_id="COMM006",
    title="Stream order must respect node phases and precedence",
    severity=Severity.ERROR,
    description=(
        "Within one node's block a processor must receive before "
        "computing and compute before sending, and computes must follow "
        "the topological order the message edges imply — an "
        "out-of-order stream consumes data before it exists."
    ),
    example="proc 2 computes 'b' before the recv (a, b) that feeds it",
)

COMM007 = Rule(
    rule_id="COMM007",
    title="Program must agree with its schedule",
    severity=Severity.ERROR,
    description=(
        "Each node's compute ops must appear on exactly the processors "
        "the schedule assigned, with the allocation's width, in "
        "start-time order per stream — otherwise the emitted code no "
        "longer implements the schedule that was verified."
    ),
    example="schedule places 'fft' on procs (0, 1) but only proc 0 computes it",
)

COMM008 = Rule(
    rule_id="COMM008",
    title="Message bytes must reconcile with the cost model",
    severity=Severity.ERROR,
    description=(
        "Per-edge program bytes must equal the MDG transfers' bytes, "
        "every MDG edge must appear in the program (zero-byte sync "
        "messages included), and edges moving data must carry nonzero "
        "per-byte cost when the machine prices bytes — communication "
        "must never become silently free between model and code."
    ),
    example="edge (a, b) moves 8192 bytes but every send has byte_cost 0",
)

Edge = tuple[str, str]
_PARSED_ATTR = "_comm_parsed"


class _Parsed(NamedTuple):
    """The program under check, as every comm pass reads it."""

    program: MPMDProgram
    problems: list[tuple[str, str]]  # (JSON path, message), COMM001's findings
    indices: dict[Edge, int]  # edge -> its entry in the document's edges list
    edges: list[Edge]  # every edge named anywhere: registries or message ops

    def location(self, edge: Edge) -> str:
        """JSON path of the edge's registry entry, or the document root."""
        index = self.indices.get(edge)
        return f"$.edges[{index}]" if index is not None else "$"


def _parsed(ctx: CheckContext) -> _Parsed | None:
    """The program in ``ctx`` (``None`` if it holds none), parsed once for
    all passes: cached on the context."""
    parsed = getattr(ctx, _PARSED_ATTR, None)
    if parsed is None:
        if isinstance(ctx.program, MPMDProgram):
            program, problems = ctx.program, []
            # The edge order program_to_dict would write.
            indexed = sorted(program.senders.keys() | program.receivers.keys())
        elif is_program_doc(ctx.doc):
            program, problems = parse_program(ctx.doc)
            indexed = list(program.senders)  # the document's entry order
        else:
            return None
        named = program.senders.keys() | program.receivers.keys()
        named |= {op.edge for _, op in _message_ops(program)}
        parsed = _Parsed(
            program, problems, {e: i for i, e in enumerate(indexed)}, sorted(named)
        )
        setattr(ctx, _PARSED_ATTR, parsed)
    return parsed


def _valid(ctx: CheckContext) -> _Parsed | None:
    """The parsed program when it is structurally valid (COMM002+)."""
    parsed = _parsed(ctx)
    return parsed if parsed and not parsed.problems else None


def _message_ops(program: MPMDProgram):
    """All (processor, send-or-recv op) pairs, processor-major."""
    return (
        (proc, op)
        for proc, op in program.instructions()
        if not isinstance(op, ComputeOp)
    )


#: Per op class: its kind name and its phase in a node's block.
_KIND = {RecvOp: "recv", ComputeOp: "compute", SendOp: "send"}
_PHASE = {RecvOp: 0, ComputeOp: 1, SendOp: 2}


def _block_node(op) -> str:
    """The node whose codegen block ``op`` belongs to: sends are emitted by
    their source node's block, receives by their target node's block."""
    if isinstance(op, ComputeOp):
        return op.node
    return op.source if isinstance(op, SendOp) else op.target


def _describe(op) -> str:
    if isinstance(op, ComputeOp):
        return f"compute {op.node!r}"
    return f"{_KIND[type(op)]} {op.source}->{op.target}"


def _edge_name(edge: tuple[str, str]) -> str:
    return f"({edge[0]}, {edge[1]})"


def _bytes_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_BYTE_REL_TOL, abs_tol=1e-9)


class ProgramStructurePass(Pass):
    """COMM001: the artifact parses into a coherent program."""

    name = "comm.structure"
    family = "comm"
    rules = (COMM001,)

    def run(self, ctx: CheckContext) -> Iterable[Finding]:
        parsed = _parsed(ctx)
        for location, message in parsed[1] if parsed else ():
            yield self.finding(COMM001, message, location, ctx)


class MessageMatchingPass(Pass):
    """COMM002/COMM003/COMM004: point-to-point send/recv matching."""

    name = "comm.matching"
    family = "comm"
    rules = (COMM002, COMM003, COMM004)

    def run(self, ctx: CheckContext) -> Iterable[Finding]:
        valid = _valid(ctx)
        if valid is None:
            return
        program = valid.program
        registered = program.senders.keys() | program.receivers.keys()

        # Per-edge tallies: which processor posts/receives how often.
        sends: dict[Edge, dict[int, int]] = {}
        recvs: dict[Edge, dict[int, int]] = {}
        sent_bytes: dict[Edge, float] = {}
        recv_bytes: dict[Edge, float] = {}
        for proc, op in _message_ops(program):
            is_send = isinstance(op, SendOp)
            per_proc = (sends if is_send else recvs).setdefault(op.edge, {})
            per_proc[proc] = per_proc.get(proc, 0) + 1
            if is_send:
                sent_bytes[op.edge] = sent_bytes.get(op.edge, 0.0) + op.bytes_sent
            else:
                recv_bytes[op.edge] = recv_bytes.get(op.edge, 0.0) + op.bytes_received

        for edge in valid.edges:
            loc = valid.location(edge)
            name = _edge_name(edge)
            edge_sends = sends.get(edge, {})
            edge_recvs = recvs.get(edge, {})

            # COMM002 — dropped / missing sends.
            for proc in program.senders.get(edge, ()):
                if edge_sends.get(proc, 0) == 0:
                    yield self.finding(
                        COMM002,
                        f"edge {name}: registered sender proc {proc} posts no "
                        f"send — its {len(program.receivers.get(edge, ()))} "
                        "registered receiver(s) would block forever",
                        loc,
                        ctx,
                    )
            if edge_recvs and not edge_sends:
                yield self.finding(
                    COMM002,
                    f"edge {name}: received on proc(s) "
                    f"{sorted(edge_recvs)} but never sent",
                    loc,
                    ctx,
                )

            # COMM003 — orphans, duplicates, registry mismatches.
            if edge_sends and not edge_recvs:
                yield self.finding(
                    COMM003,
                    f"edge {name}: sent from proc(s) {sorted(edge_sends)} but "
                    "never received (leaked messages)",
                    loc,
                    ctx,
                )
            for label, table, registries in (
                ("send", edge_sends, program.senders),
                ("recv", edge_recvs, program.receivers),
            ):
                registry = registries.get(edge, ()) if edge in registered else None
                for proc, count in sorted(table.items()):
                    if count > 1:
                        yield self.finding(
                            COMM003,
                            f"edge {name}: proc {proc} has {count} {label} ops "
                            "(expected at most one per processor)",
                            loc,
                            ctx,
                        )
                    if registry is not None and proc not in registry:
                        yield self.finding(
                            COMM003,
                            f"edge {name}: proc {proc} has a {label} op but is "
                            f"not in the edge's {label}er registry "
                            f"{sorted(registry)}",
                            loc,
                            ctx,
                        )
            for proc in program.receivers.get(edge, ()):
                if edge_recvs.get(proc, 0) == 0:
                    yield self.finding(
                        COMM003,
                        f"edge {name}: registered receiver proc {proc} has no "
                        "recv op — its message would be dropped on the floor",
                        loc,
                        ctx,
                    )
            if edge not in registered and (edge_sends or edge_recvs):
                yield self.finding(
                    COMM003,
                    f"edge {name}: message ops present but the edge has no "
                    "sender/receiver registry entry",
                    loc,
                    ctx,
                )

            # COMM004 — byte balance.
            if edge_sends and edge_recvs:
                total_sent = sent_bytes.get(edge, 0.0)
                total_recv = recv_bytes.get(edge, 0.0)
                if not _bytes_close(total_sent, total_recv):
                    yield self.finding(
                        COMM004,
                        f"edge {name}: {total_sent:g} byte(s) sent but "
                        f"{total_recv:g} byte(s) received",
                        loc,
                        ctx,
                    )


class DeadlockPass(Pass):
    """COMM005: the simulator's loop runs the program to completion."""

    name = "comm.deadlock"
    family = "comm"
    rules = (COMM005,)

    def run(self, ctx: CheckContext) -> Iterable[Finding]:
        valid = _valid(ctx)
        if valid is None:
            return
        try:
            MachineSimulator().execute(valid.program, record_trace=False)
            return
        except DeadlockError as exc:
            result = exc
        if result.wait_cycle:
            chain = " -> ".join(b.describe() for b in result.wait_cycle)
            first = result.wait_cycle[0]
            yield self.finding(
                COMM005,
                f"deadlock: wait-for cycle {chain} -> "
                f"{first.describe()} "
                f"({result.executed}/{result.total} instruction(s) executed)",
                f"$.streams.{first.processor}[{first.index}]",
                ctx,
            )
            return
        for b in result.blocked:
            waiting = (
                f"outstanding send(s) on proc(s) {list(b.waiting_on)}"
                if b.waiting_on
                else "sender(s) that finished without posting (dropped send)"
            )
            yield self.finding(
                COMM005,
                f"stalled: {b.describe()} waits on {waiting}; "
                f"{result.executed}/{result.total} instruction(s) executed",
                f"$.streams.{b.processor}[{b.index}]",
                ctx,
            )


class StreamOrderPass(Pass):
    """COMM006: per-node phase order and topological precedence."""

    name = "comm.order"
    family = "comm"
    rules = (COMM006,)

    def run(self, ctx: CheckContext) -> Iterable[Finding]:
        valid = _valid(ctx)
        if valid is None:
            return
        program = valid.program

        # Phase order inside each node's block: recvs, one compute, sends.
        for proc in sorted(program.streams):
            state: dict[str, int] = {}  # node -> highest phase seen
            computed: dict[str, int] = {}  # node -> compute count
            for index, op in enumerate(program.streams[proc]):
                node = _block_node(op)
                phase = _PHASE[type(op)]
                prev = state.get(node, -1)
                loc = f"$.streams.{proc}[{index}]"
                if isinstance(op, ComputeOp):
                    computed[node] = computed.get(node, 0) + 1
                    if computed[node] > 1:
                        yield self.finding(
                            COMM006,
                            f"proc {proc}: node {node!r} computed "
                            f"{computed[node]} times (instruction {index})",
                            loc,
                            ctx,
                        )
                if phase < prev:
                    yield self.finding(
                        COMM006,
                        f"proc {proc}: {_describe(op)} at instruction {index} "
                        f"comes after node {node!r}'s "
                        f"{'compute' if prev == 1 else 'send'} phase — "
                        "block order must be recv, compute, send",
                        loc,
                        ctx,
                    )
                state[node] = max(prev, phase)

        # Topological precedence over the edge DAG the messages imply: a
        # compute must not run before any of its (transitive) predecessors
        # on the same processor.
        computes = {
            proc: [
                (index, op.node)
                for index, op in enumerate(program.streams[proc])
                if isinstance(op, ComputeOp)
            ]
            for proc in sorted(program.streams)
        }
        if _stream_orders_agree(valid.edges, computes):
            return
        succ: dict[str, set[str]] = {}
        for source, target in valid.edges:
            succ.setdefault(source, set()).add(target)

        reach_cache: dict[str, set[str]] = {}

        def reachable(start: str) -> set[str]:
            cached = reach_cache.get(start)
            if cached is not None:
                return cached
            seen: set[str] = set()
            stack = [start]
            while stack:
                node = stack.pop()
                for nxt in succ.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            reach_cache[start] = seen
            return seen

        for proc, stream_computes in computes.items():
            for k, (index, node) in enumerate(stream_computes):
                downstream = reachable(node)
                for earlier_index, earlier in stream_computes[:k]:
                    if earlier in downstream:
                        yield self.finding(
                            COMM006,
                            f"proc {proc}: computes {earlier!r} (instruction "
                            f"{earlier_index}) before its predecessor "
                            f"{node!r} (instruction {index}) — violates "
                            "topological precedence",
                            f"$.streams.{proc}[{earlier_index}]",
                            ctx,
                        )


def _stream_orders_agree(
    edges: Iterable[Edge], computes: dict[int, list[tuple[int, str]]]
) -> bool:
    """True when one topological order of the data edges also follows
    every processor's compute order.

    Then no stream can compute a node before one of its predecessors, so
    COMM006's pairwise search (one reachability walk per node) is skipped.
    One Kahn pass over the data edges plus each stream's consecutive
    computes decides it in O(nodes + edges + instructions); a cycle means
    the orders conflict somewhere, and only then is the search run.
    """
    succ: dict[str, list[str]] = {}
    indegree: dict[str, int] = {}

    def link(source: str, target: str) -> None:
        succ.setdefault(source, []).append(target)
        indegree[target] = indegree.get(target, 0) + 1
        indegree.setdefault(source, 0)

    for source, target in edges:
        link(source, target)
    for stream_computes in computes.values():
        for (_, before), (_, after) in zip(stream_computes, stream_computes[1:]):
            link(before, after)
    ready = [node for node, degree in indegree.items() if degree == 0]
    ordered = 0
    while ready:
        node = ready.pop()
        ordered += 1
        for nxt in succ.get(node, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return ordered == len(indegree)


class ScheduleConsistencyPass(Pass):
    """COMM007: placement, widths, and start-order match the schedule."""

    name = "comm.schedule"
    family = "comm"
    rules = (COMM007,)

    def run(self, ctx: CheckContext) -> Iterable[Finding]:
        valid = _valid(ctx)
        if valid is None or ctx.schedule is None:
            return
        program = valid.program
        schedule = ctx.schedule

        placements: dict[str, set[int]] = {}
        for proc, op in program.instructions():
            if isinstance(op, ComputeOp):
                placements.setdefault(op.node, set()).add(proc)

        entries = getattr(schedule, "entries", {})
        allocation = program.info.get("allocation")
        for name in sorted(entries):
            entry = entries[name]
            scheduled = set(entry.processors)
            actual = placements.pop(name, set())
            if actual != scheduled:
                yield self.finding(
                    COMM007,
                    f"node {name!r}: schedule places it on proc(s) "
                    f"{sorted(scheduled)} but the program computes it on "
                    f"{sorted(actual)}",
                    "$.streams",
                    ctx,
                )
            if isinstance(allocation, dict) and name in allocation:
                width = allocation[name]
                if width != entry.width:
                    yield self.finding(
                        COMM007,
                        f"node {name!r}: program allocation records width "
                        f"{width} but the schedule allocates {entry.width}",
                        "$.info.allocation",
                        ctx,
                    )
        for name in sorted(placements):
            yield self.finding(
                COMM007,
                f"node {name!r}: computed on proc(s) "
                f"{sorted(placements[name])} but absent from the schedule",
                "$.streams",
                ctx,
            )

        # Per-stream compute order must follow schedule start times.
        for proc in sorted(program.streams):
            last_start = None
            last_name = None
            for index, op in enumerate(program.streams[proc]):
                if not isinstance(op, ComputeOp) or op.node not in entries:
                    continue
                start = entries[op.node].start
                if last_start is not None and start < last_start - 1e-9:
                    yield self.finding(
                        COMM007,
                        f"proc {proc}: computes {op.node!r} (start {start:g}) "
                        f"after {last_name!r} (start {last_start:g}) — "
                        "stream order contradicts the schedule's intervals",
                        f"$.streams.{proc}[{index}]",
                        ctx,
                    )
                last_start, last_name = start, op.node


class CostReconciliationPass(Pass):
    """COMM008: program bytes reconcile with the MDG and are priced."""

    name = "comm.costs"
    family = "comm"
    rules = (COMM008,)

    def run(self, ctx: CheckContext) -> Iterable[Finding]:
        valid = _valid(ctx)
        if valid is None or ctx.mdg is None:
            return
        program = valid.program

        sent_bytes: dict[Edge, float] = {}
        byte_costs: dict[Edge, float] = {}
        for _, op in _message_ops(program):
            sent_bytes.setdefault(op.edge, 0.0)
            byte_costs.setdefault(op.edge, 0.0)
            if isinstance(op, SendOp):
                sent_bytes[op.edge] += op.bytes_sent
            byte_costs[op.edge] += op.byte_cost

        transfer = getattr(ctx.machine, "transfer", None)
        prices_bytes = transfer is not None and (
            getattr(transfer, "t_ps", 0.0) > 0 or getattr(transfer, "t_pr", 0.0) > 0
        )

        program_edges = set(valid.edges)
        mdg_edges: set[tuple[str, str]] = set()
        for edge in ctx.mdg.edges():
            key = (edge.source, edge.target)
            mdg_edges.add(key)
            expected = sum(t.length_bytes for t in edge.transfers)
            name = _edge_name(key)
            if key not in program_edges:
                yield self.finding(
                    COMM008,
                    f"MDG edge {name} ({expected:g} byte(s)) has no messages "
                    "in the program — even zero-byte edges need a "
                    "synchronization message to enforce precedence",
                    valid.location(key),
                    ctx,
                )
                continue
            actual = sent_bytes.get(key, 0.0)
            if not _bytes_close(actual, expected):
                yield self.finding(
                    COMM008,
                    f"edge {name}: program sends {actual:g} byte(s) but the "
                    f"MDG's transfers total {expected:g} byte(s)",
                    valid.location(key),
                    ctx,
                )
            if expected > 0 and prices_bytes and byte_costs.get(key, 0.0) == 0.0:
                yield self.finding(
                    COMM008,
                    f"edge {name} moves {expected:g} byte(s) but every "
                    "message op carries zero per-byte cost while the machine "
                    "prices bytes — communication has become silently free",
                    valid.location(key),
                    ctx,
                )
        for key in sorted(program_edges - mdg_edges):
            yield self.finding(
                COMM008,
                f"program edge {_edge_name(key)} does not exist in the MDG",
                valid.location(key),
                ctx,
            )


PROGRAM_PASSES: tuple[type[Pass], ...] = (
    ProgramStructurePass,
    MessageMatchingPass,
    DeadlockPass,
    StreamOrderPass,
    ScheduleConsistencyPass,
    CostReconciliationPass,
)
