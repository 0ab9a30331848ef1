"""Batch job specifications, results, and manifest ingestion.

A :class:`BatchJob` names everything one pipeline run needs — a graph
source, a machine, and per-stage options — in a form that is cheap to
pickle into a worker process: the graph travels as its JSON document (or
as a built-in program/file reference resolved inside the worker), never
as a live object graph.

A *manifest* is the JSON file the ``repro batch`` CLI consumes::

    {
      "schema_version": 1,
      "jobs": [
        {"id": "complex-64", "program": "complex", "n": 64,
         "machine": "cm5", "processors": 64},
        {"id": "custom", "graph": "graphs/my_mdg.json", "processors": 32,
         "simulate": true, "fidelity": "ideal"}
      ]
    }

Each job names exactly one of ``program`` (a built-in) or ``graph`` (an
MDG JSON file, resolved relative to the manifest). Malformed manifests
raise :class:`~repro.errors.IngestError` with one diagnostic per problem;
``repro check`` applies the same validation statically (rule BATCH001 /
BATCH002) so bad manifests fail pre-flight instead of mid-sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.allocation.solver import ConvexSolverOptions
from repro.errors import IngestError
from repro.machine.fidelity import FIDELITY_NAMES
from repro.scheduling.psa import PSAOptions

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "BatchJob",
    "JobResult",
    "load_manifest",
    "manifest_problems",
]

MANIFEST_SCHEMA_VERSION = 1

#: Job fields the manifest loader understands (anything else is an error).
_JOB_FIELDS = frozenset(
    {"id", "program", "graph", "n", "machine", "processors", "simulate",
     "fidelity"}
)


@dataclass(frozen=True)
class BatchJob:
    """One pipeline job: compile (allocate + schedule) and optionally
    simulate a single (graph, machine) pair.

    ``source`` is one of::

        {"kind": "program", "name": "complex", "n": 64}
        {"kind": "file", "path": "/abs/path/to/mdg.json"}
        {"kind": "doc", "doc": {...mdg_to_dict output...}, "name": "..."}

    The ``doc`` form is how library callers submit in-memory MDGs (see
    :meth:`from_mdg`) — documents pickle cheaply and identically into
    process-pool workers.
    """

    job_id: str
    source: dict[str, Any]
    machine: str = "cm5"
    processors: int = 64
    simulate: bool = False
    #: ``"ideal"`` / ``"cm5"`` from manifests; library callers may pass a
    #: HardwareFidelity instance directly.
    fidelity: Any = "ideal"
    style: str = "MPMD"
    solver: ConvexSolverOptions | None = None
    psa: PSAOptions | None = None
    #: Library callers may bypass the preset registry with an explicit
    #: MachineParameters (picklable frozen dataclass); manifests cannot.
    machine_params: Any = None

    @staticmethod
    def from_mdg(
        mdg: Any,
        job_id: str | None = None,
        **kwargs: Any,
    ) -> "BatchJob":
        """A job carrying ``mdg`` inline (as its JSON document)."""
        from repro.graph.serialization import mdg_to_dict

        return BatchJob(
            job_id=job_id if job_id is not None else mdg.name,
            source={"kind": "doc", "doc": mdg_to_dict(mdg), "name": mdg.name},
            **kwargs,
        )

    def describe_source(self) -> str:
        kind = self.source.get("kind")
        if kind == "program":
            return f"program:{self.source.get('name')}"
        if kind == "file":
            return str(self.source.get("path"))
        return f"doc:{self.source.get('name', '?')}"


@dataclass
class JobResult:
    """Outcome of one batch job — success or an isolated error record.

    A failed job never kills the sweep: ``ok=False`` plus ``error`` /
    ``error_type`` document what went wrong, and every other job's result
    is unaffected. ``cache`` records how the allocation was obtained:
    ``"hit"`` (structural cache, re-certified), ``"miss"`` (solved, then
    stored), ``"poisoned"`` (a cached entry failed re-certification, was
    quarantined, and the job re-solved) or ``"off"`` (no store).
    """

    job_id: str
    ok: bool
    error: str = ""
    error_type: str = ""
    phi: float | None = None
    predicted_makespan: float | None = None
    measured_makespan: float | None = None
    processors: dict[str, float] = field(default_factory=dict)
    #: Pipeline stage the job was in when it finished or failed
    #: ("resolve", "allocate", "schedule", "codegen", "simulate", or
    #: "done"). Crash triage from the report alone needs this: a sweep of
    #: worker deaths in "allocate" points at the solver, in "simulate" at
    #: the machine model.
    stage: str = ""
    #: Execution attempt that produced this record (> 1 after a lease
    #: reclaim in the resilient executor).
    attempt: int = 1
    cache: str = "off"
    solver_iterations: int = -1
    solver_attempts: int = -1
    latency_seconds: float = 0.0
    structural_key: str = ""
    #: Telemetry captured inside the worker (see :mod:`repro.obs.bundle`);
    #: the compiler merges it into the parent telemetry and then drops it
    #: so batch reports stay small. None when telemetry was disabled.
    obs_bundle: dict[str, Any] | None = None

    @property
    def warm_start(self) -> bool:
        """Always ``False``: every miss is a cold solve. Read by the
        benchmark harness (``perfbench/workloads.py``) to class jobs."""
        return False

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "ok": self.ok,
            "error": self.error,
            "error_type": self.error_type,
            "stage": self.stage,
            "attempt": self.attempt,
            "phi": self.phi,
            "predicted_makespan": self.predicted_makespan,
            "measured_makespan": self.measured_makespan,
            "processors": dict(self.processors),
            "cache": self.cache,
            "solver_iterations": self.solver_iterations,
            "solver_attempts": self.solver_attempts,
            "latency_seconds": self.latency_seconds,
            "structural_key": self.structural_key,
            "obs_bundle": self.obs_bundle,
        }


def _iter_job_problems(
    index: int, entry: Any, base_dir: Path, programs: dict | None
) -> Iterator[str]:
    """Diagnostics (path-prefixed strings) for one manifest job entry."""
    path = f"$.jobs[{index}]"
    if not isinstance(entry, dict):
        yield f"{path}: job: must be an object, got {type(entry).__name__}"
        return
    for key in sorted(set(entry) - _JOB_FIELDS):
        yield f"{path}.{key}: {key}: unknown job field"
    has_program = isinstance(entry.get("program"), str)
    has_graph = isinstance(entry.get("graph"), str)
    if has_program == has_graph:
        yield (
            f"{path}: source: exactly one of 'program' or 'graph' is "
            "required"
        )
    if has_program and programs is not None and entry["program"] not in programs:
        yield (
            f"{path}.program: program: unknown built-in "
            f"{entry['program']!r}; try: {sorted(programs)}"
        )
    if has_graph:
        graph_path = base_dir / str(entry["graph"])
        if not graph_path.is_file():
            yield (
                f"{path}.graph: graph: file not found: {graph_path}"
            )
    for key, kind in (("processors", int), ("n", int)):
        value = entry.get(key)
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, kind)
            or value <= 0
        ):
            yield f"{path}.{key}: {key}: must be a positive integer, got {value!r}"
    machine = entry.get("machine")
    if machine is not None:
        from repro.machine.presets import PRESETS

        if not isinstance(machine, str) or machine not in PRESETS:
            yield (
                f"{path}.machine: machine: unknown preset {machine!r}; "
                f"try: {sorted(PRESETS)}"
            )
    fidelity = entry.get("fidelity")
    if fidelity is not None and fidelity not in FIDELITY_NAMES:
        yield (
            f"{path}.fidelity: fidelity: must be one of {FIDELITY_NAMES}, "
            f"got {fidelity!r}"
        )
    simulate = entry.get("simulate")
    if simulate is not None and not isinstance(simulate, bool):
        yield f"{path}.simulate: simulate: must be a boolean, got {simulate!r}"


def manifest_problems(doc: Any, base_dir: str | Path = ".") -> list[str]:
    """Every problem in a manifest document, as ``"<path>: <field>: <why>"``.

    Shared by :func:`load_manifest` (which raises on any problem) and the
    static analyzer's BATCH rules (which report them as findings).
    """
    base_dir = Path(base_dir)
    if not isinstance(doc, dict):
        return [f"$: manifest: must be a JSON object, got {type(doc).__name__}"]
    problems: list[str] = []
    version = doc.get("schema_version", MANIFEST_SCHEMA_VERSION)
    if version != MANIFEST_SCHEMA_VERSION:
        problems.append(
            f"$.schema_version: schema_version: unsupported value {version!r} "
            f"(expected {MANIFEST_SCHEMA_VERSION})"
        )
    jobs = doc.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        problems.append("$.jobs: jobs: must be a non-empty array of jobs")
        return problems
    from repro.programs import PROGRAM_FACTORIES

    seen_ids: dict[str, int] = {}
    for i, entry in enumerate(jobs):
        problems.extend(_iter_job_problems(i, entry, base_dir, PROGRAM_FACTORIES))
        if isinstance(entry, dict):
            job_id = entry.get("id")
            if isinstance(job_id, str):
                if job_id in seen_ids:
                    problems.append(
                        f"$.jobs[{i}].id: id: duplicate job id {job_id!r} "
                        f"(first used by job {seen_ids[job_id]})"
                    )
                else:
                    seen_ids[job_id] = i
    return problems


def load_manifest(
    path: str | Path,
    solver: ConvexSolverOptions | None = None,
    psa: PSAOptions | None = None,
) -> list[BatchJob]:
    """Load and validate a batch manifest into :class:`BatchJob` specs.

    Graph paths resolve relative to the manifest's own directory.
    ``solver`` / ``psa`` apply to every job (the manifest format keeps
    per-job options out of scope deliberately: sweeps vary the graph and
    machine, not solver internals).
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise IngestError(f"cannot read batch manifest {path}: {exc}") from exc
    problems = manifest_problems(doc, base_dir=path.parent)
    if problems:
        raise IngestError(
            f"batch manifest {path} is invalid "
            f"({len(problems)} problem(s))",
            diagnostics=tuple(problems),
        )

    from repro.programs import DEFAULT_SIZES

    jobs: list[BatchJob] = []
    for i, entry in enumerate(doc["jobs"]):
        if "program" in entry:
            name = entry["program"]
            source = {
                "kind": "program",
                "name": name,
                "n": int(entry.get("n", DEFAULT_SIZES.get(name, 64))),
            }
            default_id = f"{name}-{i}"
        else:
            graph_path = (path.parent / entry["graph"]).resolve()
            source = {"kind": "file", "path": str(graph_path)}
            default_id = f"{Path(entry['graph']).stem}-{i}"
        jobs.append(
            BatchJob(
                job_id=str(entry.get("id", default_id)),
                source=source,
                machine=str(entry.get("machine", "cm5")),
                processors=int(entry.get("processors", 64)),
                simulate=bool(entry.get("simulate", False)),
                fidelity=str(entry.get("fidelity", "ideal")),
                solver=solver,
                psa=psa,
            )
        )
    return jobs
