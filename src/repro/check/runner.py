"""High-level entry points for the analyzer.

``check_document`` / ``check_mdg`` analyze in-memory objects;
``check_file`` loads an MDG JSON file (still producing findings when the
file is too broken to construct an :class:`MDG`), a serialized MPMD
program (comm family), a batch manifest, a chaos spec or lease artifact
(resilience family), or — for ``.jsonl`` paths — a telemetry run log
(obs family); ``check_bundle`` analyzes a built-in program. When a
machine is available and the document is error-free, the graph is
compiled (allocation + PSA) so the schedule pass family has something to
verify — and the generated MPMD program is verified by the comm family
(``check_program``) in the same sweep — that is how ``repro check``
exercises the full rule set on a plain ``.json`` graph.

``preflight_check`` is the pipeline gate: graph/cost/ir families on the
un-normalized MDG, raising :class:`~repro.errors.CheckError` at the
requested threshold *before* the solver is invoked.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro import obs
from repro.check.core import Analyzer, CheckContext, CheckReport, Severity
from repro.check.registry import all_rules, passes_for_families
from repro.errors import CheckError, ReproError

__all__ = [
    "check_document",
    "check_mdg",
    "check_file",
    "check_bundle",
    "check_program",
    "preflight_check",
    "rules_markdown",
]


def check_document(
    doc: dict,
    *,
    mdg: Any = None,
    machine: Any = None,
    schedule: Any = None,
    program: Any = None,
    artifact: str = "<memory>",
    analyzer: Analyzer | None = None,
) -> CheckReport:
    """Run the default passes over one document-form MDG."""
    analyzer = analyzer if analyzer is not None else Analyzer()
    ctx = CheckContext(
        doc=doc,
        mdg=mdg,
        machine=machine,
        schedule=schedule,
        program=program,
        artifact=artifact,
    )
    return analyzer.run(ctx)


def _with_schedule(
    report: CheckReport,
    mdg: Any,
    machine: Any,
    artifact: str,
    doc: dict,
) -> CheckReport:
    """Compile ``mdg`` and append the schedule family's findings.

    Only attempted when the document-level families came back error-free
    (compiling a known-broken graph would just crash) and a machine is
    available. A compilation failure is reported as an event, not a
    finding: it is the solver's diagnostic, not a static rule.
    """
    if report.has_errors or mdg is None or machine is None:
        return report
    from repro.pipeline import compile_mdg

    try:
        with obs.span("check.compile", artifact=artifact):
            compilation = compile_mdg(mdg, machine)
    except ReproError as exc:
        obs.event("check.compile_failed", artifact=artifact, reason=str(exc))
        return report
    schedule_report = Analyzer(passes_for_families(("schedule",))).run(
        CheckContext(
            doc=doc,
            mdg=mdg,
            machine=machine,
            schedule=compilation.schedule,
            artifact=artifact,
        )
    )
    report.merge(schedule_report)
    program = getattr(compilation, "program", None)
    if program is not None:
        report.merge(
            check_program(
                program,
                schedule=compilation.schedule,
                mdg=compilation.schedule.mdg,
                machine=machine,
                artifact=artifact,
            )
        )
    return report


def check_program(
    program_or_doc: Any,
    *,
    schedule: Any = None,
    mdg: Any = None,
    machine: Any = None,
    artifact: str = "<program>",
) -> CheckReport:
    """Run the comm family over one MPMD program (object or document).

    A constructed program is checked as it is; a document is parsed once
    by the passes. ``schedule``/``mdg``/``machine`` unlock the
    cross-artifact rules (COMM007 placement/width agreement, COMM008
    cost-model byte reconciliation); without them only the intra-program
    rules run.
    """
    if isinstance(program_or_doc, dict):
        doc, program = program_or_doc, None
    else:
        doc, program = {}, program_or_doc
        if mdg is None and schedule is not None:
            mdg = getattr(schedule, "mdg", None)
    analyzer = Analyzer(passes_for_families(("comm",)))
    return analyzer.run(
        CheckContext(
            doc=doc,
            program=program,
            mdg=mdg,
            machine=machine,
            schedule=schedule,
            artifact=artifact,
        )
    )


def check_mdg(
    mdg: Any,
    machine: Any = None,
    *,
    program: Any = None,
    artifact: str = "<memory>",
    compile_schedule: bool = True,
) -> CheckReport:
    """Analyze a constructed MDG (document form derived automatically)."""
    from repro.graph.serialization import mdg_to_dict

    doc = mdg_to_dict(mdg)
    report = check_document(
        doc, mdg=mdg, machine=machine, program=program, artifact=artifact
    )
    if compile_schedule:
        report = _with_schedule(report, mdg, machine, artifact, doc)
    return report


def check_file(
    path: str | Path,
    machine: Any = None,
    *,
    compile_schedule: bool = True,
) -> CheckReport:
    """Analyze one MDG JSON file.

    Files too malformed to build an :class:`MDG` (self-loops, duplicate
    names, cycles with bad weights, ...) are still analyzed in document
    form, which is the whole point: precise findings instead of the
    constructor's first exception.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        # A telemetry run log, not an MDG: parse tolerantly and run the
        # obs family (OBS001/OBS002) over the event stream.
        from repro.check.obs_passes import RUNLOG_CORRUPT_KEY, RUNLOG_DOC_KEY
        from repro.obs.sinks import read_run_log

        try:
            events, corrupt = read_run_log(path)
        except OSError as exc:
            raise CheckError(f"cannot read run log {path}: {exc}") from exc
        analyzer = Analyzer(passes_for_families(("obs",)))
        return analyzer.run(
            CheckContext(
                doc={RUNLOG_DOC_KEY: events, RUNLOG_CORRUPT_KEY: corrupt},
                artifact=str(path),
            )
        )
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read MDG file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckError(
            f"MDG file {path} must contain a JSON object, "
            f"got {type(doc).__name__}"
        )

    from repro.codegen.serialization import is_program_doc

    if is_program_doc(doc):
        # A serialized MPMD program: comm family only. Offline artifacts
        # carry no schedule/MDG, so the intra-program rules
        # (COMM001-COMM006) do the heavy lifting here; the cross-artifact
        # rules run in the pipeline gate where those objects exist.
        return check_program(doc, machine=machine, artifact=str(path))

    from repro.check.manifest_passes import is_batch_manifest

    if is_batch_manifest(doc):
        # A batch manifest, not an MDG: only the batch family applies
        # (graph rules like "MDG must be non-empty" would be noise).
        analyzer = Analyzer(passes_for_families(("batch",)))
        return analyzer.run(CheckContext(doc=doc, artifact=str(path)))

    from repro.check.resilience_passes import is_lease_doc
    from repro.resilience.chaos import is_chaos_doc

    if is_chaos_doc(doc) or is_lease_doc(doc):
        # A chaos spec or lease artifact: resilience family only.
        analyzer = Analyzer(passes_for_families(("resilience",)))
        return analyzer.run(CheckContext(doc=doc, artifact=str(path)))

    mdg = None
    try:
        from repro.graph.serialization import mdg_from_dict

        mdg = mdg_from_dict(doc)
    except ReproError:
        pass  # document-form passes will say precisely what is wrong

    report = check_document(doc, mdg=mdg, machine=machine, artifact=str(path))
    if compile_schedule:
        report = _with_schedule(report, mdg, machine, str(path), doc)
    return report


def check_bundle(
    bundle: Any,
    machine: Any = None,
    *,
    compile_schedule: bool = True,
) -> CheckReport:
    """Analyze one built-in :class:`~repro.programs.common.ProgramBundle`."""
    return check_mdg(
        bundle.mdg,
        machine,
        artifact=f"program:{bundle.name}",
        compile_schedule=compile_schedule,
    )


def preflight_check(
    mdg: Any,
    machine: Any = None,
    *,
    strict: bool = False,
    program: Any = None,
    artifact: str = "<preflight>",
) -> CheckReport:
    """The pipeline's pre-solver gate.

    Runs the graph, cost and ir families (the schedule does not exist
    yet) on the un-normalized MDG and raises
    :class:`~repro.errors.CheckError` on error-severity findings —
    warning-severity too under ``strict``. Returns the report so callers
    can surface the non-fatal findings.
    """
    from repro.graph.serialization import mdg_to_dict

    analyzer = Analyzer(passes_for_families(("graph", "cost", "ir")))
    report = check_document(
        mdg_to_dict(mdg),
        mdg=mdg,
        machine=machine,
        program=program,
        artifact=artifact,
        analyzer=analyzer,
    )
    report.raise_if(Severity.WARNING if strict else Severity.ERROR)
    return report


def rules_markdown() -> str:
    """The full rule table as markdown (source of ``docs/rules.md``)."""
    lines = [
        "# Static-analysis rules",
        "",
        "<!-- generated by `python -m repro check --list-rules --format "
        "markdown`; do not edit by hand -->",
        "",
        "Every invariant `repro check` enforces, keyed by its stable rule "
        "id. Severities: **error** findings fail the check (exit 1), "
        "**warning** and **note** findings are reported but do not.",
        "",
        "| id | severity | meaning | example violation |",
        "|----|----------|---------|-------------------|",
    ]
    for rule in all_rules():
        example = rule.example.replace("|", "\\|") or "—"
        lines.append(
            f"| {rule.rule_id} | {rule.severity.value} | {rule.title}: "
            f"{rule.description.replace('|', chr(92) + '|')} | `{example}` |"
        )
    lines.append("")
    return "\n".join(lines)
