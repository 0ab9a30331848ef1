"""Core of the static analyzer: rules, findings, passes, and the runner.

The analyzer is diagnostics-driven, in the style of gpkit's "is this
expression GP-compatible?" checker: every invariant the pipeline relies on
is a *rule* with a stable id (``MDG001``, ``COST003``, ...), every
violation is a *finding* that names the rule, a severity, and a JSON-path
location, and a *pass* is a unit of analysis that inspects one aspect of a
program and yields findings. The :class:`Analyzer` runs a set of passes
over a :class:`CheckContext` and aggregates the findings into a
:class:`CheckReport` that renders as text, JSON, or SARIF 2.1.0.

Passes deliberately analyze the *document* form of an MDG (the dict that
:func:`repro.graph.serialization.mdg_to_dict` produces and that MDG JSON
files contain) so that inputs too broken to construct an :class:`MDG` —
cycles are constructible, but self-loops and duplicate names are not —
can still be diagnosed with precise locations instead of a first-error
exception.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro import obs
from repro.errors import CheckError

__all__ = [
    "Severity",
    "Rule",
    "Finding",
    "CheckContext",
    "Pass",
    "CheckReport",
    "Analyzer",
]


class Severity(enum.Enum):
    """Finding severities, ordered: note < warning < error."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"note": 0, "warning": 1, "error": 2}[self.value]

    def __ge__(self, other: "Severity") -> bool:
        return self.rank >= other.rank

    def __gt__(self, other: "Severity") -> bool:
        return self.rank > other.rank

    def __le__(self, other: "Severity") -> bool:
        return self.rank <= other.rank

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank


@dataclass(frozen=True)
class Rule:
    """One documented invariant the analyzer enforces.

    ``rule_id`` is stable across releases (SARIF consumers key on it);
    ``example`` shows a minimal violating input for the docs table.
    """

    rule_id: str
    title: str
    severity: Severity
    description: str
    example: str = ""

    def __post_init__(self) -> None:
        if not self.rule_id or not self.rule_id[-1].isdigit():
            raise CheckError(f"rule id must end in a number, got {self.rule_id!r}")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule_id: str
    severity: Severity
    message: str
    location: str = "$"  # JSON path into the checked document
    artifact: str = ""  # file/program the finding belongs to

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location,
            "artifact": self.artifact,
        }

    def __str__(self) -> str:
        where = f"{self.artifact}:{self.location}" if self.artifact else self.location
        return f"{self.severity.value:<7} {self.rule_id} {where}: {self.message}"


@dataclass
class CheckContext:
    """Everything one analysis run may look at.

    ``doc`` is always present (the checked JSON document; empty when a
    constructed MPMD program is checked through ``program``). The richer objects
    are optional; passes that need one and do not find it simply yield no
    findings — the analyzer records which passes actually ran.
    """

    doc: dict
    mdg: Any = None  # repro.graph.mdg.MDG | None
    machine: Any = None  # repro.machine.parameters.MachineParameters | None
    schedule: Any = None  # repro.scheduling.schedule.Schedule | None
    program: Any = None  # frontend LoopProgram (ir) or MPMDProgram (comm)
    artifact: str = "<memory>"

    def nodes(self) -> list[dict]:
        nodes = self.doc.get("nodes", [])
        return nodes if isinstance(nodes, list) else []

    def edges(self) -> list[dict]:
        edges = self.doc.get("edges", [])
        return edges if isinstance(edges, list) else []

    def node_names(self) -> list[str]:
        return [
            n["name"]
            for n in self.nodes()
            if isinstance(n, dict) and isinstance(n.get("name"), str)
        ]


class Pass(ABC):
    """One unit of analysis. Subclasses declare their rules and family."""

    #: Short machine name, e.g. ``"graph.cycles"``.
    name: str = ""
    #: One of ``"graph" | "cost" | "schedule" | "ir" | "comm" | "batch" |
    #: "obs" | "resilience"``.
    family: str = ""
    #: The rules this pass may report against.
    rules: tuple[Rule, ...] = ()

    @abstractmethod
    def run(self, ctx: CheckContext) -> Iterable[Finding]:
        """Yield findings for ``ctx`` (empty when everything holds)."""

    def finding(
        self,
        rule: Rule,
        message: str,
        location: str = "$",
        ctx: CheckContext | None = None,
        severity: Severity | None = None,
    ) -> Finding:
        """Build a finding against one of this pass's rules."""
        return Finding(
            rule_id=rule.rule_id,
            severity=severity if severity is not None else rule.severity,
            message=message,
            location=location,
            artifact=ctx.artifact if ctx is not None else "",
        )


@dataclass
class CheckReport:
    """Aggregated findings of one analyzer run (possibly many artifacts)."""

    findings: list[Finding] = field(default_factory=list)
    passes_run: list[str] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity is severity)

    @property
    def has_errors(self) -> bool:
        return any(f.severity is Severity.ERROR for f in self.findings)

    def at_least(self, severity: Severity) -> list[Finding]:
        return [f for f in self.findings if f.severity >= severity]

    def merge(self, other: "CheckReport") -> None:
        self.findings.extend(other.findings)
        for name in other.passes_run:
            if name not in self.passes_run:
                self.passes_run.append(name)
        for artifact in other.artifacts:
            if artifact not in self.artifacts:
                self.artifacts.append(artifact)

    def summary(self) -> str:
        return (
            f"{self.count(Severity.ERROR)} error(s), "
            f"{self.count(Severity.WARNING)} warning(s), "
            f"{self.count(Severity.NOTE)} note(s) "
            f"across {len(self.artifacts)} artifact(s)"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "passes_run": list(self.passes_run),
            "artifacts": list(self.artifacts),
            "counts": {
                "error": self.count(Severity.ERROR),
                "warning": self.count(Severity.WARNING),
                "note": self.count(Severity.NOTE),
            },
        }

    def render_text(self) -> str:
        lines = [str(f) for f in self.findings]
        lines.append(self.summary())
        return "\n".join(lines)

    def raise_if(self, threshold: Severity = Severity.ERROR) -> None:
        """Raise :class:`CheckError` when findings reach ``threshold``."""
        bad = self.at_least(threshold)
        if bad:
            preview = "; ".join(str(f) for f in bad[:5])
            more = f" (+{len(bad) - 5} more)" if len(bad) > 5 else ""
            raise CheckError(
                f"static analysis found {len(bad)} problem(s) at or above "
                f"{threshold.value} severity: {preview}{more}"
            )


def _sort_key(finding: Finding) -> tuple:
    return (-finding.severity.rank, finding.rule_id, finding.artifact,
            finding.location, finding.message)


class Analyzer:
    """Runs a set of passes over a context and aggregates their findings.

    Every finding is mirrored into ``repro.obs``: a ``check.finding``
    event plus ``check.findings`` / ``check.findings.<rule>.<severity>``
    counters, so production deployments can alert on analyzer output.
    """

    def __init__(self, passes: Iterable[Pass] | None = None):
        if passes is None:
            from repro.check.registry import default_passes

            passes = default_passes()
        self.passes: list[Pass] = list(passes)
        seen: dict[str, Rule] = {}
        for p in self.passes:
            for rule in p.rules:
                existing = seen.get(rule.rule_id)
                if existing is not None and existing != rule:
                    raise CheckError(
                        f"rule id {rule.rule_id!r} declared twice with "
                        "different definitions"
                    )
                seen[rule.rule_id] = rule
        self._rules = seen

    def rules(self) -> list[Rule]:
        """All known rules, sorted by id."""
        return [self._rules[k] for k in sorted(self._rules)]

    def families(self) -> list[str]:
        return sorted({p.family for p in self.passes})

    def run(self, ctx: CheckContext) -> CheckReport:
        report = CheckReport(artifacts=[ctx.artifact])
        with obs.span("check", artifact=ctx.artifact, passes=len(self.passes)):
            for p in self.passes:
                with obs.span("check.pass", pass_name=p.name, family=p.family):
                    found = list(p.run(ctx))
                report.passes_run.append(p.name)
                report.findings.extend(found)
        report.findings.sort(key=_sort_key)
        self._record(report)
        return report

    @staticmethod
    def _record(report: CheckReport) -> None:
        if not obs.enabled():
            return
        obs.counter("check.findings").inc(len(report.findings))
        for f in report.findings:
            obs.counter(f"check.findings.{f.rule_id}.{f.severity.value}").inc()
            obs.event(
                "check.finding",
                rule=f.rule_id,
                severity=f.severity.value,
                location=f.location,
                artifact=f.artifact,
                message=f.message,
            )
