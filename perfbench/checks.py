"""Output checks. Each returns a list of problems; any problem fails the job.

The checks judge the program's outputs against references the compiler
under test does not produce: the sequential NumPy reference for values,
the simulator's documented invariant for makespans, the paper's Theorem 3
bound, and the cold-phase result for structural cache hits.
"""

from __future__ import annotations

from repro.check import Severity
from repro.errors import ValidationError
from repro.runtime import verify_against_reference
from repro.scheduling import verify_theorem3

#: The simulator's invariant: with ideal fidelity a generated program never
#: finishes later than the schedule it was generated from.
MAKESPAN_SLACK = 1e-9


def value_problems(app, report) -> list[str]:
    try:
        verify_against_reference(app, report)
    except ValidationError as exc:
        return [f"value check: {exc}"]
    return []


def finding_problems(check_report) -> list[str]:
    errors = [f for f in check_report.findings if f.severity is Severity.ERROR]
    if not errors:
        return []
    return [f"check_program: {len(errors)} error finding(s), first: {errors[0]}"]


def makespan_problems(label: str, simulated: float, scheduled: float) -> list[str]:
    if simulated <= scheduled * (1.0 + MAKESPAN_SLACK):
        return []
    return [f"{label}: ideal simulated makespan {simulated!r} exceeds the "
            f"schedule's {scheduled!r}"]


def theorem3_problems(schedule, machine, phi: float) -> list[str]:
    report = verify_theorem3(schedule, machine, phi)
    if report.holds:
        return []
    return [f"theorem 3: T_psa {report.t_psa!r} > bound {report.bound!r}"]


def fault_problems(faulted_sim, repair) -> list[str]:
    if not faulted_sim.halted:
        return ["faulted run did not halt although a processor failed"]
    if repair is None:
        return ["repair_schedule produced no repair"]
    return []


def hit_problems(hit, cold) -> list[str]:
    """A structural cache hit must return the cold solve bit for bit."""
    problems = []
    if hit.phi != cold.phi:
        problems.append(f"cache hit {hit.job_id}: phi {hit.phi!r} != cold {cold.phi!r}")
    if hit.processors != cold.processors:
        problems.append(f"cache hit {hit.job_id}: processors differ from the cold solve")
    return problems
