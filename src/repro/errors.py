"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish structural problems (bad graphs), modelling
problems (non-posynomial costs), numerical problems (solver failures) and
execution problems (deadlocked simulations).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "CycleError",
    "ValidationError",
    "CostModelError",
    "PosynomialError",
    "AllocationError",
    "SolverError",
    "InfeasibleError",
    "SchedulingError",
    "CodegenError",
    "SimulationError",
    "DeadlockError",
    "DistributionError",
    "FrontendError",
    "FaultSpecError",
    "FaultError",
    "RecoveryError",
    "IngestError",
    "CheckError",
    "DeadlineExceeded",
    "ChaosSpecError",
    "ArtifactError",
    "ArtifactCorruptError",
    "ArtifactVersionError",
]


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GraphError(ReproError):
    """A macro dataflow graph is structurally invalid."""


class CycleError(GraphError):
    """A graph that must be acyclic contains a cycle."""


class ValidationError(ReproError):
    """An argument failed validation (wrong range, type or shape)."""


class CostModelError(ReproError):
    """A cost model is inconsistent or was given invalid parameters."""


class PosynomialError(CostModelError):
    """An operation would leave the posynomial cone (e.g. subtraction)."""


class AllocationError(ReproError):
    """Processor allocation failed or produced an invalid assignment."""


class SolverError(AllocationError):
    """The convex-programming solver did not converge to a solution."""


class InfeasibleError(SolverError):
    """The allocation problem has no feasible solution."""


class SchedulingError(ReproError):
    """Schedule construction failed or a schedule violates an invariant."""


class CodegenError(ReproError):
    """MPMD/SPMD program generation failed."""


class SimulationError(ReproError):
    """The machine simulator reached an invalid state."""


class DeadlockError(SimulationError):
    """The simulated program can make no further progress.

    :attr:`blocked` holds one :class:`repro.sim.engine.BlockedAt` per
    stalled processor, :attr:`wait_cycle` the first wait-for cycle among
    them (empty for a dropped send), and :attr:`executed` how many of the
    :attr:`total` instructions ran.
    """

    def __init__(
        self,
        message: str,
        *,
        blocked: tuple = (),
        wait_cycle: tuple = (),
        executed: int = 0,
        total: int = 0,
    ):
        super().__init__(message)
        self.blocked = tuple(blocked)
        self.wait_cycle = tuple(wait_cycle)
        self.executed = executed
        self.total = total


class DistributionError(ReproError):
    """A data distribution or redistribution map is invalid."""


class FrontendError(ReproError):
    """The loop-nest frontend could not lower a program to an MDG."""


class FaultSpecError(ValidationError):
    """A fault-injection specification is malformed."""


class FaultError(ReproError):
    """Fault injection reached a state the runtime cannot absorb."""


class RecoveryError(FaultError):
    """Schedule repair after a fault could not produce a valid schedule."""


class IngestError(ValidationError):
    """An untrusted input file failed validation.

    Carries structured :attr:`diagnostics` — each one names the JSON path,
    the offending field, and the reason — so callers (the CLI in
    particular) can report *where* the input is broken without a
    traceback. ``diagnostics`` entries stringify to
    ``"<path>: <field>: <reason>"``.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)

    def __str__(self) -> str:
        base = super().__str__()
        if not self.diagnostics:
            return base
        lines = [base] + [f"  - {d}" for d in self.diagnostics]
        return "\n".join(lines)


class ChaosSpecError(IngestError):
    """A chaos-injection specification is malformed."""


class DeadlineExceeded(ReproError):
    """A cooperative wall-clock budget ran out mid-pipeline.

    Carries the :attr:`stage` that noticed the expiry and the
    :attr:`elapsed` seconds since the deadline started, so batch error
    records can say *where* the budget went without a traceback.
    """

    def __init__(self, message: str, *, stage: str = "", elapsed: float = 0.0):
        super().__init__(message)
        self.stage = stage
        self.elapsed = float(elapsed)


class CheckError(ReproError):
    """Static analysis (``repro.check``) rejected an input, or the
    analyzer itself was misconfigured (duplicate rule ids, bad pass)."""


class ArtifactError(ReproError):
    """A checkpoint artifact could not be read or written."""


class ArtifactCorruptError(ArtifactError):
    """An artifact file is damaged (bad JSON, bad envelope, bad checksum)."""


class ArtifactVersionError(ArtifactError):
    """An artifact was written under an incompatible schema version."""
