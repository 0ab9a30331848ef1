"""Cooperative wall-clock budgets.

A :class:`Deadline` is a per-job (or per-call) wall-clock budget. It is
*cooperative*: nothing preempts a stage, but every long-running loop in
the pipeline — the solver's iterations, the PSA ready queue, the
simulator event loop — periodically calls :func:`check_deadline`, which
raises :class:`~repro.errors.DeadlineExceeded` once the budget is spent.
The deadline travels as ambient context (a :class:`contextvars.ContextVar`
installed by :func:`deadline_scope`), so stage code never threads a
deadline argument through a dozen signatures, and the check is a near
no-op (one context-variable read) when no deadline is active.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from typing import Callable, Iterator

from repro.errors import DeadlineExceeded, ValidationError

__all__ = [
    "Deadline",
    "deadline_scope",
    "current_deadline",
    "check_deadline",
]


class Deadline:
    """One wall-clock budget, started at construction time.

    ``clock`` is injectable (tests drive a virtual clock); production code
    uses ``time.monotonic`` so suspends/clock-steps cannot fire a budget
    early.
    """

    __slots__ = ("budget", "_clock", "_start")

    def __init__(
        self,
        budget_seconds: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        budget = float(budget_seconds)
        if not budget > 0:
            raise ValidationError(
                f"deadline budget must be positive, got {budget_seconds!r}"
            )
        self.budget = budget
        self._clock = clock
        self._start = clock()

    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self.budget - self.elapsed())

    def expired(self) -> bool:
        return self.elapsed() >= self.budget

    def check(self, stage: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        elapsed = self.elapsed()
        if elapsed >= self.budget:
            where = f" in stage {stage!r}" if stage else ""
            raise DeadlineExceeded(
                f"deadline of {self.budget:.3f}s exceeded{where} "
                f"({elapsed:.3f}s elapsed)",
                stage=stage,
                elapsed=elapsed,
            )

    def __repr__(self) -> str:
        return (
            f"Deadline(budget={self.budget:.3f}s, "
            f"remaining={self.remaining():.3f}s)"
        )


_CURRENT: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro-deadline", default=None
)


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Install ``deadline`` as the ambient deadline for the with-block.

    ``None`` is accepted and installs nothing, so callers can write
    ``with deadline_scope(maybe_deadline):`` without branching.
    """
    if deadline is None:
        yield None
        return
    token = _CURRENT.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT.reset(token)


def current_deadline() -> Deadline | None:
    """The ambient deadline, or ``None`` when no budget is active."""
    return _CURRENT.get()


def check_deadline(stage: str = "") -> None:
    """Check the ambient deadline (no-op when none is installed).

    This is the hook pipeline loops call; it must stay cheap enough to
    sit inside the simulator event loop.
    """
    deadline = _CURRENT.get()
    if deadline is not None:
        deadline.check(stage)
