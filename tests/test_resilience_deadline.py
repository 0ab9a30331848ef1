"""Deadline budgets.

The deadline tests drive virtual clocks (no sleeping); the pipeline
integration tests prove the ambient deadline actually cuts off each
cooperative check point (allocator, PSA, simulator) with the right stage
stamped on the exception.
"""

import pytest

from repro.allocation.solver import ConvexSolverOptions, solve_allocation
from repro.errors import DeadlineExceeded, ValidationError
from repro.graph.generators import paper_example_mdg
from repro.machine.presets import cm5
from repro.pipeline import compile_mdg, measure
from repro.resilience import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValidationError):
            Deadline(0.0)
        with pytest.raises(ValidationError):
            Deadline(-1.0)

    def test_elapsed_remaining_expired(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        assert d.remaining() == 10.0
        assert not d.expired()
        clock.advance(4.0)
        assert d.elapsed() == 4.0
        assert d.remaining() == 6.0
        clock.advance(7.0)
        assert d.expired()
        assert d.remaining() == 0.0

    def test_check_raises_with_stage_and_elapsed(self):
        clock = FakeClock()
        d = Deadline(1.0, clock=clock)
        d.check("allocate")  # under budget: no-op
        clock.advance(2.5)
        with pytest.raises(DeadlineExceeded) as excinfo:
            d.check("allocate")
        assert excinfo.value.stage == "allocate"
        assert excinfo.value.elapsed == 2.5
        assert "allocate" in str(excinfo.value)

    def test_scope_installs_and_restores(self):
        assert current_deadline() is None
        check_deadline("anywhere")  # no ambient deadline: no-op
        d = Deadline(5.0, clock=FakeClock())
        with deadline_scope(d):
            assert current_deadline() is d
            with deadline_scope(None):  # None nests transparently
                assert current_deadline() is d
        assert current_deadline() is None

    def test_check_deadline_uses_ambient(self):
        clock = FakeClock()
        with deadline_scope(Deadline(1.0, clock=clock)):
            clock.advance(2.0)
            with pytest.raises(DeadlineExceeded) as excinfo:
                check_deadline("simulate")
        assert excinfo.value.stage == "simulate"

    def test_scope_restores_after_exception(self):
        clock = FakeClock()
        with pytest.raises(DeadlineExceeded):
            with deadline_scope(Deadline(1.0, clock=clock)):
                clock.advance(2.0)
                check_deadline()
        assert current_deadline() is None


class TestPipelineDeadlines:
    """The ambient budget cuts each cooperative check point."""

    def test_compile_cut_off_in_allocate(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceeded) as excinfo:
                compile_mdg(paper_example_mdg(), cm5(4))
        assert excinfo.value.stage == "allocate"

    def test_generous_budget_is_bit_transparent(self):
        plain = compile_mdg(paper_example_mdg(), cm5(4))
        with deadline_scope(Deadline(3600.0)):
            budgeted = compile_mdg(paper_example_mdg(), cm5(4))
        assert budgeted.allocation.processors == plain.allocation.processors
        assert budgeted.schedule.makespan == plain.schedule.makespan

    def test_measure_checks_deadline(self):
        result = compile_mdg(paper_example_mdg(), cm5(4))
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceeded) as excinfo:
                measure(result)
        assert excinfo.value.stage == "simulate"

    def test_solver_aborts_on_spent_budget(self):
        """DeadlineExceeded from the solver is never absorbed into the
        analytic fallback (unlike the solver's own timeout)."""
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceeded):
                solve_allocation(
                    paper_example_mdg().normalized(),
                    cm5(4),
                    ConvexSolverOptions(strict=False),
                )
