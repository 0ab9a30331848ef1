"""Tests for the deterministic profiler (``repro.obs.prof``)."""

from __future__ import annotations

import random
import time

import pytest

from repro import obs
from repro.obs import prof


@pytest.fixture
def telemetry():
    t = obs.Telemetry(sinks=[obs.MemorySink()])
    with obs.use(t):
        yield t


def span(name, ts, dur, depth, parent=None, **attrs):
    return {
        "type": "span",
        "name": name,
        "ts": ts,
        "dur": dur,
        "depth": depth,
        "parent": parent,
        "attrs": attrs,
    }


def iteration(ts, method="interior-point", **fields):
    return {
        "type": "event",
        "name": "solver.iteration",
        "ts": ts,
        "method": method,
        **fields,
    }


# One compile-shaped run: compile holds allocate + schedule; allocate
# holds two solver attempts. Records are in finish order, as written.
RUN = [
    {"type": "run_start", "ts": 0.0},
    span("solver.attempt", 0.10, 0.30, 2, "allocate"),
    span("solver.attempt", 0.45, 0.15, 2, "allocate"),
    span("allocate", 0.10, 0.55, 1, "compile"),
    span("schedule", 0.70, 0.20, 1, "compile"),
    span("compile", 0.00, 1.00, 0),
]


class TestSpanTree:
    def test_roots_and_children(self):
        roots = prof.build_span_tree(RUN)
        assert [r.name for r in roots] == ["compile"]
        compile_ = roots[0]
        assert [c.name for c in compile_.children] == ["allocate", "schedule"]
        allocate = compile_.children[0]
        assert [c.name for c in allocate.children] == [
            "solver.attempt",
            "solver.attempt",
        ]

    def test_self_time_subtracts_direct_children(self):
        roots = prof.build_span_tree(RUN)
        compile_ = roots[0]
        assert compile_.self_time == pytest.approx(1.00 - 0.55 - 0.20)
        allocate = compile_.children[0]
        assert allocate.self_time == pytest.approx(0.55 - 0.30 - 0.15)
        leaf = allocate.children[0]
        assert leaf.self_time == pytest.approx(leaf.duration)

    def test_self_time_clamped_at_zero(self):
        events = [
            span("child", 0.0, 2.0, 1, "parent"),
            span("parent", 0.0, 1.0, 0),
        ]
        (parent,) = prof.build_span_tree(events)
        assert parent.self_time == 0.0

    def test_multiple_roots_in_start_order(self):
        events = [span("b", 1.0, 0.5, 0), span("a", 0.0, 0.5, 0)]
        roots = prof.build_span_tree(events)
        assert [r.name for r in roots] == ["a", "b"]

    def test_non_span_records_ignored(self):
        assert prof.build_span_tree([{"type": "event", "ts": 0.0}]) == []


class TestStages:
    def test_stage_stats_aggregate_by_name(self):
        stats = prof.stage_stats(RUN)
        attempt = stats["solver.attempt"]
        assert attempt.count == 2
        assert attempt.total == pytest.approx(0.45)
        assert attempt.self_time == pytest.approx(0.45)
        assert attempt.min == pytest.approx(0.15)
        assert attempt.max == pytest.approx(0.30)

    def test_top_stages_by_self_vs_total(self):
        by_self = [s.name for s in prof.top_stages(RUN, by="self")]
        assert by_self[0] == "solver.attempt"
        by_total = [s.name for s in prof.top_stages(RUN, by="total")]
        assert by_total[0] == "compile"

    def test_top_stages_respects_n(self):
        assert len(prof.top_stages(RUN, n=2)) == 2
        assert prof.top_stages(RUN, n=0) == []

    def test_top_stages_rejects_bad_key(self):
        with pytest.raises(ValueError, match="self"):
            prof.top_stages(RUN, by="wall")

    def test_slowest_stage(self):
        assert prof.slowest_stage(RUN).name == "solver.attempt"
        assert prof.slowest_stage([]) is None


class TestDiff:
    def test_deltas_ranked_by_absolute_change(self):
        run_b = [
            {"type": "run_start", "ts": 0.0},
            span("solver.attempt", 0.10, 1.30, 2, "allocate"),
            span("allocate", 0.10, 1.40, 1, "compile"),
            span("schedule", 1.55, 0.20, 1, "compile"),
            span("compile", 0.00, 1.80, 0),
        ]
        deltas = prof.diff_stages(RUN, run_b)
        assert deltas[0].name == "solver.attempt"
        assert deltas[0].delta == pytest.approx(1.30 - 0.45)
        assert {d.name for d in deltas} == {
            "compile",
            "allocate",
            "schedule",
            "solver.attempt",
        }

    def test_stage_only_in_one_run(self):
        deltas = prof.diff_stages([span("a", 0.0, 1.0, 0)], [span("b", 0.0, 2.0, 0)])
        by_name = {d.name: d for d in deltas}
        assert by_name["b"].ratio == float("inf")
        assert by_name["b"].count_a == 0
        assert by_name["a"].delta == pytest.approx(-1.0)

    def test_render_diff_names_slowest_stage_and_biggest_change(self):
        run_b = [
            {"type": "run_start", "ts": 0.0},
            span("allocate", 0.0, 2.0, 1, "compile"),
            span("schedule", 2.0, 0.2, 1, "compile"),
            span("compile", 0.0, 2.3, 0),
        ]
        text = prof.render_diff(RUN, run_b, label_a="before", label_b="after")
        assert "slowest stage in before: solver.attempt" in text
        assert "slowest stage in after: allocate" in text
        assert "biggest change:" in text
        assert "slower in after" in text

    def test_render_diff_empty(self):
        assert "no spans" in prof.render_diff([], [])


class TestConvergence:
    def test_iterations_grouped_into_one_trace(self):
        events = [
            iteration(0.1, nit=1, objective=5.0),
            iteration(0.2, nit=2, objective=3.0, gap=0.5),
            iteration(0.3, nit=3, objective=2.5, gap=0.01),
        ]
        (trace,) = prof.convergence_traces(events)
        assert trace.n_iterations == 3
        assert trace.first_objective == 5.0
        assert trace.last_objective == 2.5
        assert trace.last_gap == 0.01

    def test_nit_reset_starts_new_trace(self):
        events = [
            iteration(0.1, nit=1, objective=5.0),
            iteration(0.2, nit=2, objective=4.0),
            iteration(0.3, nit=1, objective=9.0),  # fresh attempt
        ]
        traces = prof.convergence_traces(events)
        assert [t.n_iterations for t in traces] == [2, 1]

    def test_method_and_job_changes_split_traces(self):
        events = [
            iteration(0.1, nit=1, method="interior-point"),
            iteration(0.2, nit=2, method="analytic"),
            iteration(0.3, nit=3, method="analytic", job="j1"),
        ]
        traces = prof.convergence_traces(events)
        assert [(t.method, t.job) for t in traces] == [
            ("interior-point", None),
            ("analytic", None),
            ("analytic", "j1"),
        ]

    def test_missing_objectives_tolerated(self):
        (trace,) = prof.convergence_traces([iteration(0.1, nit=1)])
        assert trace.first_objective is None
        assert trace.last_gap is None

    def test_render_convergence(self):
        text = prof.render_convergence(
            [iteration(0.1, nit=1, objective=4.0, gap=0.2, primal_residual=0.03,
                       dual_residual=0.004, step=0.5, job="a")]
        )
        assert "solver convergence traces" in text
        assert "interior-point" in text
        for header in ("gap", "primal res", "dual res", "step"):
            assert header in text
        for value in ("0.2", "0.03", "0.004", "0.5"):
            assert value in text
        assert prof.render_convergence([]) is None


class TestHotTimers:
    def test_hot_records_into_namespaced_histogram(self, telemetry):
        with prof.hot("solve"):
            pass
        h = telemetry.metrics.histograms[prof.HOT_PREFIX + "solve"]
        assert h.count == 1
        assert h.total >= 0.0

    def test_hot_noop_while_disabled(self):
        assert not obs.enabled()
        with prof.hot("solve"):
            pass  # must not raise, must not create global state

    def test_profiled_decorator_records_and_returns(self, telemetry):
        @prof.profiled("kernel")
        def double(x):
            return 2 * x

        assert double(21) == 42
        assert telemetry.metrics.histograms[prof.HOT_PREFIX + "kernel"].count == 1

    def test_profiled_defaults_to_qualname(self, telemetry):
        @prof.profiled()
        def named():
            return 1

        named()
        keys = list(telemetry.metrics.histograms)
        assert any("named" in k for k in keys)

    def test_profiled_passthrough_while_disabled(self):
        @prof.profiled("off")
        def f():
            return "ok"

        assert not obs.enabled()
        assert f() == "ok"


class TestRendering:
    def test_render_top_table(self):
        text = prof.render_top(RUN, n=3)
        assert "top 3 stage(s) by self time" in text
        assert "solver.attempt" in text

    def test_render_top_empty(self):
        assert prof.render_top([]) == "(no spans in run log)"

    def test_render_profile_sections(self):
        events = RUN + [
            iteration(0.2, nit=1, objective=3.0),
            {
                "type": "metrics",
                "ts": 1.0,
                "metrics": {
                    "counters": {"solver.evals.objective": 12},
                    "gauges": {},
                    "histograms": {
                        prof.HOT_PREFIX + "psa.pool": {
                            "count": 4,
                            "sum": 0.01,
                            "mean": 0.0025,
                            "max": 0.005,
                        }
                    },
                },
            },
        ]
        text = prof.render_profile(events, title="t")
        assert "== t ==" in text
        assert "span tree" in text
        assert "compile" in text
        assert "solver convergence traces" in text
        assert "solver.evals.objective" in text
        assert "psa.pool" in text  # hot-spot table, prefix stripped

    def test_render_profile_empty(self):
        assert "(empty run log)" in prof.render_profile([])


class TestDisabledOverhead:
    def test_disabled_profiler_overhead_under_five_percent(self):
        """The tentpole's cost contract: probes are free when obs is off.

        Times a realistic-sized workload bare vs. wrapped in ``hot()``
        with telemetry disabled, taking the min over several trials to
        shed scheduler noise, and requires <5% relative overhead.
        """
        assert not obs.enabled()
        rng = random.Random(7)
        payload = [rng.random() for _ in range(4000)]

        def bare():
            return sorted(payload)

        def wrapped():
            with prof.hot("bench.sort"):
                return sorted(payload)

        def best(fn, repeats=7, number=25):
            fn()  # warm up
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(number):
                    fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        base = best(bare)
        timed = best(wrapped)
        assert timed < base * 1.05, (
            f"disabled hot() overhead {timed / base - 1.0:.1%} exceeds 5%"
        )
