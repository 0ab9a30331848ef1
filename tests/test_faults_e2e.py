"""End-to-end robustness: fault-injected runs, recovery, solver degradation."""

import json

import pytest

import repro.allocation.solver as solver_module
from repro import obs
from repro.allocation.solver import ConvexSolverOptions, solve_allocation
from repro.cli import main
from repro.errors import FaultError, SolverError
from repro.faults import FaultSpec, ProcessorFailure
from repro.graph.generators import paper_example_mdg
from repro.machine.fidelity import HardwareFidelity
from repro.machine.presets import cm5
from repro.pipeline import execute_bundle, execute_with_faults
from repro.programs import complex_matmul_program
from repro.runtime.executor import ValueExecutor


@pytest.fixture
def telemetry():
    t = obs.Telemetry(sinks=[obs.MemorySink()])
    with obs.use(t):
        yield t


class TestExecuteWithFaults:
    @pytest.fixture(scope="class")
    def nominal(self):
        return execute_bundle(
            complex_matmul_program(16), cm5(8), HardwareFidelity.ideal()
        )

    @pytest.fixture(scope="class")
    def failure_spec(self, nominal):
        """A processor loss well inside the nominal execution window."""
        return FaultSpec(
            seed=7,
            processor_failures=(
                ProcessorFailure(0, nominal.measured_makespan * 0.3),
            ),
        )

    def test_processor_failure_recovers_and_verifies(self, failure_spec):
        execution = execute_with_faults(
            complex_matmul_program(16),
            cm5(8),
            failure_spec,
            HardwareFidelity.ideal(),
        )
        assert execution.simulation.halted
        assert execution.recovered
        report = execution.repair.report
        assert report.failed_processors == (0,)
        assert len(report.rescheduled_nodes) >= 1
        assert report.repaired_makespan > report.failure_time
        assert execution.degradation >= 1.0
        # verify=True ran without raising: the recovered answer is correct.

    def test_rescheduled_nodes_avoid_dead_processors(self, failure_spec):
        execution = execute_with_faults(
            complex_matmul_program(16),
            cm5(8),
            failure_spec,
            HardwareFidelity.ideal(),
        )
        physical = execution.repair.physical_schedule
        assert 0 not in set(physical.info["survivor_map"].values())
        for entry in physical:
            assert 0 not in entry.processors

    def test_bit_for_bit_reproducible(self, failure_spec):
        runs = [
            execute_with_faults(
                complex_matmul_program(16),
                cm5(8),
                failure_spec,
                HardwareFidelity.ideal(),
            )
            for _ in range(2)
        ]
        assert runs[0].simulation.makespan == runs[1].simulation.makespan
        assert runs[0].simulation.info == runs[1].simulation.info
        assert runs[0].repair.report == runs[1].repair.report
        assert (
            runs[0].value_report.kernel_retries
            == runs[1].value_report.kernel_retries
        )

    def test_benign_spec_needs_no_repair(self):
        execution = execute_with_faults(
            complex_matmul_program(16),
            cm5(8),
            FaultSpec(seed=1),
            HardwareFidelity.ideal(),
        )
        assert not execution.recovered
        assert execution.degradation == pytest.approx(1.0, rel=1e-6)

    def test_transient_faults_slow_but_verify(self):
        spec = FaultSpec(
            seed=3,
            transient_rate=0.05,
            retry_backoff=1e-5,
            slowdown={1: 1.5},
            link_spike_rate=0.1,
            drop_rate=0.05,
        )
        execution = execute_with_faults(
            complex_matmul_program(16), cm5(8), spec, HardwareFidelity.ideal()
        )
        assert not execution.simulation.halted
        assert execution.simulation.makespan >= execution.nominal_makespan
        assert execution.degradation >= 1.0

    def test_rejects_bad_faults_argument(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            execute_with_faults(
                complex_matmul_program(16), cm5(8), {"seed": 1}
            )

    def test_fault_and_recovery_events_on_obs(self, telemetry, failure_spec):
        execute_with_faults(
            complex_matmul_program(16),
            cm5(8),
            failure_spec,
            HardwareFidelity.ideal(),
        )
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["faults.processors_lost"] >= 1
        assert counters["recovery.repairs"] == 1
        names = {e.get("name") for e in telemetry.sinks[0].events}
        assert {"fault.processor_lost", "fault.halt", "recovery.report"} <= names


class TestExecutorKernelFaults:
    @pytest.fixture()
    def app_and_groups(self):
        app = complex_matmul_program(16).app
        groups = {name: 1 for name in app.computational_nodes()}
        return app, groups

    def test_retries_counted_and_reproducible(self, app_and_groups):
        app, groups = app_and_groups
        spec = FaultSpec(seed=1, transient_rate=0.3)
        r1 = ValueExecutor(app).run(groups, faults=spec)
        r2 = ValueExecutor(app).run(groups, faults=spec)
        assert r1.total_retries() > 0
        assert r1.kernel_retries == r2.kernel_retries

    def test_clean_spec_means_no_retries(self, app_and_groups):
        app, groups = app_and_groups
        report = ValueExecutor(app).run(groups, faults=FaultSpec(seed=1))
        assert report.kernel_retries == {}
        assert report.total_retries() == 0

    def test_exhaustion_raises_fault_error(self, app_and_groups):
        app, groups = app_and_groups
        spec = FaultSpec(seed=0, transient_rate=0.99, max_retries=0)
        with pytest.raises(FaultError, match="consecutive attempts"):
            ValueExecutor(app).run(groups, faults=spec)


class TestSolverDegradation:
    def test_strict_false_yields_analytic_fallback(self, machine4, telemetry):
        options = ConvexSolverOptions(strict=False, max_iterations=1)
        allocation = solve_allocation(
            paper_example_mdg().normalized(), machine4, options
        )
        assert allocation.info["fallback"] is True
        assert allocation.info["solver"]["method"] == "analytic-fallback"
        assert allocation.info["attempts"][0]["status"] == "max_iterations"
        assert allocation.phi > 0.0
        p = machine4.processors
        for name, value in allocation.processors.items():
            assert 1.0 - 1e-9 <= value <= p + 1e-9
        # the degradation is loud: counters and a warning event
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["solver.failures"] == 1
        assert counters["solver.fallbacks"] == 1
        events = telemetry.sinks[0].events
        fallback_events = [e for e in events if e.get("name") == "solver.fallback"]
        assert len(fallback_events) == 1
        assert fallback_events[0]["level"] == "warning"

    def test_iteration_cap_is_never_a_success(self, machine4):
        with pytest.raises(SolverError, match="did not converge"):
            solve_allocation(
                paper_example_mdg().normalized(),
                machine4,
                ConvexSolverOptions(max_iterations=1),
            )

    def test_factorization_breakdown_raises(self, machine4, monkeypatch):
        from scipy.linalg import LinAlgError

        def always_explode(matrix):
            raise LinAlgError("synthetic numerical blow-up")

        monkeypatch.setattr(solver_module, "_cholesky", always_explode)
        with pytest.raises(SolverError, match="breakdown"):
            solve_allocation(paper_example_mdg().normalized(), machine4)

    def test_infeasible_start_is_a_breakdown(self, machine4, monkeypatch):
        """A start that is not strictly feasible raises under strict and
        falls back under strict=False, like any other breakdown."""
        real_start = solver_module._start_point

        def tight_start(problem):
            z = real_start(problem)
            z[problem.layout.phi_index] = 0.0  # every sink row violated
            return z

        monkeypatch.setattr(solver_module, "_start_point", tight_start)
        mdg = paper_example_mdg().normalized()
        with pytest.raises(SolverError, match="not strictly feasible"):
            solve_allocation(mdg, machine4)
        allocation = solve_allocation(
            mdg, machine4, ConvexSolverOptions(strict=False)
        )
        assert allocation.info["fallback"] is True
        assert allocation.info["attempts"][0]["status"] == "breakdown"

    @pytest.mark.parametrize("stage", ["_StandardForm", "_start_point"])
    def test_setup_failure_falls_back(self, machine4, monkeypatch, stage):
        """Numbers that break the standard form or the start are a
        breakdown: strict=False still returns the analytic fallback."""

        def explode(*args, **kwargs):
            raise FloatingPointError("synthetic overflow")

        monkeypatch.setattr(solver_module, stage, explode)
        mdg = paper_example_mdg().normalized()
        allocation = solve_allocation(
            mdg, machine4, ConvexSolverOptions(strict=False)
        )
        record = allocation.info["attempts"][0]
        assert allocation.info["fallback"] is True
        assert record["status"] == "breakdown"
        assert "synthetic overflow" in record["message"]
        with pytest.raises(SolverError, match="synthetic overflow"):
            solve_allocation(mdg, machine4)

    def test_fallback_matches_exact_cost_model(self, machine4):
        """The fallback's phi is the exact max(A, C) of its own allocation."""
        from repro.allocation.formulation import ConvexAllocationProblem

        mdg = paper_example_mdg().normalized()
        allocation = solve_allocation(
            mdg, machine4, ConvexSolverOptions(strict=False, max_iterations=1)
        )
        problem = ConvexAllocationProblem(mdg, machine4)
        a, c = problem.evaluate_allocation(allocation.processors)
        assert allocation.phi == pytest.approx(max(a, c))

    def test_timeout_stops_the_solve(self, machine4, telemetry):
        """A microscopic budget stops the solve; strict=False still returns
        the analytic fallback instead of hanging or raising."""
        options = ConvexSolverOptions(timeout_seconds=1e-9, strict=False)
        allocation = solve_allocation(
            paper_example_mdg().normalized(), machine4, options
        )
        assert allocation.info["fallback"] is True
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["solver.timeouts"] == 1
        assert allocation.info["attempts"][0]["status"] == "timeout"

    def test_invalid_options_rejected(self):
        with pytest.raises(SolverError):
            ConvexSolverOptions(timeout_seconds=0.0)
        with pytest.raises(SolverError):
            ConvexSolverOptions(max_iterations=0)


class TestCLIFaults:
    def _write_spec(self, tmp_path, spec: FaultSpec) -> str:
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(spec.to_dict()))
        return str(path)

    def test_simulate_reports_recovery(self, tmp_path, capsys):
        spec = FaultSpec(
            seed=7, processor_failures=(ProcessorFailure(1, 1e-4),)
        )
        status = main(
            [
                "simulate",
                "--program",
                "complex",
                "--n",
                "16",
                "-p",
                "8",
                "--fidelity",
                "ideal",
                "--faults",
                self._write_spec(tmp_path, spec),
                "--fault-seed",
                "42",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "fault seed: 42" in out
        assert "HALTED" in out
        assert "repaired" in out

    def test_solver_flags_accepted(self, capsys):
        status = main(
            [
                "simulate",
                "--program",
                "complex",
                "--n",
                "16",
                "-p",
                "8",
                "--fidelity",
                "ideal",
                "--solver-timeout",
                "30",
            ]
        )
        assert status == 0
        assert "measured" in capsys.readouterr().out

    def test_fault_seed_without_faults_rejected(self):
        with pytest.raises(SystemExit, match="--fault-seed"):
            main(
                [
                    "simulate",
                    "--program",
                    "complex",
                    "--n",
                    "16",
                    "-p",
                    "8",
                    "--fault-seed",
                    "1",
                ]
            )

    def test_bad_spec_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        rc = main(
            [
                "simulate",
                "--program",
                "complex",
                "--n",
                "16",
                "-p",
                "8",
                "--faults",
                str(path),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not valid JSON" in err
