"""Structural solve cache, poisoning, and term memoization."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.allocation.formulation import ConvexAllocationProblem
from repro.batch import BatchCompiler, BatchJob, structural_key
from repro.graph.builders import MDGBuilder, amdahl
from repro.graph.generators import layered_random_mdg
from repro.machine.presets import cm5


def graph(seed=11, layers=3, width=2):
    return layered_random_mdg(layers, width, seed=seed).normalized()


def job_for(mdg, job_id, processors=8):
    return BatchJob.from_mdg(mdg, job_id=job_id, machine_params=cm5(processors))


# ----- structural identity --------------------------------------------------


def test_structural_key_is_deterministic(machine8):
    mdg = graph()
    k1 = structural_key(ConvexAllocationProblem(mdg, machine8))
    k2 = structural_key(ConvexAllocationProblem(mdg, machine8))
    assert k1 == k2


def _chain(names, taus):
    builder = MDGBuilder(f"chain-{names[0]}")
    previous = None
    for name, tau in zip(names, taus):
        builder.node(
            name, amdahl(0.1, tau), after=[previous] if previous else []
        )
        previous = name
    return builder.build(normalize=True)


def test_structural_key_ignores_node_names(machine8):
    """Isomorphic graphs with renamed nodes compile to the same arrays."""
    a = _chain(["n1", "n2", "n3"], [2.0, 1.0, 4.0])
    b = _chain(["x1", "x2", "x3"], [2.0, 1.0, 4.0])
    ka = structural_key(ConvexAllocationProblem(a, machine8))
    kb = structural_key(ConvexAllocationProblem(b, machine8))
    assert ka == kb


def test_structural_key_is_scale_invariant(machine8):
    """A global cost factor cancels in time_scale normalization."""
    a = _chain(["n1", "n2", "n3"], [2.0, 1.0, 4.0])
    b = _chain(["n1", "n2", "n3"], [20.0, 10.0, 40.0])
    ka = structural_key(ConvexAllocationProblem(a, machine8))
    kb = structural_key(ConvexAllocationProblem(b, machine8))
    assert ka == kb


def test_structural_key_distinguishes_costs_and_machines(machine8):
    mdg = graph()
    base = structural_key(ConvexAllocationProblem(mdg, machine8))
    other_machine = structural_key(ConvexAllocationProblem(mdg, cm5(8)))
    assert base != other_machine
    scaled = graph(seed=12)  # different random costs, same topology
    assert base != structural_key(ConvexAllocationProblem(scaled, machine8))


# ----- cache hits and telemetry ---------------------------------------------


def test_cache_hit_returns_identical_allocation(tmp_path):
    mdg = graph()
    jobs = [job_for(mdg, "cold"), job_for(mdg, "hot")]
    report = BatchCompiler(cache_dir=str(tmp_path)).run(jobs)
    cold, hot = report.results
    assert cold.cache == "miss" and hot.cache == "hit"
    assert hot.processors == cold.processors
    assert hot.phi == cold.phi
    assert hot.structural_key == cold.structural_key


def test_cache_disabled_reports_off():
    report = BatchCompiler(cache_dir=None).run([job_for(graph(), "j")])
    assert report.results[0].cache == "off"


def test_resume_false_writes_but_never_reads(tmp_path):
    mdg = graph()
    first = BatchCompiler(cache_dir=str(tmp_path), resume=False).run(
        [job_for(mdg, "a")]
    )
    assert first.results[0].cache == "miss"
    second = BatchCompiler(cache_dir=str(tmp_path), resume=False).run(
        [job_for(mdg, "b")]
    )
    assert second.results[0].cache == "miss"  # artifact exists, not read
    third = BatchCompiler(cache_dir=str(tmp_path), resume=True).run(
        [job_for(mdg, "c")]
    )
    assert third.results[0].cache == "hit"


def test_cache_telemetry_counters(tmp_path):
    mdg = graph()
    telemetry = obs.configure()
    try:
        BatchCompiler(cache_dir=str(tmp_path)).run(
            [job_for(mdg, "a"), job_for(mdg, "b")]
        )
    finally:
        obs.shutdown()
    counters = telemetry.metrics.snapshot()["counters"]
    assert counters["batch.cache.miss"] == 1
    assert counters["batch.cache.hit"] == 1
    assert counters["batch.jobs"] == 2
    events = [
        e for e in telemetry.collected_events() if e.get("type") == "event"
    ]
    names = [e["name"] for e in events]
    assert "batch.complete" in names
    assert names.count("batch.job") == 2


# ----- poisoning ------------------------------------------------------------


def _single_allocation_artifact(tmp_path):
    entries = list((tmp_path / "batch-allocation").glob("*.json"))
    assert len(entries) == 1
    return entries[0]


def test_corrupt_payload_is_quarantined_and_resolved(tmp_path):
    mdg = graph()
    compiler = BatchCompiler(cache_dir=str(tmp_path))
    baseline = compiler.run([job_for(mdg, "seed")]).results[0]

    # Flip bytes in the stored payload: the envelope checksum fails, the
    # store quarantines the entry, and the job re-solves from scratch.
    artifact = _single_allocation_artifact(tmp_path)
    artifact.write_text(artifact.read_text().replace("processors", "prXcessors"))

    report = compiler.run([job_for(mdg, "victim")])
    result = report.results[0]
    assert result.cache == "poisoned"
    assert result.ok
    assert result.processors == baseline.processors  # re-solve, same answer
    # The corrupt entry went to quarantine and the fresh solve was stored
    # back under the same structural key.
    assert list((tmp_path / "quarantine").glob("*")), "expected quarantine"
    assert "prXcessors" not in artifact.read_text()


def test_tampered_solution_fails_kkt_recertification(tmp_path):
    """A well-formed envelope whose solution is wrong must not be trusted."""
    from repro.store.artifact import read_artifact, write_artifact

    mdg = graph()
    compiler = BatchCompiler(cache_dir=str(tmp_path))
    baseline = compiler.run([job_for(mdg, "seed")]).results[0]

    path = _single_allocation_artifact(tmp_path)
    artifact = read_artifact(path)
    payload = dict(artifact.payload)
    # A syntactically valid but non-optimal solution (uniform 1s).
    payload["processors_by_index"] = [
        1.0 for _ in payload["processors_by_index"]
    ]
    import dataclasses

    write_artifact(path, dataclasses.replace(artifact, payload=payload))

    telemetry = obs.configure()
    try:
        report = compiler.run([job_for(mdg, "victim")])
    finally:
        obs.shutdown()
    result = report.results[0]
    assert result.cache == "poisoned"
    assert result.ok
    assert result.processors == baseline.processors
    counters = telemetry.metrics.snapshot()["counters"]
    assert counters["batch.cache.poisoned"] == 1


def test_wrong_length_payload_is_poisoned(tmp_path):
    from repro.store.artifact import read_artifact, write_artifact

    mdg = graph()
    compiler = BatchCompiler(cache_dir=str(tmp_path))
    compiler.run([job_for(mdg, "seed")])
    path = _single_allocation_artifact(tmp_path)
    artifact = read_artifact(path)
    payload = dict(artifact.payload)
    payload["processors_by_index"] = payload["processors_by_index"][:-1]
    import dataclasses

    write_artifact(path, dataclasses.replace(artifact, payload=payload))
    result = compiler.run([job_for(mdg, "victim")]).results[0]
    assert result.cache == "poisoned" and result.ok


def test_strict_store_raises_on_corruption(tmp_path):
    mdg = graph()
    compiler = BatchCompiler(cache_dir=str(tmp_path), strict=True)
    compiler.run([job_for(mdg, "seed")])
    artifact = _single_allocation_artifact(tmp_path)
    artifact.write_text("{not json")
    result = compiler.run([job_for(mdg, "victim")]).results[0]
    assert not result.ok
    assert result.error_type == "ArtifactCorruptError"


# ----- the benchmark sweep -------------------------------------------------


def test_cold_then_resumed_sweep_hits_are_bit_identical(tmp_path):
    """The benchmark's sweep: cold n = 64 jobs, then a resumed pass whose
    n = 64 jobs are structural hits and whose n = 32 / 16 jobs (same
    layouts, other costs) are cold solves."""
    from repro.allocation.solver import solve_allocation
    from repro.programs import PROGRAM_FACTORIES

    programs = ("complex", "fft2d", "jacobi", "reduction", "pipeline")

    def job(phase, program, n):
        return BatchJob(
            job_id=f"{phase}-{program}-{n}",
            source={"kind": "program", "name": program, "n": n},
            processors=16,
        )

    compiler = BatchCompiler(workers=2, cache_dir=str(tmp_path))
    cold = compiler.run([job("cold", p, 64) for p in programs])
    resumed = compiler.run(
        [job("resume", p, n) for n in (64, 32, 16) for p in programs]
    )
    assert all(r.ok for r in cold.results + resumed.results)
    cold_by_program = {r.job_id.split("-")[1]: r for r in cold.results}
    for r in resumed.results:
        _, program, n = r.job_id.split("-")
        if n == "64":
            assert r.cache == "hit"
            assert r.phi == cold_by_program[program].phi
            assert r.processors == cold_by_program[program].processors
        else:
            assert r.cache == "miss"
            reference = solve_allocation(
                PROGRAM_FACTORIES[program](int(n)).mdg, cm5(16)
            )
            assert r.phi == pytest.approx(reference.phi, rel=1e-9)


# ----- stacked-term memoization ---------------------------------------------


def test_term_weights_memoized_per_point(machine8):
    problem = ConvexAllocationProblem(graph(), machine8)
    calls = {"n": 0}
    original = ConvexAllocationProblem._compute_term_weights

    def counting(self, xlog):
        calls["n"] += 1
        return original(self, xlog)

    ConvexAllocationProblem._compute_term_weights = counting
    try:
        z = np.full(problem.n_vars, 0.3)
        v = np.ones(problem.n_nonlinear_constraints)
        problem.constraint_values(z)
        problem.constraint_jacobian(z)
        problem.constraint_hessian(z, v)
        assert calls["n"] == 1  # one exp shared by all three callbacks
        z2 = z.copy()
        z2[0] += 1e-9
        problem.constraint_values(z2)
        assert calls["n"] == 2  # a genuinely new point recomputes
        problem.constraint_values(z)
        assert calls["n"] == 3  # memo holds only the last-seen point
    finally:
        ConvexAllocationProblem._compute_term_weights = original


def test_memoized_values_match_fresh_problem(machine8):
    mdg = graph()
    p1 = ConvexAllocationProblem(mdg, machine8)
    p2 = ConvexAllocationProblem(mdg, machine8)
    z = np.full(p1.n_vars, 0.25)
    v = np.linspace(0.5, 1.5, p1.n_nonlinear_constraints)
    # Warm p1's memo at another point first, then compare everything.
    p1.constraint_values(np.zeros(p1.n_vars))
    np.testing.assert_array_equal(p1.constraint_values(z), p2.constraint_values(z))
    np.testing.assert_array_equal(
        p1.constraint_jacobian(z), p2.constraint_jacobian(z)
    )
    np.testing.assert_array_equal(
        p1.constraint_hessian(z, v), p2.constraint_hessian(z, v)
    )


def test_cached_constraint_objects_are_stable(machine8):
    problem = ConvexAllocationProblem(graph(), machine8)
    assert problem.linear_constraint() is problem.linear_constraint()
    assert problem.bounds() is problem.bounds()
    z = np.zeros(problem.n_vars)
    g = problem.objective_gradient(z)
    assert g is problem.objective_gradient(z)
    assert g[problem.layout.phi_index] == 1.0
