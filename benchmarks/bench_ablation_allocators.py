"""A3 — Ablation: the convex allocator vs every baseline.

For each workload, compare realized PSA makespans under: the convex
program (this paper), the greedy critical-path heuristic (the authors'
earlier work [6]), uniform width-based splitting, SPMD (all processors),
and serial (one processor per node). The convex allocation must win or
tie everywhere — that is the paper's core claim of moving from heuristics
to exact methods.
"""

import pytest

from _helpers import emit
from repro.allocation.baselines import (
    greedy_critical_path_allocation,
    serial_allocation,
    spmd_allocation,
    uniform_allocation,
)
from repro.batch import BatchCompiler, BatchJob
from repro.graph.generators import layered_random_mdg
from repro.machine.presets import cm5
from repro.programs import complex_matmul_program, fft2d_program, strassen_program
from repro.scheduling.psa import prioritized_schedule
from repro.utils.tables import format_table

CASES = [
    ("complex_matmul", lambda: complex_matmul_program(64).mdg),
    ("strassen", lambda: strassen_program(128).mdg),
    ("fft2d", lambda: fft2d_program(64).mdg),
    ("layered_4x3", lambda: layered_random_mdg(4, 3, seed=77)),
]

BASELINES = [
    ("greedy CP [6]", greedy_critical_path_allocation),
    ("uniform", uniform_allocation),
    ("SPMD", spmd_allocation),
    ("serial", serial_allocation),
]
ALLOCATOR_NAMES = ["convex (paper)"] + [name for name, _ in BASELINES]


def run_experiment():
    machine = cm5(32)
    cases = [(name, factory().normalized()) for name, factory in CASES]
    # The convex rows all go through the batch compiler — one submission,
    # per-case error isolation, and (when a cache_dir is configured by a
    # caller) structural solve reuse for free.
    report = BatchCompiler().run(
        [
            BatchJob.from_mdg(mdg, job_id=name, machine_params=machine)
            for name, mdg in cases
        ]
    )
    results = {}
    for (case_name, mdg), job in zip(cases, report.results):
        assert job.ok, f"{case_name}: {job.error}"
        times = {"convex (paper)": job.predicted_makespan}
        for alloc_name, allocator in BASELINES:
            allocation = allocator(mdg, machine)
            schedule = prioritized_schedule(mdg, allocation.processors, machine)
            times[alloc_name] = schedule.makespan
        results[case_name] = times
    return results


def test_allocator_comparison(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1)
    alloc_names = ALLOCATOR_NAMES
    rows = [
        [case] + [f"{results[case][a]:.4f}" for a in alloc_names]
        for case in results
    ]
    emit(
        "ablation_allocators",
        format_table(
            ["workload"] + [f"{a} (s)" for a in alloc_names],
            rows,
            title="Ablation A3 — realized T_psa per allocator, 32-node CM-5",
        ),
    )
    for case, times in results.items():
        best = min(times.values())
        assert times["convex (paper)"] <= best * 1.02, (
            f"convex allocation lost on {case}: {times}"
        )
