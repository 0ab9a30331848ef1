"""A5 — Ablation: the PSA priority rule vs HLFET and EFT.

All three list schedulers consume the *same* rounded, bounded allocation,
so differences isolate the priority rule. Expected shape: on these MDGs
the rules land within a few tens of percent of each other (list
scheduling is robust), and no rule beats the shared ``max(A_PB, C_PB)``
lower bound — Theorem 1's guarantee covers all of them equally.
"""

import pytest

from _helpers import emit
from repro.allocation.solver import solve_allocation
from repro.costs.node_weights import MDGCostModel
from repro.graph.generators import layered_random_mdg
from repro.machine.presets import cm5
from repro.programs import complex_matmul_program, fft2d_program, strassen_program
from repro.scheduling.psa import prioritized_schedule
from repro.scheduling.variants import eft_schedule, hlfet_schedule
from repro.utils.tables import format_table

SCHEDULERS = [
    ("PSA (paper)", prioritized_schedule),
    ("HLFET", hlfet_schedule),
    ("EFT", eft_schedule),
]

CASES = [
    ("complex_matmul", lambda: complex_matmul_program(64).mdg),
    ("strassen", lambda: strassen_program(128).mdg),
    ("fft2d", lambda: fft2d_program(64).mdg),
    ("layered_5x4", lambda: layered_random_mdg(5, 4, seed=99)),
]


def run_experiment():
    machine = cm5(32)
    results = {}
    for case, factory in CASES:
        mdg = factory().normalized()
        allocation = solve_allocation(mdg, machine)
        cm = MDGCostModel(mdg, machine.transfer_model())
        times = {}
        lower = None
        for name, scheduler in SCHEDULERS:
            schedule = scheduler(mdg, allocation.processors, machine)
            times[name] = schedule.makespan
            if lower is None:
                lower = cm.makespan_lower_bound(
                    schedule.info["allocation"], machine.processors
                )
        results[case] = (times, lower)
    return results


def test_scheduler_comparison(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1)
    rows = []
    for case, (times, lower) in results.items():
        rows.append(
            [case]
            + [f"{times[name]:.4f}" for name, _ in SCHEDULERS]
            + [f"{lower:.4f}"]
        )
    emit(
        "ablation_schedulers",
        format_table(
            ["workload"]
            + [f"{name} (s)" for name, _ in SCHEDULERS]
            + ["lower bound (s)"],
            rows,
            title="Ablation A5 — list-scheduler priority rules on the same "
            "allocation, 32-node CM-5",
        ),
    )
    for case, (times, lower) in results.items():
        for name, makespan in times.items():
            assert makespan >= lower * (1 - 1e-9), (case, name)
        assert max(times.values()) <= 1.5 * min(times.values()), (case, times)
