"""A4 — Ablation: what neglecting data-transfer costs does.

The paper's stated difference from Prasanna & Agarwal [8] (and from
Belkhale & Banerjee [17, 18]) is that its allocation accounts for data
transfers. This bench quantifies that: allocate once with the true CM-5
transfer costs and once pretending communication is free, then schedule
*both* allocations under the true costs.

Expected shape: on the paper programs (compute-dominated at these sizes)
the two allocations realize within a few percent of each other either
way — rounding and list scheduling blur small allocation differences. On
communication-heavy workloads (transfer constants scaled 10x) ignoring
transfer costs realizes dramatically worse finish times: the blind
allocator picks wide groups whose start-up costs swamp the compute win.
"""

import pytest

from _helpers import emit
from repro.allocation.solver import solve_allocation
from repro.costs.transfer import TransferCostParameters
from repro.graph.generators import layered_random_mdg
from repro.machine.presets import cm5
from repro.programs import complex_matmul_program, fft2d_program, strassen_program
from repro.scheduling.psa import prioritized_schedule
from repro.utils.tables import format_table

CASES = [
    ("complex_matmul", lambda: complex_matmul_program(64).mdg, cm5(32)),
    ("strassen", lambda: strassen_program(128).mdg, cm5(32)),
    ("fft2d", lambda: fft2d_program(64).mdg, cm5(32)),
    # A communication-heavier machine exaggerates the effect.
    (
        "strassen @ 10x comm",
        lambda: strassen_program(128).mdg,
        cm5(32).with_transfer(cm5(32).transfer.scaled(10.0)),
    ),
    (
        "layered @ 10x comm",
        lambda: layered_random_mdg(4, 3, seed=5),
        cm5(32).with_transfer(cm5(32).transfer.scaled(10.0)),
    ),
]


def run_experiment():
    rows = []
    for name, factory, machine in CASES:
        mdg = factory().normalized()
        blind_machine = machine.with_transfer(TransferCostParameters.zero())

        aware = solve_allocation(mdg, machine)
        blind = solve_allocation(mdg, blind_machine)

        # Both scheduled under the TRUE cost model.
        t_aware = prioritized_schedule(
            mdg, aware.processors, machine
        ).makespan
        t_blind = prioritized_schedule(
            mdg, blind.processors, machine
        ).makespan
        rows.append((name, t_aware, t_blind, t_blind / t_aware))
    return rows


def test_transfer_cost_ablation(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1)
    emit(
        "ablation_transfer_costs",
        format_table(
            ["workload", "transfer-aware T_psa (s)",
             "transfer-blind T_psa (s)", "blind/aware"],
            [(n, f"{a:.4f}", f"{b:.4f}", f"{r:.3f}") for n, a, b, r in rows],
            title="Ablation A4 — allocating with vs without transfer costs "
            "(both realized under true costs)",
        ),
    )
    for name, t_aware, t_blind, ratio in rows:
        # Rounding + list scheduling sit between the continuous optimum
        # and the realized time, so the blind allocation can luck into a
        # few percent — but it must never win big.
        assert ratio >= 0.90, (name, ratio)
    # Where communication genuinely dominates, awareness wins outright
    # (the 10x-comm layered case realizes ~2x faster here).
    heavy = [r for n, _a, _b, r in rows if "10x" in n]
    assert max(heavy) > 1.3
