"""A1 — Ablation: what the power-of-two rounding step really costs.

Theorem 2 bounds the rounding inflation of the average finish time by
(4/3)^2 and of the critical path by (3/2)^2. This bench measures the
*realized* inflation across the paper programs and random layered MDGs:
it is far smaller than the worst case (the paper's Table 3 message), and
never exceeds the theorem's factors.
"""

import pytest

from _helpers import emit
from repro.allocation.rounding import round_allocation
from repro.allocation.solver import solve_allocation
from repro.costs.node_weights import MDGCostModel
from repro.graph.generators import layered_random_mdg
from repro.machine.presets import cm5
from repro.programs import complex_matmul_program, strassen_program
from repro.utils.tables import format_table

CASES = [
    ("complex_matmul", lambda: complex_matmul_program(64).mdg),
    ("strassen", lambda: strassen_program(128).mdg),
    ("layered_3x3", lambda: layered_random_mdg(3, 3, seed=41)),
    ("layered_4x2", lambda: layered_random_mdg(4, 2, seed=42)),
]


def run_experiment():
    machine = cm5(32)
    rows = []
    for name, factory in CASES:
        mdg = factory().normalized()
        cm = MDGCostModel(mdg, machine.transfer_model())
        allocation = solve_allocation(mdg, machine)
        continuous = allocation.processors
        rounded = round_allocation(continuous)
        a_ratio = cm.average_finish_time(rounded, 32) / cm.average_finish_time(
            continuous, 32
        )
        c_ratio = cm.critical_path_time(rounded) / cm.critical_path_time(continuous)
        rows.append((name, a_ratio, c_ratio))
    return rows


def test_rounding_inflation(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1)
    emit(
        "ablation_rounding",
        format_table(
            ["MDG", "A_p rounded/continuous", "C_p rounded/continuous"],
            rows,
            title="Ablation A1 — realized rounding inflation "
            "(Theorem 2 worst case: 1.78x / 2.25x)",
            float_format="{:.4f}",
        ),
    )
    for name, a_ratio, c_ratio in rows:
        assert a_ratio <= (4 / 3) ** 2 + 1e-9, name
        assert c_ratio <= (3 / 2) ** 2 + 1e-9, name
        # In practice the loss is a few percent, not the worst case.
        assert a_ratio <= 1.35 and c_ratio <= 1.5, name
