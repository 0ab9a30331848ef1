"""A7 — Ablation: top-down convex allocation vs bottom-up coarsening.

Section 1.3 argues top-down methods "take a more global view" than
bottom-up clustering. This bench makes that concrete two ways:

1. **Quality**: allocate the full MDG with the convex program vs
   coarsen-first (cluster to ~8 supernodes, solve the small convex
   problem, expand); schedule both with the PSA under the true model.
2. **Cost**: the coarse solve is much cheaper — so coarsening is also a
   legitimate preconditioner when the full solve is too slow, with a
   measurable quality tax.
"""

import time

import pytest

from _helpers import emit
from repro.allocation.solver import solve_allocation
from repro.graph.coarsen import coarsen_mdg, expand_allocation
from repro.graph.generators import layered_random_mdg
from repro.machine.presets import cm5
from repro.programs import strassen_program
from repro.scheduling.psa import prioritized_schedule
from repro.utils.tables import format_table

CASES = [
    ("strassen", lambda: strassen_program(128).mdg, 8),
    ("layered_5x4", lambda: layered_random_mdg(5, 4, seed=31), 8),
    ("layered_6x5", lambda: layered_random_mdg(6, 5, seed=32), 10),
]


def run_experiment():
    machine = cm5(32)
    rows = []
    for name, factory, target in CASES:
        mdg = factory().normalized()

        start = time.perf_counter()
        direct = solve_allocation(mdg, machine)
        direct_seconds = time.perf_counter() - start
        t_direct = prioritized_schedule(mdg, direct.processors, machine).makespan

        start = time.perf_counter()
        coarsening = coarsen_mdg(mdg, target)
        coarse_alloc = solve_allocation(coarsening.coarse.normalized(), machine)
        fine = expand_allocation(
            coarsening,
            {
                k: v
                for k, v in coarse_alloc.processors.items()
                if k in coarsening.coarse
            },
        )
        coarse_seconds = time.perf_counter() - start
        t_coarse = prioritized_schedule(mdg, fine, machine).makespan

        rows.append(
            (
                name,
                mdg.n_nodes,
                coarsening.coarse.n_nodes,
                t_direct,
                t_coarse,
                t_coarse / t_direct,
                direct_seconds,
                coarse_seconds,
            )
        )
    return rows


def test_coarsening_ablation(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1)
    emit(
        "ablation_coarsening",
        format_table(
            [
                "workload",
                "nodes",
                "coarse",
                "direct T_psa (s)",
                "coarse T_psa (s)",
                "quality tax",
                "direct solve (s)",
                "coarse solve (s)",
            ],
            [
                (
                    n,
                    full,
                    small,
                    f"{td:.4f}",
                    f"{tc:.4f}",
                    f"{tax:.3f}",
                    f"{sd:.2f}",
                    f"{sc:.2f}",
                )
                for n, full, small, td, tc, tax, sd, sc in rows
            ],
            title="Ablation A7 — direct convex vs coarsen-then-solve "
            "(32-node CM-5)",
        ),
    )
    for name, _full, _small, _td, _tc, tax, direct_s, coarse_s in rows:
        # The global view never loses... much: coarsening pays at most 2x.
        assert 0.95 <= tax <= 2.0, (name, tax)
    # And the coarse path is cheaper to solve on the biggest case.
    biggest = rows[-1]
    assert biggest[7] < biggest[6]
