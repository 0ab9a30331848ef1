#!/usr/bin/env python3
"""Top-down vs bottom-up: the Section 1.3 debate, hands on.

The paper's method is *top-down*: start from whole loops, let a global
convex program split the machine. The classic alternative (Sarkar;
Gerasoulis & Yang) is *bottom-up*: cluster nodes along heavy edges until
the graph is small, then place clusters. This study runs both on
Strassen's MDG and shows the trade:

* the direct convex solve finds the better schedule;
* coarsen-then-solve is orders of magnitude cheaper and lands within
  tens of percent — useful as a preconditioner when MDGs get huge.

Run:  python examples/coarsening_study.py
"""

import time

from repro.allocation import solve_allocation
from repro.graph import coarsen_mdg, expand_allocation, parallelism_profile
from repro.machine.presets import cm5
from repro.programs import strassen_program
from repro.scheduling import prioritized_schedule
from repro.utils.tables import format_table


def main() -> None:
    machine = cm5(32)
    mdg = strassen_program(128).mdg.normalized()
    profile = parallelism_profile(mdg)
    print(f"Strassen(128): {profile.describe()}\n")

    # --- top-down: the paper's direct convex allocation ------------------
    start = time.perf_counter()
    direct = solve_allocation(mdg, machine)
    direct_seconds = time.perf_counter() - start
    t_direct = prioritized_schedule(mdg, direct.processors, machine).makespan

    # --- bottom-up: coarsen along heavy edges, solve small, expand -------
    rows = []
    for target in (16, 8, 4):
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
        seconds = time.perf_counter() - start
        makespan = prioritized_schedule(mdg, fine, machine).makespan
        rows.append(
            (
                f"coarsen to {coarsening.coarse.n_nodes}",
                f"{makespan:.4f}",
                f"{makespan / t_direct:.2f}x",
                f"{seconds:.2f}",
                f"{coarsening.internalized_bytes:.0f}",
            )
        )

    table_rows = [
        ("direct convex (paper)", f"{t_direct:.4f}", "1.00x",
         f"{direct_seconds:.2f}", "0"),
        *rows,
    ]
    print(format_table(
        ["method", "T_psa (s)", "vs direct", "solve time (s)",
         "internalized bytes"],
        table_rows,
        title="top-down vs bottom-up on a 32-node CM-5",
    ))
    print()
    print("the global convex view wins on schedule quality; clustering wins")
    print("on solve time — Section 1.3's trade-off, measured.")


if __name__ == "__main__":
    main()
