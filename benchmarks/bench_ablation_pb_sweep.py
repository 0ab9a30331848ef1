"""A2 — Ablation: the processor bound PB and Corollary 1's choice.

Sweeps PB over every power of two on a 64-node machine, recording the
Theorem 3 *guarantee* and the *realized* T_psa for Strassen. The shape to
see: the analytic guarantee is minimized at Corollary 1's PB = 32, while
realized times are fairly flat near it — the bound is pessimistic but its
argmin is a sensible default.

The sweep routes through the batch compiler with a structural solve
cache: the seven jobs differ only in their PSA options, so the convex
program is solved once and every later job reuses the re-certified
allocation (a live demonstration of ``repro.batch`` cache semantics).
"""

import tempfile

import pytest

from _helpers import emit
from repro.allocation.rounding import optimal_processor_bound, theorem3_factor
from repro.batch import BatchCompiler, BatchJob
from repro.machine.presets import cm5
from repro.programs import strassen_program
from repro.scheduling.psa import PSAOptions
from repro.utils.intmath import powers_of_two_upto
from repro.utils.tables import format_table


def run_experiment():
    machine = cm5(64)
    mdg = strassen_program(128).mdg.normalized()
    bounds = powers_of_two_upto(64)
    with tempfile.TemporaryDirectory() as cache_dir:
        report = BatchCompiler(
            cache_dir=cache_dir,
        ).run(
            [
                BatchJob.from_mdg(
                    mdg,
                    job_id=f"pb{pb}",
                    machine_params=machine,
                    psa=PSAOptions(processor_bound=pb),
                )
                for pb in bounds
            ]
        )
    rows = []
    phi = None
    for pb, job in zip(bounds, report.results):
        assert job.ok, f"pb{pb}: {job.error}"
        phi = job.phi
        rows.append((pb, theorem3_factor(64, pb), job.predicted_makespan))
    return phi, rows, report


def test_pb_sweep(benchmark):
    phi, rows, report = benchmark.pedantic(run_experiment, rounds=1)
    corollary_pb = optimal_processor_bound(64)
    table_rows = [
        (
            pb,
            f"{factor:.1f}",
            f"{makespan:.4f}",
            f"{makespan / phi:.3f}",
            "<- Corollary 1" if pb == corollary_pb else "",
        )
        for pb, factor, makespan in rows
    ]
    emit(
        "ablation_pb_sweep",
        format_table(
            ["PB", "Theorem 3 factor", "T_psa (s)", "T_psa / Phi", ""],
            table_rows,
            title="Ablation A2 — processor bound sweep, Strassen(128) on "
            "64-node CM-5",
        ),
    )
    # The structural cache collapsed the sweep to a single convex solve.
    assert report.cache_count("miss") == 1
    assert report.cache_count("hit") == len(rows) - 1
    # Corollary 1 minimizes the analytic factor.
    factors = {pb: factor for pb, factor, _ in rows}
    assert factors[corollary_pb] == min(factors.values())
    # The realized time at the Corollary 1 bound is within 2x of the best
    # realized time over all bounds (the guarantee's argmin is reasonable).
    makespans = {pb: m for pb, _, m in rows}
    assert makespans[corollary_pb] <= 2.0 * min(makespans.values())
    # Tiny bounds serialize wide nodes and must hurt.
    assert makespans[1] > makespans[corollary_pb]
