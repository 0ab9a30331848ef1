"""P2 — batch compilation throughput: workers and the structural cache.

A 32-job sweep of structurally distinct MDGs through
:class:`repro.batch.BatchCompiler`, measured three ways:

* **serial cold** — the inline executor, empty cache (the baseline);
* **parallel cold** — a 4-process pool, empty cache (wall-clock speedup
  from data parallelism across jobs);
* **serial cached** — the inline executor again, over the serial run's
  populated cache (every job is a structural hit re-certified through
  the KKT check — this is the >=10x "second pass" path).

The determinism contract is asserted, not assumed: all three runs must
produce bit-identical processor maps and objective values for every job.
The parallel-speedup assertion only applies on machines with >=4 cores
(CI containers often pin 1); the numbers are reported regardless.
"""

import os
import tempfile
import time

import pytest

from _helpers import emit, series_table
from repro.batch import BatchCompiler, BatchJob
from repro.graph.generators import layered_random_mdg
from repro.machine.presets import cm5

#: 4 topologies x 8 cost seeds = 32 structurally distinct jobs.
SHAPES = [(3, 3), (4, 3), (3, 4), (4, 4)]
SEEDS_PER_SHAPE = 8
PARALLEL_WORKERS = 4


def make_jobs():
    jobs = []
    for layers, width in SHAPES:
        for s in range(SEEDS_PER_SHAPE):
            seed = 1000 * layers + 100 * width + s
            mdg = layered_random_mdg(layers, width, seed=seed).normalized()
            jobs.append(
                BatchJob.from_mdg(
                    mdg,
                    job_id=f"L{layers}W{width}s{s}",
                    machine_params=cm5(16),
                )
            )
    return jobs


def _run(jobs, workers, cache_dir):
    start = time.perf_counter()
    report = BatchCompiler(workers=workers, cache_dir=cache_dir).run(jobs)
    wall = time.perf_counter() - start
    assert report.n_failed == 0, [r.error for r in report.results if not r.ok]
    return report, wall


def test_batch_throughput(benchmark):
    jobs = make_jobs()

    def experiment():
        with tempfile.TemporaryDirectory() as serial_cache, \
                tempfile.TemporaryDirectory() as parallel_cache:
            serial, t_serial = _run(jobs, 0, serial_cache)
            parallel, t_parallel = _run(
                jobs, PARALLEL_WORKERS, parallel_cache
            )
            cached, t_cached = _run(jobs, 0, serial_cache)
        return (serial, t_serial), (parallel, t_parallel), (cached, t_cached)

    (serial, t_serial), (parallel, t_parallel), (cached, t_cached) = (
        benchmark.pedantic(experiment, rounds=1)
    )

    # Bit-identical results across executors and the cached re-run.
    for a, b in zip(serial.results, parallel.results):
        assert a.job_id == b.job_id
        assert a.processors == b.processors, a.job_id
        assert a.phi == b.phi and a.predicted_makespan == b.predicted_makespan
    for a, c in zip(serial.results, cached.results):
        assert a.processors == c.processors and a.phi == c.phi, a.job_id

    assert cached.cache_count("hit") == len(jobs)
    cache_speedup = t_serial / t_cached
    parallel_speedup = t_serial / t_parallel

    emit(
        "batch_throughput",
        series_table(
            f"P2 — batch throughput, {len(jobs)} jobs "
            f"(cpu_count={os.cpu_count()})",
            {
                "configuration": [
                    "serial cold",
                    f"parallel cold ({PARALLEL_WORKERS} workers)",
                    "serial cached (2nd pass)",
                ],
                "wall (s)": [
                    f"{t_serial:.2f}",
                    f"{t_parallel:.2f}",
                    f"{t_cached:.2f}",
                ],
                "jobs/s": [
                    f"{serial.jobs_per_second:.2f}",
                    f"{parallel.jobs_per_second:.2f}",
                    f"{cached.jobs_per_second:.2f}",
                ],
                "p95 latency (s)": [
                    f"{serial.latency_p95:.3f}",
                    f"{parallel.latency_p95:.3f}",
                    f"{cached.latency_p95:.3f}",
                ],
                "speedup vs serial": [
                    "1.00",
                    f"{parallel_speedup:.2f}",
                    f"{cache_speedup:.2f}",
                ],
            },
        ),
    )
    benchmark.extra_info["cache_speedup"] = cache_speedup
    benchmark.extra_info["parallel_speedup"] = parallel_speedup

    assert cache_speedup >= 10.0, (
        f"structural cache pass only {cache_speedup:.1f}x faster"
    )
    if (os.cpu_count() or 1) >= 4:
        assert parallel_speedup >= 2.5, (
            f"4-worker pool only {parallel_speedup:.1f}x faster on "
            f"{os.cpu_count()} cores"
        )
