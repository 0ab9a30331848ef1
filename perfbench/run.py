"""Benchmark of the compiler: end-to-end metrics, or per-layer ones when traced.

Usage::

    python3 perfbench/run.py --workload paper_mpmd --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

A run sets the workload up several times (reporting the median), then runs
whole passes over the workload's jobs until ``--seconds`` is used up (at
least one pass). ``--trace 0`` reports the end-to-end metrics. ``--trace 1``
alternates untraced and traced passes (at least one of each) and reports
the per-layer metrics from the traced ones. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans, per-job records and the machine fingerprint are written
to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, self_time_by_name, write_spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
#: Set-ups timed per run: this process's own, then fresh interpreters.
SETUP_REPEATS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s_max", "s"),
    ("phi_gmean_s", "sim_s"),
    ("makespan_gmean_s", "sim_s"),
    ("mpmd_speedup_gmean", "ratio"),
    ("peak_rss_mb", "MB"),
]

#: Per-layer metrics: ``<layer>.<thing>_s`` with a span of that layer name
#: are summed span self times; the rest are counts and ratios.
PER_LAYER = [
    ("graph.normalize_s", "s"),
    ("allocation.solve_s", "s"),
    ("allocation.iterations", "count"),
    ("allocation.attempts", "count"),
    ("allocation.maxiter_frac", "ratio"),
    ("allocation.cpu_per_wall", "ratio"),
    ("allocation.certify_s", "s"),
    ("allocation.kkt_residual_max", "ratio"),
    ("allocation.uniform_s", "s"),
    ("scheduling.psa_s", "s"),
    ("scheduling.spmd_s", "s"),
    ("scheduling.nodes", "count"),
    ("codegen.mpmd_s", "s"),
    ("codegen.spmd_s", "s"),
    ("codegen.instructions", "count"),
    ("codegen.spmd_instructions", "count"),
    ("check.program_s", "s"),
    ("check.instructions_per_s", "1/s"),
    ("check.error_findings", "count"),
    ("check.over_sim", "ratio"),
    ("sim.mpmd_s", "s"),
    ("sim.faulted_s", "s"),
    ("sim.instructions_per_s", "1/s"),
    ("sim.spmd_s", "s"),
    ("sim.fidelity_s", "s"),
    ("faults.repair_s", "s"),
    ("faults.rescheduled_nodes", "count"),
    ("runtime.execute_s", "s"),
    ("runtime.verify_s", "s"),
    ("runtime.wire_bytes", "B"),
    ("batch.cold_s", "s"),
    ("batch.resume_s", "s"),
    ("batch.dispatch_s", "s"),
    ("batch.cpu_per_wall", "ratio"),
    ("batch.hit_s_p50", "s"),
    ("batch.warm_s_p50", "s"),
    ("batch.miss_s_p50", "s"),
    ("batch.hits", "count"),
    ("batch.warm_starts", "count"),
    ("batch.misses", "count"),
    ("batch.poisoned", "count"),
    ("store.artifacts", "count"),
    ("store.bytes", "B"),
    ("trace.overhead_frac", "ratio"),
]


def gmean(values) -> float:
    values = [v for v in values if v is not None]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0.0 else 0.0


def layer_metrics(pass_result, spans, missing: float) -> dict[str, float]:
    """One traced pass's per-layer metrics (before the run-level overhead)."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    for span_name, own in self_time_by_name(spans).items():
        if f"{span_name}_s" in values:
            values[f"{span_name}_s"] = own
    solves = [s for s in spans if s.name == "allocation.solve"]
    solve_cpu = sum(s.cpu for s in solves)
    solve_wall = sum(s.end - s.start for s in solves)
    layers = dict(pass_result.layers)
    attempts = layers.get("allocation.attempts", 0.0)
    maxiter = layers.pop("allocation.maxiter_attempts", missing if attempts else 0.0)
    values.update(layers)
    values["allocation.maxiter_frac"] = (
        missing if missing in (attempts, maxiter) else ratio(maxiter, attempts)
    )
    values["allocation.cpu_per_wall"] = ratio(solve_cpu, solve_wall)
    instructions = values["codegen.instructions"]
    values["check.instructions_per_s"] = ratio(instructions, values["check.program_s"])
    values["sim.instructions_per_s"] = ratio(instructions, values["sim.mpmd_s"])
    values["check.over_sim"] = ratio(values["check.program_s"], values["sim.mpmd_s"])
    return values


def peak_rss_mb(workload_name: str) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload_name == "batch_sweep":
        # The largest worker process of the pool, on top of the parent.
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def setup_in_fresh_process(name: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import the program and set up."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool, import_s: float):
    """Set up, measure and check one workload.

    Returns the result line, the run record and the spans of every pass.
    """
    from repro import obs
    from workloads import MISSING, WORKLOADS

    workload = WORKLOADS[name](seed)
    t0 = time.perf_counter()
    workload.setup()
    setup_times = [import_s + time.perf_counter() - t0]

    if obs.enabled():
        raise SystemExit("repro.obs telemetry must stay disabled while measuring")
    passes, traced_flags, spans = [], [], []
    start = time.perf_counter()
    while True:
        trace_this = traced and len(passes) % 2 == 1
        tracer = Tracer(trace_this)
        passes.append(workload.run_pass(tracer))
        traced_flags.append(trace_this)
        spans.append(tracer.spans)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if traced else 1)
        if enough and elapsed + elapsed / len(passes) > seconds:
            break
    if obs.enabled():
        raise SystemExit("repro.obs telemetry was enabled during the run")
    peak_rss = peak_rss_mb(name)  # before the set-up probes below start children
    if not traced:
        setup_times += [setup_in_fresh_process(name, seed) for _ in range(SETUP_REPEATS - 1)]
    workload.finalize(passes)

    jobs = [j for p in passes for j in p.jobs]
    failed = sum(1 for j in jobs if not j.ok)
    if traced:
        per_pass = [layer_metrics(p, s, MISSING)
                    for p, s, t in zip(passes, spans, traced_flags) if t]
        values = {key: statistics.median(m[key] for m in per_pass) for key, _ in PER_LAYER}
        values["trace.overhead_frac"] = ratio(
            statistics.median(p.wall for p, t in zip(passes, traced_flags) if t),
            statistics.median(p.wall for p, t in zip(passes, traced_flags) if not t),
        ) - 1.0
        units = dict(PER_LAYER)
        totals: dict[str, float] = {}
        for pass_spans, t in zip(spans, traced_flags):
            for span_name, own in self_time_by_name(pass_spans if t else []).items():
                if span_name != "job":
                    totals[span_name] = totals.get(span_name, 0.0) + own
        layer_share = {k: v / sum(totals.values())
                       for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}
    else:
        layer_share = {}
        values = {
            "setup_s": statistics.median(setup_times),
            "jobs_per_s": statistics.median(
                sum(1 for j in p.jobs if j.ok) / p.wall for p in passes
            ),
            "job_s_max": statistics.median(max(j.latency for j in p.jobs) for p in passes),
            "phi_gmean_s": gmean(j.phi for j in jobs),
            "makespan_gmean_s": gmean(j.makespan for j in jobs),
            "mpmd_speedup_gmean": gmean(
                j.spmd_makespan / j.makespan for j in jobs
                if j.spmd_makespan is not None and j.makespan
            ),
            "peak_rss_mb": peak_rss,
        }
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "passes": [{"wall": p.wall, "traced": t} for p, t in zip(passes, traced_flags)],
        "setup_times": setup_times,
        "job_s_p50": statistics.median(j.latency for j in jobs),
        "layer_share": layer_share,
        "import_s": import_s,
        "jobs": [
            {"pass": i, "job": j.job_id, "latency": j.latency, "ok": j.ok,
             "problems": j.problems, "phi": j.phi, "makespan": j.makespan,
             "spmd_makespan": j.spmd_makespan, **j.detail}
            for i, p in enumerate(passes) for j in p.jobs
        ],
        "result": result,
    }
    return result, record, spans


def print_human(name: str, result: dict, record: dict) -> None:
    jobs = record["jobs"]
    print(f"== {name}: {len(record['passes'])} pass(es), {len(jobs)} job samples, "
          f"{result['failed']} failed (fail_frac {result['failed'] / len(jobs):.3g}), "
          f"job_s_p50 {record['job_s_p50']:.6g} s")
    for job in jobs:
        for problem in job["problems"]:
            print(f"   FAILED {job['job']} (pass {job['pass']}): {problem}")
    for key, metric in result["metrics"].items():
        print(f"   {key:<30} {metric['value']:>16.6g} {metric['unit']}")
    if record["layer_share"]:
        print("   share of summed layer self time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in record["layer_share"].items() if v >= 0.001))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="paper_mpmd, layered_downstream, batch_sweep or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up one workload, print the seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Pool workers of batch_sweep import the program too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    t0 = time.perf_counter()
    import workloads  # times the import of numpy, scipy and repro
    import_s = time.perf_counter() - t0

    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        workload = workloads.WORKLOADS[names[0]](args.seed)
        t0 = time.perf_counter()
        workload.setup()
        print(import_s + time.perf_counter() - t0)
        return 0

    from fingerprint import fingerprint

    machine = fingerprint()
    print("fingerprint: " + json.dumps(machine, sort_keys=True))
    results = {}
    for name in names:
        result, record, spans = run_workload(
            name, args.seed, args.seconds, bool(args.trace), import_s
        )
        print_human(name, result, record)
        write_spans(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", spans,
                    {**record, "fingerprint": machine})
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
