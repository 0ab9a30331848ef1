"""Self-test of the benchmark's output checks.

Runs small versions of the paper_mpmd and batch_sweep jobs, once clean
(every job must pass) and once with one deliberately wrong output per check
(the job must be counted as failed, by that check):

* a perturbed block in the value execution's result -> value check;
* a SendOp dropped from the generated MPMD program -> check_program;
* an altered Phi on a structural cache hit -> hit identity check.

Usage::

    python3 perfbench/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from repro.batch import BatchCompiler  # noqa: E402
from repro.codegen import SendOp, generate_mpmd_program  # noqa: E402
from repro.programs import complex_matmul_program  # noqa: E402
from repro.runtime import ValueExecutor  # noqa: E402
from tracing import Tracer  # noqa: E402


class SmallPaper(workloads.PaperMPMD):
    PROGRAMS = ((complex_matmul_program, 16),)
    PROCESSORS = 16


class SmallBatch(workloads.BatchSweep):
    PROGRAMS = ("jacobi", "fft2d")
    COLD_SIZE = 32
    NEIGHBOUR_SIZES = (16,)


class PerturbingExecutor(ValueExecutor):
    def run(self, *args, **kwargs):
        report = super().run(*args, **kwargs)
        array = report.node_results[sorted(report.node_results)[-1]]
        rank = min(array.blocks)
        array.blocks[rank] = array.blocks[rank] + 1.0
        return report


def generate_without_one_send(schedule, machine):
    program = generate_mpmd_program(schedule, machine)
    for stream in program.streams.values():
        for index, op in enumerate(stream):
            if isinstance(op, SendOp):
                del stream[index]
                return program
    raise RuntimeError("the program has no SendOp to drop")


class HitAlteringCompiler(BatchCompiler):
    def run(self, jobs):
        report = super().run(jobs)
        for result in report.results:
            if result.cache == "hit":
                result.phi = math.nextafter(result.phi, math.inf)
                break
        return report


@contextlib.contextmanager
def patched(name: str, replacement):
    original = getattr(workloads, name)
    setattr(workloads, name, replacement)
    try:
        yield
    finally:
        setattr(workloads, name, original)


def run_small(cls):
    workload = cls(1)
    workload.setup()
    return workload.run_pass(Tracer(False)).jobs


def main() -> int:
    cases = [
        ("clean paper job passes", SmallPaper, None, None, None),
        ("clean batch jobs pass", SmallBatch, None, None, None),
        ("perturbed value block fails the job", SmallPaper,
         "ValueExecutor", PerturbingExecutor, "value check"),
        ("dropped SendOp fails the job", SmallPaper,
         "generate_mpmd_program", generate_without_one_send, "check_program"),
        ("altered hit Phi fails the job", SmallBatch,
         "BatchCompiler", HitAlteringCompiler, "cache hit"),
    ]
    broken = 0
    for title, cls, name, replacement, expected in cases:
        with patched(name, replacement) if name else contextlib.nullcontext():
            jobs = run_small(cls)
        failed = [j for j in jobs if not j.ok]
        if expected is None:
            good = not failed and (cls is not SmallBatch
                                   or any(j.detail["cache"] == "hit" for j in jobs))
        else:
            good = len(failed) == 1 and any(expected in p for p in failed[0].problems)
        broken += not good
        print(f"{'ok  ' if good else 'FAIL'} {title}")
        for job in failed:
            for problem in job.problems:
                print(f"       {job.job_id}: {problem[:160]}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
