"""``repro.batch`` — high-throughput batch compilation.

Runs many pipeline jobs (compile -> allocate -> schedule -> optionally
simulate) through a process pool, with a structural solve cache (exact
convex-program reuse, re-certified through the KKT check). See
:class:`~repro.batch.compiler.BatchCompiler` for the executor and
:mod:`repro.batch.jobs` for the manifest format.
"""

from repro.batch.compiler import BatchCompiler, BatchReport
from repro.batch.jobs import (
    MANIFEST_SCHEMA_VERSION,
    BatchJob,
    JobResult,
    load_manifest,
    manifest_problems,
)
from repro.batch.structural import structural_key, structural_signature

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "BatchCompiler",
    "BatchJob",
    "BatchReport",
    "JobResult",
    "load_manifest",
    "manifest_problems",
    "structural_key",
    "structural_signature",
]
