"""Atomic, expiring lease records: crash-tolerant job ownership.

A *lease* is a small artifact (kind ``batch-lease``) in the batch
coordination directory that records which worker currently owns a job.
The lifecycle:

``claim``
    Write the record to a temp file (fsync'd), then ``os.link`` it to the
    final path. ``link`` fails with ``FileExistsError`` when the job is
    already owned — creation is the atomic claim, so two workers can
    never both claim a free job.
``heartbeat``
    The owner periodically rewrites the record with a pushed-out
    ``expires_at`` (atomic rename-over) while the job runs, also
    recording the pipeline stage currently executing — crash triage reads
    the stage straight from the lease.
``expiry → reclaim``
    A worker that dies stops heartbeating; once ``expires_at`` passes,
    any other worker may *reclaim* the lease: it hard-links its record to
    a marker keyed by the job, the new attempt and the stale record's
    nonce, and only the worker whose link succeeds renames its record
    over the stale one. The ``attempt`` counter survives reclaims, which
    is what lets the chaos harness inject a fault on attempt 1 exactly
    once.
``release``
    On completion the record is rewritten as ``state: "released"`` rather
    than deleted: the tombstone preserves the attempt counter (a later
    re-run after result corruption must look like attempt N+1, not a
    fresh attempt 1) and tells operators the exit was clean.

Exactly-once *completion* comes from pairing leases with idempotent
result artifacts: execution is at-least-once under crashes (a worker
SIGKILL'd after computing but before releasing leaves work that must be
redone), but results are bit-deterministic and written atomically, so
re-execution converges on the identical artifact. The one razor-thin
race — an owner's heartbeat landing just after a reclaimer's verify on an
already-expired lease — yields double *execution*, never double or
divergent *results*, and the property test in
``tests/test_resilience_lease.py`` pins the invariants down.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import re
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro import obs
from repro.errors import ArtifactError
from repro.store.artifact import Artifact, canonical_json, read_artifact
from repro.utils.validation import check_positive

__all__ = ["LEASE_KIND", "LEASE_SCHEMA_VERSION", "LeaseRecord", "LeaseManager",
           "lease_key"]

LEASE_KIND = "batch-lease"
LEASE_SCHEMA_VERSION = 1

ACTIVE = "active"
RELEASED = "released"

_SAFE_KEY = re.compile(r"[A-Za-z0-9_-]{1,80}")
_NONCE = itertools.count()


def lease_key(job_id: str) -> str:
    """A filesystem-safe store key for ``job_id`` (stable across hosts)."""
    if _SAFE_KEY.fullmatch(job_id):
        return job_id
    return hashlib.sha256(job_id.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LeaseRecord:
    """One lease as stored on disk (payload of a ``batch-lease`` artifact)."""

    job_id: str
    owner: str
    state: str
    attempt: int
    claimed_at: float
    expires_at: float
    ttl: float
    heartbeats: int = 0
    stage: str = ""
    nonce: str = ""

    def expired(self, now: float) -> bool:
        return self.state == ACTIVE and now >= self.expires_at

    def to_payload(self) -> dict:
        return {
            "job_id": self.job_id,
            "owner": self.owner,
            "state": self.state,
            "attempt": self.attempt,
            "claimed_at": self.claimed_at,
            "expires_at": self.expires_at,
            "ttl": self.ttl,
            "heartbeats": self.heartbeats,
            "stage": self.stage,
            "nonce": self.nonce,
        }

    @staticmethod
    def from_payload(payload: dict) -> "LeaseRecord":
        return LeaseRecord(
            job_id=str(payload["job_id"]),
            owner=str(payload["owner"]),
            state=str(payload["state"]),
            attempt=int(payload["attempt"]),
            claimed_at=float(payload["claimed_at"]),
            expires_at=float(payload["expires_at"]),
            ttl=float(payload["ttl"]),
            heartbeats=int(payload.get("heartbeats", 0)),
            stage=str(payload.get("stage", "")),
            nonce=str(payload.get("nonce", "")),
        )


class LeaseManager:
    """Claim/heartbeat/release leases under one coordination directory.

    ``clock`` must be a wall clock shared by all workers (the default,
    ``time.time``); tests inject a virtual clock to explore expiry
    interleavings deterministically.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        owner: str,
        ttl: float,
        clock: Callable[[], float] = time.time,
    ):
        self.root = Path(root)
        self.owner = str(owner)
        self.ttl = check_positive("lease ttl", ttl)
        self._clock = clock
        self._dir = self.root / LEASE_KIND
        self._dir.mkdir(parents=True, exist_ok=True)

    # ----- paths & serialization -------------------------------------------

    def path_for(self, job_id: str) -> Path:
        return self._dir / f"{lease_key(job_id)}.json"

    def _record(self, job_id: str, attempt: int, *, ttl: float | None = None) -> LeaseRecord:
        now = self._clock()
        ttl = self.ttl if ttl is None else ttl
        return LeaseRecord(
            job_id=job_id,
            owner=self.owner,
            state=ACTIVE,
            attempt=attempt,
            claimed_at=now,
            expires_at=now + ttl,
            ttl=ttl,
            heartbeats=0,
            stage="claimed",
            nonce=f"{os.getpid()}-{next(_NONCE)}",
        )

    def _envelope_text(self, record: LeaseRecord) -> str:
        artifact = Artifact(
            kind=LEASE_KIND,
            schema_version=LEASE_SCHEMA_VERSION,
            key=lease_key(record.job_id),
            payload=record.to_payload(),
            meta={"job_id": record.job_id},
        )
        return canonical_json(artifact.to_envelope()) + "\n"

    def _write_tmp(self, record: LeaseRecord) -> str:
        fd, tmp_name = tempfile.mkstemp(
            prefix=".lease.", suffix=".tmp", dir=self._dir
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(self._envelope_text(record))
            handle.flush()
            os.fsync(handle.fileno())
        return tmp_name

    def read(self, job_id: str) -> LeaseRecord | None:
        """The current lease record, or ``None`` (absent or unreadable)."""
        path = self.path_for(job_id)
        try:
            artifact = read_artifact(
                path, expect_kind=LEASE_KIND, expect_version=LEASE_SCHEMA_VERSION
            )
            return LeaseRecord.from_payload(artifact.payload)
        except (ArtifactError, KeyError, TypeError, ValueError):
            return None

    # ----- lifecycle -------------------------------------------------------

    def claim(self, job_id: str, *, ttl: float | None = None) -> LeaseRecord | None:
        """Try to take ownership of ``job_id``; ``None`` on conflict.

        Fresh jobs are claimed with an atomic hard link (create-if-absent);
        expired or released leases are *reclaimed* by one too, to a marker
        unique to the stale record, before renaming over it. The returned
        record's ``attempt`` counts prior ownerships plus one.
        """
        path = self.path_for(job_id)
        existing = self.read(job_id)
        if existing is None and path.exists():
            # Unreadable record (torn write from a crashed claimer): it
            # cannot be trusted, so drop it and fall through to a fresh
            # claim. The unlink itself may race; link below re-arbitrates.
            with contextlib.suppress(OSError):
                path.unlink()
            existing = None

        if existing is None:
            record = self._record(job_id, attempt=1, ttl=ttl)
            tmp = self._write_tmp(record)
            try:
                os.link(tmp, path)
            except FileExistsError:
                self._bump("conflict", job_id)
                return None
            finally:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            self._bump("claimed", job_id, attempt=1)
            return record

        now = self._clock()
        if existing.state == ACTIVE and not existing.expired(now):
            if existing.owner == self.owner:
                return existing  # already ours
            self._bump("conflict", job_id)
            return None

        # Released tombstone or expired lease: reclaim with attempt + 1.
        # Of all workers that read this stale record, one links the marker.
        record = self._record(job_id, attempt=existing.attempt + 1, ttl=ttl)
        marker = path.with_name(
            f"{path.stem}.{record.attempt}.{lease_key(existing.nonce)}.reclaim"
        )
        tmp = self._write_tmp(record)
        try:
            os.link(tmp, marker)  # FileExistsError: another reclaim won
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            if isinstance(exc, FileExistsError):
                self._bump("conflict", job_id)
            return None
        current = self.read(job_id)
        if current is None or current.nonce != record.nonce:
            self._bump("conflict", job_id)
            return None  # lost a concurrent reclaim race
        reason = "expired" if existing.state == ACTIVE else "retry"
        self._bump("reclaimed", job_id, attempt=record.attempt, reason=reason,
                   previous_owner=existing.owner)
        return record

    def heartbeat(self, job_id: str, *, stage: str = "") -> bool:
        """Extend the lease; ``False`` means ownership was lost.

        A lease that already expired is *not* renewed — the job may have
        been reclaimed, and pretending otherwise would widen the
        double-execution window. The caller should finish its (idempotent)
        work but expect a re-run to exist.
        """
        current = self.read(job_id)
        now = self._clock()
        if (
            current is None
            or current.owner != self.owner
            or current.state != ACTIVE
            or current.expired(now)
        ):
            self._bump("lost", job_id)
            return False
        renewed = replace(
            current,
            expires_at=now + current.ttl,
            heartbeats=current.heartbeats + 1,
            stage=stage or current.stage,
        )
        tmp = self._write_tmp(renewed)
        try:
            os.replace(tmp, self.path_for(job_id))
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            return False
        obs.counter("resilience.lease.heartbeat").inc()
        return True

    def release(self, job_id: str) -> bool:
        """Mark the lease released (tombstone); ``False`` if not ours."""
        current = self.read(job_id)
        if current is None or current.owner != self.owner or current.state != ACTIVE:
            self._bump("lost", job_id)
            return False
        tombstone = replace(current, state=RELEASED)
        tmp = self._write_tmp(tombstone)
        try:
            os.replace(tmp, self.path_for(job_id))
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            return False
        self._bump("released", job_id, attempt=current.attempt)
        return True

    # ----- introspection ---------------------------------------------------

    def leases(self) -> list[LeaseRecord]:
        """Every readable lease record under this root, sorted by job id."""
        records = []
        for path in sorted(self._dir.glob("*.json")):
            try:
                artifact = read_artifact(
                    path, expect_kind=LEASE_KIND,
                    expect_version=LEASE_SCHEMA_VERSION,
                )
                records.append(LeaseRecord.from_payload(artifact.payload))
            except (ArtifactError, KeyError, TypeError, ValueError):
                continue
        return sorted(records, key=lambda r: r.job_id)

    def _bump(self, what: str, job_id: str, **detail) -> None:
        obs.counter(f"resilience.lease.{what}").inc()
        obs.event(
            f"resilience.lease.{what}",
            job=job_id,
            owner=self.owner,
            **detail,
        )

    def __repr__(self) -> str:
        return (
            f"LeaseManager({str(self.root)!r}, owner={self.owner!r}, "
            f"ttl={self.ttl})"
        )
