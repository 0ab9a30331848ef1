"""Lease records: atomic claims, heartbeats, expiry, reclaim.

The unit tests drive a shared virtual clock through every lifecycle
transition; the hypothesis property test then lets hypothesis pick
arbitrary interleavings of claim/heartbeat/expiry/reclaim across
competing workers and checks the invariant the whole resilient engine
rests on: every job is *completed* exactly once, no matter who dies
when.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.resilience import LeaseManager, lease_key
from repro.resilience.lease import ACTIVE, RELEASED


class SharedClock:
    """One mutable wall clock injected into every competing manager."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def manager(root, owner, clock, ttl=10.0):
    return LeaseManager(root, owner=owner, ttl=ttl, clock=clock)


class TestLeaseKey:
    def test_safe_ids_pass_through(self):
        assert lease_key("job-12_a") == "job-12_a"

    def test_unsafe_ids_hash(self):
        key = lease_key("../../etc/passwd")
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

    def test_long_ids_hash(self):
        assert len(lease_key("x" * 81)) == 64

    def test_distinct_ids_distinct_keys(self):
        assert lease_key("a b") != lease_key("a c")


class TestLeaseLifecycle:
    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValidationError):
            LeaseManager(tmp_path, owner="w", ttl=0.0)

    def test_claim_fresh(self, tmp_path):
        clock = SharedClock()
        w = manager(tmp_path, "w1", clock)
        record = w.claim("job-a")
        assert record is not None
        assert record.attempt == 1
        assert record.owner == "w1"
        assert record.state == ACTIVE
        assert record.expires_at == record.claimed_at + 10.0
        assert w.path_for("job-a").exists()

    def test_claim_conflict_returns_none(self, tmp_path):
        clock = SharedClock()
        w1 = manager(tmp_path, "w1", clock)
        w2 = manager(tmp_path, "w2", clock)
        assert w1.claim("job-a") is not None
        assert w2.claim("job-a") is None

    def test_reclaim_own_active_lease_is_idempotent(self, tmp_path):
        clock = SharedClock()
        w = manager(tmp_path, "w1", clock)
        first = w.claim("job-a")
        again = w.claim("job-a")
        assert again is not None
        assert again.attempt == first.attempt == 1

    def test_heartbeat_extends_and_stamps_stage(self, tmp_path):
        clock = SharedClock()
        w = manager(tmp_path, "w1", clock)
        w.claim("job-a")
        clock.advance(6.0)
        assert w.heartbeat("job-a", stage="schedule")
        record = w.read("job-a")
        assert record.expires_at == clock.now + 10.0
        assert record.heartbeats == 1
        assert record.stage == "schedule"

    def test_heartbeat_refuses_expired_lease(self, tmp_path):
        clock = SharedClock()
        w = manager(tmp_path, "w1", clock)
        w.claim("job-a")
        clock.advance(11.0)
        assert not w.heartbeat("job-a")

    def test_heartbeat_after_reclaim_reports_lost(self, tmp_path):
        clock = SharedClock()
        w1 = manager(tmp_path, "w1", clock)
        w2 = manager(tmp_path, "w2", clock)
        w1.claim("job-a")
        clock.advance(11.0)  # w1 "died": no heartbeats until expiry
        stolen = w2.claim("job-a")
        assert stolen is not None
        assert stolen.attempt == 2
        assert not w1.heartbeat("job-a")
        assert not w1.release("job-a")

    def test_expired_lease_not_reclaimable_before_expiry(self, tmp_path):
        clock = SharedClock()
        w1 = manager(tmp_path, "w1", clock)
        w2 = manager(tmp_path, "w2", clock)
        w1.claim("job-a")
        clock.advance(9.9)
        assert w2.claim("job-a") is None
        clock.advance(0.2)
        assert w2.claim("job-a") is not None

    def test_release_writes_tombstone(self, tmp_path):
        clock = SharedClock()
        w = manager(tmp_path, "w1", clock)
        w.claim("job-a")
        assert w.release("job-a")
        record = w.read("job-a")
        assert record.state == RELEASED
        assert record.attempt == 1
        assert w.path_for("job-a").exists()  # tombstone, not deletion

    def test_reclaim_of_tombstone_preserves_attempt_counter(self, tmp_path):
        clock = SharedClock()
        w1 = manager(tmp_path, "w1", clock)
        w2 = manager(tmp_path, "w2", clock)
        w1.claim("job-a")
        w1.release("job-a")
        # e.g. the result artifact was found corrupt: the re-run must
        # look like attempt 2, not a fresh attempt 1.
        record = w2.claim("job-a")
        assert record.attempt == 2

    def test_claim_ttl_override_applies_once(self, tmp_path):
        clock = SharedClock()
        w1 = manager(tmp_path, "w1", clock)
        w2 = manager(tmp_path, "w2", clock)
        short = w1.claim("job-a", ttl=0.5)  # chaos expire injection
        assert short.ttl == 0.5
        clock.advance(0.6)
        again = w2.claim("job-a")
        assert again.ttl == 10.0  # manager default, not the injected ttl

    def test_torn_record_is_dropped_and_reclaimed(self, tmp_path):
        clock = SharedClock()
        w = manager(tmp_path, "w1", clock)
        path = w.path_for("job-a")
        path.write_text('{"kind": "batch-le')  # torn write
        record = w.claim("job-a")
        assert record is not None
        assert record.attempt == 1

    def test_concurrent_reclaims_of_one_expired_lease_have_one_winner(
        self, tmp_path
    ):
        # Both reclaimers read the same expired record before either
        # writes: w2's write step first lets w3 run its whole claim, then
        # w2 finishes its own. Only one of them may own attempt 2.
        clock = SharedClock()
        w1 = manager(tmp_path, "w1", clock)
        w2 = manager(tmp_path, "w2", clock)
        w3 = manager(tmp_path, "w3", clock)
        w1.claim("job-a")
        clock.advance(11.0)  # w1 died; its lease expired

        won = {}
        write_tmp = w2._write_tmp

        def interleaved(record):
            won["w3"] = w3.claim("job-a")  # w3 reads the same stale record
            return write_tmp(record)

        w2._write_tmp = interleaved
        won["w2"] = w2.claim("job-a")
        winners = [name for name, record in won.items() if record is not None]
        assert len(winners) == 1
        assert won[winners[0]].attempt == 2
        assert w1.read("job-a").owner == winners[0]

    def test_leases_lists_sorted_records(self, tmp_path):
        clock = SharedClock()
        w = manager(tmp_path, "w1", clock)
        for job in ("j2", "j0", "j1"):
            w.claim(job)
        assert [r.job_id for r in w.leases()] == ["j0", "j1", "j2"]


# --------------------------------------------------------------------------
# Property: any interleaving of claim / heartbeat / expiry / reclaim
# operations across competing workers completes each job exactly once.
# --------------------------------------------------------------------------

# An operation is (worker, job, kind); "advance" moves the shared clock
# far enough to expire any active lease (the adversarial scheduler
# freezing a worker mid-job).
_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),   # worker index
        st.integers(min_value=0, max_value=3),   # job index
        st.sampled_from(["claim", "heartbeat", "advance", "crash"]),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_exactly_once_completion_under_any_interleaving(tmp_path_factory, ops):
    """claim -> work -> release, with crashes and expiry races injected
    between any two steps: every job's result is written exactly once."""
    root = tmp_path_factory.mktemp("leases")
    clock = SharedClock()
    jobs = [f"job-{i}" for i in range(4)]
    workers = [manager(root, f"w{i}", clock, ttl=10.0) for i in range(3)]
    # Worker-local in-flight claims; completions[job] counts result
    # writes, the thing that must end up exactly 1 per job.
    holding = [dict() for _ in workers]
    completions = {job: 0 for job in jobs}
    results = Path(root) / "results"
    results.mkdir(exist_ok=True)

    def finish(w, idx, job):
        # The engine's completion path: (idempotent) result write gated
        # on still holding the lease, then release.
        record = workers[w].read(job)
        if record is None or record.owner != workers[w].owner:
            holding[w].pop(job, None)
            return
        out = results / f"{job}.txt"
        if not out.exists():
            out.write_text(f"{job}: deterministic result\n")
            completions[job] += 1
        workers[w].release(job)
        holding[w].pop(job, None)

    for w, j, kind in ops:
        job = jobs[j]
        if kind == "claim":
            if (results / f"{job}.txt").exists():
                continue  # engine skips jobs with verified results
            record = workers[w].claim(job)
            if record is not None:
                holding[w][job] = record
        elif kind == "heartbeat":
            if job in holding[w]:
                if not workers[w].heartbeat(job, stage="simulate"):
                    holding[w].pop(job)  # lost ownership: abandon
        elif kind == "advance":
            clock.advance(11.0)  # expire every active lease
        elif kind == "crash":
            holding[w].clear()  # SIGKILL: claims vanish, leases remain

        # Any worker holding a fresh claim finishes it immediately;
        # hypothesis explores the dangerous orderings via the ops above.
        for held in list(holding[w]):
            finish(w, w, held)

    # Drain: surviving workers sweep all unfinished jobs to completion,
    # exactly like the parent respawning workers until the batch drains.
    for _ in range(4):
        for w, worker in enumerate(workers):
            for job in jobs:
                if (results / f"{job}.txt").exists():
                    continue
                if worker.claim(job) is not None:
                    finish(w, w, job)
        clock.advance(11.0)

    assert completions == {job: 1 for job in jobs}
    for worker in workers:
        for record in worker.leases():
            assert record.state in (ACTIVE, RELEASED)
