"""Unit tests for the serving job queue: ordering, deadlines, backoff."""

import numpy as np
import pytest

from repro.core.spec import CircuitSpec
from repro.serve.jobs import JobQueue, JobState, ProofJob


def make_job(
    job_id="j1", priority=0, timeout=None, submitted_at=100.0,
    privacy="one-private", **kw
):
    job = ProofJob(
        job_id=job_id,
        circuit=CircuitSpec("SHAL", privacy=privacy),
        image=np.zeros((1, 2, 2), dtype=np.int64),
        priority=priority,
        timeout=timeout,
        **kw,
    )
    job.submitted_at = submitted_at
    return job


class TestOrdering:
    def test_fifo_within_priority(self):
        q = JobQueue()
        for name in ("a", "b", "c"):
            q.push(make_job(name))
        assert [q.pop(0.0).job_id for _ in range(3)] == ["a", "b", "c"]

    def test_higher_priority_first(self):
        q = JobQueue()
        q.push(make_job("low", priority=0))
        q.push(make_job("high", priority=5))
        q.push(make_job("mid", priority=2))
        popped = [q.pop(0.0).job_id for _ in range(3)]
        assert popped == ["high", "mid", "low"]

    def test_pop_empty_returns_none(self):
        assert JobQueue().pop() is None

    def test_len_counts_both_lanes(self):
        q = JobQueue()
        q.push(make_job("now"))
        q.push(make_job("later"), delay=60.0)
        assert len(q) == 2


class TestDelayedLane:
    def test_delayed_job_not_ready_early(self):
        q = JobQueue()
        q.push(make_job("a"), delay=50.0)
        assert q.pop(now=0.0) is None  # pushed at real monotonic now + 50

    def test_delayed_job_promoted_after_backoff(self):
        import time

        q = JobQueue()
        q.push(make_job("a"), delay=0.001)
        time.sleep(0.01)
        job = q.pop()
        assert job is not None and job.job_id == "a"

    def test_ready_jobs_bypass_delayed(self):
        q = JobQueue()
        q.push(make_job("slow", priority=9), delay=60.0)
        q.push(make_job("fast", priority=0))
        assert q.pop().job_id == "fast"


class TestDeadlines:
    def test_expire_removes_overdue(self):
        q = JobQueue()
        q.push(make_job("late", timeout=5.0, submitted_at=0.0))
        q.push(make_job("fine", timeout=500.0, submitted_at=0.0))
        overdue = q.expire(now=10.0)
        assert [j.job_id for j in overdue] == ["late"]
        assert q.pop(now=10.0).job_id == "fine"
        assert len(q) == 0

    def test_expire_checks_delayed_lane(self):
        q = JobQueue()
        q.push(make_job("late", timeout=0.001, submitted_at=0.0), delay=120.0)
        overdue = q.expire(now=1e12)  # far future: delay elapsed AND expired
        assert [j.job_id for j in overdue] == ["late"]

    def test_no_timeout_never_expires(self):
        job = make_job("forever", timeout=None)
        assert not job.expired(now=1e18)

    def test_deadline_is_submission_plus_timeout(self):
        job = make_job("d", timeout=7.0, submitted_at=3.0)
        assert job.deadline == 10.0
        assert not job.expired(now=10.0)
        assert job.expired(now=10.1)


class TestRetryBookkeeping:
    def test_backoff_doubles_per_attempt(self):
        job = make_job("r")
        job.attempts = 1
        assert job.next_backoff(base=0.1) == pytest.approx(0.1)
        job.attempts = 3
        assert job.next_backoff(base=0.1) == pytest.approx(0.4)

    def test_backoff_capped(self):
        job = make_job("r")
        job.attempts = 30
        assert job.next_backoff(base=0.1, cap=2.0) == 2.0

    def test_batch_key_groups_same_profile(self):
        a = make_job("a")
        b = make_job("b")
        c = make_job("c", privacy="both-private")
        assert a.batch_key() == b.batch_key()
        assert a.batch_key() != c.batch_key()


class TestBackoffRamp:
    def test_full_growth_sequence(self):
        """base, base, 2b, 4b, ... doubling from the second attempt on."""
        job = make_job("r")
        observed = []
        for attempts in range(0, 7):
            job.attempts = attempts
            observed.append(job.next_backoff(base=0.05, cap=100.0))
        assert observed == pytest.approx(
            [0.05, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
        )

    def test_monotone_nondecreasing_until_cap(self):
        job = make_job("r")
        prev = 0.0
        for attempts in range(0, 40):
            job.attempts = attempts
            cur = job.next_backoff(base=0.05, cap=2.0)
            assert cur >= prev
            assert cur <= 2.0
            prev = cur
        assert prev == 2.0  # cap reached and held

    def test_cap_exact_at_crossover(self):
        job = make_job("r")
        job.attempts = 6  # 0.05 * 2^5 = 1.6 < 2.0
        assert job.next_backoff(base=0.05, cap=2.0) == pytest.approx(1.6)
        job.attempts = 7  # 0.05 * 2^6 = 3.2 -> capped
        assert job.next_backoff(base=0.05, cap=2.0) == 2.0


class TestRequeueAfterFailure:
    """Ordering semantics of the retry-with-backoff delayed lane."""

    def test_requeued_job_waits_out_backoff(self):
        q = JobQueue()
        q.push(make_job("victim"))
        victim = q.pop()
        victim.attempts += 1  # the service counts the failed dispatch
        q.push(victim, delay=victim.next_backoff(base=30.0))
        q.push(make_job("fresh"))
        # while the backoff pends, fresh work flows around the retry
        assert q.pop().job_id == "fresh"
        assert q.pop() is None
        assert len(q) == 1  # the retry is still held in the delayed lane

    def test_promoted_retry_pops_fifo_after_newer_pushes(self):
        import time

        q = JobQueue()
        q.push(make_job("victim"))
        victim = q.pop()
        victim.attempts += 1
        q.push(victim, delay=0.001)
        time.sleep(0.01)
        q.push(make_job("later"))
        # the retry was (re)enqueued before "later" and same priority wins FIFO
        assert q.pop().job_id == "victim"
        assert q.pop().job_id == "later"

    def test_promoted_retry_respects_priority(self):
        import time

        q = JobQueue()
        q.push(make_job("urgent", priority=9))
        urgent = q.pop()
        urgent.attempts += 1
        q.push(urgent, delay=0.001)
        q.push(make_job("routine", priority=0))
        time.sleep(0.01)
        assert q.pop().job_id == "urgent"

    def test_retry_can_expire_while_backing_off(self):
        q = JobQueue()
        job = make_job("doomed", timeout=5.0, submitted_at=0.0)
        q.push(job, delay=3.0)
        # deadline (t=5) passes before anyone pops the retry
        overdue = q.expire(now=1e12)
        assert [j.job_id for j in overdue] == ["doomed"]
        assert q.pop(now=1e12) is None


class TestExpiredReaping:
    def test_expire_leaves_state_untouched(self):
        # state transitions belong to the service; the queue only reaps
        q = JobQueue()
        q.push(make_job("late", timeout=1.0, submitted_at=0.0))
        (reaped,) = q.expire(now=10.0)
        assert reaped.state is JobState.QUEUED

    def test_pop_still_returns_expired_job(self):
        # documented contract: pop never silently drops, callers check
        q = JobQueue()
        q.push(make_job("late", timeout=1.0, submitted_at=0.0))
        job = q.pop(now=10.0)
        assert job is not None and job.expired(now=10.0)

    def test_expire_mixed_lanes(self):
        q = JobQueue()
        q.push(make_job("ready-late", timeout=1.0, submitted_at=0.0))
        q.push(make_job("delayed-late", timeout=1.0, submitted_at=0.0),
               delay=1e9)
        q.push(make_job("ready-ok", timeout=None))
        q.push(make_job("delayed-ok", timeout=None), delay=1e9)
        overdue = {j.job_id for j in q.expire(now=1e10)}
        assert overdue == {"ready-late", "delayed-late"}
        assert len(q) == 2

    def test_expired_uses_wallclock_when_now_omitted(self):
        import time

        job = make_job("t", timeout=0.001)
        job.submitted_at = time.monotonic()
        time.sleep(0.01)
        assert job.expired()


class TestStates:
    def test_terminal_classification(self):
        assert not JobState.QUEUED.terminal
        assert not JobState.RUNNING.terminal
        assert JobState.DONE.terminal
        assert JobState.FAILED.terminal
        assert JobState.TIMED_OUT.terminal
