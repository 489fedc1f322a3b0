"""Unit tests for the adaptive micro-batcher's flush policies."""

import numpy as np
import pytest

from repro.core.spec import CircuitSpec
from repro.serve.batcher import MicroBatcher
from repro.serve.jobs import ProofJob


def make_job(job_id, model="SHAL", privacy="one-private", **kw):
    return ProofJob(
        job_id=job_id,
        circuit=CircuitSpec(model, privacy=privacy),
        image=np.zeros((1, 2, 2), dtype=np.int64),
        **kw,
    )


class TestSizeTrigger:
    def test_flushes_exactly_at_max_batch(self):
        b = MicroBatcher(max_batch=3, max_wait=100.0)
        for i in range(2):
            b.add(make_job(f"j{i}"), now=0.0)
        assert b.take_ready(now=0.0) == []
        b.add(make_job("j2"), now=0.0)
        batches = b.take_ready(now=0.0)
        assert len(batches) == 1
        assert [j.job_id for j in batches[0].jobs] == ["j0", "j1", "j2"]
        assert b.pending() == 0

    def test_oversized_group_split(self):
        b = MicroBatcher(max_batch=2, max_wait=100.0)
        for i in range(5):
            b.add(make_job(f"j{i}"), now=0.0)
        batches = b.take_ready(now=0.0)
        assert sorted(len(x) for x in batches) == [1, 2, 2]

    def test_max_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)


class TestWaitTrigger:
    def test_partial_group_flushes_after_max_wait(self):
        b = MicroBatcher(max_batch=8, max_wait=0.5)
        b.add(make_job("lonely"), now=10.0)
        assert b.take_ready(now=10.4) == []
        batches = b.take_ready(now=10.5)
        assert len(batches) == 1 and len(batches[0]) == 1

    def test_group_age_measured_from_first_job(self):
        b = MicroBatcher(max_batch=8, max_wait=1.0)
        b.add(make_job("first"), now=0.0)
        b.add(make_job("second"), now=0.9)  # does not reset the clock
        batches = b.take_ready(now=1.0)
        assert len(batches) == 1 and len(batches[0]) == 2

    def test_next_flush_at_tracks_oldest_group(self):
        b = MicroBatcher(max_batch=8, max_wait=1.0)
        assert b.next_flush_at() is None
        b.add(make_job("a"), now=5.0)
        b.add(make_job("b", model="LCS"), now=7.0)
        assert b.next_flush_at() == 6.0


class TestGrouping:
    def test_different_keys_never_share_a_batch(self):
        b = MicroBatcher(max_batch=4, max_wait=0.0)
        b.add(make_job("a", model="SHAL"), now=0.0)
        b.add(make_job("b", model="LCS"), now=0.0)
        b.add(make_job("c", model="SHAL", privacy="both-private"), now=0.0)
        batches = b.take_ready(now=0.0)
        assert len(batches) == 3
        for batch in batches:
            assert len({j.batch_key() for j in batch.jobs}) == 1

    def test_force_flush_drains_everything(self):
        b = MicroBatcher(max_batch=8, max_wait=1000.0)
        b.add(make_job("a"), now=0.0)
        b.add(make_job("b", model="LCS"), now=0.0)
        batches = b.take_ready(now=0.0, force=True)
        assert len(batches) == 2
        assert b.pending() == 0

    def test_batch_ids_unique_and_increasing(self):
        b = MicroBatcher(max_batch=1, max_wait=0.0)
        for i in range(4):
            b.add(make_job(f"j{i}"), now=0.0)
        ids = [batch.batch_id for batch in b.take_ready(now=0.0)]
        assert ids == sorted(ids) and len(set(ids)) == 4
