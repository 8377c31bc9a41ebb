"""Admission control and JobSource semantics of the serve queue."""

from __future__ import annotations

import pytest

from repro.eval.faults import FaultKind, FaultPlan, InjectedFault
from repro.serve.jobs import JobState
from repro.serve.journal import ServeJournal
from repro.serve.queue import (
    JobQueue,
    MalformedJobError,
    OversizedJobError,
    QueueClosedError,
    QueueFullError,
)

from .conftest import serve_apk_doc


def _clean_result(app: str):
    from repro.eval.runner import AppResult
    from repro.workload.groundtruth import GroundTruth

    return AppResult(app=app, truth=GroundTruth(app=app), kloc=1.0)


def _failed_result(app: str):
    from repro.core.errors import (
        AnalysisError,
        AnalysisPhase,
        ErrorKind,
    )
    from repro.eval.runner import AppResult
    from repro.workload.groundtruth import GroundTruth

    return AppResult(
        app=app,
        truth=GroundTruth(app=app),
        kloc=1.0,
        error=AnalysisError(
            kind=ErrorKind.CRASH,
            phase=AnalysisPhase.TOOL,
            message="boom",
            retryable=False,
            attempts=1,
        ),
    )


def _drain_one(queue: JobQueue):
    """Pop one entry the way the dispatcher does."""
    entries = queue.take(1, timeout_s=0.0)
    assert entries
    return entries[0]


class TestAdmission:
    def test_malformed_is_rejected_at_the_edge(self):
        queue = JobQueue()
        with pytest.raises(MalformedJobError):
            queue.submit({"not": "an apk"})
        with pytest.raises(MalformedJobError):
            queue.submit("not even a dict")
        assert queue.stats()["rejected_malformed"] == 2
        assert queue.depth() == 0

    def test_oversized_is_shed(self):
        queue = JobQueue(max_apk_bytes=64)
        with pytest.raises(OversizedJobError):
            queue.submit(serve_apk_doc("big"))
        assert queue.stats()["rejected_oversize"] == 1

    def test_full_queue_rejects_with_retry_hint(self):
        queue = JobQueue(limit=1, retry_after_s=0.7)
        queue.submit(serve_apk_doc("q0"))
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit(serve_apk_doc("q1"))
        assert excinfo.value.retry_after_s == 0.7
        assert excinfo.value.status == 429
        assert excinfo.value.to_doc()["retryAfterS"] == 0.7

    def test_closed_queue_admits_nothing(self):
        queue = JobQueue()
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.submit(serve_apk_doc("late"))

    def test_idempotent_resubmission_by_id(self):
        queue = JobQueue()
        first = queue.submit(serve_apk_doc("idem"), job_id="client-1")
        again = queue.submit(serve_apk_doc("idem"), job_id="client-1")
        assert again is first
        assert queue.stats()["submitted"] == 1


class TestLifecycle:
    def test_take_deliver_complete(self):
        queue = JobQueue()
        job = queue.submit(serve_apk_doc("life"))
        assert job.state is JobState.QUEUED
        entry = _drain_one(queue)
        assert job.state is JobState.RUNNING
        assert entry[0] == job.seq
        queue.deliver(entry, _clean_result(job.app))
        assert job.state is JobState.COMPLETED
        assert job.attempts == 1
        waited = queue.wait(job.id, timeout_s=1.0)
        assert waited is job and waited.terminal

    def test_failed_delivery_quarantines(self):
        queue = JobQueue()
        job = queue.submit(serve_apk_doc("poison"))
        queue.deliver(_drain_one(queue), _failed_result(job.app))
        assert job.state is JobState.QUARANTINED
        assert queue.stats()["quarantined"] == 1

    def test_dedup_hit_is_terminal_on_admission(self):
        queue = JobQueue()
        job = queue.submit(serve_apk_doc("dup"))
        queue.deliver(_drain_one(queue), _clean_result(job.app))
        twin = queue.submit(serve_apk_doc("dup"))
        assert twin.terminal and twin.dedup
        assert twin.result is job.result
        assert queue.stats()["dedup_hits"] == 1
        assert queue.depth() == 0  # no slot was spent

    def test_quarantined_results_are_never_dedup_sources(self):
        queue = JobQueue()
        job = queue.submit(serve_apk_doc("sick"))
        queue.deliver(_drain_one(queue), _failed_result(job.app))
        twin = queue.submit(serve_apk_doc("sick"))
        assert not twin.terminal  # must be re-analyzed, not replayed

    def test_take_returns_none_only_when_closed_and_drained(self):
        queue = JobQueue()
        job = queue.submit(serve_apk_doc("drain"))
        queue.close()
        entry = _drain_one(queue)
        # Closed but an entry is in flight: stream must stay alive.
        assert queue.take(1, timeout_s=0.0) == []
        queue.deliver(entry, _clean_result(job.app))
        assert queue.take(1, timeout_s=0.0) is None


class TestStreamFaults:
    def test_partial_write_fault_tears_then_heals(self, tmp_path):
        plan = FaultPlan(
            faults={
                0: InjectedFault(
                    FaultKind.PARTIAL_WRITE, fail_attempts=1
                )
            }
        )
        journal = ServeJournal(
            tmp_path / "wal.jsonl", tools=("SAINTDroid",)
        )
        queue = JobQueue(journal=journal, fault_plan=plan)
        job = queue.submit(serve_apk_doc("tear"))
        journal.close()
        assert queue.stats()["torn_writes"] == 1
        recovery = ServeJournal(
            tmp_path / "wal.jsonl", tools=("SAINTDroid",)
        ).load()
        # The torn line is counted AND the intact re-append admitted
        # the job — the ack the client saw stays truthful.
        assert recovery.corrupt == 1
        assert job.id in recovery.jobs

    def test_slow_consumer_fault_stalls_take(self):
        plan = FaultPlan(
            faults={
                0: InjectedFault(
                    FaultKind.SLOW_CONSUMER,
                    fail_attempts=1,
                    hang_s=0.05,
                )
            }
        )
        queue = JobQueue(fault_plan=plan)
        queue.submit(serve_apk_doc("stall"))
        import time

        start = time.monotonic()
        entries = queue.take(1, timeout_s=0.0)
        elapsed = time.monotonic() - start
        assert entries and elapsed >= 0.05
        assert queue.stats()["stalls"] == 1
