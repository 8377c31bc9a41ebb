"""Bounded admission queue: the daemon's :class:`JobSource`.

This is where load-shedding policy lives, and the contract is strict:
an error is raised **before** any state changes, an acknowledgement
means the job is journaled and will reach a terminal state.  The
admission ladder, in order:

1. **malformed** packages are rejected at the edge with a strict
   parse (:exc:`MalformedJobError` → HTTP 400) — a hostile document
   never reaches a worker;
2. **oversized** packages are shed (:exc:`OversizedJobError` → 413)
   so one pathological submission cannot monopolize the pool;
3. **duplicates** — an APK whose content fingerprint already has a
   clean result (in-memory index first, then the persistent
   :class:`~repro.cache.results.ResultCache`, which survives daemon
   restarts) — are answered terminally in O(1), no queue slot spent;
4. a **full queue** rejects with a retry hint
   (:exc:`QueueFullError` → 429 + ``Retry-After``) instead of
   buffering unboundedly — backpressure is the client's signal, not
   the daemon's memory growth;
5. a **draining** queue admits nothing (:exc:`QueueClosedError` →
   503).

Everything admitted is write-ahead journaled, then queued for
:meth:`take` (called by the streaming engine's dispatcher).  Injected
stream faults fire here: a ``slow-consumer`` fault stalls the
dispatcher after taking the job; a ``partial-write`` fault tears the
job's WAL record mid-append (the queue immediately re-appends — the
degradation is observable in the journal, the ack stays truthful).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING

from ..apk.serialization import SerializationError, apk_from_dict
from ..cache.fingerprint import canonical_json
from ..eval.faults import FaultKind
from ..eval.orchestration import JobSource, apk_fingerprint
from ..workload.appgen import ForgedApp
from ..workload.groundtruth import GroundTruth
from .jobs import Job, JobState, new_job_id

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from ..cache.results import ResultCache
    from ..eval.faults import FaultPlan
    from ..eval.runner import AppResult
    from .journal import ServeJournal

__all__ = [
    "JobQueue",
    "AdmissionError",
    "MalformedJobError",
    "OversizedJobError",
    "QueueFullError",
    "QueueClosedError",
]


class AdmissionError(Exception):
    """A submission the daemon refused; carries the HTTP mapping."""

    status = 500

    def to_doc(self) -> dict:
        return {"error": type(self).__name__, "detail": str(self)}


class MalformedJobError(AdmissionError):
    """The submitted package document does not decode (HTTP 400)."""

    status = 400


class OversizedJobError(AdmissionError):
    """The submitted package exceeds the size budget (HTTP 413)."""

    status = 413


class QueueFullError(AdmissionError):
    """Admission control: the queue is at capacity (HTTP 429)."""

    status = 429

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s

    def to_doc(self) -> dict:
        doc = super().to_doc()
        doc["retryAfterS"] = self.retry_after_s
        return doc


class QueueClosedError(AdmissionError):
    """The daemon is draining; nothing is admitted (HTTP 503)."""

    status = 503


class JobQueue(JobSource):
    """Thread-safe bounded queue bridging HTTP admission to the
    streaming engine (:func:`repro.eval.orchestration.run_stream`)."""

    def __init__(
        self,
        *,
        journal: "ServeJournal | None" = None,
        result_cache: "ResultCache | None" = None,
        limit: int = 64,
        max_apk_bytes: int | None = None,
        retry_after_s: float = 0.5,
        fault_plan: "FaultPlan | None" = None,
        start_seq: int = 0,
    ) -> None:
        self._journal = journal
        self._result_cache = result_cache
        self.limit = max(1, limit)
        self.max_apk_bytes = max_apk_bytes
        self.retry_after_s = retry_after_s
        self._fault_plan = fault_plan
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._by_seq: dict[int, str] = {}
        self._ready: deque[tuple[Job, ForgedApp]] = deque()
        #: Taken but not yet delivered — counts against the limit.
        self._running = 0
        self._next_seq = start_seq
        self._closed = False
        #: Clean results by APK content fingerprint (this process's
        #: lifetime; the ResultCache extends it across restarts).
        self._dedup: dict[str, "AppResult"] = {}
        self.counters = {
            "submitted": 0,
            "completed": 0,
            "quarantined": 0,
            "dedup_hits": 0,
            "rejected_full": 0,
            "rejected_oversize": 0,
            "rejected_malformed": 0,
            "rejected_closed": 0,
            "replayed": 0,
            "stalls": 0,
            "torn_writes": 0,
        }

    # -- admission (HTTP side) -----------------------------------------

    def submit(
        self,
        apk_doc: dict,
        truth_doc: dict | None = None,
        *,
        job_id: str | None = None,
    ) -> Job:
        """Admit one submission; raises an :class:`AdmissionError`
        subclass (with its HTTP status) or returns the job — terminal
        immediately on a dedup hit, queued otherwise.

        ``job_id`` makes resubmission idempotent: a client retrying an
        acked-but-unanswered submission gets the existing job back.
        """
        forged, fingerprint = self._decode(apk_doc, truth_doc)
        with self._cond:
            if job_id is not None and job_id in self._jobs:
                return self._jobs[job_id]
            if self._closed:
                self.counters["rejected_closed"] += 1
                raise QueueClosedError("daemon is draining")
            hit = self._dedup_lookup(fingerprint)
            if hit is not None:
                return self._admit_terminal(
                    forged, fingerprint, hit, job_id
                )
            if self.depth_locked() >= self.limit:
                self.counters["rejected_full"] += 1
                raise QueueFullError(
                    f"queue at capacity ({self.limit})",
                    self.retry_after_s,
                )
            job = self._new_job(forged, fingerprint, job_id)
            self._write_ahead(job, forged, truth_doc)
            self._ready.append((job, forged))
            self.counters["submitted"] += 1
            self._cond.notify_all()
            return job

    def resubmit(self, job: Job, forged: ForgedApp) -> None:
        """Re-enqueue a journal-replayed job (already write-ahead
        recorded by the previous incarnation — no new job record).  A
        job whose clean result is already known — the previous
        incarnation stored it in the result cache but died before
        journaling it — completes here, journaling only its result."""
        with self._cond:
            self._jobs[job.id] = job
            self._by_seq[job.seq] = job.id
            self.counters["replayed"] += 1
            hit = self._dedup_lookup(job.fingerprint)
            if hit is not None:
                self._complete_from_dedup(job, hit)
                if self._journal is not None:
                    self._journal.append_result(job)
                return
            job.state = JobState.QUEUED
            self._ready.append((job, forged))
            self.counters["submitted"] += 1
            self._cond.notify_all()

    def adopt(self, job: Job) -> None:
        """Register a journal-replayed *terminal* job (no re-run)."""
        with self._cond:
            self._jobs[job.id] = job
            if job.seq >= 0:
                self._by_seq[job.seq] = job.id
            if (
                job.result is not None
                and job.result.ok
                and job.fingerprint is not None
            ):
                self._dedup.setdefault(job.fingerprint, job.result)
            self.counters["replayed"] += 1

    def _decode(
        self, apk_doc: dict, truth_doc: dict | None
    ) -> tuple[ForgedApp, str]:
        if not isinstance(apk_doc, dict):
            self.counters["rejected_malformed"] += 1
            raise MalformedJobError("submission is not a package document")
        if self.max_apk_bytes is not None:
            size = len(canonical_json(apk_doc))
            if size > self.max_apk_bytes:
                self.counters["rejected_oversize"] += 1
                raise OversizedJobError(
                    f"package is {size} bytes; "
                    f"limit is {self.max_apk_bytes}"
                )
        try:
            apk = apk_from_dict(apk_doc, strict=True)
            truth = (
                GroundTruth.from_dict(truth_doc)
                if truth_doc is not None
                else GroundTruth(app=apk.name)
            )
        except (SerializationError, KeyError, TypeError, ValueError) as exc:
            self.counters["rejected_malformed"] += 1
            raise MalformedJobError(f"undecodable package: {exc}") from exc
        forged = ForgedApp(apk=apk, truth=truth)
        return forged, apk_fingerprint(forged)

    def _dedup_lookup(self, fingerprint: str | None) -> "AppResult | None":
        if fingerprint is None:
            return None
        hit = self._dedup.get(fingerprint)
        if hit is not None:
            return hit
        if self._result_cache is not None:
            hit = self._result_cache.get(fingerprint)
            if hit is not None:
                self._dedup[fingerprint] = hit
        return hit

    def _new_job(
        self, forged: ForgedApp, fingerprint: str, job_id: str | None
    ) -> Job:
        seq = self._next_seq
        self._next_seq += 1
        job = Job(
            id=job_id if job_id is not None else new_job_id(seq),
            seq=seq,
            app=forged.apk.name,
            fingerprint=fingerprint,
        )
        self._jobs[job.id] = job
        self._by_seq[seq] = job.id
        return job

    def _admit_terminal(
        self,
        forged: ForgedApp,
        fingerprint: str,
        result: "AppResult",
        job_id: str | None,
    ) -> Job:
        job = self._new_job(forged, fingerprint, job_id)
        self._complete_from_dedup(job, result)
        if self._journal is not None:
            # Terminal on admission: one combined record pair keeps
            # the WAL invariant (every acked job reaches the journal).
            self._journal.append_job(job, forged.apk)
            self._journal.append_result(job)
        return job

    def _complete_from_dedup(self, job: Job, result: "AppResult") -> None:
        job.state = JobState.COMPLETED
        job.dedup = True
        job.result = result
        job.finished_at = time.time()
        self.counters["dedup_hits"] += 1
        self.counters["completed"] += 1
        self._cond.notify_all()

    def _write_ahead(
        self, job: Job, forged: ForgedApp, truth_doc: dict | None
    ) -> None:
        if self._journal is None:
            return
        fault = (
            self._fault_plan.stream_fault_for(job.seq)
            if self._fault_plan is not None
            else None
        )
        tear = (
            fault is not None
            and fault.kind is FaultKind.PARTIAL_WRITE
            and fault.fires(0)
        )
        if tear:
            # Injected torn append, then an immediate re-append: the
            # ack stays truthful, and the re-append's repair leaves a
            # torn marker in the WAL for load() to count.
            self.counters["torn_writes"] += 1
            self._journal.append_job(job, forged.apk, truth_doc, tear=True)
        self._journal.append_job(job, forged.apk, truth_doc)

    # -- the JobSource side (dispatcher thread) ------------------------

    def take(self, limit: int, timeout_s: float):
        with self._cond:
            if not self._ready and not self._closed and timeout_s > 0:
                self._cond.wait(timeout_s)
            if not self._ready:
                if self._closed and self._running == 0:
                    return None
                return []
            batch: list[tuple[Job, ForgedApp]] = []
            while self._ready and len(batch) < max(1, limit):
                batch.append(self._ready.popleft())
            now = time.time()
            for job, _forged in batch:
                job.state = JobState.RUNNING
                job.started_at = now
                self._running += 1
        entries = []
        for job, forged in batch:
            self._stall(job.seq)
            entries.append((job.seq, forged, 0))
        return entries

    def _stall(self, seq: int) -> None:
        """Injected ``slow-consumer`` fault: the dispatcher wedges
        briefly after taking the job — the job must still complete."""
        if self._fault_plan is None:
            return
        fault = self._fault_plan.stream_fault_for(seq)
        if (
            fault is not None
            and fault.kind is FaultKind.SLOW_CONSUMER
            and fault.fires(0)
        ):
            self.counters["stalls"] += 1
            time.sleep(fault.hang_s)

    def deliver(self, entry, result: "AppResult") -> None:
        seq, _forged, attempt = entry
        with self._cond:
            job_id = self._by_seq.get(seq)
            job = self._jobs.get(job_id) if job_id is not None else None
            if job is None or job.terminal:  # pragma: no cover — guard
                return
            job.attempts = (
                result.error.attempts
                if result.error is not None and result.error.attempts
                else attempt + 1
            )
            job.finished_at = time.time()
            job.result = result
            if result.error is None:
                job.state = JobState.COMPLETED
                self.counters["completed"] += 1
                if job.fingerprint is not None:
                    self._dedup.setdefault(job.fingerprint, result)
                    if self._result_cache is not None:
                        self._result_cache.put(job.fingerprint, result)
            else:
                job.state = JobState.QUARANTINED
                self.counters["quarantined"] += 1
            if self._journal is not None:
                self._journal.append_result(job)
            self._running -= 1
            self._cond.notify_all()

    # -- introspection / lifecycle -------------------------------------

    def job(self, job_id: str) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout_s: float = 30.0) -> Job | None:
        """Block until the job is terminal (or timeout); returns the
        job (``None`` for an unknown id)."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.terminal:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return job
                self._cond.wait(remaining)

    def depth_locked(self) -> int:
        return len(self._ready) + self._running

    def depth(self) -> int:
        with self._cond:
            return self.depth_locked()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop admitting; :meth:`take` returns ``None`` once the
        already-admitted backlog is fully delivered."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def stats(self) -> dict:
        with self._cond:
            out = dict(self.counters)
            out["depth"] = self.depth_locked()
            out["limit"] = self.limit
            out["closed"] = self._closed
            out["jobs"] = len(self._jobs)
            return out
