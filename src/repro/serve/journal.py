"""The daemon's write-ahead job journal.

The batch engine's :class:`~repro.eval.checkpoint.CheckpointJournal`
records *completions*; a daemon must also survive losing the work it
has merely *accepted*.  This journal is therefore a WAL: a ``job``
record is durably appended **before** the submission is acknowledged,
and a ``result`` record when the job reaches a terminal state.  A
daemon killed at any instant — including ``kill -9``, which flushes
nothing — replays on restart exactly the acknowledged-but-unfinished
jobs, and adopts every journaled terminal result verbatim (the result
payload rides the checkpoint codec, so replayed results are
fingerprint-identical to the originals).

Format — JSONL, one record per line::

    {"type": "header", "version": 1, "kind": "serve", "tools": [...]}
    {"type": "job", "id": ..., "seq": 0, "app": ..., "fingerprint":
     ..., "apk": {...}, "truth": {...}}
    {"type": "result", "id": ..., "state": "completed", "dedup":
     false, "attempts": 1, "result": {...}}

The framing is :class:`~repro.eval.journal.AppendLog`'s, shared with
the checkpoint: every append is fsynced (the ack the client saw is on
disk); a header for another tool set or version — a daemon restarted
with a different ``--include`` — stops the daemon with
:class:`~repro.eval.journal.JournalError` rather than adopting another
configuration's results; and the append after a torn tail (a crash, or
an injected ``partial-write`` fault) cuts it and leaves a ``torn``
marker line.  ``load()`` is *lenient*, unlike the checkpoint's strict
reader: the torn tail, a marker, or any line that does not decode (bad
JSON or bad UTF-8) is counted in ``corrupt`` and skipped — in a WAL a
torn record is an expected crash artifact, not an integrity failure.
A torn ``job`` record means that submission was never acknowledged; a
``result`` without a surviving ``job`` record is still adopted as
terminal (the result embeds everything needed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..apk.package import Apk
from ..apk.serialization import apk_to_dict
from ..eval.checkpoint import result_from_dict, result_to_dict
from ..eval.journal import AppendLog
from .jobs import Job, JobState

__all__ = ["ServeJournal", "ServeRecovery", "RecoveredJob"]


@dataclass
class RecoveredJob:
    """One journaled job after replaying the WAL."""

    job: Job
    #: The serialized package, kept as a document so replay can defer
    #: (and survive) deserialization.
    apk_doc: dict | None
    truth_doc: dict | None

    @property
    def terminal(self) -> bool:
        return self.job.terminal


@dataclass
class ServeRecovery:
    """Everything ``load()`` reconstructed from the journal."""

    jobs: dict[str, RecoveredJob] = field(default_factory=dict)
    #: Corrupt (torn) lines skipped — observability, never an error.
    corrupt: int = 0
    max_seq: int = -1

    def pending(self) -> list[RecoveredJob]:
        """Acknowledged jobs with no terminal result, in admission
        order — exactly the work a restarted daemon must redo."""
        return sorted(
            (r for r in self.jobs.values() if not r.terminal),
            key=lambda r: r.job.seq,
        )

    def terminal(self) -> list[RecoveredJob]:
        return sorted(
            (r for r in self.jobs.values() if r.terminal),
            key=lambda r: r.job.seq,
        )


class ServeJournal:
    """Append-only WAL for one daemon (crosses restarts)."""

    def __init__(self, path: str | Path, *, tools: tuple[str, ...]) -> None:
        self._log = AppendLog(path, tools=tools, kind="serve")

    # -- writing -------------------------------------------------------

    def append_job(
        self,
        job: Job,
        apk: Apk,
        truth_doc: dict | None = None,
        *,
        tear: bool = False,
    ) -> bool:
        """Write-ahead record one admitted job (call BEFORE acking).

        ``tear=True`` injects a partial write — half the record, no
        newline, fsynced — modelling a crash mid-append; the journal
        stays usable (the next append repairs the tail, ``load()``
        counts it) and the caller should re-append.  Returns whether a
        complete record landed.
        """
        self._log.append(
            {
                "type": "job",
                "id": job.id,
                "seq": job.seq,
                "app": job.app,
                "fingerprint": job.fingerprint,
                "submittedAt": job.submitted_at,
                "apk": apk_to_dict(apk),
                "truth": truth_doc,
            },
            tear=tear,
        )
        return not tear

    def append_result(self, job: Job) -> None:
        """Durably record one terminal state (completed/quarantined)."""
        if job.result is None:  # pragma: no cover — caller invariant
            raise ValueError(f"{job.id}: terminal record without result")
        self._log.append(
            {
                "type": "result",
                "id": job.id,
                "seq": job.seq,
                "state": job.state.value,
                "dedup": job.dedup,
                "attempts": job.attempts,
                "finishedAt": job.finished_at,
                "result": result_to_dict(job.seq, job.result),
            }
        )

    def close(self) -> None:
        self._log.close()

    # -- recovery ------------------------------------------------------

    def load(self) -> ServeRecovery:
        """Replay the WAL (lenient: torn lines are counted, skipped)."""
        records, bad, torn = self._log.read()
        recovery = ServeRecovery(corrupt=len(bad) + (torn > 0))
        for doc in records:
            kind = doc.get("type")
            try:
                if kind == "job":
                    self._replay_job(recovery, doc)
                elif kind == "result":
                    self._replay_result(recovery, doc)
                elif kind == "torn":
                    recovery.corrupt += 1
                # unknown future kinds are skipped.
            except Exception:  # noqa: BLE001 — damaged record == torn
                recovery.corrupt += 1
        return recovery

    def _replay_job(self, recovery: ServeRecovery, doc: dict) -> None:
        job = Job(
            id=doc["id"],
            seq=int(doc["seq"]),
            app=doc["app"],
            fingerprint=doc.get("fingerprint"),
            submitted_at=doc.get("submittedAt", 0.0),
            replayed=True,
        )
        recovery.jobs[job.id] = RecoveredJob(
            job=job,
            apk_doc=doc.get("apk"),
            truth_doc=doc.get("truth"),
        )
        recovery.max_seq = max(recovery.max_seq, job.seq)

    def _replay_result(self, recovery: ServeRecovery, doc: dict) -> None:
        _, result = result_from_dict(doc["result"])
        recovered = recovery.jobs.get(doc["id"])
        if recovered is None:
            # The job record was torn but the result survived: adopt
            # it anyway — the result embeds app + truth.
            recovered = RecoveredJob(
                job=Job(
                    id=doc["id"],
                    seq=int(doc.get("seq", -1)),
                    app=result.app,
                    fingerprint=None,
                    replayed=True,
                ),
                apk_doc=None,
                truth_doc=None,
            )
            recovery.jobs[doc["id"]] = recovered
        job = recovered.job
        job.state = JobState(doc["state"])
        job.dedup = bool(doc.get("dedup", False))
        job.attempts = int(doc.get("attempts", 0))
        job.finished_at = doc.get("finishedAt")
        job.result = result
        recovery.max_seq = max(recovery.max_seq, job.seq)
