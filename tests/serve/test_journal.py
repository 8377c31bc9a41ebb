"""The write-ahead journal: durability, torn writes, lenient replay."""

from __future__ import annotations

import json

from repro.serve.jobs import Job, JobState
from repro.serve.journal import ServeJournal

from tests.conftest import activity_class, make_apk
from .conftest import serve_apk

TOOLS = ("SAINTDroid",)


def _job(seq: int, app: str = "app") -> Job:
    return Job(id=f"j{seq}", seq=seq, app=app, fingerprint=f"fp{seq}")


def _journal(tmp_path, name="wal.jsonl") -> ServeJournal:
    return ServeJournal(tmp_path / name, tools=TOOLS)


def _clean_result(app: str = "app"):
    from repro.eval.runner import AppResult
    from repro.workload.groundtruth import GroundTruth

    return AppResult(app=app, truth=GroundTruth(app=app), kloc=1.0)


class TestWal:
    def test_header_written_once(self, tmp_path):
        journal = _journal(tmp_path)
        apk = serve_apk("hdr")
        journal.append_job(_job(0), apk)
        journal.append_job(_job(1), apk)
        journal.close()
        lines = (tmp_path / "wal.jsonl").read_text().splitlines()
        headers = [
            line for line in lines
            if json.loads(line).get("type") == "header"
        ]
        assert len(headers) == 1
        assert json.loads(headers[0])["kind"] == "serve"

    def test_job_roundtrip(self, tmp_path):
        journal = _journal(tmp_path)
        apk = serve_apk("rt")
        job = _job(3, app=apk.name)
        assert journal.append_job(job, apk, {"app": apk.name})
        journal.close()
        recovery = _journal(tmp_path).load()
        assert recovery.corrupt == 0
        assert recovery.max_seq == 3
        recovered = recovery.jobs["j3"]
        assert not recovered.terminal
        assert recovered.job.replayed
        assert recovered.apk_doc is not None
        assert recovered.truth_doc == {"app": apk.name}
        assert recovery.pending()[0].job.id == "j3"

    def test_result_marks_terminal(self, tmp_path):
        journal = _journal(tmp_path)
        apk = serve_apk("term")
        job = _job(0, app=apk.name)
        journal.append_job(job, apk)
        job.state = JobState.COMPLETED
        job.attempts = 1
        job.result = _clean_result(apk.name)
        journal.append_result(job)
        journal.close()
        recovery = _journal(tmp_path).load()
        assert recovery.pending() == []
        restored = recovery.terminal()[0].job
        assert restored.state is JobState.COMPLETED
        assert restored.attempts == 1
        assert restored.result is not None
        assert (
            restored.result.fingerprint()
            == job.result.fingerprint()
        )


class TestTornWrites:
    def test_torn_append_is_skipped_not_fatal(self, tmp_path):
        journal = _journal(tmp_path)
        apk = serve_apk("torn")
        assert not journal.append_job(_job(0), apk, tear=True)
        # The WAL self-heals: the very next append is intact.
        assert journal.append_job(_job(1), apk)
        journal.close()
        recovery = _journal(tmp_path).load()
        assert recovery.corrupt == 1
        assert set(recovery.jobs) == {"j1"}

    def test_truncated_tail_like_kill_minus_nine(self, tmp_path):
        journal = _journal(tmp_path)
        apk = serve_apk("trunc")
        journal.append_job(_job(0), apk)
        journal.append_job(_job(1), apk)
        journal.close()
        path = tmp_path / "wal.jsonl"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])  # tear the last record
        recovery = _journal(tmp_path).load()
        assert recovery.corrupt == 1
        assert set(recovery.jobs) == {"j0"}
        # A restarted daemon appends safely onto the torn tail.
        journal = _journal(tmp_path)
        journal.append_job(_job(2), apk)
        journal.close()
        recovery = _journal(tmp_path).load()
        assert set(recovery.jobs) == {"j0", "j2"}
        assert recovery.corrupt == 1

    def test_result_without_job_record_is_adopted(self, tmp_path):
        journal = _journal(tmp_path)
        job = _job(5, app="orphan")
        job.state = JobState.QUARANTINED
        job.result = _clean_result("orphan")
        journal.append_result(job)
        journal.close()
        recovery = _journal(tmp_path).load()
        restored = recovery.jobs["j5"].job
        assert restored.terminal
        assert restored.state is JobState.QUARANTINED
        assert recovery.pending() == []


class TestEmpty:
    def test_missing_file_is_empty_recovery(self, tmp_path):
        recovery = _journal(tmp_path, "absent.jsonl").load()
        assert recovery.jobs == {}
        assert recovery.corrupt == 0
        assert recovery.max_seq == -1
