"""The one append-only log under the checkpoint journal and the serve
WAL: header check, repair, reader, and resume from every byte offset.

Everything here drives the journal APIs directly over tiny records, so
the suite runs in seconds.
"""

from __future__ import annotations

import json

import pytest

from repro.eval import CheckpointError, CheckpointJournal
from repro.eval.journal import AppendLog, JournalError
from repro.eval.runner import AppResult
from repro.serve.jobs import Job, JobState
from repro.serve.journal import ServeJournal
from repro.workload.groundtruth import GroundTruth

TOOLS = ("SAINTDroid", "CID")


def _result(i: int) -> AppResult:
    app = f"app{i}"
    return AppResult(app=app, truth=GroundTruth(app=app), kloc=1.0 + i)


def _finished(i: int) -> Job:
    job = Job(id=f"j{i}", seq=i, app=f"app{i}", fingerprint=None)
    job.state = JobState.COMPLETED
    job.attempts = 1
    job.result = _result(i)
    return job


def _checkpoint_append(path, indices) -> None:
    journal = CheckpointJournal(path, tools=TOOLS)
    for i in indices:
        journal.append(i, _result(i))
    journal.close()


def _wal_append(path, indices) -> None:
    journal = ServeJournal(path, tools=TOOLS)
    for i in indices:
        journal.append_result(_finished(i))
    journal.close()


def _checkpoint_state(path) -> dict[int, str]:
    restored = CheckpointJournal(path, tools=TOOLS).load()
    return {i: result.fingerprint() for i, result in restored.items()}


def _last_record_cuts(path) -> range:
    """Every offset strictly inside the file's last line."""
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    return range(start + 1, len(data))


def _expected(indices) -> dict[int, str]:
    return {i: _result(i).fingerprint() for i in indices}


class TestLog:
    def test_header_written_once_with_kind(self, tmp_path):
        log = AppendLog(tmp_path / "x.jsonl", tools=TOOLS, kind="serve")
        log.append({"type": "a"})
        log.append({"type": "b"})
        log.close()
        lines = (tmp_path / "x.jsonl").read_text().splitlines()
        assert json.loads(lines[0]) == {
            "type": "header", "version": 1, "kind": "serve",
            "tools": list(TOOLS),
        }
        assert [json.loads(line)["type"] for line in lines[1:]] == ["a", "b"]

    def test_torn_tail_is_cut_and_marked(self, tmp_path):
        path = tmp_path / "x.jsonl"
        log = AppendLog(path, tools=TOOLS)
        log.append({"type": "a"})
        log.append({"type": "b"}, tear=True)
        torn = path.read_bytes()
        assert not torn.endswith(b"\n")
        assert AppendLog(path, tools=TOOLS).read()[2] > 0
        log.append({"type": "c"})
        log.close()
        records, bad, torn_bytes = AppendLog(path, tools=TOOLS).read()
        assert torn_bytes == 0 and bad == []
        assert [r["type"] for r in records] == ["a", "torn", "c"]
        tail = len(torn) - torn.rfind(b"\n") - 1
        assert records[1]["bytes"] == tail

    def test_torn_header_alone_is_rewritten(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'{"type": "hea')
        log = AppendLog(path, tools=TOOLS)
        log.append({"type": "a"})
        log.close()
        records, _, _ = AppendLog(path, tools=TOOLS).read()
        assert [r["type"] for r in records] == ["torn", "a"]

    def test_unterminated_record_is_not_committed(self, tmp_path):
        """A record counts once its newline lands, even if the bytes
        before it happen to decode."""
        path = tmp_path / "x.jsonl"
        log = AppendLog(path, tools=TOOLS)
        log.append({"type": "a"})
        log.close()
        path.write_bytes(path.read_bytes()[:-1])
        records, _, torn = AppendLog(path, tools=TOOLS).read()
        assert records == [] and torn > 0


class TestHeaderCheck:
    def test_wal_for_other_tools_is_refused(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        _wal_append(path, [0])
        with pytest.raises(CheckpointError):
            ServeJournal(path, tools=("Lint",)).load()

    def test_wal_and_checkpoint_refuse_each_other(self, tmp_path):
        wal, checkpoint = tmp_path / "wal.jsonl", tmp_path / "ckpt.jsonl"
        _wal_append(wal, [0])
        _checkpoint_append(checkpoint, [0])
        with pytest.raises(JournalError):
            CheckpointJournal(wal, tools=TOOLS).load()
        with pytest.raises(JournalError):
            ServeJournal(checkpoint, tools=TOOLS).load()

    def test_wal_version_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(json.dumps({
            "type": "header", "version": 999, "kind": "serve",
            "tools": list(TOOLS),
        }) + "\n")
        with pytest.raises(JournalError):
            ServeJournal(path, tools=TOOLS).load()


class TestNonUtf8:
    def _corrupt_middle(self, path) -> None:
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][:10] + b"\xff" + lines[1][10:]
        path.write_bytes(b"\n".join(lines))

    def test_wal_counts_the_line_and_checkpoint_rejects_it(self, tmp_path):
        wal, checkpoint = tmp_path / "wal.jsonl", tmp_path / "ckpt.jsonl"
        _wal_append(wal, [0, 1])
        _checkpoint_append(checkpoint, [0, 1])
        self._corrupt_middle(wal)
        self._corrupt_middle(checkpoint)
        recovery = ServeJournal(wal, tools=TOOLS).load()
        assert recovery.corrupt == 1
        assert set(recovery.jobs) == {"j1"}
        with pytest.raises(CheckpointError):
            CheckpointJournal(checkpoint, tools=TOOLS).load()


class TestResumeFromEveryOffset:
    """Cut inside the last record, resume (append + reload), resume
    again: the restored records are always the surviving prefix plus
    everything appended since."""

    def test_checkpoint(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _checkpoint_append(path, [0, 1])
        intact = path.read_bytes()
        for cut in _last_record_cuts(path):
            path.write_bytes(intact[:cut])
            assert _checkpoint_state(path) == _expected([0])
            _checkpoint_append(path, [1, 2])
            assert _checkpoint_state(path) == _expected([0, 1, 2])
            _checkpoint_append(path, [3])
            assert _checkpoint_state(path) == _expected([0, 1, 2, 3])

    def test_wal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        _wal_append(path, [0, 1])
        intact = path.read_bytes()
        for cut in _last_record_cuts(path):
            path.write_bytes(intact[:cut])
            recovery = ServeJournal(path, tools=TOOLS).load()
            assert set(recovery.jobs) == {"j0"}
            assert recovery.corrupt == 1  # the torn tail itself
            _wal_append(path, [1, 2])
            recovery = ServeJournal(path, tools=TOOLS).load()
            assert set(recovery.jobs) == {"j0", "j1", "j2"}
            assert recovery.corrupt == 1  # the one repair's marker
            _wal_append(path, [3])
            recovery = ServeJournal(path, tools=TOOLS).load()
            assert set(recovery.jobs) == {"j0", "j1", "j2", "j3"}
            assert recovery.corrupt == 1
            for job_id, recovered in recovery.jobs.items():
                i = int(job_id[1:])
                assert (
                    recovered.job.result.fingerprint()
                    == _result(i).fingerprint()
                )
