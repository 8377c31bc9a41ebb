"""Chaos acceptance for the daemon (ISSUE 7).

Two layers:

* in-process — a seeded :meth:`FaultPlan.generate_serve` run mixing
  worker crashes, hangs, corrupt packages, slow-consumer stalls, torn
  journal writes, and a second SIGTERM mid-drain.  Every job must end
  terminal, the quarantine set must equal the plan's prediction, and
  no shared-memory segment may survive the drain.
* subprocess — a real ``python -m repro serve`` daemon killed with
  ``SIGKILL`` mid-corpus; a second daemon on the same journal must
  replay to fingerprint-identical results with no double-reporting.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.apk.serialization import apk_to_dict
from repro.eval.faults import FaultKind, FaultPlan
from repro.serve import ServeClient
from repro.serve.jobs import JobState

from .conftest import serve_apk

pytestmark = pytest.mark.slow

CORPUS = 12
# Seed 3 plants corrupt (permanent → quarantine), slow-consumer,
# worker-death, partial-write, and the mid-drain SIGTERM — one of
# every failure domain the daemon claims to absorb.
SEED = 3


class TestInProcessChaos:
    def test_faulted_run_loses_nothing(self, make_service):
        plan = FaultPlan.generate_serve(
            CORPUS,
            fraction=0.34,
            seed=SEED,
            hang_s=1.0,
            drain_sigterm=True,
        )
        assert plan.has_kind(FaultKind.SLOW_CONSUMER)
        assert plan.has_kind(FaultKind.PARTIAL_WRITE)
        assert plan.has_kind(FaultKind.DRAIN_SIGTERM)
        service = make_service(
            fault_plan=plan, timeout_s=5.0, max_retries=2
        )
        jobs = [
            service.submit(apk_to_dict(serve_apk(f"chaos{i}")))
            for i in range(CORPUS)
        ]
        assert service.drain(timeout_s=120.0) == "drained"

        # Acceptance: every accepted job reached a terminal state.
        assert all(job.terminal for job in jobs)
        quarantined = {
            job.seq for job in jobs
            if job.state is JobState.QUARANTINED
        }
        assert quarantined == set(plan.expected_quarantine(2))
        health = service.health()
        stats = health["queue"]
        assert stats["completed"] + stats["quarantined"] == CORPUS
        # The stream-layer degradations actually fired...
        assert stats["stalls"] == 1
        assert stats["torn_writes"] == 1
        # ...and the second SIGTERM mid-drain was absorbed.
        assert health["drain_reentries"] >= 1
        # Worker deaths were survived by respawning, not by limping.
        assert health["pool"]["restarts"] >= 1

    def test_drain_unlinks_the_shared_segment(
        self, make_service, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FORCE_SHARED_SUBSTRATE", "1")
        service = make_service()
        segment = service.supervisor._segment
        assert segment is not None, "forced segment was not published"
        handle = segment.handle
        job = service.submit(apk_to_dict(serve_apk("seg")))
        assert service.wait(job.id, timeout_s=60.0).terminal
        assert service.drain(timeout_s=60.0) == "drained"
        if handle.kind == "shm":
            assert not (Path("/dev/shm") / handle.name).exists()
        else:
            assert not Path(handle.name).exists()


def _wait_for_line(proc, needle: str, timeout_s: float) -> str:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            time.sleep(0.05)
            continue
        if needle in line:
            return line
    raise AssertionError(f"daemon never printed {needle!r}")


def _spawn_daemon(wal: Path, tmp_path: Path, tag: str):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--workers", "2",
            "--journal", str(wal),
            "--no-cache",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=str(tmp_path),
        env={
            **os.environ,
            "PYTHONPATH": str(
                Path(__file__).resolve().parents[2] / "src"
            ),
        },
    )
    line = _wait_for_line(proc, "serving on ", 90.0)
    url = line.split("serving on ", 1)[1].strip()
    return proc, url


def _processes_mentioning(needle: str) -> list[int]:
    """Pids of live processes whose cmdline contains ``needle``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if needle.encode() in cmdline:
            found.append(int(entry.name))
    return found


class TestKillMinusNineRecovery:
    def test_journal_replay_is_fingerprint_identical(self, tmp_path):
        apks = [serve_apk(f"k9-{i}") for i in range(6)]
        wal = tmp_path / "wal.jsonl"

        # Baseline: an uninterrupted daemon over the same corpus.
        proc_c, url_c = _spawn_daemon(
            tmp_path / "baseline.jsonl", tmp_path, "c"
        )
        baseline = []
        try:
            client = ServeClient(url_c, timeout_s=10.0)
            for apk in apks:
                doc = client.submit_retry(apk)
                done = client.wait(doc["id"], timeout_s=120.0)
                assert done["state"] == "completed", done
                baseline.append(ServeClient.result_of(done))
        finally:
            proc_c.send_signal(signal.SIGTERM)
            assert proc_c.wait(timeout=60) == 0

        proc_a, url_a = _spawn_daemon(wal, tmp_path, "a")
        job_ids = []
        try:
            client = ServeClient(url_a, timeout_s=10.0)
            for apk in apks:
                doc = client.submit_retry(apk)
                job_ids.append(doc["id"])
            # Let analysis genuinely start, then murder the daemon.
            time.sleep(0.5)
        finally:
            proc_a.send_signal(signal.SIGKILL)
            proc_a.wait(timeout=30)

        proc_b, url_b = _spawn_daemon(wal, tmp_path, "b")
        try:
            client = ServeClient(url_b, timeout_s=10.0)
            finished = {}
            for job_id in job_ids:
                doc = client.wait(job_id, timeout_s=120.0)
                assert doc["state"] == "completed", doc
                finished[job_id] = ServeClient.result_of(doc)
            # No job was lost and none was double-tracked.
            assert len(finished) == len(job_ids) == 6

            # Adopted + replayed results are fingerprint-identical to
            # the uninterrupted daemon's.
            for expected, job_id in zip(baseline, job_ids):
                assert (
                    finished[job_id].fingerprint()
                    == expected.fingerprint()
                )

            # The survivor actually recovered from the journal.
            health = client.healthz()
            assert health["recovery"]["terminal"] + health[
                "recovery"
            ]["pending"] >= 1
        finally:
            proc_b.send_signal(signal.SIGTERM)
            assert proc_b.wait(timeout=60) == 0

        # Daemon A's forked workers must notice the kill -9 (their
        # parent-death watchdog) and exit — no orphaned processes.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if not _processes_mentioning(str(wal)):
                break
            time.sleep(0.5)
        assert not _processes_mentioning(str(wal))

        # The journal never double-reports: one result record per id.
        counts: dict[str, int] = {}
        for line in wal.read_text().splitlines():
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue  # the SIGKILL may legitimately tear a line
            if doc.get("type") == "result":
                counts[doc["id"]] = counts.get(doc["id"], 0) + 1
        assert counts, "no results were journaled"
        assert all(n == 1 for n in counts.values()), counts
