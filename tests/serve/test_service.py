"""End-to-end daemon behaviour: parity, HTTP, drain, recovery."""

from __future__ import annotations

import threading

import pytest

from repro.eval.runner import ToolSet, analyze_app
from repro.serve import ServeClient, ServeClientError, start_server
from repro.serve.jobs import JobState
from repro.workload.appgen import ForgedApp
from repro.workload.groundtruth import GroundTruth

from .conftest import serve_apk, serve_apk_doc


class TestEndToEnd:
    def test_daemon_results_match_serial_analysis(
        self, make_service, framework, apidb
    ):
        service = make_service()
        docs = {tag: serve_apk_doc(tag) for tag in ("e0", "e1", "e2")}
        jobs = {tag: service.submit(doc) for tag, doc in docs.items()}
        toolset = ToolSet.default(
            framework, apidb, include=("SAINTDroid",)
        )
        for tag, job in jobs.items():
            done = service.wait(job.id, timeout_s=60.0)
            assert done is not None and done.terminal
            assert done.state is JobState.COMPLETED
            apk = serve_apk(tag)
            expected = analyze_app(
                toolset,
                ForgedApp(apk=apk, truth=GroundTruth(app=apk.name)),
            )
            assert (
                done.result.fingerprint() == expected.fingerprint()
            )

    def test_duplicate_fingerprint_answered_from_cache(
        self, make_service
    ):
        service = make_service()
        first = service.submit(serve_apk_doc("twin"))
        assert service.wait(first.id, timeout_s=60.0).terminal
        second = service.submit(serve_apk_doc("twin"))
        assert second.terminal and second.dedup
        assert second.result is first.result
        assert service.health()["queue"]["dedup_hits"] == 1


class TestHttp:
    def test_http_submit_wait_and_health(self, make_service):
        service = make_service()
        server = start_server(service)
        try:
            host, port = server.server_address[:2]
            client = ServeClient(f"http://{host}:{port}")
            ok, ready_doc = client.readyz()
            assert ok, ready_doc
            doc = client.submit(serve_apk("http"))
            done = client.wait(doc["id"], timeout_s=60.0)
            assert done["state"] == "completed"
            result = ServeClient.result_of(done)
            assert result.ok
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["pool"]["alive"] == 2
            assert health["pool"]["workers"] == 2
        finally:
            server.shutdown()
            server.server_close()

    def test_http_rejections_carry_status_codes(self, make_service):
        service = make_service(max_apk_bytes=64)
        server = start_server(service)
        try:
            host, port = server.server_address[:2]
            client = ServeClient(f"http://{host}:{port}")
            with pytest.raises(ServeClientError) as oversize:
                client.submit(serve_apk("fat"))
            assert oversize.value.status == 413
            with pytest.raises(ServeClientError) as malformed:
                client.submit({"garbage": True})
            assert malformed.value.status == 400
            with pytest.raises(ServeClientError) as missing:
                client.job("job-does-not-exist")
            assert missing.value.status == 404
        finally:
            server.shutdown()
            server.server_close()


class TestDrain:
    def test_drain_finishes_in_flight_then_refuses(
        self, make_service
    ):
        service = make_service()
        job = service.submit(serve_apk_doc("dr"))
        assert service.drain(timeout_s=60.0) == "drained"
        assert job.terminal  # in-flight work finished, not dropped
        assert service.drained.is_set()
        with pytest.raises(Exception) as closed:
            service.submit(serve_apk_doc("late"))
        assert getattr(closed.value, "status", None) == 503
        assert service.health()["status"] == "drained"
        ok, doc = service.ready()
        assert not ok

    def test_drain_is_idempotent(self, make_service):
        service = make_service()
        assert service.drain(timeout_s=60.0) == "drained"
        assert service.drain(timeout_s=60.0) == "drained"

    def test_concurrent_drains_collapse_to_one(self, make_service):
        service = make_service()
        for tag in ("c0", "c1", "c2", "c3"):
            service.submit(serve_apk_doc(tag))
        outcomes = []
        threads = [
            threading.Thread(
                target=lambda: outcomes.append(
                    service.drain(timeout_s=60.0)
                )
            )
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(90.0)
        assert "drained" in outcomes
        # Losers either reported in-progress or arrived after the
        # winner finished; nobody deadlocked or double-closed.
        assert all(o in ("drained", "already-draining") for o in outcomes)
        assert service.drained.is_set()


class TestRecovery:
    def test_restart_replays_pending_and_adopts_terminal(
        self, make_service, tmp_path
    ):
        wal = str(tmp_path / "recovery.jsonl")
        first = make_service(journal=wal)
        done_job = first.submit(serve_apk_doc("kept"))
        assert first.wait(done_job.id, timeout_s=60.0).terminal
        # Queue a job and tear the daemon down WITHOUT letting the
        # dispatcher finish it: close the pool out from under the
        # service the way a crash would, journal intact.
        first.queue.close()
        first.drain(timeout_s=60.0)
        # Simulate the lost job: append a job record with no result.
        from repro.serve.jobs import Job, new_job_id
        from repro.serve.journal import ServeJournal

        apk = serve_apk("lost")
        journal = ServeJournal(wal, tools=("SAINTDroid",))
        pending = Job(
            id="job-lost", seq=99, app=apk.name, fingerprint=None
        )
        journal.append_job(pending, apk)
        journal.close()

        second = make_service(journal=wal)
        recovery = second.health()["recovery"]
        assert recovery["terminal"] >= 1
        assert recovery["pending"] >= 1
        # The finished job was adopted terminally — NOT re-run.
        adopted = second.job(done_job.id)
        assert adopted is not None and adopted.terminal
        assert adopted.replayed
        assert (
            adopted.result.fingerprint()
            == done_job.result.fingerprint()
        )
        # The unfinished job was replayed to completion.
        replayed = second.wait("job-lost", timeout_s=60.0)
        assert replayed is not None and replayed.terminal
        assert replayed.replayed
        assert second.health()["queue"]["replayed"] >= 1
        # Fresh submissions never collide with recovered sequence ids.
        fresh = second.submit(serve_apk_doc("fresh"))
        assert fresh.seq > 99

    def test_replay_serves_a_cached_result_without_reanalysis(
        self, make_service, tmp_path
    ):
        """A daemon that stored a job's result in the result cache but
        died before journaling it: the restarted daemon completes the
        replayed job from the cache and journals only its result."""
        import json

        wal = tmp_path / "cached.jsonl"
        cache_dir = str(tmp_path / "cache")
        first = make_service(journal=str(wal), cache_dir=cache_dir)
        job = first.submit(serve_apk_doc("cached"))
        assert first.wait(job.id, timeout_s=60.0).terminal
        first.drain(timeout_s=60.0)
        assert first.statsz()["result_cache"]["stores"] == 1
        # The crash: the cache entry landed, the result record did not.
        lines = wal.read_text().splitlines(keepends=True)
        kept = [
            line for line in lines
            if json.loads(line).get("type") != "result"
        ]
        assert len(kept) == len(lines) - 1
        wal.write_text("".join(kept))

        second = make_service(journal=str(wal), cache_dir=cache_dir)
        assert second.health()["recovery"]["pending"] == 1
        replayed = second.wait(job.id, timeout_s=60.0)
        assert replayed.state is JobState.COMPLETED
        assert replayed.replayed and replayed.dedup
        assert replayed.result.fingerprint() == job.result.fingerprint()
        traffic = second.statsz()["result_cache"]
        assert (traffic["hits"], traffic["stores"]) == (1, 0)
        second.drain(timeout_s=60.0)
        records = [json.loads(line) for line in wal.read_text().splitlines()]
        assert [r.get("type") for r in records if r.get("id") == job.id] == [
            "job",
            "result",
        ]

    def test_restart_with_other_tools_refuses_the_journal(
        self, make_service, tmp_path
    ):
        """A daemon restarted with a different ``--include`` must not
        adopt results its journal holds for another tool set."""
        from repro.eval import CheckpointError
        from repro.serve.jobs import Job
        from repro.serve.journal import ServeJournal

        wal = str(tmp_path / "other-tools.jsonl")
        journal = ServeJournal(wal, tools=("SAINTDroid", "CID"))
        journal.append_job(
            Job(id="job-other", seq=0, app="other", fingerprint=None),
            serve_apk("other"),
        )
        journal.close()
        with pytest.raises(CheckpointError, match="written for tools"):
            make_service(journal=wal)


class TestStatsz:
    def test_statsz_reports_cumulative_cache_counters(
        self, make_service, tmp_path
    ):
        """The capacity-planning endpoint: a dedup daemon's class-store
        hit rate is visible (and climbs) as its corpus streams in."""
        service = make_service(
            dedup=True, cache_dir=str(tmp_path / "statsz-cache")
        )
        for tag in ("s0", "s1", "s2"):
            job = service.submit(serve_apk_doc(tag))
            done = service.wait(job.id, timeout_s=60.0)
            assert done is not None and done.terminal

        server = start_server(service)
        try:
            host, port = server.server_address[:2]
            doc = ServeClient(f"http://{host}:{port}").statsz()
        finally:
            server.shutdown()
            server.server_close()

        assert doc["dedup"] is True
        assert doc["uptime_s"] >= 0.0
        assert "hits" in doc["result_cache"]
        caches = doc["worker_caches"]
        assert caches["workers"] >= 1
        assert "hit_rate" in caches["framework"]
        assert "hit_rate" in caches["apidb"]
        classes = caches["classes"]
        assert classes["hits"] + classes["misses"] > 0
        assert 0.0 <= classes["hit_rate"] <= 1.0
        assert "store_sizes" in doc

        # Drain flushes worker stores and adopts their manifest rows:
        # the on-disk footprint per store becomes visible.
        service.drain(timeout_s=30.0)
        sizes = service.statsz()["store_sizes"]
        assert sizes["classes"]["entries"] > 0
        assert sizes["classes"]["bytes"] > 0

    def test_statsz_without_cache_dir_is_still_live(self, make_service):
        service = make_service()
        doc = service.statsz()
        assert doc["dedup"] is False
        assert doc["result_cache"] is None
        assert "store_sizes" not in doc
