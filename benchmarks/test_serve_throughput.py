"""E9 — daemon throughput: the resident analysis service over HTTP.

One in-process ``saintdroid serve`` daemon (substrate loaded once,
supervised worker pool) takes a corpus of distinct apps through the
full HTTP path — admission, write-ahead journal, dispatch, result
marshalling — from concurrent client threads, twice:

* **cold** — every app is novel: full analysis on the pool; this is
  the daemon's steady-state jobs/sec;
* **warm** — the identical corpus resubmitted: every fingerprint hits
  the in-memory dedup index, so jobs are answered terminally at
  admission without touching a worker.

Numbers land in ``results/BENCH_serve.json``: cold jobs/sec, client-
observed p50/p99 latency for both passes, and the warm-pass dedup hit
rate (which must be 1.0 — the same package answered twice is the
whole point of a resident daemon).

Environment knobs: ``REPRO_SERVE_CORPUS`` (apps, default 24),
``REPRO_SERVE_JOBS`` (workers, default 4), ``REPRO_SERVE_CLIENTS``
(concurrent submitting threads, default 8).
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.arm import mine_spec
from repro.framework import FrameworkRepository, default_spec
from repro.serve import AnalysisService, ServeClient, ServeConfig, start_server
from repro.workload.corpus import CorpusConfig, generate_corpus

from .conftest import RESULTS_DIR

CORPUS_SIZE = int(os.environ.get("REPRO_SERVE_CORPUS", "24"))
WORKERS = int(os.environ.get("REPRO_SERVE_JOBS", "4"))
CLIENTS = int(os.environ.get("REPRO_SERVE_CLIENTS", "8"))

BENCH_CORPUS = CorpusConfig(
    count=CORPUS_SIZE, kloc_median=3.0, kloc_max=12.0, seed=13579
)


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


@pytest.fixture(scope="module")
def serve_bench(tmp_path_factory) -> dict:
    spec = default_spec()
    framework = FrameworkRepository(spec)
    apidb = mine_spec(spec)
    apps = [
        member.forged
        for member in generate_corpus(BENCH_CORPUS, apidb)
    ]
    wal = tmp_path_factory.mktemp("serve-bench") / "wal.jsonl"

    config = ServeConfig(
        workers=WORKERS,
        include=("SAINTDroid",),
        journal=str(wal),
        queue_limit=max(64, CORPUS_SIZE * 2),
        timeout_s=60.0,
    )
    service = AnalysisService(
        config, spec, substrate=(framework, apidb)
    ).start()
    server = start_server(service)
    host, port = server.server_address[:2]
    base_url = f"http://{host}:{port}"

    def submit_and_wait(forged):
        client = ServeClient(base_url, timeout_s=30.0)
        start = time.perf_counter()
        doc = client.submit_retry(forged.apk)
        if doc["state"] not in ("completed", "quarantined"):
            doc = client.wait(doc["id"], timeout_s=600.0)
        return {
            "latency_s": time.perf_counter() - start,
            "state": doc["state"],
            "dedup": bool(doc.get("dedup")),
        }

    def run_pass():
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            outcomes = list(pool.map(submit_and_wait, apps))
        return time.perf_counter() - start, outcomes

    try:
        cold_s, cold = run_pass()
        warm_s, warm = run_pass()
        health = ServeClient(base_url).healthz()
    finally:
        server.shutdown()
        server.server_close()
        service.drain(timeout_s=120.0)

    return {
        "apps": len(apps),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold": cold,
        "warm": warm,
        "health": health,
    }


class TestServeThroughput:
    def test_every_job_completes(self, serve_bench):
        for outcome in serve_bench["cold"] + serve_bench["warm"]:
            assert outcome["state"] == "completed"

    def test_warm_pass_is_pure_dedup(self, serve_bench):
        assert all(o["dedup"] for o in serve_bench["warm"])
        assert not any(o["dedup"] for o in serve_bench["cold"])
        stats = serve_bench["health"]["queue"]
        assert stats["dedup_hits"] == serve_bench["apps"]

    def test_warm_latency_beats_cold(self, serve_bench):
        cold_p50 = _percentile(
            [o["latency_s"] for o in serve_bench["cold"]], 0.5
        )
        warm_p50 = _percentile(
            [o["latency_s"] for o in serve_bench["warm"]], 0.5
        )
        # A dedup answer skips the pool entirely; even a generous
        # margin (2×) holds on loaded CI boxes.
        assert warm_p50 <= cold_p50 / 2

    def test_publish_report(self, serve_bench):
        cold_lat = [o["latency_s"] for o in serve_bench["cold"]]
        warm_lat = [o["latency_s"] for o in serve_bench["warm"]]
        report = {
            "corpus": serve_bench["apps"],
            "workers": WORKERS,
            "client_threads": CLIENTS,
            "cold": {
                "jobs_per_sec": round(
                    serve_bench["apps"] / serve_bench["cold_s"], 3
                ),
                "wall_s": round(serve_bench["cold_s"], 3),
                "p50_latency_s": round(_percentile(cold_lat, 0.5), 4),
                "p99_latency_s": round(_percentile(cold_lat, 0.99), 4),
            },
            "warm": {
                "jobs_per_sec": round(
                    serve_bench["apps"] / serve_bench["warm_s"], 3
                ),
                "wall_s": round(serve_bench["warm_s"], 3),
                "p50_latency_s": round(_percentile(warm_lat, 0.5), 4),
                "p99_latency_s": round(_percentile(warm_lat, 0.99), 4),
                "dedup_hit_rate": round(
                    sum(o["dedup"] for o in serve_bench["warm"])
                    / serve_bench["apps"],
                    3,
                ),
            },
            "pool": {
                "restarts": serve_bench["health"]["pool"]["restarts"],
            },
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_serve.json").write_text(
            json.dumps(report, indent=2) + "\n"
        )
        print()
        print(json.dumps(report, indent=2))
