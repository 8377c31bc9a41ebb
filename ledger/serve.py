"""Workload ``serve``: the ``saintdroid serve`` daemon under load.

The daemon runs as its own process (``--workers 1 --dedup``, a fresh
``--cache-dir`` and ``--journal`` per daemon).  Two client threads in
the benchmark process form a closed loop: each submits one app and
blocks on its verdict before taking the next, like CI bots waiting on
an APK.  Submissions come from a library-dominated overlapping corpus
(``generate_overlapping_corpus``); about a third of them are exact
resubmissions of an app whose verdict is already known.  It is the
only workload on ``serve/`` (admission, WAL journal, worker IPC), on
APK serialization over HTTP, and on ``cache/`` (class store, guard
rows, admission dedup): novel apps write artifacts while shared
library classes and resubmissions read them.

The client threads are pinned to one CPU, so the load generator never
takes more than one core; the daemon and its worker may use every CPU.
Pinning the daemon to the other CPU as well made it slower and less
steady: a single vCPU of a shared host slows down on its own, and the
daemon's HTTP front end then competes with its worker for it.

A warm-up batch, which a resident daemon pays once per lifetime, is
excluded from the latency samples.  Latency is measured on novel
submissions only; resubmissions answer in milliseconds and would make
the distribution bimodal.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

from common import (
    GENERATORS,
    Run,
    alive,
    child_env,
    children,
    cost_units,
    generate,
    pass_totals,
    quantile,
    reports_of,
    saintdroid_scores,
)

WORKERS = 1
CLIENTS = 2
#: Daemons started per run; each start is one set-up sample and the
#: last one takes the load.
DAEMONS = 3
#: Novel submissions per second of ``--seconds``; the p90 needs at
#: least 100 novel samples, so never fewer than that.
NOVEL_PER_SECOND = 16
MIN_NOVEL = 100
WARMUP = 4
#: Shared library and per-app unique layer sizes (KLOC).
LIBRARY_KLOC = 1.0
UNIQUE_KLOC = 1.0
TERMINAL = ("completed", "quarantined")


def parallelism() -> int:
    return max(WORKERS, CLIENTS, GENERATORS)


class Daemon:
    """One ``saintdroid serve`` process with its own cache and journal."""

    def __init__(self, run: Run, index: int, cpus: set[int]) -> None:
        self.dir = run.tmp / f"daemon-{index}"
        self.dir.mkdir()
        self.stderr = open(self.dir / "stderr.log", "w")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", str(WORKERS),
                "--dedup",
                "--cache-dir", str(self.dir / "cache"),
                "--journal", str(self.dir / "wal.jsonl"),
            ],
            env=child_env(run.tmp),
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            text=True,
        )
        try:
            # Set before the worker forks, which inherits it.
            os.sched_setaffinity(self.proc.pid, cpus)
            self._await_ready()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - began

    def _await_ready(self) -> None:
        from repro.serve import ServeClient

        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = line.split()[-1]
        self.client = ServeClient(self.url, timeout_s=60.0)
        deadline = time.monotonic() + 60.0
        while not self.client.readyz()[0]:
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never became ready")
            time.sleep(0.005)

    def worker_pids(self) -> list[int]:
        pids = self.client.healthz()["pool"].get("pids", [])
        return [pid for pid in pids if pid]

    def stop(self, run: Run) -> None:
        """SIGTERM: the daemon must drain, exit 0 and leave no worker."""
        workers = self.worker_pids()
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            run.check(False, "daemon did not drain within 60 s of SIGTERM")
            return
        finally:
            self.stderr.close()
        run.check(
            self.proc.returncode == 0 and "drained; bye" in out,
            f"daemon exited {self.proc.returncode} after SIGTERM",
        )
        deadline = time.monotonic() + 5.0
        while any(alive(pid) for pid in workers):
            if time.monotonic() > deadline:
                run.check(False, f"daemon workers outlived it: {workers}")
                break
            time.sleep(0.05)

    def kill(self) -> None:
        """Stop the daemon if it still runs: SIGTERM, then SIGKILL for
        it and its workers after 10 s; waits for all of them."""
        workers = children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10.0
        while any(alive(pid) for pid in workers):
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)
        self.stderr.close()


def _stream(n_novel: int, seed: int) -> list[tuple[str, int]]:
    """The measured submission order: every novel app once, and after
    every second one an exact resubmission of an app at least four
    places back, whose verdict a closed loop of two clients already
    holds."""
    rng = random.Random(seed)
    order: list[tuple[str, int]] = []
    for index in range(n_novel):
        order.append(("novel", index))
        if index % 2 == 1 and index >= 5:
            order.append(("resubmit", rng.randrange(0, index - 3)))
    return order


def _submit(client, apk_doc) -> tuple[dict, int]:
    """Submit, honouring 429 backpressure; returns the job document and
    how many 429 answers came first."""
    from repro.serve import ServeClientError

    for refused in range(50):
        try:
            return client.submit(apk_doc), refused
        except ServeClientError as exc:
            if exc.status != 429:
                raise
            time.sleep(exc.retry_after_s or 0.2)
    raise RuntimeError("429 retries exhausted")


def _drive(run, daemon, apps, order, traced_clients) -> tuple:
    """Closed loop: ``CLIENTS`` threads share ``order``; each waits on
    its verdict before taking the next.  Returns one record per
    submission and the loop's wall seconds; a submission that raised is
    a failed check."""
    from repro.apk.serialization import apk_to_dict
    from repro.serve import ServeClient

    tracer = run.tracer
    lock = threading.Lock()
    cursor = iter(enumerate(order))
    records: list[dict] = []
    errors: list[str] = []

    def client_loop(slot: int) -> None:
        client = ServeClient(daemon.url, timeout_s=60.0)
        if slot in traced_clients:
            span = tracer.span
        else:
            def span(*_args):
                return nullcontext()
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            position, (kind, index) = item
            request = f"{kind}-{position}"
            try:
                with span("serve.request", request):
                    began = time.perf_counter()
                    with span("apk.encode"):
                        apk_doc = apk_to_dict(apps[index].apk)
                    encoded = time.perf_counter()
                    with span("serve.submit"):
                        doc, refused = _submit(client, apk_doc)
                    submitted = time.perf_counter()
                    if doc["state"] not in TERMINAL:
                        with span("serve.wait"):
                            doc = client.wait(doc["id"], timeout_s=120.0)
                    ended = time.perf_counter()
                    seen_at = time.time()
            except Exception as exc:  # noqa: BLE001 — counted as a failure
                with lock:
                    errors.append(f"{request}: {type(exc).__name__}: {exc}")
                continue
            with lock:
                records.append(
                    {
                        "kind": kind,
                        "index": index,
                        "slot": slot,
                        "latency_s": ended - began,
                        "encode_s": encoded - began,
                        "submit_s": submitted - encoded,
                        "refused": refused,
                        "seen_at": seen_at,
                        "doc": doc,
                    }
                )

    threads = [
        threading.Thread(target=client_loop, args=(slot,), name=f"client-{slot}")
        for slot in range(CLIENTS)
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    for error in errors:
        run.check(False, f"submission failed: {error}")
    return records, wall


def measure(run: Run) -> tuple[dict, dict, int]:
    from repro.apk.serialization import apk_to_dict
    from repro.serve import ServeClient

    tracer = run.tracer
    n_novel = max(MIN_NOVEL, NOVEL_PER_SECOND * run.seconds)
    # Nothing is wrapped here: the spans are the clients' own.
    tracer.enabled = run.traced
    with tracer.span("workload.generate"):
        generated = generate(
            run,
            "overlap",
            WARMUP + n_novel,
            {"library_kloc": LIBRARY_KLOC, "unique_kloc": UNIQUE_KLOC},
        )
    apps = generated.apps
    warmup, apps = apps[:WARMUP], apps[WARMUP:WARMUP + n_novel]
    order = _stream(n_novel, run.seed)

    daemon_cpus = os.sched_getaffinity(0)
    client_cpu = min(daemon_cpus)
    run.stamp["cpus"] = {"clients": client_cpu, "daemon": sorted(daemon_cpus)}
    os.sched_setaffinity(0, {client_cpu})
    daemons = []
    began = time.perf_counter()
    try:
        for index in range(DAEMONS - 1):
            daemon = Daemon(run, index, daemon_cpus)
            daemons.append(daemon)
            daemon.stop(run)
        daemon = Daemon(run, DAEMONS - 1, daemon_cpus)
        daemons.append(daemon)
        run.phases["daemons"] = time.perf_counter() - began
        warm_began = time.perf_counter()
        warm_records, _ = _drive(
            run, daemon, warmup, [("novel", i) for i in range(WARMUP)], ()
        )
        warmup_s = time.perf_counter() - warm_began
        traced_clients = (0,) if run.traced else ()
        records, wall = _drive(
            run, daemon, apps, order, traced_clients
        )
        tracer.enabled = False
        run.phases["load"] = wall
        statsz = daemon.client.statsz()
        health = daemon.client.healthz()
        stopping = time.perf_counter()
        daemon.stop(run)
        run.phases["stop"] = time.perf_counter() - stopping
    finally:
        for daemon in daemons:
            daemon.kill()

    # -- correctness --------------------------------------------------
    novel = [r for r in records if r["kind"] == "novel"]
    resubmits = [r for r in records if r["kind"] == "resubmit"]
    not_completed = [
        r["doc"]["app"]
        for r in warm_records + records
        if r["doc"].get("state") != "completed"
    ]
    run.check(
        not not_completed,
        f"not completed: {not_completed[:5]}",
        len(not_completed),
    )
    results = {}
    for record in novel:
        results[record["index"]] = ServeClient.result_of(record["doc"])
    for record in resubmits:
        original = results.get(record["index"])
        replay = ServeClient.result_of(record["doc"])
        run.check(
            original is not None
            and replay is not None
            and replay.findings_fingerprint()
            == original.findings_fingerprint(),
            f"resubmission of app {record['index']} changed its findings",
        )
    latencies = [r["latency_s"] for r in novel]
    run.samples = [
        {
            key: record[key]
            for key in ("kind", "slot", "latency_s", "submit_s", "seen_at")
        }
        | {
            "started": record["doc"].get("startedAt"),
            "finished": record["doc"].get("finishedAt"),
        }
        for record in records
    ]
    scored = [i for i in sorted(results) if results[i] is not None]
    ordered = [results[i] for i in scored]
    # Submissions carry no truth; the generator's stays client-side.
    precision, recall = saintdroid_scores(
        ordered, [apps[i].truth for i in scored]
    )
    setups = [d.setup_s for d in daemons]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "apps_per_s": len(records) / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": quantile(latencies, 90),
        "recall": recall,
        "precision": precision,
    }

    # -- per layer ----------------------------------------------------
    reports = reports_of(ordered)
    work, memory = cost_units(reports)
    workers = statsz.get("worker_caches") or {}
    classes = workers.get("classes") or {}
    result_cache = statsz.get("result_cache") or {}

    def median_of(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def doc_delta(record, late, early):
        doc = record["doc"]
        if doc.get(late) is None or doc.get(early) is None:
            return None
        return doc[late] - doc[early]

    def deltas(late, early):
        return [
            d for d in (doc_delta(r, late, early) for r in novel)
            if d is not None
        ]

    def novel_median(slot):
        return median_of(r["latency_s"] for r in novel if r["slot"] == slot)

    layers = {
        # The daemon builds its substrate out of sight; the generators'
        # cold builds of the same substrate stand in for it.
        "framework.build_s": median_of(
            g["framework_s"] for g in generated.setups
        ),
        "arm.apidb_build_s": median_of(g["apidb_s"] for g in generated.setups),
        "framework.class_hit_rate": (workers.get("framework") or {}).get(
            "hit_rate", 0.0
        ),
        "apidb.memo_hit_rate": (workers.get("apidb") or {}).get(
            "hit_rate", 0.0
        ),
        "analysis.work_units": work,
        "analysis.memory_units": memory,
        "workload.plan_s": generated.seconds,
        "workload.picker_builds": generated.picker_builds,
        "cache.classes.hit_rate": classes.get("hit_rate", 0.0),
        "cache.classes.guard_hit_rate": classes.get("guard_hit_rate", 0.0),
        "cache.classes.stores": classes.get("stores", 0),
        "cache.results.hit_rate": result_cache.get("hit_rate", 0.0),
        "serve.dedup_hits": health["queue"].get("dedup_hits", 0),
        "apk.encode_s": median_of(r["encode_s"] for r in novel),
        "apk.request_bytes": median_of(
            len(json.dumps({"apk": apk_to_dict(apps[r["index"]].apk)}))
            for r in novel
            if run.traced
        ),
        "serve.submit_s": median_of(r["submit_s"] for r in novel),
        "serve.queue_wait_s": median_of(deltas("startedAt", "submittedAt")),
        "serve.service_s": median_of(deltas("finishedAt", "startedAt")),
        "serve.result_wake_s": median_of(
            r["seen_at"] - r["doc"]["finishedAt"]
            for r in novel
            if r["doc"].get("finishedAt") is not None
        ),
        "serve.hit_latency_p50_s": median_of(
            r["latency_s"] for r in resubmits
        ),
        "serve.rejected_429": sum(r["refused"] for r in records),
        "serve.worker_restarts": health["pool"].get("restarts", 0),
        "serve.warmup_s": warmup_s,
        "latency.samples": len(latencies),
        # Client 0 traces, client 1 does not; in a closed loop a
        # client's throughput is the inverse of its latency.
        "trace.overhead_ratio": (
            novel_median(1) / novel_median(0) if run.traced else 1.0
        ),
    }
    for name, seconds in pass_totals(reports).items():
        layers[f"pass.{name}_s"] = seconds
    return end_to_end, layers, WARMUP + len(order)
