"""Parallel corpus analysis: one supervised process pool.

Large-scale studies vet thousands of apps; analyzing them strictly
serially throws away both hardware parallelism and the fact that every
per-app analysis shares the same immutable substrate (framework spec,
API database).  :class:`PoolBackend` is the only process pool in the
package: ``run_tools(jobs=N)`` (so ``table``, ``rq2``, ``figure``,
``difftest`` and ``compare``) and the ``serve`` daemon both run on it.

* **one tool set** — the caller hands the pool its
  :class:`~repro.eval.runner.ToolSet`: the tools, the framework
  repository and API database they share, and the summaries/dedup
  configuration with its cache directory.  The parent warms the
  framework levels the pending apps target (and the framework summary
  table, when enabled) in that repository, then passes the tool set
  to every worker as a process argument.  Under fork it is not
  pickled: the worker inherits it as copy-on-write pages.  Under
  spawn each worker unpickles it once.  Every worker therefore runs
  exactly the analyzer the serial loop would, a caller-built tool
  included, and every app it analyzes hits the framework class cache
  and database memo tables.  Each worker moves what it was handed to
  the cyclic collector's permanent generation (``gc.freeze()``), so
  no collection in the worker re-walks the substrate;
* **per-slot workers** — each slot is one forked process with a
  private duplex pipe and a heartbeat cell; a worker loops
  ``recv task → analyze_app → send result`` for the life of the pool,
  one app per task, and the parent hands a task only to an idle
  worker;
* **app shipping** — in a forked batch run the pending apps travel
  as an ``{index: app}`` process argument too, so every worker (a
  respawned one too) already holds them and tasks carry the index
  only.  The daemon's pool starts before any job exists, and a spawn
  pool is given an empty map; there, each task carries its app;
* **failure isolation** — a crashing or timed-out app yields an
  :class:`~repro.eval.runner.AppResult` with a structured
  :class:`~repro.core.errors.AnalysisError`, never a dead run.  A
  **dead** worker (injected ``worker-death``, an OOM kill, ``kill
  -9``) or a **hung** one (busy past the hang deadline, when one is
  set) costs exactly the app it was analyzing: that app gets a
  retryable ``worker-lost`` record and the slot is **respawned in
  place**, so the pool never shrinks and no other worker's app is
  disturbed;
* **exactly once** — results are matched on ``(index, attempt)``
  with a done-set, so a synthesized loss and a late real result can
  never both be delivered;
* **deterministic ordering** — per-app computation is the exact
  :func:`~repro.eval.runner.analyze_app` the serial loop uses, and
  the engine restores corpus order, so a pooled run's
  :meth:`RunResults.fingerprint` is identical to a serial run's.

The retry/quarantine/checkpoint/cache envelope is NOT implemented
here: it lives — once, shared verbatim with the serial scheduler — in
:mod:`repro.eval.orchestration` (:func:`run_corpus` for a fixed
corpus, :func:`run_stream` for the daemon; the first is a stream over
a closed source).  This module contributes only the scheduling
backend.  A retry wave re-dispatches its apps to the same resident
workers; a fault-free run forks each worker once.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import TYPE_CHECKING

from ..cache.classes import ClassStoreStats
from ..core.apidb import DbCacheCounters
from ..core.arm import register_database
from ..core.errors import AnalysisError, AnalysisPhase, ErrorKind
from ..framework.repository import FrameworkCacheStats
from ..workload.appgen import ForgedApp
from .orchestration import CorpusBackend, Entry
from .runner import AppResult, ToolSet, analyze_app, summed_stats

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from .faults import FaultPlan

__all__ = ["PoolBackend"]


# -- worker side -----------------------------------------------------------

def _worker_main(conn, heartbeat, slot: int, apps, toolset: ToolSet) -> None:
    """One pool worker: analyze with the caller's ``toolset`` — every
    app the worker analyzes reuses it, so this is where the cross-app
    framework/database caches live — serving tasks off the pipe until
    the ``None`` sentinel (or pipe loss).  ``apps`` maps corpus
    indices to the apps a task may name by index alone."""
    import signal as _signal

    # The daemon's drain handler belongs to the parent; a worker that
    # inherited it must die plainly when terminated.
    try:
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover
        pass
    framework, apidb = toolset.framework, toolset.apidb
    # A spawned worker holds an unpickled copy: make later
    # build_api_database() calls over its spec memo hits.
    register_database(framework.spec, apidb)
    # The substrate carries whatever cache counters its builder
    # accumulated — a warm start we gladly keep, but the accounting
    # must cover only this worker's activity.
    apidb.reset_cache_counters()
    framework.cache_stats = FrameworkCacheStats()
    # The substrate is immutable and acyclic: move it to the
    # collector's permanent generation so no collection in this
    # worker re-walks it (and, under fork, so none touches the pages
    # it shares with the parent).  Classes the worker materializes
    # itself are frozen after the task that built them.  The caller
    # never freezes: its own cycles stay collectable.
    gc.freeze()
    frozen_classes = framework.cached_class_count
    heartbeat[slot] = time.time()
    parent = os.getppid()
    while True:
        try:
            # A plain blocking recv() would wedge forever if the
            # parent is SIGKILLed: forked siblings inherit each
            # other's parent-end pipe fds, so EOF never arrives.
            # Poll with a deadline and watch for reparenting instead.
            while not conn.poll(1.0):
                if os.getppid() != parent:  # orphaned by kill -9
                    return
            task = conn.recv()
        except (EOFError, OSError):  # parent died or closed the pipe
            return
        if task is None:
            return
        index, forged, attempt, timeout_s, fault = task
        if forged is None:
            forged = apps[index]
        heartbeat[slot] = time.time()
        result = analyze_app(
            toolset,
            forged,
            timeout_s=timeout_s,
            fault=fault,
            attempt=attempt,
            allow_process_death=True,
        )
        heartbeat[slot] = time.time()
        try:
            conn.send(
                (os.getpid(), index, attempt, result, toolset.cache_stats())
            )
        except (BrokenPipeError, OSError):  # pragma: no cover
            return
        if framework.cached_class_count > frozen_classes:
            # Also freezes the task's uncollected cyclic garbage: a
            # few hundred objects per app, and only on the tasks that
            # grew the cache.
            gc.freeze()
            frozen_classes = framework.cached_class_count


# -- parent side -----------------------------------------------------------

def _pool_context():
    """Prefer fork (cheap worker startup, parent pages shared); fall
    back to the platform default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return multiprocessing.get_context()


def _worker_lost_results(
    entries: list[Entry], exc: BaseException
) -> list[tuple[int, AppResult]]:
    """Synthesize failure records for entries whose worker died or
    hung: the run continues, the apps are recorded as ``worker-lost``
    and — being retryable — re-dispatched if budget remains."""
    out = []
    for index, forged, attempt in entries:
        error = AnalysisError(
            kind=ErrorKind.WORKER_LOST,
            phase=AnalysisPhase.TOOL,
            message=f"worker process lost: {type(exc).__name__}: {exc}",
            retryable=True,
            attempts=attempt + 1,
        )
        out.append(
            (
                index,
                AppResult(
                    app=forged.apk.name,
                    truth=forged.truth,
                    kloc=forged.apk.dex_kloc,
                    error=error,
                ),
            )
        )
    return out


def _merge_cache_stats(snapshots: dict[int, dict]) -> dict:
    """Sum per-worker cumulative snapshots into one corpus view."""
    workers = snapshots.values()
    framework = summed_stats(
        FrameworkCacheStats, (s["framework"] for s in workers)
    )
    # Each worker's own rate, not just the blended one: the blend can
    # hide a single cold worker re-materializing the world.
    framework["per_worker_hit_rates"] = sorted(
        round(
            summed_stats(FrameworkCacheStats, [s["framework"]])["hit_rate"],
            4,
        )
        for s in workers
    )
    merged = {
        "workers": len(snapshots),
        "framework": framework,
        "apidb": summed_stats(DbCacheCounters, (s["apidb"] for s in workers)),
    }
    # Class-artifact store traffic (only present in --dedup workers).
    classes = [s["classes"] for s in workers if s.get("classes")]
    if classes:
        merged["classes"] = summed_stats(ClassStoreStats, classes)
    return merged


def _pending_levels(pending) -> list[int]:
    """The framework levels the pending apps target, sorted."""
    levels: set[int] = set()
    for _index, forged, _attempt in pending:
        try:
            levels.add(forged.apk.manifest.effective_max_sdk)
        except Exception:  # noqa: BLE001 — hostile app: its own
            continue  # analysis will record the failure, not prep
    return sorted(levels)


#: How long one drain waits for a worker's answer before the parent
#: checks liveness and hang deadlines again.
_DRAIN_POLL_S = 0.05


@dataclass
class _Worker:
    process: object
    conn: object


class PoolBackend(CorpusBackend):
    """Supervised resident worker pool: one forked process per slot,
    respawned in place when it dies or hangs."""

    def __init__(
        self,
        toolset: ToolSet,
        *,
        workers: int = 2,
        timeout_s: float | None = None,
        hang_timeout_s: float | None = 30.0,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        super().__init__(toolset, fault_plan=fault_plan)
        self.workers = max(1, workers)
        #: Per-app wall-clock budget, enforced inside the worker.
        self.timeout_s = timeout_s
        #: Parent-side backstop on top of ``timeout_s`` before a busy
        #: worker is declared hung and replaced; ``None`` never kills.
        self.hang_timeout_s = hang_timeout_s
        self._ctx = _pool_context()
        self._heartbeat = self._ctx.Array("d", self.workers, lock=False)
        self._pool: list[_Worker | None] = [None] * self.workers
        #: The entry each busy slot is analyzing, and when it was sent.
        self._inflight: dict[int, tuple[Entry, float]] = {}
        self._worker_stats: dict[int, dict] = {}
        #: The apps forked workers are given by index.
        self._apps: dict[int, ForgedApp] = {}
        self._started = False
        self._closed = False
        self.restarts = 0

    # -- CorpusBackend surface -----------------------------------------

    def prepare(self, pending=()) -> None:
        # A batch run starts the pool here, once the work list is
        # known; the daemon has started it already and this is a no-op.
        self.start(pending=pending)

    def cache_stats(self) -> dict:
        """Merged per-worker cache statistics (latest snapshot per
        pid) without the flush side effects of :meth:`finish` — the
        ``/statsz`` read path."""
        return _merge_cache_stats(self._worker_stats)

    # -- lifecycle -----------------------------------------------------

    def start(self, pending=()) -> None:
        """Warm the framework levels the ``pending`` entries target and
        start one worker per slot.  Idempotent."""
        if self._started:
            return
        toolset = self.toolset
        framework = toolset.framework
        levels = _pending_levels(pending)
        for level in levels:
            try:
                framework.warm_level(level)
            except ValueError:  # level outside the modeled range
                continue
        if toolset.summaries:
            from ..analysis.fwsummaries import summary_table

            # Build the table parent-side, from the levels just warmed,
            # so forked workers inherit it as copy-on-write pages.
            table = summary_table(framework, store_dir=toolset.cache_dir)
            for level in levels:
                try:
                    table.level_summaries(level)
                except ValueError:  # pragma: no cover — range-checked
                    continue
        if self._ctx.get_start_method() == "fork":
            self._apps = {index: forged for index, forged, _ in pending}
        for slot in range(self.workers):
            self._spawn(slot)
        self._started = True

    def _spawn(self, slot: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._heartbeat,
                slot,
                self._apps,
                self.toolset,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._pool[slot] = _Worker(process=process, conn=parent_conn)

    def _respawn(self, slot: int) -> None:
        worker = self._pool[slot]
        if worker is not None:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(timeout=5.0)
        self.restarts += 1
        self._spawn(slot)

    def close(self) -> None:
        """Stop every worker and drop the app map.  Idempotent and safe
        mid-batch or before :meth:`start`: the engines call it from a
        ``finally``."""
        if self._closed:
            return
        self._closed = True
        for worker in self._pool:
            if worker is None:
                continue
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._pool:
            if worker is None:
                continue
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover — stuck
                worker.process.kill()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._pool = [None] * self.workers
        self._inflight.clear()
        self._apps = {}

    # -- dispatch ------------------------------------------------------

    def _hang_deadline(self) -> float | None:
        # analyze_app enforces timeout_s inside the worker, so a
        # healthy worker answers within roughly one timeout; the hang
        # deadline is the backstop for a truly wedged process.
        if self.hang_timeout_s is None:
            return None
        return (self.timeout_s or 0.0) + self.hang_timeout_s

    def _task(self, entry: Entry) -> tuple:
        """The message one entry travels as: a forked worker already
        holds a batch run's app, so only its index goes over the pipe."""
        index, forged, attempt = entry
        fault = (
            self.fault_plan.analysis_fault_for(index)
            if self.fault_plan is not None
            else None
        )
        if index in self._apps:
            forged = None
        return (index, forged, attempt, self.timeout_s, fault)

    def run_round(
        self, pending: list[Entry]
    ) -> list[tuple[Entry, AppResult]]:
        """Dispatch one batch (a batch run's corpus or retry wave, or
        a daemon micro-batch) over the resident pool, surviving worker death and hangs
        without losing a single entry."""
        if not self._started:
            self.start()
        out: list[tuple[Entry, AppResult]] = []
        todo: deque[Entry] = deque(pending)
        done: set[tuple[int, int]] = set()
        deadline = self._hang_deadline()

        def _settle(entry: Entry, result: AppResult) -> None:
            key = (entry[0], entry[2])
            if key in done:
                return
            done.add(key)
            out.append((entry, result))

        def _receive(slot: int, message) -> None:
            pid, index, attempt, result, stats = message
            entry, _t0 = self._inflight.pop(slot)
            self._worker_stats[pid] = stats
            if (index, attempt) != (entry[0], entry[2]):
                # A stale answer (unreachable with a fresh pipe per
                # respawn): drop it, re-dispatch the held entry.
                todo.append(entry)
                return
            _settle(entry, result)

        def _lose(slot: int, exc: BaseException) -> None:
            # Charge the app the worker was on, then replace it.
            held = self._inflight.pop(slot, None)
            if held is not None:
                entry, _t0 = held
                for _index, result in _worker_lost_results([entry], exc):
                    _settle(entry, result)
            self._respawn(slot)

        while len(out) < len(pending):
            # 1. Feed idle workers, one task each: a busy worker reads
            #    nothing, so a second task could block the parent's
            #    send() for as long as that worker's app runs.
            for slot, worker in enumerate(self._pool):
                if not todo:
                    break
                if worker is None or slot in self._inflight:
                    continue
                if not worker.process.is_alive():
                    self._respawn(slot)
                    worker = self._pool[slot]
                entry = todo.popleft()
                try:
                    worker.conn.send(self._task(entry))
                except (BrokenPipeError, OSError):
                    todo.appendleft(entry)
                    self._respawn(slot)
                    continue
                self._inflight[slot] = (entry, time.monotonic())

            # 2. Drain whatever is ready.
            busy = {self._pool[slot].conn: slot for slot in self._inflight}
            ready = (
                connection.wait(list(busy), timeout=_DRAIN_POLL_S)
                if busy
                else []
            )
            for ready_conn in ready:
                try:
                    message = ready_conn.recv()
                except (EOFError, OSError):
                    # Worker died: the liveness pass charges its app.
                    continue
                _receive(busy[ready_conn], message)

            # 3. Liveness: replace dead workers, kill hung ones.
            now = time.monotonic()
            for slot, worker in enumerate(self._pool):
                if worker is None:
                    continue
                held = self._inflight.get(slot)
                if not worker.process.is_alive():
                    # An answer sent before dying is still readable.
                    try:
                        if held is not None and worker.conn.poll():
                            _receive(slot, worker.conn.recv())
                    except (EOFError, OSError):
                        pass
                    _lose(slot, RuntimeError(
                        f"worker pid {worker.process.pid} died"
                    ))
                elif (
                    held is not None
                    and deadline is not None
                    and now - held[1] > deadline
                ):
                    _lose(slot, TimeoutError(
                        f"worker pid {worker.process.pid} hung past "
                        f"{deadline:.1f}s"
                    ))
        return out

    # -- observability -------------------------------------------------

    def liveness(self) -> dict:
        """Pool health for ``/healthz``: per-slot liveness, busyness,
        heartbeats, and the respawn count.  PIDs are exposed so chaos
        tests (and the CI smoke) can kill a real worker."""
        now = time.time()
        alive = busy = 0
        pids: list[int | None] = []
        heartbeat_age: list[float | None] = []
        for slot, worker in enumerate(self._pool):
            if worker is None:
                pids.append(None)
                heartbeat_age.append(None)
                continue
            if worker.process.is_alive():
                alive += 1
            if slot in self._inflight:
                busy += 1
            pids.append(worker.process.pid)
            beat = self._heartbeat[slot]
            heartbeat_age.append(round(now - beat, 3) if beat else None)
        return {
            "workers": self.workers,
            "alive": alive,
            "busy": busy,
            "restarts": self.restarts,
            "pids": pids,
            "heartbeat_age_s": heartbeat_age,
        }
