"""The daemon object: substrate + journal + queue + worker pool +
dispatcher, wired and lifecycle-managed.

:class:`AnalysisService` is the HTTP-free heart of ``saintdroid
serve`` — tests and benchmarks drive it in-process, the HTTP layer
(:mod:`repro.serve.server`) is a thin adapter over it.  Lifecycle:

``start()``
    builds the substrate once (or adopts a given one), then over it the one
    :class:`~repro.eval.runner.ToolSet` that every worker runs and
    that keys the result cache, replays the write-ahead
    journal — terminal results are adopted verbatim, acknowledged but
    unfinished jobs are re-enqueued with their original ids — opens
    the persistent result cache for cross-restart dedup, spawns the
    supervised worker pool, and starts the dispatcher thread
    (:func:`repro.eval.orchestration.run_stream` over the queue).

``drain()``
    the graceful-shutdown path (SIGTERM): stop admitting, let the
    dispatcher finish every in-flight job, stop the workers, close
    the journal and flush the cache.  Idempotent —
    a second SIGTERM mid-drain is absorbed, not amplified.

``health()`` / ``ready()``
    the ``/healthz``–``/readyz`` payloads: queue depth, worker
    liveness, cache hit rates, drain state.  ``health()`` always
    answers; ``ready()`` is the load-balancer gate (started, not
    draining, at least one live worker, queue below capacity).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..apk.serialization import apk_from_dict
from ..cache.fingerprint import fingerprint_config, fingerprint_spec
from ..core.arm import build_api_database
from ..eval.faults import FaultKind
from ..eval.orchestration import run_stream
from ..eval.parallel import PoolBackend
from ..eval.runner import DEFAULT_TOOLS, ToolSet
from ..framework.repository import FrameworkRepository
from ..framework.spec import FrameworkSpec
from ..workload.appgen import ForgedApp
from ..workload.groundtruth import GroundTruth
from .jobs import Job
from .journal import ServeJournal
from .queue import JobQueue

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from ..eval.faults import FaultPlan

__all__ = ["ServeConfig", "AnalysisService"]

#: Dispatcher batch size per worker: a batch keeps every worker busy
#: with one app queued behind it.
_BATCH_PER_WORKER = 2
#: How long the dispatcher blocks on an empty queue.
_POLL_S = 0.05
#: Default drain budget for in-flight work on shutdown.
_DRAIN_TIMEOUT_S = 30.0


@dataclass
class ServeConfig:
    """Knobs for one daemon."""

    #: Supervised worker processes.
    workers: int = 2
    #: Tool names of the daemon's tool set.
    include: tuple[str, ...] = DEFAULT_TOOLS
    #: Bound the CLVM with whole-framework pre-summaries.
    summaries: bool = False
    #: Delta analysis against the corpus-wide class-artifact store —
    #: a resident daemon's hit rate climbs as its corpus streams in.
    dedup: bool = False
    #: Persistent cache directory (result cache for cross-restart
    #: dedup, summary tables, class store); ``None`` disables all.
    cache_dir: str | None = None
    #: Write-ahead journal path (fsynced on every append; a journal
    #: written for other tools is refused at start); ``None``
    #: disables crash recovery.
    journal: str | None = None
    #: Admission-queue capacity (queued + running).
    queue_limit: int = 64
    #: Load-shed serialized packages above this size (``None`` = no
    #: limit).
    max_apk_bytes: int | None = None
    #: Retry-After hint sent with 429 rejections.
    retry_after_s: float = 0.5
    #: Per-app wall-clock budget inside workers.
    timeout_s: float | None = 20.0
    #: Backstop deadline before a busy worker is declared hung.
    hang_timeout_s: float = 30.0
    #: Retry budget for retryable failures before quarantine.
    max_retries: int = 2
    #: Full-jitter backoff base between retries.
    retry_backoff_s: float = 0.05
    #: Injected faults (chaos testing only).
    fault_plan: "FaultPlan | None" = None


@dataclass
class _ServiceState:
    started_at: float | None = None
    draining: bool = False
    drained: bool = False
    stream_stats: dict = field(default_factory=dict)
    recovery: dict = field(default_factory=dict)
    drain_reentries: int = 0
    worker_cache_stats: dict = field(default_factory=dict)


class AnalysisService:
    """One resident analysis daemon (HTTP-free)."""

    def __init__(
        self,
        config: ServeConfig,
        spec: FrameworkSpec,
        *,
        substrate: "tuple[FrameworkRepository, object] | None" = None,
    ) -> None:
        self.config = config
        self.spec = spec
        self._substrate = substrate
        self.journal: ServeJournal | None = None
        self.queue: JobQueue | None = None
        self.pool: PoolBackend | None = None
        self._result_cache = None
        self._dispatcher: threading.Thread | None = None
        self._state = _ServiceState()
        self._drain_lock = threading.Lock()
        #: Set once drain completes — the CLI blocks on this.
        self.drained = threading.Event()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "AnalysisService":
        config = self.config
        if self._substrate is not None:
            framework, apidb = self._substrate
        else:
            framework = FrameworkRepository(self.spec)
            apidb = build_api_database(framework)
        # The one description of this daemon's analyzer: every worker
        # runs it, and it keys the result cache.
        toolset = ToolSet.default(
            framework,
            apidb,
            include=config.include,
            summaries=config.summaries,
            dedup=config.dedup,
            cache_dir=config.cache_dir,
        )
        recovery = None
        if config.journal is not None:
            self.journal = ServeJournal(
                config.journal, tools=toolset.tool_names
            )
            recovery = self.journal.load()
        if config.cache_dir is not None:
            from ..cache.results import ResultCache

            self._result_cache = ResultCache(
                config.cache_dir,
                framework_fingerprint=fingerprint_spec(self.spec),
                # The batch engine's key: one cache serves both.
                config_fingerprint=fingerprint_config(
                    toolset.tool_names, toolset.config_options() or None
                ),
            )
        self.queue = JobQueue(
            journal=self.journal,
            result_cache=self._result_cache,
            limit=config.queue_limit,
            max_apk_bytes=config.max_apk_bytes,
            retry_after_s=config.retry_after_s,
            fault_plan=config.fault_plan,
            start_seq=(recovery.max_seq + 1) if recovery else 0,
        )
        self.pool = PoolBackend(
            toolset,
            workers=config.workers,
            timeout_s=config.timeout_s,
            hang_timeout_s=config.hang_timeout_s,
            fault_plan=config.fault_plan,
        )
        self.pool.start()
        replayed = self._replay(recovery)
        self._dispatcher = threading.Thread(
            target=self._dispatch, name="serve-dispatcher", daemon=True
        )
        self._state.started_at = time.time()
        self._state.recovery = replayed
        self._dispatcher.start()
        return self

    def _replay(self, recovery) -> dict:
        """Adopt journaled terminal results; re-enqueue acknowledged
        jobs the previous incarnation never finished."""
        replayed = {"terminal": 0, "pending": 0, "corrupt": 0, "dropped": 0}
        if recovery is None:
            return replayed
        replayed["corrupt"] = recovery.corrupt
        for recovered in recovery.terminal():
            self.queue.adopt(recovered.job)
            replayed["terminal"] += 1
        for recovered in recovery.pending():
            if recovered.apk_doc is None:
                # A torn job record with no package: nothing to rerun
                # (and the submission was never acknowledged).
                replayed["dropped"] += 1
                continue
            try:
                apk = apk_from_dict(recovered.apk_doc, strict=True)
                truth = (
                    GroundTruth.from_dict(recovered.truth_doc)
                    if recovered.truth_doc is not None
                    else GroundTruth(app=apk.name)
                )
            except Exception:  # noqa: BLE001 — damaged payload
                replayed["dropped"] += 1
                continue
            self.queue.resubmit(
                recovered.job, ForgedApp(apk=apk, truth=truth)
            )
            replayed["pending"] += 1
        return replayed

    def _dispatch(self) -> None:
        self._state.stream_stats = run_stream(
            self.queue,
            self.pool,
            max_retries=self.config.max_retries,
            retry_backoff_s=self.config.retry_backoff_s,
            batch_limit=max(1, _BATCH_PER_WORKER * self.config.workers),
            poll_s=_POLL_S,
        )

    def drain(self, timeout_s: float | None = None) -> str:
        """Graceful shutdown.  Idempotent: the first caller drains,
        every concurrent or repeated caller gets ``already-draining``
        back immediately — which is exactly how a second SIGTERM
        mid-drain is absorbed."""
        if not self._drain_lock.acquire(blocking=False):
            self._state.drain_reentries += 1
            return "already-draining"
        try:
            if self._state.drained:
                return "drained"
            self._state.draining = True
            budget = timeout_s if timeout_s is not None else _DRAIN_TIMEOUT_S
            if self.queue is not None:
                self.queue.close()
            self._inject_drain_fault()
            if self._dispatcher is not None:
                self._dispatcher.join(timeout=budget)
            if self.pool is not None:
                # Adopt worker-written class artifacts into the shared
                # manifest and enforce the byte budget (no-op without
                # ``--dedup``), then stop the pool.
                self._state.worker_cache_stats = self.pool.finish()
                self.pool.close()
            if self.journal is not None:
                self.journal.close()
            if self._result_cache is not None:
                self._result_cache.flush()
            self._state.drained = True
            self.drained.set()
            return "drained"
        finally:
            self._drain_lock.release()

    def _inject_drain_fault(self) -> None:
        """The ``drain-sigterm`` chaos fault: a second shutdown
        request arrives while this drain is in progress.  Injected as
        a concurrent :meth:`drain` call — the exact code path a
        re-delivered SIGTERM takes through the server's handler."""
        plan = self.config.fault_plan
        if plan is None or not plan.has_kind(FaultKind.DRAIN_SIGTERM):
            return
        second = threading.Thread(target=self.drain, daemon=True)
        second.start()
        second.join(timeout=5.0)

    # -- submissions (in-process surface; HTTP delegates here) ---------

    def submit(
        self,
        apk_doc: dict,
        truth_doc: dict | None = None,
        *,
        job_id: str | None = None,
    ) -> Job:
        if self.queue is None:
            from .queue import QueueClosedError

            raise QueueClosedError("service not started")
        return self.queue.submit(apk_doc, truth_doc, job_id=job_id)

    def job(self, job_id: str) -> Job | None:
        return self.queue.job(job_id) if self.queue is not None else None

    def wait(self, job_id: str, timeout_s: float = 30.0) -> Job | None:
        if self.queue is None:
            return None
        return self.queue.wait(job_id, timeout_s)

    # -- observability -------------------------------------------------

    def health(self) -> dict:
        """Always answers — degraded states are *reported*, not
        hidden behind a connection error."""
        state = self._state
        queue_stats = self.queue.stats() if self.queue is not None else {}
        cache_stats = (
            self._result_cache.stats.as_dict()
            if self._result_cache is not None
            else None
        )
        return {
            "status": (
                "drained"
                if state.drained
                else "draining"
                if state.draining
                else "ok"
                if state.started_at is not None
                else "starting"
            ),
            "uptime_s": (
                round(time.time() - state.started_at, 3)
                if state.started_at is not None
                else 0.0
            ),
            "queue": queue_stats,
            "pool": self.pool.liveness() if self.pool is not None else {},
            "result_cache": cache_stats,
            "stream": dict(state.stream_stats),
            "recovery": dict(state.recovery),
            "drain_reentries": state.drain_reentries,
        }

    def statsz(self) -> dict:
        """Cumulative cache counters for capacity planning — the
        ``/statsz`` payload.  Distinct from :meth:`health` (liveness):
        this answers *how much re-analysis the daemon is avoiding* —
        result-cache admission dedup, per-worker API/class-store
        traffic (the ``classes`` section carries class-artifact and
        guard-row hit rates that climb as a corpus streams in), and
        the on-disk footprint per store under the shared byte budget.
        """
        state = self._state
        worker_caches = (
            self.pool.cache_stats()
            if self.pool is not None
            else dict(state.worker_cache_stats)
        )
        doc: dict = {
            "uptime_s": (
                round(time.time() - state.started_at, 3)
                if state.started_at is not None
                else 0.0
            ),
            "dedup": self.config.dedup,
            "result_cache": (
                self._result_cache.stats.as_dict()
                if self._result_cache is not None
                else None
            ),
            "worker_caches": worker_caches,
            "stream": dict(state.stream_stats),
        }
        if self.config.cache_dir is not None:
            from ..cache.manifest import shared_manifest

            doc["store_sizes"] = shared_manifest(
                self.config.cache_dir
            ).sizes_by_store()
        return doc

    def ready(self) -> tuple[bool, dict]:
        """The load-balancer gate: can this daemon usefully accept a
        submission right now?"""
        doc = self.health()
        checks = {
            "started": self._state.started_at is not None,
            "not_draining": not self._state.draining,
            "workers_alive": bool(doc["pool"].get("alive", 0)),
            "queue_has_room": (
                doc["queue"].get("depth", 0)
                < doc["queue"].get("limit", 1)
            ),
        }
        doc["checks"] = checks
        return all(checks.values()), doc
