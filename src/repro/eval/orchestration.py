"""Corpus orchestration: the single retry/quarantine/checkpoint/cache
engine behind both schedulers.

:func:`run_stream` is the one engine.  It pulls work from a
:class:`JobSource`, hands it to a :class:`CorpusBackend`, and makes
the one retry-or-deliver decision: a retryable failure (timeout,
worker-lost, resource) re-enters a retry window with full-jitter
backoff until ``max_retries`` is spent, when it is delivered
quarantined with its final error record.  A scheduler is reduced to a
backend that answers one question: *how does one batch of pending apps
get analyzed?*  The serial backend walks them in order in-process; the
pool backend (:class:`repro.eval.parallel.PoolBackend`) fans them out
over resident worker processes.

A batch run is a stream over a closed source.  :func:`run_corpus`
restores the checkpoint and serves persistent-cache hits, then runs
:func:`run_stream` over a source that hands out every pending app in
one batch and then reports itself drained; delivery writes clean
fresh results back to the cache, journals every finalized result and
assembles corpus order.  The daemon (:mod:`repro.serve`) runs the
same engine over its admission queue.  A fault-free batch run
dispatches exactly once; with zero backoff, the retries of one
dispatch go back out together, in corpus-index order.
"""

from __future__ import annotations

import heapq
import random
import time
from pathlib import Path
from typing import Callable, Iterable

from ..workload.appgen import ForgedApp
from .runner import (
    AppResult,
    RunResults,
    ToolSet,
    _full_jitter_backoff,
    analyze_app,
)

__all__ = [
    "CorpusBackend",
    "SerialBackend",
    "JobSource",
    "run_corpus",
    "run_stream",
    "apk_fingerprint",
]

#: One work item: corpus index, the app, and its 0-based attempt.
Entry = tuple[int, ForgedApp, int]


def apk_fingerprint(forged: ForgedApp) -> str | None:
    """Content digest of one app, or ``None`` when the package is too
    hostile to serialize (such apps are simply uncacheable)."""
    from ..cache import fingerprint_apk

    try:
        return fingerprint_apk(forged.apk)
    except Exception:  # noqa: BLE001 — uncacheable, not fatal
        return None


class CorpusBackend:
    """What a scheduler must provide to :func:`run_stream`.

    One backend instance serves one run, analyzing with one
    :class:`~repro.eval.runner.ToolSet` and injecting the faults of one
    optional ``fault_plan`` (chaos testing); it may keep batch-spanning
    state (worker cache accounting).
    """

    def __init__(self, toolset: ToolSet, *, fault_plan=None) -> None:
        self.toolset = toolset
        self.fault_plan = fault_plan

    @property
    def spec(self):
        """The framework spec keying the persistent cache."""
        return self.toolset.framework.spec

    @property
    def tool_names(self) -> tuple[str, ...]:
        """Tool names, in report order (keys checkpoint + cache)."""
        return self.toolset.tool_names

    def prepare(self, pending: Iterable[Entry] = ()) -> None:
        """One-time setup before the first batch, called only when at
        least one app actually needs analysis.  ``pending`` is that
        batch, so a backend can pre-warm exactly the framework levels
        it will touch."""

    def run_round(
        self, pending: list[Entry]
    ) -> Iterable[tuple[Entry, AppResult]]:
        """Analyze one batch of entries, yielding each with its result
        (in any order; :func:`run_corpus` restores corpus order)."""
        raise NotImplementedError

    def cache_stats(self) -> dict:
        """The run's cache accounting so far."""
        return self.toolset.cache_stats()

    def finish(self) -> dict:
        """Persist what outlives the run and return its cache
        accounting."""
        toolset = self.toolset
        if toolset.dedup and toolset.cache_dir is not None:
            from ..cache.classes import dedup_store

            # Settle the class-artifact store: adopt entries whose
            # writer (a pool worker) did not save the shared manifest
            # last, enforce the byte budget, persist the manifest.
            dedup_store(toolset.cache_dir, self.spec).flush()
        return self.cache_stats()

    def close(self) -> None:
        """Release what outlives a batch (worker processes).  Called
        from a ``finally`` — it must be idempotent and safe even when
        :meth:`prepare` never ran or a batch raised."""


class SerialBackend(CorpusBackend):
    """In-process scheduler: one app at a time, corpus order."""

    def __init__(
        self,
        toolset: ToolSet,
        *,
        timeout_s: float | None = None,
        fault_plan=None,
    ) -> None:
        super().__init__(toolset, fault_plan=fault_plan)
        self._timeout_s = timeout_s

    def run_round(
        self, pending: list[Entry]
    ) -> Iterable[tuple[Entry, AppResult]]:
        for entry in pending:
            index, forged, attempt = entry
            fault = (
                self.fault_plan.fault_for(index)
                if self.fault_plan is not None
                else None
            )
            yield entry, analyze_app(
                self.toolset,
                forged,
                timeout_s=self._timeout_s,
                fault=fault,
                attempt=attempt,
            )


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class JobSource:
    """Where a run's work comes from.

    :func:`run_stream` pulls entries from a source as capacity frees up
    and pushes every *terminal* result back through :meth:`deliver`.
    A resident daemon's source stays open for as long as the service
    lives; a batch run's source (:func:`run_corpus`) is closed from the
    start.

    Entries use the ``(index, forged, attempt)`` shape, with ``index``
    a corpus index or a monotonically increasing job sequence number
    (it keys fault plans and journals either way).
    """

    def take(
        self, limit: int, timeout_s: float
    ) -> "list[Entry] | None":
        """Up to ``limit`` fresh entries; ``[]`` when nothing arrived
        within ``timeout_s``; ``None`` when the source is closed *and*
        fully drained (the stream's end)."""
        raise NotImplementedError

    def deliver(self, entry: Entry, result: AppResult) -> None:
        """Accept one finalized (terminal) result: the job completed
        cleanly or was quarantined.  Retryable failures never reach
        this — they re-enter the stream's retry window instead."""
        raise NotImplementedError


def run_stream(
    source: JobSource,
    backend: CorpusBackend,
    *,
    max_retries: int = 0,
    retry_backoff_s: float = 0.0,
    batch_limit: int = 8,
    poll_s: float = 0.05,
    rng: random.Random | None = None,
) -> dict:
    """Drain a job source through a scheduler backend.

    * work is pulled in batches of at most ``batch_limit`` entries, so
      a daemon's admission latency stays bounded by one batch rather
      than one corpus;
    * retryable failures re-enter a time-ordered retry window with
      **full-jitter** backoff per entry until ``max_retries`` is
      spent, at which point the entry is delivered quarantined.  The
      retries of one dispatch are stamped with one clock reading, so
      with zero backoff they go back out together, in index order;
    * the loop ends when the source reports closed-and-drained *and*
      the retry window is empty — every taken entry is guaranteed a
      terminal :meth:`JobSource.deliver` call.

    Returns counters: ``analyzed``, ``retried``, ``quarantined``,
    ``rounds`` (dispatches).  Crash-safety (journaling, replay) is the
    *source's* job — this engine only guarantees
    exactly-one-terminal-delivery per entry it took.
    """
    stats = {"analyzed": 0, "retried": 0, "quarantined": 0, "rounds": 0}
    #: (ready_at, index, entry) — a heap so the soonest retry leads.
    retries: list[tuple[float, int, Entry]] = []
    prepared = False
    closed = False

    while True:
        now = time.monotonic()
        batch: list[Entry] = []
        while (
            retries
            and retries[0][0] <= now
            and len(batch) < batch_limit
        ):
            batch.append(heapq.heappop(retries)[2])
        if not closed and len(batch) < batch_limit:
            # Block briefly only when there is nothing else to do.
            timeout = poll_s if not batch else 0.0
            fresh = source.take(batch_limit - len(batch), timeout)
            if fresh is None:
                closed = True
            else:
                batch.extend(fresh)
        if not batch:
            if closed and not retries:
                break
            if retries:
                # Sleep toward the next retry's ready time (bounded
                # by the poll interval so a close stays responsive).
                time.sleep(
                    min(poll_s, max(0.0, retries[0][0] - time.monotonic()))
                )
            continue

        if not prepared:
            backend.prepare(batch)
            prepared = True
        failed: list[Entry] = []
        for entry, result in backend.run_round(batch):
            index, forged, attempt = entry
            error = result.error
            if (
                error is not None
                and error.retryable
                and attempt < max_retries
            ):
                failed.append((index, forged, attempt + 1))
                continue
            if error is not None:
                stats["quarantined"] += 1
            source.deliver(entry, result)
            stats["analyzed"] += 1
        ready = time.monotonic()
        for entry in failed:
            delay = _full_jitter_backoff(retry_backoff_s, entry[2], rng)
            heapq.heappush(retries, (ready + delay, entry[0], entry))
        stats["retried"] += len(failed)
        stats["rounds"] += 1
    return stats


# ---------------------------------------------------------------------------
# batch runs: a stream over a closed source
# ---------------------------------------------------------------------------

class _ClosedSource(JobSource):
    """A batch run's source: every pending entry in the first batch
    (the engine's ``batch_limit`` is sized to take them all), then
    drained."""

    def __init__(
        self,
        pending: list[Entry],
        deliver: Callable[[Entry, AppResult], None],
    ) -> None:
        self._pending = pending
        self._deliver = deliver

    def take(self, limit: int, timeout_s: float) -> "list[Entry] | None":
        batch, self._pending = self._pending, []
        return batch or None

    def deliver(self, entry: Entry, result: AppResult) -> None:
        self._deliver(entry, result)


def run_corpus(
    apps: Iterable[ForgedApp],
    backend: CorpusBackend,
    *,
    max_retries: int = 0,
    retry_backoff_s: float = 0.0,
    checkpoint: str | Path | None = None,
    cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> RunResults:
    """Run every app through ``backend``, with the full fault-tolerance
    and caching envelope.

    The stages, identical for every scheduler:

    1. **checkpoint restore** — journaled indices are adopted verbatim
       and never re-analyzed;
    2. **persistent cache** — clean results keyed by (APK digest,
       tools, framework) are served from disk; indices the backend's
       fault plan targets bypass the cache so chaos runs quarantine
       exactly what an uncached run would;
    3. **the engine** — :func:`run_stream` analyzes what remains over
       a closed source, retrying and quarantining;
    4. **delivery** — clean fresh results are written back to the
       cache, every finalized result is journaled, and results are
       assembled in corpus order.
    """
    indexed = list(enumerate(apps))
    out = RunResults()
    if not indexed:
        return out

    journal = None
    restored: dict[int, AppResult] = {}
    if checkpoint is not None:
        from .checkpoint import CheckpointJournal

        journal = CheckpointJournal(checkpoint, tools=backend.tool_names)
        restored = journal.load()

    done: dict[int, AppResult] = dict(restored)
    pending: list[Entry] = [
        (index, forged, 0)
        for index, forged in indexed
        if index not in restored
    ]

    def settle(index: int, result: AppResult) -> None:
        done[index] = result
        if journal is not None:
            journal.append(index, result)
        if progress is not None:
            progress(result.app)

    # Persistent cache: result hits are served before any dispatch
    # (the backend never sees them), misses are fingerprinted now and
    # stored on delivery — a single writer, no locking.
    rcache = None
    fp_by_index: dict[int, str] = {}
    cached: list[int] = []
    if cache_dir is not None:
        from ..cache import (
            ResultCache,
            fingerprint_config,
            fingerprint_spec,
        )

        rcache = ResultCache(
            cache_dir,
            framework_fingerprint=fingerprint_spec(backend.spec),
            # ``or None`` keeps the default configuration's key
            # byte-identical to the pre-options era, so existing
            # caches stay warm.
            config_fingerprint=fingerprint_config(
                backend.tool_names, backend.toolset.config_options() or None
            ),
        )
        plan = backend.fault_plan
        still_pending: list[Entry] = []
        for entry in pending:
            index, forged, attempt = entry
            faulted = plan is not None and plan.fault_for(index) is not None
            apk_fp = None if faulted else apk_fingerprint(forged)
            hit = rcache.get(apk_fp) if apk_fp is not None else None
            if hit is not None:
                cached.append(index)
                settle(index, hit)
                continue
            if apk_fp is not None:
                fp_by_index[index] = apk_fp
            still_pending.append(entry)
        pending = still_pending

    def deliver(entry: Entry, result: AppResult) -> None:
        index = entry[0]
        if rcache is not None and result.ok and index in fp_by_index:
            rcache.put(fp_by_index[index], result)
        settle(index, result)

    # The close() in the finally is the backstop that keeps worker
    # processes from outliving the run when a batch raises or SIGINT
    # unwinds the engine; it also releases the journal's handle.
    try:
        run_stream(
            _ClosedSource(pending, deliver),
            backend,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
            batch_limit=max(1, len(pending)),
        )
        out.results = [done[index] for index, _ in indexed]
        out.cache_stats = backend.finish()
    finally:
        backend.close()
        if journal is not None:
            journal.close()
    if rcache is not None:
        rcache.flush()
        out.cache_stats["results"] = rcache.stats.as_dict()
    out.resumed_indices = tuple(sorted(restored))
    out.cached_indices = tuple(sorted(cached))
    return out
