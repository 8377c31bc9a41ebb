"""Corpus orchestration: the single retry/quarantine/checkpoint/cache
engine behind both schedulers.

:func:`run_corpus` owns everything that used to be duplicated between
the serial loop and the process pool — checkpoint restore,
persistent-cache lookup and write-back, retry rounds with bounded
backoff, quarantine, journaling, progress, and corpus-order assembly.
A scheduler is reduced to a :class:`CorpusBackend` that answers one
question: *how does one round of pending apps get analyzed?*  The
serial backend walks them in order in-process; the pool backend
(:class:`repro.eval.parallel.PoolBackend`) fans them out over resident
worker processes, for :func:`run_corpus` and for the daemon's
:func:`run_stream` alike.  Everything else — and therefore every
fingerprint-relevant decision — is this module, once.

Scheduling works in *rounds*.  Round 0 covers the whole pending
corpus.  If anything failed retryably (timeout, worker-lost,
resource), round ``r`` re-dispatches those apps — after a bounded
backoff — until they succeed or exhaust ``max_retries``, at which
point they are quarantined with their final error record.  A fault-
free run takes exactly one round; the tolerance machinery costs
nothing until something actually breaks.
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
    """What a scheduler must provide to :func:`run_corpus`.

    One backend instance serves one run; it may keep round-spanning
    state (worker cache accounting, a prebuilt substrate).
    """

    @property
    def spec(self):
        """The framework spec keying the persistent cache."""
        raise NotImplementedError

    @property
    def tool_names(self) -> tuple[str, ...]:
        """Tool names, in report order (keys checkpoint + cache)."""
        raise NotImplementedError

    def config_options(self) -> dict:
        """Findings-relevant configuration beyond the tool names
        (e.g. ``{"summaries": True}``).  Keys the persistent result
        cache together with :attr:`tool_names`; must stay empty for
        the default configuration so existing caches remain valid."""
        return {}

    def prepare(
        self,
        cache_dir: str | Path | None,
        pending: Iterable[Entry] = (),
    ) -> None:
        """One-time setup before round 0, called only when at least
        one app actually needs analysis.  ``pending`` is the post-cache
        work list, so a backend can pre-warm exactly the framework
        levels the round will touch."""

    def run_round(
        self, pending: list[Entry], round_no: int
    ) -> Iterable[tuple[Entry, AppResult]]:
        """Analyze one round's entries, yielding each with its result
        (in any order; :func:`run_corpus` restores corpus order)."""
        raise NotImplementedError

    def finish(self, cache_dir: str | Path | None) -> dict:
        """Tear down and return the run's cache accounting."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what outlives a round (worker processes).  Called
        from a ``finally`` — it must be idempotent and safe even when
        :meth:`prepare` never ran or a round raised."""


class SerialBackend(CorpusBackend):
    """In-process scheduler: one app at a time, corpus order."""

    def __init__(
        self,
        toolset: ToolSet,
        *,
        timeout_s: float | None = None,
        fault_plan=None,
    ) -> None:
        self._toolset = toolset
        self._timeout_s = timeout_s
        self._fault_plan = fault_plan

    @property
    def spec(self):
        return self._toolset.framework.spec

    @property
    def tool_names(self) -> tuple[str, ...]:
        return self._toolset.tool_names

    def config_options(self) -> dict:
        options: dict = {}
        if self._toolset.summaries:
            options["summaries"] = True
        if self._toolset.dedup:
            options["dedup"] = True
        return options

    def run_round(
        self, pending: list[Entry], round_no: int
    ) -> Iterable[tuple[Entry, AppResult]]:
        for entry in pending:
            index, forged, attempt = entry
            fault = (
                self._fault_plan.fault_for(index)
                if self._fault_plan is not None
                else None
            )
            yield entry, analyze_app(
                self._toolset,
                forged,
                timeout_s=self._timeout_s,
                fault=fault,
                attempt=attempt,
            )

    def finish(self, cache_dir: str | Path | None) -> dict:
        if cache_dir is not None:
            from ..cache import ensure_snapshot
            from ..cache.classes import registered_stores

            # Snapshot the substrate (only written when missing) so the
            # next cold process loads it instead of rebuilding.
            ensure_snapshot(
                cache_dir, self._toolset.framework, self._toolset.apidb
            )
            # Settle the class-artifact stores: adopt stray entries,
            # enforce the byte budget, persist the manifest.
            for store in registered_stores():
                store.flush()
        return self._toolset.cache_stats()


def run_corpus(
    apps: Iterable[ForgedApp],
    backend: CorpusBackend,
    *,
    max_retries: int = 0,
    retry_backoff_s: float = 0.0,
    fault_plan=None,
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
       tools, framework) are served from disk; fault-injected indices
       bypass the cache so chaos runs quarantine exactly what an
       uncached run would;
    3. **retry rounds** — ``backend.run_round`` analyzes what remains;
       retryable failures re-enter the next round (bounded backoff)
       until ``max_retries`` is spent, then quarantine;
    4. **finalization** — clean fresh results are written back to the
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

    # Persistent cache: result hits are served before any dispatch
    # (the backend never sees them), misses are fingerprinted now and
    # stored after finalization — a single writer, no locking.
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
                backend.tool_names, backend.config_options() or None
            ),
        )
        still_pending: list[Entry] = []
        for entry in pending:
            index, forged, attempt = entry
            faulted = (
                fault_plan is not None
                and fault_plan.fault_for(index) is not None
            )
            apk_fp = None if faulted else apk_fingerprint(forged)
            hit = rcache.get(apk_fp) if apk_fp is not None else None
            if hit is not None:
                done[index] = hit
                cached.append(index)
                if journal is not None:
                    journal.append(index, hit)
                if progress is not None:
                    progress(hit.app)
                continue
            if apk_fp is not None:
                fp_by_index[index] = apk_fp
            still_pending.append(entry)
        pending = still_pending

    # The close() in the finally is the backstop that keeps worker
    # processes from outliving the run when a round raises or SIGINT
    # unwinds the loop.
    try:
        if pending:
            backend.prepare(cache_dir, pending)

        round_no = 0
        while pending:
            if round_no > 0 and retry_backoff_s > 0.0:
                # Full jitter: a deterministic backoff would wake every
                # retried app at once and re-stampede the pool.
                time.sleep(_full_jitter_backoff(retry_backoff_s, round_no))
            next_pending: list[Entry] = []
            for entry, result in backend.run_round(pending, round_no):
                index, forged, attempt = entry
                error = result.error
                if (
                    error is not None
                    and error.retryable
                    and attempt < max_retries
                ):
                    next_pending.append((index, forged, attempt + 1))
                    continue
                done[index] = result
                if rcache is not None and result.ok and index in fp_by_index:
                    rcache.put(fp_by_index[index], result)
                if journal is not None:
                    journal.append(index, result)
                if progress is not None:
                    progress(result.app)
            next_pending.sort(key=lambda entry: entry[0])
            pending = next_pending
            round_no += 1

        out.results = [done[index] for index, _ in indexed]
        out.cache_stats = backend.finish(cache_dir)
    finally:
        backend.close()
    if rcache is not None:
        rcache.flush()
        out.cache_stats["results"] = rcache.stats.as_dict()
    out.resumed_indices = tuple(sorted(restored))
    out.cached_indices = tuple(sorted(cached))
    return out


# ---------------------------------------------------------------------------
# streaming job source (the daemon's entry into this engine)
# ---------------------------------------------------------------------------

class JobSource:
    """Where a *streaming* run's work comes from.

    The fixed-corpus engine (:func:`run_corpus`) knows its whole work
    list up front; a resident daemon does not — jobs arrive over the
    wire for as long as the service lives.  A :class:`JobSource` is
    the streaming counterpart of the corpus list: :func:`run_stream`
    pulls entries from it as capacity frees up and pushes every
    *terminal* result back through :meth:`deliver`.

    Entries use the same ``(index, forged, attempt)`` shape as the
    corpus engine, with ``index`` a monotonically increasing job
    sequence number (it keys fault plans and journals exactly like a
    corpus index does).
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
    cache_dir: str | Path | None = None,
    rng: random.Random | None = None,
) -> dict:
    """Drain a streaming job source through a scheduler backend.

    The streaming analogue of :func:`run_corpus`, sharing its
    retry/quarantine policy but not its batch assumptions:

    * work is pulled in *micro-batches* of at most ``batch_limit``
      entries, so admission latency stays bounded by one batch rather
      than one corpus;
    * retryable failures re-enter a time-ordered retry window with
      **full-jitter** backoff (per entry, not per round — a stream has
      no global rounds to synchronize on) until ``max_retries`` is
      spent, at which point the entry is delivered quarantined;
    * the loop ends when the source reports closed-and-drained *and*
      the retry window is empty — every taken entry is guaranteed a
      terminal :meth:`JobSource.deliver` call.

    Returns counters: ``analyzed``, ``retried``, ``quarantined``,
    ``rounds``.  Crash-safety (journaling, replay) is the *source's*
    job — this engine only guarantees exactly-one-terminal-delivery
    per entry it took.
    """
    stats = {"analyzed": 0, "retried": 0, "quarantined": 0, "rounds": 0}
    #: (ready_at, seq, entry) — a heap so the soonest retry leads.
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
            backend.prepare(cache_dir, batch)
            prepared = True
        for entry, result in backend.run_round(batch, stats["rounds"]):
            index, forged, attempt = entry
            error = result.error
            if (
                error is not None
                and error.retryable
                and attempt < max_retries
            ):
                delay = _full_jitter_backoff(
                    retry_backoff_s, attempt + 1, rng
                )
                heapq.heappush(
                    retries,
                    (
                        time.monotonic() + delay,
                        index,
                        (index, forged, attempt + 1),
                    ),
                )
                stats["retried"] += 1
                continue
            if error is not None:
                stats["quarantined"] += 1
            source.deliver(entry, result)
            stats["analyzed"] += 1
        stats["rounds"] += 1
    return stats
