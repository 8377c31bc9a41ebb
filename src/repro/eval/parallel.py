"""Parallel corpus-analysis engine.

Large-scale studies vet thousands of apps; analyzing them strictly
serially throws away both hardware parallelism and the fact that every
per-app analysis shares the same immutable substrate (framework spec,
API database).  This module schedules a corpus over a process pool:

* **shared substrate** — the parent prepares the substrate exactly
  once per run (framework repository with the corpus's levels
  pre-warmed, mined API database, optional framework summary table)
  and every worker *attaches* instead of rebuilding: under fork the
  prepared objects are inherited as copy-on-write pages; elsewhere a
  protocol-5 :class:`~repro.cache.shared.SharedSubstrate` segment is
  published once and mapped by each worker — including the fresh
  pools of later retry rounds;
* **worker bootstrap** — each worker resolves the substrate through a
  cheapest-first ladder (inherited parent substrate → in-process
  build memo → shared segment → snapshot file → mine from the spec)
  in its initializer; every app the worker analyzes afterwards hits
  the worker-local framework class cache and database memo tables;
* **chunked scheduling** — work goes to workers in contiguous chunks
  to amortize per-task dispatch while keeping the pool busy; under
  fork a chunk carries corpus indices only, and each worker reads the
  apps from the round's app map it inherited (elsewhere the apps
  themselves are pickled into the chunk);
* **failure isolation** — a crashing or timed-out app yields an
  :class:`~repro.eval.runner.AppResult` with a structured
  :class:`~repro.core.errors.AnalysisError`, never a dead run; a
  dying worker process poisons only the chunks it held, and the
  engine rebuilds the pool and carries on;
* **retry + quarantine** — retryable failures (timeout, worker-lost,
  resource) are re-dispatched individually, each on a fresh round's
  pool, up to ``max_retries`` times with bounded backoff; apps that
  exhaust the budget are quarantined with their final error record;
* **checkpoint/resume** — with a journal attached, every finalized
  result is appended to JSONL as it completes; a killed run resumes
  by skipping journaled indices and reproduces the uninterrupted
  run's fingerprint;
* **deterministic ordering** — results are reassembled in corpus
  order, and per-app computation is the exact
  :func:`~repro.eval.runner.analyze_app` the serial loop uses, so a
  parallel run's :meth:`RunResults.fingerprint` is identical to a
  serial run's.

The engine is reached through ``run_tools(apps, jobs=N)`` or the
``--jobs`` CLI flag; it has no public surface beyond
:class:`ParallelConfig`, :class:`PoolBackend`, and
:func:`run_tools_parallel`.  The retry/quarantine/checkpoint/cache
envelope is NOT implemented here: it lives — once, shared verbatim
with the serial scheduler — in :mod:`repro.eval.orchestration`.  This
module contributes only the scheduling backend: worker bootstrap,
chunked dispatch, and broken-pool recovery.

Scheduling works in *rounds*.  Round 0 fans the whole corpus out in
contiguous chunks over one pool.  If anything retryable failed, round
``r`` re-dispatches those apps as single-app tasks on a **fresh**
pool — a new pool per round is what makes worker death survivable at
all: a dead process breaks its ``ProcessPoolExecutor`` beyond reuse,
so every future still in flight is drained (synthesized as
``worker-lost``, retryable), the broken pool is discarded, and the
next round starts clean.  A fault-free run takes exactly one round
and one pool — the tolerance machinery costs nothing until something
actually breaks.  Under fork, each round sets its app map before its
pool forks, so a retry round's fresh workers inherit exactly the apps
they are sent indices for; worker-lost records are built from the
parent's full entries.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from ..core.arm import build_api_database, cached_database, register_database
from ..core.errors import AnalysisError, AnalysisPhase, ErrorKind
from ..framework.repository import FrameworkCacheStats, FrameworkRepository
from ..framework.spec import FrameworkSpec
from ..workload.appgen import ForgedApp
from .orchestration import CorpusBackend, run_corpus
from .runner import (
    AppResult,
    DEFAULT_TOOLS,
    RunResults,
    ToolSet,
    analyze_app,
)

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from .faults import FaultPlan

__all__ = ["ParallelConfig", "PoolBackend", "run_tools_parallel"]

#: One work item: corpus index, the app, and its 0-based attempt.
#: Chunks shipped to forked workers carry ``None`` for the app.
_Entry = tuple[int, ForgedApp, int]


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs for one parallel run."""

    #: Worker process count.
    jobs: int = 2
    #: Apps per pool task; ``None`` picks a size that gives each
    #: worker several chunks (load balancing) without making tasks so
    #: small that per-task dispatch dominates.
    chunk_size: int | None = None
    #: Per-app wall-clock budget (enforced inside workers).
    timeout_s: float | None = None
    #: Tool names each worker instantiates.
    include: tuple[str, ...] = DEFAULT_TOOLS
    #: Re-attempts for retryable failures (timeout, worker-lost,
    #: resource) before an app is quarantined.  Each retry is a
    #: single-app task on a fresh round's pool.
    max_retries: int = 0
    #: Base of the bounded exponential backoff slept between retry
    #: rounds (0 = retry immediately).
    retry_backoff_s: float = 0.0
    #: Injected faults for chaos testing (None in production runs).
    fault_plan: "FaultPlan | None" = None
    #: Persistent cache directory (:mod:`repro.cache`); ``None``
    #: disables both the result cache and framework snapshots.
    cache_dir: str | None = None
    #: Bound the CLVM at the framework boundary with whole-framework
    #: pre-summaries (same findings as lazy; parity-tested).
    summaries: bool = False
    #: Delta analysis against the corpus-wide class-artifact store
    #: (same findings as lazy; parity-tested).  The store lives under
    #: ``cache_dir`` so workers share it across rounds and runs.
    dedup: bool = False

    def resolved_chunk_size(self, corpus_size: int) -> int:
        if self.chunk_size is not None:
            return max(1, self.chunk_size)
        per_worker = corpus_size / max(1, self.jobs)
        return max(1, min(16, round(per_worker / 4) or 1))


# -- worker side -----------------------------------------------------------

#: One tool set per worker process, built by the pool initializer and
#: reused for every chunk the worker receives — this is where the
#: cross-app framework/database caches live.
_WORKER_TOOLSET: ToolSet | None = None
#: The run's fault plan, shipped once via the initializer.
_WORKER_FAULTS: "FaultPlan | None" = None
#: The substrate the parent prepared before forking the pool; workers
#: inherit it as copy-on-write pages and skip every rebuild path.
_PARENT_SUBSTRATE: "tuple[FrameworkRepository, object] | None" = None
#: The current round's apps by corpus index, set by the parent just
#: before the round's pool forks and cleared once the round is
#: drained.  Forked workers inherit it and are sent indices only.
_ROUND_APPS: dict[int, ForgedApp] = {}
#: The shared segment this worker attached (kept open for the process
#: lifetime: the decoded payload may reference the mapped pages).
_WORKER_SEGMENT = None


def _init_worker(
    spec: FrameworkSpec,
    include: tuple[str, ...],
    fault_plan: "FaultPlan | None" = None,
    snapshot_file: str | None = None,
    shared_handle=None,
    summaries: bool = False,
    cache_dir: str | None = None,
    dedup: bool = False,
) -> None:
    global _WORKER_TOOLSET, _WORKER_FAULTS, _WORKER_SEGMENT
    # Substrate resolution order, cheapest first:
    #
    # 1. the parent-prepared substrate — under the fork start method
    #    every worker (in *every* round's fresh pool) inherits the
    #    parent's pre-warmed repository and mined database as
    #    copy-on-write pages: zero per-worker rebuild cost;
    # 2. the in-process build memo (fork, parent built but did not
    #    call prepare — e.g. a retry pool after close());
    # 3. the shared-memory substrate segment (spawn platforms, one
    #    deserialization instead of a re-mine + disk read per worker);
    # 4. the on-disk framework snapshot;
    # 5. mining from the spec (no cache at all).
    framework: FrameworkRepository | None = None
    apidb = None
    if (
        _PARENT_SUBSTRATE is not None
        and _PARENT_SUBSTRATE[0].spec is spec
    ):
        framework, apidb = _PARENT_SUBSTRATE
    if apidb is None:
        apidb = cached_database(spec)
    if apidb is None and shared_handle is not None:
        from ..cache.shared import SharedSubstrate
        from ..cache.snapshot import restore_substrate

        segment = SharedSubstrate.attach(shared_handle)
        if segment is not None:
            restored = restore_substrate(
                segment.payload(), key=shared_handle.key
            )
            if restored is not None:
                framework, apidb = restored
                # Keep the mapping for the process lifetime — the
                # restored objects may reference the shared pages.
                _WORKER_SEGMENT = segment
            else:
                segment.close()
    if apidb is None and snapshot_file is not None:
        from ..cache.snapshot import load_snapshot

        loaded = load_snapshot(snapshot_file)
        if loaded is not None:
            framework, apidb = loaded
            register_database(spec, apidb)
    if framework is None:
        framework = FrameworkRepository(spec)
    if apidb is None:
        apidb = build_api_database(framework)
    # An inherited or snapshot-loaded database carries whatever cache
    # counters its builder accumulated — a warm start we gladly keep,
    # but the accounting must cover only this worker's activity.
    apidb.reset_cache_counters()
    framework.cache_stats = FrameworkCacheStats()
    _WORKER_TOOLSET = ToolSet.default(
        framework,
        apidb,
        include=include,
        summaries=summaries,
        summaries_dir=cache_dir,
        dedup=dedup,
        dedup_dir=cache_dir,
    )
    _WORKER_FAULTS = fault_plan


def _analyze_chunk(
    chunk: list[_Entry],
    timeout_s: float | None,
) -> tuple[int, list[tuple[int, AppResult]], dict]:
    """Analyze one chunk in this worker; returns results tagged with
    their corpus indices plus the worker's cumulative cache stats."""
    toolset = _WORKER_TOOLSET
    if toolset is None:  # pragma: no cover — initializer always ran
        raise RuntimeError("worker initialized without a tool set")
    out = []
    for index, forged, attempt in chunk:
        if forged is None:
            forged = _ROUND_APPS[index]
        fault = (
            _WORKER_FAULTS.fault_for(index)
            if _WORKER_FAULTS is not None
            else None
        )
        out.append(
            (
                index,
                analyze_app(
                    toolset,
                    forged,
                    timeout_s=timeout_s,
                    fault=fault,
                    attempt=attempt,
                    allow_process_death=True,
                ),
            )
        )
    return os.getpid(), out, toolset.cache_stats()


# -- parent side -----------------------------------------------------------

def _pool_context():
    """Prefer fork (cheap worker startup, parent pages shared); fall
    back to the platform default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return multiprocessing.get_context()


def _worker_lost_results(
    chunk: list[_Entry], exc: BaseException
) -> list[tuple[int, AppResult]]:
    """Synthesize failure records when a whole worker task died (the
    worker process was killed, or the task could not complete): the
    run continues, the chunk's apps are recorded as ``worker-lost``
    and — being retryable — re-dispatched if budget remains."""
    out = []
    for index, forged, attempt in chunk:
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
    merged = {
        "workers": len(snapshots),
        "framework": {
            "class_hits": 0,
            "class_misses": 0,
            "image_hits": 0,
            "image_misses": 0,
        },
        "apidb": {
            "resolve_hits": 0,
            "resolve_misses": 0,
            "levels_hits": 0,
            "levels_misses": 0,
            "permission_hits": 0,
            "permission_misses": 0,
        },
    }
    per_worker_rates = []
    for snapshot in snapshots.values():
        for section in ("framework", "apidb"):
            for key in merged[section]:
                merged[section][key] += snapshot[section].get(key, 0)
        worker_fw = snapshot["framework"]
        worker_total = (
            worker_fw.get("class_hits", 0)
            + worker_fw.get("class_misses", 0)
        )
        per_worker_rates.append(
            worker_fw.get("class_hits", 0) / worker_total
            if worker_total
            else 0.0
        )
    fw = merged["framework"]
    class_total = fw["class_hits"] + fw["class_misses"]
    fw["hit_rate"] = fw["class_hits"] / class_total if class_total else 0.0
    # Each worker's own rate, not just the blended one: the blend can
    # hide a single cold worker re-materializing the world.
    fw["per_worker_hit_rates"] = sorted(
        round(rate, 4) for rate in per_worker_rates
    )
    db = merged["apidb"]
    hits = db["resolve_hits"] + db["levels_hits"] + db["permission_hits"]
    misses = (
        db["resolve_misses"] + db["levels_misses"] + db["permission_misses"]
    )
    db["hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    # Class-artifact store traffic (only present in --dedup workers;
    # older snapshots without the section merge cleanly).
    classes: dict[str, float] = {}
    seen_classes = False
    for snapshot in snapshots.values():
        section = snapshot.get("classes")
        if not section:
            continue
        seen_classes = True
        for key, value in section.items():
            if key.endswith("_rate"):
                continue
            classes[key] = classes.get(key, 0) + value
    if seen_classes:
        hits = classes.get("hits", 0)
        misses = classes.get("misses", 0)
        classes["hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        guard_hits = classes.get("guard_hits", 0)
        guard_misses = classes.get("guard_misses", 0)
        classes["guard_hit_rate"] = (
            guard_hits / (guard_hits + guard_misses)
            if guard_hits + guard_misses
            else 0.0
        )
        merged["classes"] = classes
    return merged


def _run_round(
    chunks: list[list[_Entry]],
    spec: FrameworkSpec,
    config: ParallelConfig,
    worker_stats: dict[int, dict],
    snapshot_file: str | None,
    shared_handle,
    *,
    ship_apps: bool,
) -> list[tuple[_Entry, AppResult]]:
    """Dispatch one round's chunks over a fresh pool and drain every
    future — including the ones a dying worker broke.  Without
    ``ship_apps`` the chunks go out as indices only, and the workers
    must have inherited ``_ROUND_APPS``."""
    entry_by_index = {
        entry[0]: entry for chunk in chunks for entry in chunk
    }
    out: list[tuple[_Entry, AppResult]] = []
    with ProcessPoolExecutor(
        max_workers=config.jobs,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(
            spec,
            config.include,
            config.fault_plan,
            snapshot_file,
            shared_handle,
            config.summaries,
            config.cache_dir,
            config.dedup,
        ),
    ) as pool:
        # Each future maps to the parent's full entries: a worker-lost
        # record needs the app, which an index-only chunk does not carry.
        futures = {
            pool.submit(
                _analyze_chunk,
                chunk if ship_apps else [
                    (index, None, attempt) for index, _, attempt in chunk
                ],
                config.timeout_s,
            ): chunk
            for chunk in chunks
        }
        for future in as_completed(futures):
            chunk = futures[future]
            try:
                pid, results, snapshot = future.result()
            except Exception as exc:  # noqa: BLE001 — isolate the chunk
                # BrokenProcessPool lands here for the chunk whose
                # worker died *and* for every chunk still queued on
                # the now-broken pool; all of them come back as
                # retryable worker-lost records.
                results = _worker_lost_results(chunk, exc)
            else:
                worker_stats[pid] = snapshot
            for index, result in results:
                out.append((entry_by_index[index], result))
    return out


class PoolBackend(CorpusBackend):
    """Process-pool scheduler: fresh pool per round, chunked round 0,
    single-app retry rounds."""

    def __init__(self, spec: FrameworkSpec, config: ParallelConfig) -> None:
        self._spec = spec
        self._config = config
        self._worker_stats: dict[int, dict] = {}
        self._snapshot_file: str | None = None
        self._segment = None

    @property
    def spec(self) -> FrameworkSpec:
        return self._spec

    @property
    def tool_names(self) -> tuple[str, ...]:
        return self._config.include

    def config_options(self) -> dict:
        options: dict = {}
        if self._config.summaries:
            options["summaries"] = True
        if self._config.dedup:
            options["dedup"] = True
        return options

    def prepare(self, cache_dir, pending=()) -> None:
        # Prepare the substrate ONCE in the parent — repository with
        # every pending framework level pre-warmed, mined database,
        # and (when enabled) the framework summary table — so that
        # under fork every worker of every round — including retry
        # rounds' fresh pools — inherits the finished substrate as
        # copy-on-write pages instead of rebuilding its own.  Non-fork
        # start methods get the same substrate through a shared-memory
        # segment published here and attached by each initializer,
        # with the snapshot file as the final fallback.
        from ..cache.snapshot import load_or_build_substrate

        global _PARENT_SUBSTRATE
        framework, apidb, _source = load_or_build_substrate(
            self._config.cache_dir, self._spec
        )
        register_database(self._spec, apidb)
        if self._config.cache_dir is not None:
            from ..cache import ensure_snapshot

            self._snapshot_file = str(
                ensure_snapshot(self._config.cache_dir, framework, apidb)
            )
        levels: set[int] = set()
        for _index, forged, _attempt in pending:
            try:
                levels.add(forged.apk.manifest.effective_max_sdk)
            except Exception:  # noqa: BLE001 — hostile app: its own
                continue  # analysis will record the failure, not prep
        levels = sorted(levels)
        for level in levels:
            try:
                framework.warm_level(level)
            except ValueError:  # level outside the modeled range
                continue
        if self._config.summaries:
            from ..analysis.fwsummaries import summary_table

            table = summary_table(
                framework, apidb, store_dir=self._config.cache_dir
            )
            for level in levels:
                try:
                    table.level_summaries(level)
                except ValueError:  # pragma: no cover — range-checked
                    continue
        _PARENT_SUBSTRATE = (framework, apidb)
        if (
            _pool_context().get_start_method() != "fork"
            or os.environ.get("REPRO_FORCE_SHARED_SUBSTRATE")
        ):
            from ..cache import fingerprint_spec
            from ..cache.shared import SharedSubstrate
            from ..cache.snapshot import substrate_payload

            key = fingerprint_spec(self._spec)
            self._segment = SharedSubstrate.publish(
                substrate_payload(framework, apidb, key), key
            )

    def run_round(
        self, pending: list[_Entry], round_no: int
    ) -> list[tuple[_Entry, AppResult]]:
        config = self._config
        if round_no == 0:
            chunk_size = config.resolved_chunk_size(len(pending))
        else:
            # Retry rounds: single-app re-dispatch on a fresh pool.
            chunk_size = 1
        chunks = [
            pending[start:start + chunk_size]
            for start in range(0, len(pending), chunk_size)
        ]
        # Under fork the round's pool inherits the parent's memory, so
        # the apps need not be pickled: publish them by index before
        # the pool forks and send indices.  Other start methods can
        # only receive the apps themselves.
        global _ROUND_APPS
        ship_apps = _pool_context().get_start_method() != "fork"
        if not ship_apps:
            _ROUND_APPS = {index: forged for index, forged, _ in pending}
        try:
            return _run_round(
                chunks, self._spec, config, self._worker_stats,
                self._snapshot_file,
                self._segment.handle if self._segment is not None else None,
                ship_apps=ship_apps,
            )
        finally:
            _ROUND_APPS = {}

    def finish(self, cache_dir) -> dict:
        merged = _merge_cache_stats(self._worker_stats)
        if self._config.dedup and self._config.cache_dir is not None:
            # Workers write artifacts atomically but save the shared
            # manifest last-writer-wins; the parent adopts anything the
            # surviving manifest missed and enforces the byte budget.
            from ..cache import fingerprint_config, fingerprint_spec
            from ..cache.classes import CLASS_ARTIFACT_VERSION, class_store

            store = class_store(
                self._config.cache_dir,
                framework_fingerprint=fingerprint_spec(self._spec),
                config_fingerprint=fingerprint_config(
                    ("SAINTDroid",), {"classes": CLASS_ARTIFACT_VERSION}
                ),
            )
            store.flush()
        return merged

    def close(self) -> None:
        # Guaranteed teardown (run_corpus calls this from a finally,
        # and SharedSubstrate has its own atexit guard on top): the
        # published segment is unlinked exactly once, and the parent
        # substrate reference is dropped so a later run with a
        # different spec cannot see a stale one.
        global _PARENT_SUBSTRATE
        if self._segment is not None:
            self._segment.close(unlink=True)
            self._segment = None
        if (
            _PARENT_SUBSTRATE is not None
            and _PARENT_SUBSTRATE[0].spec is self._spec
        ):
            _PARENT_SUBSTRATE = None


def run_tools_parallel(
    apps: Iterable[ForgedApp],
    spec: FrameworkSpec,
    config: ParallelConfig,
    *,
    progress: Callable[[str], None] | None = None,
    checkpoint: str | Path | None = None,
) -> RunResults:
    """Analyze ``apps`` over a pool of ``config.jobs`` workers.

    Results are returned in corpus order whatever order workers finish
    in; every app yields exactly one :class:`AppResult`, failed or
    not.  The retry/quarantine/checkpoint/cache envelope is
    :func:`repro.eval.orchestration.run_corpus` — shared verbatim with
    the serial scheduler; this function only supplies the pool
    backend.
    """
    backend = PoolBackend(spec, config)
    return run_corpus(
        apps,
        backend,
        max_retries=config.max_retries,
        retry_backoff_s=config.retry_backoff_s,
        fault_plan=config.fault_plan,
        checkpoint=checkpoint,
        cache_dir=config.cache_dir,
        progress=progress,
    )
