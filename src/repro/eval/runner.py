"""Experiment runner: drive every tool over a set of workloads.

Shares a single framework repository and API database across all tools
— exactly as the paper's protocol does ("the API database is
constructed once for a given framework … upon which the compatibility
analysis of all apps relies") — so the per-app measurements contain no
database-construction noise.

Corpus-scale runs fan out over a process pool (``jobs > 1``) whose
workers analyze with the caller's :class:`ToolSet`; the scheduling and
result-ordering machinery lives in :mod:`repro.eval.parallel`.  Both
paths funnel every app through :func:`analyze_app`, so a parallel run
produces results identical to a serial one (verified by
:meth:`RunResults.fingerprint` equality in the test suite).

Fault tolerance (both paths):

* a crashing, hanging, or malformed app yields an
  :class:`~repro.core.errors.AnalysisError` record on its
  :class:`AppResult` — never a dead run;
* *retryable* failures (timeouts, lost workers, resource exhaustion)
  are re-attempted up to ``max_retries`` times with bounded backoff
  before the app is quarantined;
* ``checkpoint=`` journals completed results to a JSONL file
  (:mod:`repro.eval.checkpoint`); a killed run resumes by skipping
  journaled indices, reproducing the uninterrupted fingerprint;
* ``fault_plan=`` injects deterministic faults for chaos testing
  (:mod:`repro.eval.faults`).
"""

from __future__ import annotations

import random
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from ..baselines.cid import Cid
from ..baselines.cider import Cider
from ..baselines.lint import Lint
from ..core.apidb import ApiDatabase
from ..core.arm import build_api_database
from ..core.detector import AnalysisReport, SaintDroid
from ..core.errors import AnalysisError, classify_exception
from ..framework.repository import FrameworkRepository
from ..pipeline.hooks import FaultInjectionHook
from ..workload.appgen import ForgedApp
from ..workload.groundtruth import GroundTruth
from .accuracy import KIND_GROUPS, ToolAccuracy, score_apps

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from .faults import FaultPlan

__all__ = [
    "ToolSet",
    "AppResult",
    "RunResults",
    "AppTimeoutError",
    "ALL_TOOL_CONFIGS",
    "analyze_app",
    "run_tools",
]

DEFAULT_TOOLS = ("SAINTDroid", "CID", "CIDER", "Lint")

#: Every registered tool/ablation configuration, in the canonical
#: order campaigns iterate them.  The two SAINTDroid ablations are
#: name-addressable (not constructor-flag-only) so a campaign, the
#: CLI and the serve daemon can select them with
#: :meth:`ToolSet.default`'s ``include``.  An ablation's reports,
#: checkpoint headers, and cache keys all carry its configuration
#: name, never plain ``SAINTDroid``.
ALL_TOOL_CONFIGS = (
    "SAINTDroid",
    "SAINTDroid-eager",
    "SAINTDroid-anon",
    "CID",
    "CIDER",
    "Lint",
)


def _named(tool, name: str):
    """Stamp a catalog configuration name onto a tool instance (the
    class attribute stays ``SAINTDroid``; results are keyed by the
    instance name)."""
    tool.name = name
    return tool

#: Retry backoff is bounded: no attempt ever waits longer than
#: ``retry_backoff_s * BACKOFF_CAP_FACTOR``.
BACKOFF_CAP_FACTOR = 8


class AppTimeoutError(Exception):
    """One app exceeded the per-app wall-clock budget."""


@dataclass
class ToolSet:
    """The detectors sharing one framework + database: one object
    describes a run's analysis configuration, and the serial loop and
    every pool worker analyze with this same instance."""

    framework: FrameworkRepository
    apidb: ApiDatabase
    tools: list
    #: True when SAINTDroid runs with framework pre-summaries (the
    #: summarized ablation).  Keys the persistent result cache (see
    #: :meth:`config_options`) and tells the pool to materialize the
    #: summary table parent-side.
    summaries: bool = False
    #: True when SAINTDroid runs delta analysis against the corpus-wide
    #: class-artifact store (``--dedup``).  Keys the result cache, and
    #: a run's finish flushes that store.
    dedup: bool = False
    #: Where SAINTDroid persists its summary table and class-artifact
    #: store; ``None`` keeps both in memory.
    cache_dir: str | None = None

    @staticmethod
    def default(
        framework: FrameworkRepository | None = None,
        apidb: ApiDatabase | None = None,
        *,
        include: tuple[str, ...] = DEFAULT_TOOLS,
        summaries: bool = False,
        dedup: bool = False,
        cache_dir: str | None = None,
    ) -> "ToolSet":
        framework = framework or FrameworkRepository()
        apidb = apidb or build_api_database(framework)
        catalog: dict[str, Callable[[], object]] = {
            "SAINTDroid": lambda: SaintDroid(
                framework,
                apidb,
                framework_summaries=summaries,
                dedup=dedup,
                cache_dir=cache_dir,
            ),
            # The ablations deliberately ignore --summaries/--dedup:
            # each ablates exactly one knob against the plain lazy
            # configuration, and the class-artifact store records
            # plain-configuration facts (replaying them under altered
            # guard propagation would not be parity-safe).
            "SAINTDroid-eager": lambda: _named(
                SaintDroid(framework, apidb, lazy_loading=False),
                "SAINTDroid-eager",
            ),
            "SAINTDroid-anon": lambda: _named(
                SaintDroid(
                    framework,
                    apidb,
                    propagate_guards_into_anonymous=True,
                ),
                "SAINTDroid-anon",
            ),
            "CID": lambda: Cid(framework, apidb),
            "CIDER": lambda: Cider(framework, apidb),
            "Lint": lambda: Lint(framework, apidb),
        }
        tools = [catalog[name]() for name in include]
        return ToolSet(
            framework=framework,
            apidb=apidb,
            tools=tools,
            summaries=summaries,
            dedup=dedup,
            cache_dir=cache_dir,
        )

    @property
    def tool_names(self) -> tuple[str, ...]:
        return tuple(tool.name for tool in self.tools)

    def config_options(self) -> dict:
        """Findings-relevant configuration beyond the tool names
        (e.g. ``{"summaries": True}``).  Keys the persistent result
        cache together with :attr:`tool_names`; empty for the default
        configuration so existing caches remain valid."""
        options: dict = {}
        if self.summaries:
            options["summaries"] = True
        if self.dedup:
            options["dedup"] = True
        return options

    def cache_stats(self) -> dict:
        """Framework + database cache accounting for this tool set."""
        from ..cache.classes import ClassStoreStats, registered_stores

        stats = {
            "framework": self.framework.cache_stats.as_dict(),
            "apidb": self.apidb.cache_counters.as_dict(),
        }
        stores = registered_stores()
        if stores:
            stats["classes"] = summed_stats(
                ClassStoreStats, (store.stats.as_dict() for store in stores)
            )
        return stats


def summed_stats(stats_type, sections: Iterable[dict]) -> dict:
    """Sum counter sections shaped like ``stats_type().as_dict()``
    and re-derive their rates: the one place a merged cache section's
    ``hit_rate``-style fields are computed, for a tool set's class
    stores and for the pool's per-worker snapshots alike."""
    total = stats_type()
    for section in sections:
        for key, value in section.items():
            if not key.endswith("_rate"):  # derived, not summed
                setattr(total, key, getattr(total, key) + value)
    return total.as_dict()


@dataclass
class AppResult:
    """All tools' reports for one app."""

    app: str
    truth: GroundTruth
    reports: dict[str, AnalysisReport] = field(default_factory=dict)
    kloc: float = 0.0
    #: Set when the app's analysis failed (crash, timeout, lost
    #: worker, malformed package); the reports dict is empty in that
    #: case and downstream consumers (tables, figures, accuracy) skip
    #: the app for the failed tools.  The record carries the failure
    #: kind, pipeline phase, retryability, and a traceback tail.
    error: AnalysisError | None = None
    #: Lenient-ingestion diagnostic codes carried by the app's package
    #: (empty for well-formed packages and strict ingests).
    ingest_diagnostics: tuple[str, ...] = ()

    #: True when this result was served from the persistent result
    #: cache instead of analyzed (excluded from fingerprints).
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def report(self, tool: str) -> AnalysisReport:
        return self.reports[tool]

    def phase_seconds(self) -> dict[str, float]:
        """Measured wall seconds per pipeline phase, summed over this
        app's tools (``load``/``explore``/``guards``/``detect``)."""
        totals: dict[str, float] = {}
        for report in self.reports.values():
            metrics = report.metrics
            if metrics is None:
                continue
            for phase, seconds in metrics.phase_seconds.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals

    def fingerprint(self) -> dict:
        """Deterministic content of this result: everything except
        wall-clock noise, warm-cache accounting, and retry counts (all
        legitimately vary between runs and between serial/parallel
        schedules)."""
        reports = {}
        for tool in sorted(self.reports):
            report = self.reports[tool]
            metrics = report.metrics
            reports[tool] = {
                "mismatches": [m.describe() for m in report.mismatches],
                "failed": bool(metrics and metrics.failed),
                "work_units": metrics.work_units if metrics else 0,
                "memory_units": metrics.memory_units if metrics else 0,
            }
        return {
            "app": self.app,
            "kloc": self.kloc,
            "error": self.error.fingerprint() if self.error else None,
            "ingest": list(self.ingest_diagnostics),
            "truth": sorted(str(issue.key) for issue in self.truth.issues),
            "reports": reports,
        }

    def findings_fingerprint(self) -> dict:
        """Findings-only content: mismatches, failure flags, and the
        error record — no cost-model accounting.  Invariant across the
        lazy/summarized ablation (which changes work/memory units but
        must never change findings), so the parity test and CI job
        compare this, not :meth:`fingerprint`."""
        reports = {}
        for tool in sorted(self.reports):
            report = self.reports[tool]
            metrics = report.metrics
            reports[tool] = {
                "mismatches": [m.describe() for m in report.mismatches],
                "failed": bool(metrics and metrics.failed),
            }
        return {
            "app": self.app,
            "error": self.error.fingerprint() if self.error else None,
            "reports": reports,
        }


@dataclass
class RunResults:
    """Results of one experiment run."""

    results: list[AppResult] = field(default_factory=list)
    #: Cache accounting gathered at the end of the run (aggregated
    #: over workers for parallel runs).  Excluded from fingerprints.
    cache_stats: dict = field(default_factory=dict)
    #: Corpus indices restored from a checkpoint journal instead of
    #: analyzed in this run.  Excluded from fingerprints.
    resumed_indices: tuple[int, ...] = ()
    #: Corpus indices served from the persistent result cache instead
    #: of analyzed in this run.  Excluded from fingerprints.
    cached_indices: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.results)

    @property
    def tools(self) -> tuple[str, ...]:
        for result in self.results:
            if result.reports:
                return tuple(result.reports)
        return ()

    @property
    def failed_apps(self) -> tuple[str, ...]:
        return tuple(r.app for r in self.results if not r.ok)

    @property
    def quarantined(self) -> tuple[AppResult, ...]:
        """Apps that exhausted their retry budget (or failed
        non-retryably) — each with its full error record."""
        return tuple(r for r in self.results if r.error is not None)

    def phase_totals(self) -> dict[str, float]:
        """Measured wall seconds per pipeline phase summed over the
        whole run (cache hits contribute their *original* measured
        times, so warm totals reflect the work that was skipped)."""
        totals: dict[str, float] = {}
        for result in self.results:
            for phase, seconds in result.phase_seconds().items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return dict(sorted(totals.items()))

    def error_summary(self) -> dict[str, int]:
        """Failure counts keyed by error kind (``timeout``, ``crash``,
        …) — the per-kind breakdown a corpus run ends with."""
        counts: dict[str, int] = {}
        for result in self.results:
            if result.error is not None:
                kind = result.error.kind.value
                counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def fingerprint(self) -> dict:
        """Deterministic run content; identical for serial and
        parallel runs over the same apps and tools."""
        return {"results": [r.fingerprint() for r in self.results]}

    def findings_fingerprint(self) -> dict:
        """Findings-only run content (see
        :meth:`AppResult.findings_fingerprint`): identical across the
        lazy/summarized ablation as well as across schedulers."""
        return {
            "results": [r.findings_fingerprint() for r in self.results]
        }

    def accuracy(
        self,
        tool: str,
        groups: dict[str, tuple[str, ...]] | None = None,
    ) -> ToolAccuracy:
        pairs = [
            (result.reports[tool], result.truth)
            for result in self.results
            if tool in result.reports
        ]
        return score_apps(tool, pairs, groups or KIND_GROUPS)

    def accuracies(self) -> dict[str, ToolAccuracy]:
        return {tool: self.accuracy(tool) for tool in self.tools}


# ---------------------------------------------------------------------------
# per-app deadlines
# ---------------------------------------------------------------------------

#: Module flag (not a local ``hasattr`` check) so tests can force the
#: thread-based fallback on platforms that do have ``SIGALRM``.
_SIGALRM_AVAILABLE = hasattr(signal, "SIGALRM")


@contextmanager
def _app_deadline(timeout_s: float | None):
    """Raise :class:`AppTimeoutError` after ``timeout_s`` wall seconds.

    Uses ``SIGALRM`` (one app per process at a time, in both the
    serial loop and pool workers, so the timer is never shared).  On
    exit any pre-existing handler *and* itimer are restored — a nested
    use (an outer coarser deadline around an inner per-app one) keeps
    the outer timer running with its remaining budget instead of
    having it silently cancelled.
    """
    if timeout_s is None:
        yield
        return

    def _expired(signum, frame):
        raise AppTimeoutError(
            f"app analysis exceeded {timeout_s:.0f}s wall-clock budget"
        )

    previous_handler = signal.getsignal(signal.SIGALRM)
    prev_delay, prev_interval = signal.getitimer(signal.ITIMER_REAL)
    started = time.monotonic()
    signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if prev_delay > 0.0:
            # Re-arm the outer timer with whatever budget it has left
            # (a minimum epsilon: an already-expired outer deadline
            # must still fire, just immediately-ish).
            elapsed = time.monotonic() - started
            remaining = max(prev_delay - elapsed, 1e-6)
            signal.setitimer(
                signal.ITIMER_REAL, remaining, prev_interval
            )


def _call_with_thread_deadline(fn: Callable[[], None], timeout_s: float):
    """Deadline fallback for platforms without ``SIGALRM`` (and for
    non-main threads, where signals cannot be delivered).

    The analysis runs in a daemon thread that is *abandoned* on
    timeout — Python offers no safe preemption — so the caller's run
    proceeds while the stuck computation is left to the process's
    lifetime.  A pool worker lives as long as its pool, so an
    abandoned thread does too.
    """
    outcome: dict[str, BaseException] = {}
    done = threading.Event()

    def _target() -> None:
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            outcome["error"] = exc
        finally:
            done.set()

    worker = threading.Thread(
        target=_target, name="app-deadline", daemon=True
    )
    worker.start()
    if not done.wait(timeout_s):
        raise AppTimeoutError(
            f"app analysis exceeded {timeout_s:.0f}s wall-clock budget"
        )
    if "error" in outcome:
        raise outcome["error"]


def _run_under_deadline(fn: Callable[[], None], timeout_s: float | None):
    """Run ``fn`` under the best available deadline mechanism."""
    if timeout_s is None:
        fn()
        return
    if _SIGALRM_AVAILABLE and (
        threading.current_thread() is threading.main_thread()
    ):
        with _app_deadline(timeout_s):
            fn()
        return
    _call_with_thread_deadline(fn, timeout_s)


# ---------------------------------------------------------------------------
# per-app analysis
# ---------------------------------------------------------------------------

def analyze_app(
    toolset: ToolSet,
    forged: ForgedApp,
    *,
    timeout_s: float | None = None,
    fault=None,
    attempt: int = 0,
    allow_process_death: bool = False,
) -> AppResult:
    """Analyze one app with every tool; never raises.

    A crash or timeout yields an :class:`AppResult` with ``error`` set
    (a structured :class:`~repro.core.errors.AnalysisError` carrying
    kind, phase, retryability, and the traceback tail) and no reports
    — one bad app cannot take down a corpus run.  Used verbatim by the
    serial loop and by pool workers so both schedules compute
    identical results.  Per-app AUM models are dropped from the
    reports: the eval layer never reads them and they dominate
    inter-process transfer cost.

    ``fault`` is an injected :class:`~repro.eval.faults.InjectedFault`
    for chaos testing; ``attempt`` is the 0-based retry attempt (used
    both by transient faults and the error record's attempt count);
    ``allow_process_death`` lets a worker-death fault actually kill
    the process (pool workers only — a serial run simulates it with a
    raised :class:`~repro.core.errors.WorkerLostError` instead).
    """
    result = AppResult(
        app=forged.apk.name,
        truth=forged.truth,
        kloc=forged.apk.dex_kloc,
    )

    fault_hook = None
    if fault is not None:
        fault_hook = FaultInjectionHook(
            fault, attempt, allow_process_death=allow_process_death
        )

    def _run_all_tools() -> None:
        # Faults attach as a pass-manager hook and fire before the
        # first pass of the first tool — inside the deadline scope, so
        # an injected hang surfaces exactly like a real one: as a
        # timeout.
        for tool in toolset.tools:
            if fault_hook is not None and not getattr(
                tool, "supports_pipeline_hooks", False
            ):
                # Third-party detectors without a pass pipeline still
                # get the fault, fired directly before their analyze.
                fault_hook.trigger_now()
            hooks = (fault_hook,) if fault_hook is not None else ()
            if getattr(tool, "supports_pipeline_hooks", False):
                report = tool.analyze(forged.apk, hooks=hooks)
            else:
                report = tool.analyze(forged.apk)
            report.model = None
            result.reports[tool.name] = report
        if fault_hook is not None:
            # An empty tool list must still surface the injected
            # fault (it models the app being touched at all).
            fault_hook.trigger_now()

    try:
        # Inside the guard: a hostile package object may raise from
        # any attribute access, including the diagnostics probe.
        result.ingest_diagnostics = tuple(
            diag.code
            for diag in getattr(forged.apk, "diagnostics", ())
        )
        _run_under_deadline(_run_all_tools, timeout_s)
    except Exception as exc:  # noqa: BLE001 — recorded, not swallowed
        result.reports.clear()
        result.error = classify_exception(exc, attempts=attempt + 1)
    return result


def _bounded_backoff(base_s: float, attempt: int) -> float:
    """Exponential backoff ceiling, capped so a retry never stalls the
    run.  This is the *upper bound* of the sleep; the actual sleep is
    drawn by :func:`_full_jitter_backoff`."""
    return min(base_s * 2 ** (attempt - 1), base_s * BACKOFF_CAP_FACTOR)


def _full_jitter_backoff(
    base_s: float, attempt: int, rng: random.Random | None = None
) -> float:
    """Full-jitter backoff: uniform over ``[0, bounded ceiling]``.

    A deterministic exponential backoff re-stampedes the pool — every
    retried app sleeps the same duration and the whole retry round
    lands on the workers at the same instant.  Full jitter (the AWS
    "exponential backoff and jitter" result) spreads the retries over
    the entire window, which both de-synchronizes the stampede and
    keeps the *expected* wait at half the deterministic one.
    """
    if base_s <= 0.0:
        return 0.0
    ceiling = _bounded_backoff(base_s, attempt)
    return (rng if rng is not None else random).uniform(0.0, ceiling)


def run_tools(
    apps: Iterable[ForgedApp],
    toolset: ToolSet | None = None,
    *,
    jobs: int = 1,
    timeout_s: float | None = None,
    progress: Callable[[str], None] | None = None,
    max_retries: int = 0,
    retry_backoff_s: float = 0.0,
    fault_plan: "FaultPlan | None" = None,
    checkpoint: str | Path | None = None,
    cache_dir: str | Path | None = None,
) -> RunResults:
    """Analyze every app with every tool.

    ``jobs > 1`` fans the corpus out over a pool of ``jobs`` worker
    processes that all analyze with ``toolset`` itself (see
    :mod:`repro.eval.parallel`); results come back in corpus order
    regardless of completion order.

    ``max_retries`` re-attempts retryable failures (timeout,
    worker-lost, resource) before quarantining the app;
    ``retry_backoff_s`` is the base of the full-jitter backoff between
    attempts.  ``checkpoint`` journals completed results to a JSONL
    file and, when the file already holds results for this corpus,
    resumes by skipping the journaled indices — a resumed run's
    fingerprint equals an uninterrupted one's.  ``fault_plan`` injects
    deterministic faults (chaos testing).

    ``cache_dir`` enables the persistent cache
    (:mod:`repro.cache`): clean per-app
    results keyed by (APK digest, tools, framework) are served from
    disk on later runs, and the framework substrate is snapshotted for
    fast cold-process startup.  Cached results are fingerprint-
    identical to analyzed ones; fault-injected indices bypass the
    cache entirely so chaos runs quarantine exactly what an uncached
    run would.
    """
    toolset = toolset or ToolSet.default()
    # Both schedulers are the orchestration engine plus a backend; every
    # retry/quarantine/checkpoint/cache decision lives in
    # repro.eval.orchestration, shared verbatim between them.
    from .orchestration import SerialBackend, run_corpus

    if jobs > 1:
        from .parallel import PoolBackend

        backend = PoolBackend(
            toolset,
            workers=jobs,
            timeout_s=timeout_s,
            # A batch run kills no worker from the parent: each app's
            # deadline is timeout_s, enforced inside its worker.
            hang_timeout_s=None,
            fault_plan=fault_plan,
        )
    else:
        backend = SerialBackend(
            toolset, timeout_s=timeout_s, fault_plan=fault_plan
        )
    return run_corpus(
        apps,
        backend,
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
        checkpoint=checkpoint,
        cache_dir=cache_dir,
        progress=progress,
    )
