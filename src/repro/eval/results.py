"""One producer per committed paper result.

Every deterministic file under ``benchmarks/results/`` — Tables I–IV,
Figures 1, 3 and 4 with their series, RQ2, the §VI ablations and the
framework-scale sweep — is made here and nowhere else.
:data:`RESULTS` maps each file name to its producer; a producer reads
a :class:`Session` and returns a :class:`Result`: the structured data
the paper-anchor tests assert on, and the exact text of the file.

The CLI's ``table``/``rq2``/``figure``/``sweep`` commands print
``Result.text`` and ``reproduce`` writes it, so a command run with no
flags prints its committed file byte for byte.  :class:`Params`
holds the parameters the committed files were made with; a CLI flag
overrides one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from ..core import build_api_database
from ..core.detector import SaintDroid
from ..framework.repository import FrameworkRepository
from ..workload.appgen import AppForge
from ..workload.benchsuite import CIDER_BENCH, build_benchmark_suite
from ..workload.corpus import CorpusConfig, generate_corpus
from .accuracy import score_app
from .checkpoint import CheckpointJournal
from .export import memory_csv, timing_csv
from .figures import (
    ascii_scatter,
    figure1_regions,
    figure3_series,
    figure4_series,
)
from .runner import DEFAULT_TOOLS, RunResults, ToolSet, run_tools
from .sweep import sweep_framework_scale
from .tables import (
    render_rq2,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    rq2_summary,
    table1_taxonomy,
    table2_accuracy,
    table3_times,
    table4_capabilities,
)

__all__ = ["FIGURE_TOOLS", "Params", "RESULTS", "Result", "Session"]

#: The real-world performance comparison of Figures 3 and 4.
FIGURE_TOOLS = ("SAINTDroid", "CID", "Lint")

#: Dynamic verification runs on a subset: interpretation is slower
#: than static analysis (the paper's argument for static-first triage).
VERIFY_APPS = ("Padland", "FOSS Browser", "SurvivalManual", "Kolab notes",
               "MaterialFBook", "SimpleSolitaire")

#: Anonymous-class guard traps seeded into the ablation app.
ANONYMOUS_TRAPS = 4


@dataclass(frozen=True)
class Params:
    """The parameters the committed results were made with."""

    #: Benchmark replica filler scale (Tables II/III, E9).
    scale: float = 1.0
    #: Corpus sample size and seed (RQ2, Figures 3 and 4); the paper
    #: analyzed 3,571 apps — rates, not totals, are the target.
    count: int = 150
    seed: int = CorpusConfig.seed
    #: The app target level Figure 1 splits the device range around.
    app_level: int = 23
    #: Framework sizes, probe apps per size and seed of the sweep.
    bulk_sizes: tuple[int, ...] = (500, 1000, 2000, 4000)
    probes: int = 2
    sweep_seed: int = 11


@dataclass(frozen=True)
class Result:
    """A produced result: its data, and its file's exact text."""

    data: object
    text: str


def _text(*lines: str) -> str:
    return "\n".join(lines) + "\n"


class Session:
    """The inputs a batch of results shares, each built once.

    One run of ``corpus_tools`` over the corpus sample serves RQ2 and
    Figures 3 and 4.  ``toolset_options`` go to :meth:`ToolSet.default`
    (``summaries``, ``dedup``, ``cache_dir``) and ``run_options`` to
    :func:`run_tools` (``jobs``, timeouts, retries, ``checkpoint``,
    ``cache_dir``).  ``runs`` lists every run made, in order.
    """

    def __init__(
        self,
        params: Params = Params(),
        *,
        corpus_tools: tuple[str, ...] = FIGURE_TOOLS,
        toolset_options: dict | None = None,
        run_options: dict | None = None,
    ) -> None:
        self.params = params
        self.corpus_tools = corpus_tools
        self.toolset_options = toolset_options or {}
        self.run_options = run_options or {}
        self.runs: list[RunResults] = []
        self._results: dict[str, Result] = {}

    def result(self, name: str) -> Result:
        """The named result (a file name in :data:`RESULTS`)."""
        if name not in self._results:
            self._results[name] = RESULTS[name](self)
        return self._results[name]

    @cached_property
    def framework(self) -> FrameworkRepository:
        return FrameworkRepository()

    @cached_property
    def apidb(self):
        return build_api_database(self.framework)

    def _toolset(self, include: tuple[str, ...]) -> ToolSet:
        return ToolSet.default(
            self.framework, self.apidb, include=include,
            **self.toolset_options,
        )

    @cached_property
    def toolset(self) -> ToolSet:
        """The default tools, over the session's framework."""
        return self._toolset(DEFAULT_TOOLS)

    def saintdroid(self, **options) -> SaintDroid:
        return SaintDroid(self.framework, self.apidb, **options)

    def _run(self, toolset: ToolSet, apps: Callable) -> RunResults:
        checkpoint = self.run_options.get("checkpoint")
        if checkpoint is not None:
            # Refuse a journal for other tools, or a corrupt one,
            # before paying for the apps.
            CheckpointJournal(checkpoint, tools=toolset.tool_names).records()
        run = run_tools(apps(), toolset, **self.run_options)
        self.runs.append(run)
        return run

    @cached_property
    def bench_apps(self) -> list:
        """The 19 benchmark replicas."""
        return build_benchmark_suite(self.apidb, scale=self.params.scale)

    @cached_property
    def bench_run(self) -> RunResults:
        """Every default tool over every benchmark replica."""
        return self._run(self.toolset, lambda: self.bench_apps)

    @cached_property
    def corpus(self) -> list:
        """The calibrated real-world corpus sample."""
        config = CorpusConfig(count=self.params.count, seed=self.params.seed)
        return list(generate_corpus(config, self.apidb))

    @cached_property
    def corpus_run(self) -> RunResults:
        """The ``corpus_tools`` over the corpus sample."""
        return self._run(
            self._toolset(self.corpus_tools),
            lambda: [entry.forged for entry in self.corpus],
        )

    @cached_property
    def ablation_app(self):
        """The §VI ablation workload: seeded issues, anonymous-class
        and caller guard traps, 6 KLOC of filler."""
        forge = AppForge(
            "com.ablation.app", "AblationApp",
            min_sdk=19, target_sdk=26, seed=77, apidb=self.apidb,
        )
        for _ in range(3):
            forge.add_direct_issue()
        forge.add_inherited_issue()
        forge.add_callback_issue(modeled=False)
        for _ in range(ANONYMOUS_TRAPS):
            forge.add_anonymous_guard_trap()
        forge.add_caller_guard_trap()
        forge.add_filler(kloc=6.0)
        return forge.build()


# ---------------------------------------------------------------------------
# producers
# ---------------------------------------------------------------------------

def _rq2(session: Session) -> Result:
    run = session.corpus_run
    modern = {
        entry.forged.apk.name: entry.modern_target
        for entry in session.corpus
    }
    summary = rq2_summary([
        (result.reports["SAINTDroid"], result.truth, modern[result.app])
        for result in run.results
        if "SAINTDroid" in result.reports
    ])
    return Result(summary, _text(render_rq2(summary)))


def _table1(session: Session) -> Result:
    return Result(table1_taxonomy(), _text(render_table1()))


def _figure1(session: Session) -> Result:
    level = session.params.app_level
    regions = figure1_regions(level)
    return Result(regions, _text(
        f"Figure 1: mismatch regions for app API level {level}",
        *(f"  device {device:>2}: {region}"
          for device, region in regions.items()),
    ))


def _table2(session: Session) -> Result:
    table = table2_accuracy(session.bench_run)
    return Result(table, _text(render_table2(table)))


def _table3(session: Session) -> Result:
    labels = tuple(spec.label for spec in CIDER_BENCH)
    rows = table3_times(session.bench_run, apps=labels)
    return Result(rows, _text(render_table3(rows)))


def _table4(session: Session) -> Result:
    rows = table4_capabilities(session.toolset.tools)
    return Result(rows, _text(render_table4(rows)))


def _ablation_lazy(session: Session) -> Result:
    apk = session.ablation_app.apk
    lazy = session.saintdroid().analyze(apk)
    eager = session.saintdroid(lazy_loading=False).analyze(apk)
    lazy_mb = lazy.metrics.modeled_memory_mb
    eager_mb = eager.metrics.modeled_memory_mb
    return Result({"lazy": lazy, "eager": eager}, _text(
        "Ablation: lazy (CLVM) vs eager (closed-world) loading",
        f"  findings identical: {lazy.keys == eager.keys}",
        f"  lazy memory:  {lazy_mb:.0f} MB "
        f"({lazy.metrics.stats.framework_classes_loaded} "
        f"framework classes)",
        f"  eager memory: {eager_mb:.0f} MB "
        f"({eager.metrics.stats.framework_classes_loaded} "
        f"framework classes)",
        f"  eager/lazy ratio: {eager_mb / lazy_mb:.1f}x",
    ))


def _ablation_anonymous(session: Session) -> Result:
    app = session.ablation_app
    default = session.saintdroid().analyze(app.apk)
    fixed = session.saintdroid(
        propagate_guards_into_anonymous=True
    ).analyze(app.apk)
    truth = app.truth
    trap_keys = {key for trap in truth.traps for key in trap.fp_keys}
    default_fps = default.keys - truth.issue_keys
    fixed_fps = fixed.keys - truth.issue_keys
    data = {"default": default, "fixed": fixed, "truth": truth}
    return Result(data, _text(
        "Ablation: guard propagation into anonymous classes",
        f"  seeded anonymous traps:     {ANONYMOUS_TRAPS}",
        f"  false alarms (default):     {len(default_fps & trap_keys)}",
        f"  false alarms (ablation):    {len(fixed_fps & trap_keys)}",
        f"  true positives unchanged:   "
        f"{len(truth.issue_keys & fixed.keys)}",
    ))


def _ablation_dynamic(session: Session) -> Result:
    from ..dynamic.verifier import DynamicVerifier

    reports = {
        result.app: result.reports["SAINTDroid"]
        for result in session.bench_run.results
    }
    rows = []
    for forged in session.bench_apps:
        if forged.apk.name not in VERIFY_APPS:
            continue
        report = reports[forged.apk.name]
        verified = DynamicVerifier(
            forged.apk, session.apidb
        ).verify_all(report)
        static = score_app(report, forged.truth, ("API",))
        surviving = {
            m.key for m in verified.surviving_mismatches()
            if m.key[0] == "API"
        }
        truth_api = {k for k in forged.truth.issue_keys if k[0] == "API"}
        rows.append({
            "app": forged.apk.name,
            "static_tp": static.tp,
            "static_fp": static.fp,
            "combined_tp": len(surviving & truth_api),
            "combined_fp": len(surviving - truth_api),
            "refuted": len(verified.refuted),
        })
    static_tp = sum(row["static_tp"] for row in rows)
    static_fp = sum(row["static_fp"] for row in rows)
    lines = [
        "Ablation: static-only vs static+dynamic (API kind)",
        f"{'app':<18}{'static tp/fp':>14}{'combined tp/fp':>17}"
        f"{'refuted':>9}",
    ]
    for row in rows:
        static_cell = f"{row['static_tp']}/{row['static_fp']}"
        combined_cell = f"{row['combined_tp']}/{row['combined_fp']}"
        lines.append(
            f"{row['app']:<18}{static_cell:>14}{combined_cell:>17}"
            f"{row['refuted']:>9}"
        )
    lines.append(
        f"API precision: static "
        f"{static_tp / (static_tp + static_fp):.2f} -> combined 1.00"
    )
    return Result(rows, _text(*lines))


def _sweep(session: Session) -> Result:
    params = session.params
    points = sweep_framework_scale(
        params.bulk_sizes,
        probes_per_point=params.probes,
        seed=params.sweep_seed,
        cache_dir=session.toolset_options.get("cache_dir"),
        summaries=session.toolset_options.get("summaries", False),
    )
    lines = [
        "Sweep: tool cost vs framework size (avg over probe apps)",
        f"{'bulk':>6}{'fw@26':>8}{'SAINT MB':>10}{'SAINT cls':>11}"
        f"{'CID MB':>9}{'mem ratio':>11}{'time ratio':>12}",
    ]
    for point in points:
        lines.append(
            f"{point.bulk_classes:>6}"
            f"{point.framework_classes_at_26:>8}"
            f"{point.saintdroid_memory_mb:>10.0f}"
            f"{point.saintdroid_classes_loaded:>11}"
            f"{point.cid_memory_mb:>9.0f}"
            f"{point.memory_ratio:>11.1f}"
            f"{point.time_ratio:>12.1f}"
        )
    return Result(points, _text(*lines))


def _figure3(session: Session) -> Result:
    data = figure3_series(session.corpus_run)
    return Result(data, _text(
        "Figure 3: SAINTDroid analysis time vs app size (KLOC)",
        ascii_scatter(data["scatter"]),
        *(f"{s.tool}: avg {s.average:.1f}s "
          f"range {s.minimum:.1f}-{s.maximum:.1f} "
          f"({s.completed} completed, {s.failed} failed)"
          for s in data["summaries"]),
    ))


def _figure3_series(session: Session) -> Result:
    return Result(session.corpus_run, timing_csv(session.corpus_run))


def _figure4(session: Session) -> Result:
    data = figure4_series(session.corpus_run)
    saint = data["summary"]["SAINTDroid"]
    cid = data["summary"]["CID"]
    return Result(data, _text(
        "Figure 4: peak analysis memory on real-world apps (modeled MB)",
        f"  SAINTDroid: avg {saint['average_mb']:.0f} "
        f"range {saint['min_mb']:.0f}-{saint['max_mb']:.0f}",
        f"  CID:        avg {cid['average_mb']:.0f} "
        f"range {cid['min_mb']:.0f}-{cid['max_mb']:.0f}",
        f"  ratio: {cid['average_mb'] / saint['average_mb']:.1f}x",
    ))


def _figure4_series(session: Session) -> Result:
    return Result(session.corpus_run, memory_csv(session.corpus_run))


#: Every committed deterministic result, by file name.
RESULTS: dict[str, Callable[[Session], Result]] = {
    "rq2.txt": _rq2,
    "table1.txt": _table1,
    "figure1.txt": _figure1,
    "table2.txt": _table2,
    "table3.txt": _table3,
    "table4.txt": _table4,
    "ablation_lazy.txt": _ablation_lazy,
    "ablation_anonymous.txt": _ablation_anonymous,
    "ablation_dynamic.txt": _ablation_dynamic,
    "sweep_framework_scale.txt": _sweep,
    "figure3.txt": _figure3,
    "figure3_series.csv": _figure3_series,
    "figure4.txt": _figure4,
    "figure4_series.csv": _figure4_series,
}
