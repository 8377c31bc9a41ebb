"""Pass base class, the pass registry, and the SAINTDroid passes.

Each analysis stage of the paper's Figure 2 pipeline is one registered
:class:`Pass` with declared inputs (``requires``), outputs
(``provides``), a wall-clock ``phase`` bucket, and an error-taxonomy
``error_phase``.  Tools are *configurations* — ordered tuples of pass
instances (see :mod:`repro.pipeline.configs`) — executed by one
:class:`~repro.pipeline.manager.PassManager` whichever scheduler
(serial loop or process pool) drives the corpus.

The SAINTDroid decomposition:

=====================  =======  ==================================
pass                   phase    stage
=====================  =======  ==================================
manifest-ingest        —        manifest → app interval + scope
clvm-load              —        construct the lazy CLVM
icfg-explore           explore  worklist exploration + helpers
eager-load             load     whole-world ablation (eager only)
guard-propagation      guards   inter-procedural SDK_INT guards
override-collection    guards   framework-override records
permission-annotation  guards   dangerous-permission annotation
detect-api             detect   Algorithm 2 (invocation)
detect-apc             detect   Algorithm 3 (callback)
detect-prm             detect   Algorithm 4 (permission)
=====================  =======  ==================================

``clvm-load`` carries no phase bucket on purpose: under lazy loading
the CLVM interleaves class loads with exploration, so ``explore``
covers both and the lazy ``load`` bucket stays 0.0; only the eager
ablation's whole-world load is charged to ``load``.
"""

from __future__ import annotations

from ..analysis.clvm import ClassLoaderVM
from ..core.amd import AndroidMismatchDetector
from ..core.aum import (
    AumModel,
    annotate_permissions,
    collect_overrides,
    explore,
    propagate_guards,
)
from ..core.errors import AnalysisPhase
from ..core.sem import semantic_mismatches
from .context import AnalysisContext

__all__ = [
    "Pass",
    "register_pass",
    "registered_passes",
    "ManifestIngestPass",
    "FrameworkSummariesPass",
    "ClassDedupPass",
    "ClassStoreCommitPass",
    "ClvmLoadPass",
    "IcfgExplorePass",
    "EagerLoadPass",
    "GuardPropagationPass",
    "OverrideCollectionPass",
    "PermissionAnnotationPass",
    "DetectApiPass",
    "DetectApcPass",
    "DetectPrmPass",
    "DetectSemPass",
]


class Pass:
    """One declarative analysis stage.

    Subclasses set the class attributes and implement :meth:`run`;
    per-configuration knobs (e.g. the anonymous-class ablation) are
    constructor arguments, so a tool is a tuple of configured pass
    *instances*, not a subclass forest.
    """

    #: Registry / CLI name (``saintdroid passes``, ``--skip-pass``).
    name: str = ""
    #: Wall-clock bucket this pass is charged to (``load`` /
    #: ``explore`` / ``guards`` / ``detect``), or ``None`` for
    #: bookkeeping passes excluded from the paper's phase breakdown.
    phase: str | None = None
    #: Error-taxonomy phase tagged onto exceptions escaping this pass.
    error_phase: AnalysisPhase = AnalysisPhase.TOOL
    #: Slots this pass reads; checked before the pass runs.
    requires: tuple[str, ...] = ()
    #: Slots this pass publishes.
    provides: tuple[str, ...] = ()
    #: Mismatch-kind *values* this pass detects.  Tool capability
    #: tables are derived from these (union of families over a
    #: configuration's passes), never hand-written.
    kinds: tuple[str, ...] = ()

    def run(self, ctx: AnalysisContext) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        """First docstring line — the CLI listing's summary column."""
        doc = (self.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else self.name


_REGISTRY: dict[str, type[Pass]] = {}


def register_pass(cls: type[Pass]) -> type[Pass]:
    """Class decorator adding a pass to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no pass name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"pass name {cls.name!r} already registered by "
            f"{existing.__name__}"
        )
    _REGISTRY[cls.name] = cls
    return cls


def registered_passes() -> dict[str, type[Pass]]:
    """All registered passes, sorted by name."""
    return dict(sorted(_REGISTRY.items()))


# ---------------------------------------------------------------------------
# SAINTDroid passes
# ---------------------------------------------------------------------------

@register_pass
class ManifestIngestPass(Pass):
    """Read the manifest: app interval, resolution level, scope."""

    name = "manifest-ingest"
    error_phase = AnalysisPhase.APK
    provides = ("model", "resolution_level", "scope")

    def run(self, ctx: AnalysisContext) -> None:
        model = AumModel(apk=ctx.apk)
        ctx.provide("model", model)
        # Resolve against the newest framework level the app can run
        # on: dispatch through app subclasses must see APIs introduced
        # after the target level too (the database, not the loaded
        # image, decides per-level existence).
        ctx.provide(
            "resolution_level", ctx.apk.manifest.effective_max_sdk
        )
        # The paper's interface takes "an app APK along with a set of
        # Android framework versions"; ``device_levels`` is that set.
        scope = model.app_interval
        if ctx.device_levels is not None:
            scope = scope.meet(ctx.device_levels)
        ctx.provide("scope", scope)


@register_pass
class FrameworkSummariesPass(Pass):
    """Whole-framework pre-summaries for the app's resolution level.

    The table is a pure function of the framework spec, built once per
    process (and shared with forked pool workers), so for every app
    after the first this pass is a dictionary lookup.  The first
    build is charged to the ``load`` phase — it is load work the
    summarized CLVM will not repay per app.
    """

    name = "framework-summaries"
    phase = "load"
    error_phase = AnalysisPhase.ARM
    requires = ("resolution_level",)
    provides = ("fw_summaries",)

    def __init__(self, *, store_dir: str | None = None) -> None:
        self._store_dir = store_dir

    def run(self, ctx: AnalysisContext) -> None:
        from ..analysis.fwsummaries import summary_table

        table = summary_table(ctx.framework, store_dir=self._store_dir)
        # Force the level's summaries now so the build lands in this
        # pass's ``load`` timing, not inside ``explore``.
        table.level_summaries(ctx.get("resolution_level"))
        ctx.provide("fw_summaries", table)


@register_pass
class ClassDedupPass(Pass):
    """Open the corpus-wide class-artifact store; begin app staging.

    The store is process-shared (one instance per directory and
    fingerprint pair), so every app in a run — or every job through a
    daemon worker — amortizes against the same table.  ``begin_app``
    discards staging left by an aborted pipeline: a faulted app never
    publishes artifacts.
    """

    name = "class-dedup"
    error_phase = AnalysisPhase.TOOL
    provides = ("class_store",)

    def __init__(self, *, store_dir: str | None = None) -> None:
        self._store_dir = store_dir

    def run(self, ctx: AnalysisContext) -> None:
        from ..cache.classes import dedup_store

        store = dedup_store(self._store_dir, ctx.framework.spec)
        store.begin_app()
        ctx.provide("class_store", store)


@register_pass
class ClassStoreCommitPass(Pass):
    """Publish this app's staged class artifacts (final pass).

    Requiring the last detect output pins this pass to the end of the
    pipeline: any earlier failure, fault, or timeout aborts before the
    commit, leaving the store untouched (the chaos discipline the
    result cache enforces with ``result.ok``).
    """

    name = "class-store-commit"
    error_phase = AnalysisPhase.TOOL
    requires = ("class_store", "sem_mismatches")

    def run(self, ctx: AnalysisContext) -> None:
        if not ctx.metrics.failed:
            ctx.get("class_store").commit_app()


@register_pass
class ClvmLoadPass(Pass):
    """Construct the class-loader VM (lazy, or summary-bounded)."""

    name = "clvm-load"
    error_phase = AnalysisPhase.AUM
    requires = ("model", "resolution_level")
    provides = ("vm",)

    def __init__(
        self,
        *,
        use_summaries: bool = False,
        dedup: bool = False,
    ) -> None:
        self._use_summaries = use_summaries
        self._dedup = dedup
        if use_summaries:
            self.requires = (*self.requires, "fw_summaries")
        if dedup:
            self.requires = (*self.requires, "class_store")

    def run(self, ctx: AnalysisContext) -> None:
        summaries = (
            ctx.get("fw_summaries") if self._use_summaries else None
        )
        ctx.provide(
            "vm",
            ClassLoaderVM(
                ctx.apk,
                ctx.framework,
                ctx.get("resolution_level"),
                follow_framework=True,
                summaries=summaries,
                class_store=(
                    ctx.get("class_store") if self._dedup else None
                ),
            ),
        )


@register_pass
class IcfgExplorePass(Pass):
    """Worklist exploration: call graph, load stats, version helpers."""

    name = "icfg-explore"
    phase = "explore"
    error_phase = AnalysisPhase.AUM
    requires = ("model", "vm")
    provides = ("callgraph", "version_helpers")

    def run(self, ctx: AnalysisContext) -> None:
        model = ctx.get("model")
        explore(model, ctx.get("vm"))
        ctx.provide("callgraph", model.callgraph)
        ctx.provide("version_helpers", model.version_helpers)


@register_pass
class GuardPropagationPass(Pass):
    """Inter-procedural SDK_INT guard propagation → API usages."""

    name = "guard-propagation"
    phase = "guards"
    error_phase = AnalysisPhase.AUM
    requires = ("model", "callgraph", "version_helpers")
    provides = ("usages",)

    def __init__(self, *, into_anonymous: bool = False) -> None:
        self._into_anonymous = into_anonymous

    def run(self, ctx: AnalysisContext) -> None:
        model = ctx.get("model")
        propagate_guards(model, into_anonymous=self._into_anonymous)
        ctx.provide("usages", model.usages)


@register_pass
class OverrideCollectionPass(Pass):
    """Collect app overrides of framework-declared signatures."""

    name = "override-collection"
    phase = "guards"
    error_phase = AnalysisPhase.AUM
    requires = ("model",)
    provides = ("overrides",)

    def run(self, ctx: AnalysisContext) -> None:
        model = ctx.get("model")
        collect_overrides(model, ctx.apidb)
        ctx.provide("overrides", model.overrides)


@register_pass
class PermissionAnnotationPass(Pass):
    """Annotate API usages with transitive dangerous permissions."""

    name = "permission-annotation"
    phase = "guards"
    error_phase = AnalysisPhase.AUM
    requires = ("model", "usages")
    provides = ("permission_uses",)

    def run(self, ctx: AnalysisContext) -> None:
        model = ctx.get("model")
        annotate_permissions(model, ctx.apidb)
        ctx.provide("permission_uses", model.permission_uses)


@register_pass
class EagerLoadPass(Pass):
    """Eager ablation: load the entire world, closed-world style.

    Placed after the modeling passes (mirroring the pre-pipeline
    facade): the findings are identical to the lazy run's, only the
    load accounting — and therefore the modeled memory — changes.
    """

    name = "eager-load"
    phase = "load"
    error_phase = AnalysisPhase.AUM
    requires = ("model", "resolution_level", "usages", "overrides",
                "permission_uses")

    def run(self, ctx: AnalysisContext) -> None:
        model = ctx.get("model")
        vm = ClassLoaderVM(
            ctx.apk, ctx.framework, ctx.get("resolution_level")
        )
        vm.load_everything()
        model.stats.adopt_load_accounting(vm.stats)


@register_pass
class DetectApiPass(Pass):
    """Algorithm 2: API invocation mismatches."""

    name = "detect-api"
    phase = "detect"
    error_phase = AnalysisPhase.AMD
    requires = ("model", "usages", "scope")
    provides = ("api_mismatches",)
    kinds = ("API",)

    def run(self, ctx: AnalysisContext) -> None:
        scope = ctx.get("scope")
        found = []
        if not scope.is_empty:
            found = AndroidMismatchDetector(
                ctx.apidb
            ).invocation_mismatches(ctx.get("model"), scope)
        ctx.provide("api_mismatches", tuple(found))
        ctx.mismatches.extend(found)


@register_pass
class DetectApcPass(Pass):
    """Algorithm 3: API callback mismatches."""

    name = "detect-apc"
    phase = "detect"
    error_phase = AnalysisPhase.AMD
    requires = ("model", "overrides", "scope")
    provides = ("apc_mismatches",)
    kinds = ("APC",)

    def run(self, ctx: AnalysisContext) -> None:
        scope = ctx.get("scope")
        found = []
        if not scope.is_empty:
            found = AndroidMismatchDetector(
                ctx.apidb
            ).callback_mismatches(ctx.get("model"), scope)
        ctx.provide("apc_mismatches", tuple(found))
        ctx.mismatches.extend(found)


@register_pass
class DetectPrmPass(Pass):
    """Algorithm 4: permission request/revocation mismatches."""

    name = "detect-prm"
    phase = "detect"
    error_phase = AnalysisPhase.AMD
    requires = ("model", "permission_uses", "overrides", "scope")
    provides = ("prm_mismatches",)
    kinds = ("PRM-request", "PRM-revocation")

    def run(self, ctx: AnalysisContext) -> None:
        scope = ctx.get("scope")
        found = []
        if not scope.is_empty:
            found = AndroidMismatchDetector(
                ctx.apidb
            ).permission_mismatches(ctx.get("model"), scope)
        ctx.provide("prm_mismatches", tuple(found))
        ctx.mismatches.extend(found)


@register_pass
class DetectSemPass(Pass):
    """Semantic (behavior-only) API mismatches."""

    name = "detect-sem"
    phase = "detect"
    error_phase = AnalysisPhase.AMD
    requires = ("model", "usages", "prm_mismatches", "scope")
    provides = ("sem_mismatches",)
    kinds = ("SEM",)

    def run(self, ctx: AnalysisContext) -> None:
        scope = ctx.get("scope")
        found = []
        if not scope.is_empty:
            found = semantic_mismatches(
                ctx.apidb, ctx.get("model"), scope
            )
        ctx.provide("sem_mismatches", tuple(found))
        ctx.mismatches.extend(found)
