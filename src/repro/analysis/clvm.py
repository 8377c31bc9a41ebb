"""CLVM — the Class Loader Virtual Machine (paper Algorithm 1).

SAINTDroid's scalability contribution: instead of loading the whole
application *and* the whole framework before analysis (the closed-world
assumption of SOOT-style tools), the CLVM mimics the Android runtime's
class loading.  A worklist of method references drives exploration;
resolving a method loads (only) its declaring class, every method of a
newly loaded class is analyzed once, and the calls found are appended
to the worklist.  Classes never referenced are never loaded — neither
from the app nor from the framework — which is what keeps both time
and peak memory low.

The explorer also implements the paper's late-binding rule: string
constants reaching ``loadClass`` call sites name classes that are
pulled into the exploration when they are statically discoverable
(bundled in any dex file of the APK).

:class:`LoadStats` is the source of the deterministic cost model used
by the performance experiments (Table III, Figures 3 and 4): work is
counted in instructions analyzed and memory in instructions loaded.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache

from ..apk.package import Apk
from ..framework.repository import FrameworkRepository
from ..ir.clazz import Clazz
from ..ir.instructions import Invoke, InvokeKind, NewInstance
from ..ir.method import Method
from ..ir.types import ClassName, MethodRef, is_framework_class
from .callgraph import CallGraph, CallSite
from .hierarchy import HierarchyResolver
from .reaching import strings_at_invocations

__all__ = ["LoadStats", "ExplorationResult", "ClassLoaderVM",
           "LOADCLASS_SIGNATURES", "method_effects", "prepared_effects",
           "resolve_call"]

#: Reflective load entry points whose string argument names a class.
LOADCLASS_SIGNATURES = frozenset(
    (
        ("dalvik.system.DexClassLoader", "loadClass"),
        ("java.lang.ClassLoader", "loadClass"),
    )
)

#: Cost-model constants (documented in DESIGN.md section 2): a loaded
#: class costs its code size plus a fixed structural overhead, in
#: abstract "units" convertible to bytes/seconds by the eval layer.
CLASS_OVERHEAD_UNITS = 48
INSTRUCTION_UNITS = 1

#: Default bound on framework-internal call depth followed from an API
#: entry point.  Deep enough to see enforcement sites and dispatchers
#: several frames in (CID stops at depth 0), bounded so exploration
#: does not percolate across the entire platform image.
DEFAULT_FRAMEWORK_DEPTH = 2

_INVOKE_KINDS = {kind.value: kind for kind in InvokeKind}


@lru_cache(maxsize=1 << 20)
def _intern_ref(
    class_name: ClassName, name: str, descriptor: str
) -> MethodRef:
    """Process-wide ref intern table for effect replay.

    Effect streams carry refs as plain string triples (they must be
    JSON-serializable); replaying a corpus re-materializes the same
    triples once per app, so interning both skips re-validation and
    hands back refs whose hash is already cached."""
    return MethodRef(class_name, name, descriptor)


@lru_cache(maxsize=1 << 20)
def _intern_site(
    caller: MethodRef, callee: MethodRef, resolved: MethodRef | None
) -> CallSite:
    """Process-wide call-site intern table.

    The same (caller, callee, resolved) edge recurs in every app that
    bundles the class declaring it; ``CallSite`` is frozen, so one
    object can appear in every app's callgraph."""
    return CallSite(caller=caller, callee=callee, resolved=resolved)


_VIRTUAL_KINDS = frozenset((InvokeKind.VIRTUAL, InvokeKind.INTERFACE))
#: Kinds resolved against the callee's class alone; every other kind
#: walks the hierarchy (:meth:`HierarchyResolver.dispatch`).
_STATIC_KINDS = frozenset((InvokeKind.STATIC, InvokeKind.DIRECT))

#: artifact -> per-method *prepared* effect streams.  Raw streams hold
#: JSON-ish tuples (string invoke kinds, refs as string triples); the
#: prepared form pre-converts them — interned refs, ``InvokeKind``
#: members, the virtual-dispatch flag — once per artifact per process
#: instead of once per effect per app.  Weakly keyed so evicted
#: artifacts drop their preparations.
_PREPARED_STREAMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _prepare_stream(raw: tuple[tuple, ...]) -> tuple[tuple, ...]:
    """Convert one raw effect stream into its prepared (apply-ready)
    form; order is preserved exactly."""
    prepared: list[tuple] = []
    for effect in raw:
        kind = effect[0]
        if kind == "invoke":
            invoke_kind = _INVOKE_KINDS[effect[1]]
            cls, name, descriptor = effect[2]
            prepared.append(
                (
                    "invoke",
                    invoke_kind,
                    _intern_ref(cls, name, descriptor),
                    invoke_kind in _VIRTUAL_KINDS,
                )
            )
        elif kind == "new":
            prepared.append(
                ("new", _intern_ref(effect[1], "<init>", "()void"))
            )
        else:  # "loadclass"
            prepared.append(effect)
    return tuple(prepared)


def method_effects(method: Method) -> tuple[tuple, ...]:
    """Derive the ordered worklist-effect stream of one method.

    Pure per method (no app or hierarchy state): constant-string
    resolution at loadClass sites, allocations, and invocation sites
    with their *static* callee refs.  This is exactly the per-class
    computation the ``--dedup`` store caches.

    Memoized on the method object: framework ``Method`` instances are
    shared process-wide by the framework repository, so a corpus run
    derives each framework body's stream once rather than once per app.
    """
    if method.body is None:
        return ()
    cached = method.__dict__.get("_effects")
    if cached is not None:
        return cached
    effects: list[tuple] = []
    # Dynamic-load resolution needs the reaching-strings analysis;
    # only pay for it when the method contains a loadClass site.
    has_dynamic_site = any(
        (invoke.method.class_name, invoke.method.name)
        in LOADCLASS_SIGNATURES
        for invoke in method.invocations
    )
    if has_dynamic_site:
        for invoke, resolved in strings_at_invocations(method):
            key = (invoke.method.class_name, invoke.method.name)
            if key in LOADCLASS_SIGNATURES:
                names = resolved.get(0, frozenset())
                effects.append(("loadclass", tuple(names)))
    for instruction in method.body.instructions:
        if isinstance(instruction, NewInstance):
            effects.append(("new", instruction.class_name))
        elif isinstance(instruction, Invoke):
            callee = instruction.method
            effects.append(
                (
                    "invoke",
                    instruction.kind.value,
                    (callee.class_name, callee.name, callee.descriptor),
                )
            )
    stream = tuple(effects)
    object.__setattr__(method, "_effects", stream)
    return stream


def prepared_effects(method: Method) -> tuple[tuple, ...]:
    """The prepared (apply-ready) effect stream of one method,
    memoized on the method object alongside the raw stream."""
    cached = method.__dict__.get("_prepared_effects")
    if cached is None:
        cached = _prepare_stream(method_effects(method))
        object.__setattr__(method, "_prepared_effects", cached)
    return cached


def resolve_call(
    resolver: HierarchyResolver, kind: InvokeKind, callee: MethodRef
) -> MethodRef | None:
    """The method a ``kind`` call to ``callee`` runs: the callee itself
    when its class declares it (static and direct calls), else the
    nearest declaration up the hierarchy (virtual and interface calls);
    ``None`` when nothing in ``resolver``'s world declares it."""
    if kind in _STATIC_KINDS:
        clazz = resolver.resolve(callee.class_name)
        if clazz is not None and clazz.declares(callee.signature):
            return callee
        return None
    declaring = resolver.dispatch(callee)
    if declaring is None:
        return None
    return MethodRef(declaring.name, callee.name, callee.descriptor)


#: Fraction of a framework class's code that stays resident after the
#: incremental analysis has summarized it.  The CLVM releases framework
#: method bodies once their facts (API presence, permission effects,
#: call edges) are extracted; only class metadata and summaries remain.
#: Whole-world tools keep full IR for everything (retention 1.0).
FRAMEWORK_RETENTION = 0.3

#: Cost of consulting a precomputed framework class summary instead of
#: loading the class (work) and of keeping the summary record resident
#: (memory).  Both are small constants — the whole point of the
#: pre-summary table is that the per-app cost of a framework class
#: drops from O(its code size) to O(1) (docs/cost-model.md).
SUMMARY_WORK_UNITS = 3
SUMMARY_RESIDENT_UNITS = 6


@dataclass
class LoadStats:
    """What the exploration loaded and analyzed."""

    classes_loaded: int = 0
    app_classes_loaded: int = 0
    framework_classes_loaded: int = 0
    instructions_loaded: int = 0
    framework_instructions_loaded: int = 0
    methods_analyzed: int = 0
    instructions_analyzed: int = 0
    dynamic_classes_resolved: int = 0
    dynamic_sites_unresolved: int = 0
    #: Framework classes served warm from the shared repository cache
    #: (materialized by an earlier analysis over the same repository).
    #: Purely observational: the cost model charges every load the
    #: same, so corpus results do not depend on analysis order.
    framework_classes_reused: int = 0
    framework_instructions_reused: int = 0
    #: True when loaded code is never released (eager / closed-world
    #: mode); the lazy CLVM keeps only framework summaries resident.
    retain_framework_bodies: bool = False
    #: Pre-summary mode accounting: table consultations, framework
    #: classes whose analysis was replaced by a summary application,
    #: and the framework instructions those summaries stand in for
    #: (code the lazy mode would have loaded and scanned).
    summary_lookups: int = 0
    classes_summarized: int = 0
    instructions_summarized: int = 0
    #: Dedup-mode accounting (``--dedup``): app classes whose explore
    #: effects were replayed from the corpus-wide class-artifact store
    #: instead of re-derived, and the instructions those artifacts
    #: stand in for.  Observational, like the warm-reuse counters —
    #: replay applies the identical effects, so the cost model and the
    #: findings are unchanged; only wall time drops.
    app_classes_deduped: int = 0
    instructions_deduped: int = 0
    #: Guard-propagation contexts answered from cached guard rows vs
    #: computed by running the dataflow (observational).
    guard_contexts_deduped: int = 0
    guard_contexts_computed: int = 0

    def record_load(self, clazz: Clazz, warm: bool = False) -> None:
        self.classes_loaded += 1
        if clazz.origin == "framework":
            self.framework_classes_loaded += 1
            self.framework_instructions_loaded += clazz.instruction_count
            if warm:
                self.framework_classes_reused += 1
                self.framework_instructions_reused += (
                    clazz.instruction_count
                )
        else:
            self.app_classes_loaded += 1
        self.instructions_loaded += clazz.instruction_count

    def adopt_load_accounting(self, other: "LoadStats") -> None:
        """Take over another run's *load* counters (the eager
        ablation's whole-world load replaces the lazy exploration's
        accounting).  Analysis-effort counters and the retention flag
        are deliberately untouched: the eager run re-loads, it does
        not re-analyze, and the memory model keeps charging this run's
        own retention mode."""
        self.classes_loaded = other.classes_loaded
        self.app_classes_loaded = other.app_classes_loaded
        self.framework_classes_loaded = other.framework_classes_loaded
        self.instructions_loaded = other.instructions_loaded

    @property
    def framework_reuse_rate(self) -> float:
        """Fraction of framework loads that were warm (cache reuse)."""
        if not self.framework_classes_loaded:
            return 0.0
        return self.framework_classes_reused / self.framework_classes_loaded

    @property
    def memory_units(self) -> int:
        """Peak memory in cost-model units.

        App code stays resident (the mismatch algorithms revisit it);
        framework bodies are released after summarization unless the
        run is eager (``retain_framework_bodies``).
        """
        resident = self.instructions_loaded
        if not self.retain_framework_bodies:
            released = int(
                self.framework_instructions_loaded
                * (1.0 - FRAMEWORK_RETENTION)
            )
            resident -= released
        return (
            self.classes_loaded * CLASS_OVERHEAD_UNITS
            + resident * INSTRUCTION_UNITS
            + self.classes_summarized * SUMMARY_RESIDENT_UNITS
        )

    @property
    def work_units(self) -> int:
        """Analysis effort in cost-model units."""
        return (
            self.instructions_analyzed
            + self.classes_loaded * CLASS_OVERHEAD_UNITS // 4
            + self.classes_summarized * SUMMARY_WORK_UNITS
        )


@dataclass
class ExplorationResult:
    """Output of one CLVM run."""

    callgraph: CallGraph
    loaded_classes: dict[ClassName, Clazz]
    stats: LoadStats
    #: Classes named at loadClass sites but absent from every dex file
    #: (late-bound code that is not statically analyzable).
    unresolved_dynamic_classes: tuple[ClassName, ...] = ()


class ClassLoaderVM:
    """Worklist-driven lazy exploration of app + framework code."""

    def __init__(
        self,
        apk: Apk,
        framework: FrameworkRepository,
        level: int,
        *,
        follow_framework: bool = True,
        include_secondary_dex: bool = True,
        max_framework_depth: int | None = DEFAULT_FRAMEWORK_DEPTH,
        summaries=None,
        class_store=None,
    ) -> None:
        """``follow_framework=False`` restricts exploration to app code
        (framework callees stay terminal nodes) — how first-level tools
        such as CID behave.  ``max_framework_depth`` bounds how many
        framework-to-framework call levels are followed (None = all).

        ``summaries`` is an optional
        :class:`~repro.analysis.fwsummaries.FrameworkSummaryTable`:
        when set (and ``follow_framework`` is on), a framework method
        popped from the worklist is answered by replaying the class's
        precomputed worklist effects instead of materializing its body
        — same app-method reachability, no framework loading.

        ``class_store`` is an optional
        :class:`~repro.cache.classes.ClassStore`: when set, the
        explore effects of every *app* class are answered from (or
        recorded into) the corpus-wide content-addressed artifact
        store — the same-boundary trick as the framework summaries,
        applied at the class boundary, so two apps bundling one
        byte-identical library class derive its effects once.
        Artifacts store only static facts (static call targets,
        constant-resolved loadclass names); virtual dispatch is
        re-resolved live per app, keeping replay exact.
        """
        self._apk = apk
        self._framework = framework
        self._level = level
        self._follow_framework = follow_framework
        self._max_framework_depth = max_framework_depth
        self._summaries = summaries if follow_framework else None
        self._include_secondary = include_secondary_dex
        self.class_store = class_store
        #: Class name -> artifact consulted or recorded during this
        #: app's exploration; the helper-collection and guard phases
        #: read from here so every phase shares one artifact view.
        self.dedup_artifacts: dict[ClassName, object] = {}
        #: Class name -> store key, so later phases (guard rows) can
        #: address the artifact without re-digesting the class.
        self.dedup_keys: dict[ClassName, str] = {}
        self.stats = LoadStats()
        self._loaded: dict[ClassName, Clazz] = {}
        #: Dispatch resolution is pure for a fixed (apk, framework,
        #: level) — the resolvable world never changes mid-exploration
        #: — and the same callee recurs at thousands of sites, so the
        #: walk is memoized.  First resolution per callee still does
        #: the full (load-accounted) hierarchy walk.
        self._dispatch_memo: dict[
            tuple[InvokeKind, MethodRef], MethodRef | None
        ] = {}
        #: True when the app bundles a class in a framework namespace;
        #: shadowing makes framework resolution app-dependent, which
        #: disables every cross-app framework shortcut below.
        self._framework_shadows = any(
            is_framework_class(clazz.name) for clazz in apk.all_classes
        )
        #: Dispatch walks of framework callees, shared per level
        #: through the framework repository and recorded by every
        #: unshadowed app in every mode; framework apply plans are
        #: built from it.
        self._dispatch_walks = (
            None
            if self._framework_shadows
            else framework.dispatch_walks(level)
        )
        #: Dedup mode reuses a recorded resolution instead of walking.
        #: Lazy accounting must not depend on sibling apps, so lazy
        #: explorers walk for themselves (or replay a walk's names).
        self._reuse_walks = (
            class_store is not None and self._dispatch_walks is not None
        )
        self.resolver = HierarchyResolver(
            apk,
            framework,
            level,
            include_secondary_dex=include_secondary_dex,
            loaded_hook=self._on_class_loaded,
        )
        # Reverse subtype index over app classes, for virtual dispatch
        # into app overrides.  Built from declared super/interface
        # names only — no class loading required.
        self._app_subtypes: dict[ClassName, list[ClassName]] = {}
        for clazz in apk.all_classes:
            queue: list[ClassName] = list(clazz.supertypes)
            seen: set[ClassName] = set()
            while queue:
                walk = queue.pop()
                if walk in seen:
                    continue
                seen.add(walk)
                self._app_subtypes.setdefault(walk, []).append(clazz.name)
                parent = apk.lookup(walk)
                if parent is not None:
                    queue.extend(parent.supertypes)
                    continue
                spec_history = framework.spec.clazz(walk)
                if spec_history is not None:
                    if spec_history.super_name is not None:
                        queue.append(spec_history.super_name)
                    queue.extend(spec_history.interfaces)

    # -- load accounting ------------------------------------------------

    def _on_class_loaded(self, clazz: Clazz, warm: bool = False) -> None:
        if clazz.name not in self._loaded:
            self._loaded[clazz.name] = clazz
            self.stats.record_load(clazz, warm)

    # -- exploration (Algorithm 1) ---------------------------------------

    def explore(self, entry_points: tuple[MethodRef, ...]) -> ExplorationResult:
        """Run the worklist to exhaustion from ``entry_points``."""
        callgraph = CallGraph()
        worklist: list[tuple[MethodRef, int]] = []
        analyzed_classes: set[ClassName] = set()
        queued: set[MethodRef] = set()
        unresolved_dynamic: list[ClassName] = []

        for entry in entry_points:
            callgraph.add_entry_point(entry)
            worklist.append((entry, 0))
            queued.add(entry)

        while worklist:
            method_ref, depth = worklist.pop()
            if self._summaries is not None and self._try_summarize(
                method_ref, depth, analyzed_classes, callgraph,
                worklist, queued, unresolved_dynamic,
            ):
                continue
            clazz = self.resolver.resolve(method_ref.class_name)
            if clazz is None:
                continue
            if clazz.origin == "framework" and not self._follow_framework:
                if depth > 0:
                    continue
            if clazz.name in analyzed_classes:
                continue
            analyzed_classes.add(clazz.name)

            # Loading a class makes its whole hierarchy resolvable —
            # dispatch and override checks need the ancestors present.
            self.resolver.supertype_chain(clazz.name)

            effects_by_method = None
            if (
                self.class_store is not None
                and clazz.origin != "framework"
            ):
                effects_by_method = self._dedup_effects(clazz)
            for index, method in enumerate(clazz.methods):
                self._analyze_method(
                    method, depth, callgraph, worklist, queued,
                    unresolved_dynamic,
                    effects=(
                        effects_by_method[index]
                        if effects_by_method is not None
                        else None
                    ),
                )

        return ExplorationResult(
            callgraph=callgraph,
            loaded_classes=dict(self._loaded),
            stats=self.stats,
            unresolved_dynamic_classes=tuple(unresolved_dynamic),
        )

    def _analyze_method(
        self,
        method: Method,
        depth: int,
        callgraph: CallGraph,
        worklist: list[tuple[MethodRef, int]],
        queued: set[MethodRef],
        unresolved_dynamic: list[ClassName],
        effects: tuple[tuple, ...] | None = None,
    ) -> None:
        callgraph.add_method(method)
        self.stats.methods_analyzed += 1
        if method.body is not None:
            self.stats.instructions_analyzed += len(method.body)

        if method.body is None:
            return

        # The effect stream is a pure function of the method body; in
        # dedup mode a cached one is replayed instead of re-derived.
        # Framework methods of unshadowed apps replay a pre-resolved
        # apply plan once one exists (every mode): framework-internal
        # dispatch never varies between such apps.
        if (
            effects is None
            and not self._framework_shadows
            and method.ref.is_framework
        ):
            plan = method.__dict__.get("_fw_plan")
            if plan is not None:
                self._replay_framework_plan(
                    method.ref, plan, depth, callgraph, worklist,
                    queued, unresolved_dynamic,
                )
                return
            effects = prepared_effects(method)
            self._apply_effects(
                method.ref, effects, depth, callgraph, worklist, queued,
                unresolved_dynamic,
            )
            object.__setattr__(
                method, "_fw_plan", self._framework_plan(method.ref, effects)
            )
            return
        if effects is None:
            effects = prepared_effects(method)
        self._apply_effects(
            method.ref, effects, depth, callgraph, worklist, queued,
            unresolved_dynamic,
        )

    def _apply_effects(
        self,
        caller: MethodRef,
        effects: tuple[tuple, ...],
        depth: int,
        callgraph: CallGraph,
        worklist: list[tuple[MethodRef, int]],
        queued: set[MethodRef],
        unresolved_dynamic: list[ClassName],
    ) -> None:
        """Process one method's *prepared* effect stream with the live
        app state: dispatch resolution, subtype overrides, and
        dynamic-class lookups happen here (never in the cached
        stream), so a replay is exact for whichever app bundles the
        class."""
        in_framework = caller.is_framework
        next_depth = depth + 1 if in_framework else depth
        # All edges of this stream share one caller; grab its bucket
        # once instead of paying a dict setdefault per call site.
        bucket: list | None = None

        for effect in effects:
            kind = effect[0]
            if kind == "invoke":
                _, invoke_kind, callee, virtual = effect
                resolved = self._resolve_dispatch_ref(invoke_kind, callee)
                if bucket is None:
                    bucket = callgraph.edges.setdefault(caller, [])
                bucket.append(_intern_site(caller, callee, resolved))
                target = resolved or callee
                if target.is_framework:
                    if not self._follow_framework:
                        continue
                    if (
                        self._max_framework_depth is not None
                        and next_depth > self._max_framework_depth
                    ):
                        continue
                    self._enqueue(target, next_depth, worklist, queued)
                else:
                    self._enqueue(target, depth, worklist, queued)
                # Virtual calls may dispatch into app overrides of the
                # static receiver type (how framework dispatchers reach
                # app callbacks).
                if virtual:
                    subtypes = self._app_subtypes.get(callee.class_name)
                    if subtypes:
                        self._expand_overrides(
                            caller, callee, subtypes, depth, callgraph,
                            worklist, queued,
                        )
            elif kind == "new":
                # Allocation loads the class; enqueue its constructor
                # so its code participates in the exploration.
                self._enqueue(effect[1], depth, worklist, queued)
            else:  # "loadclass"
                names = effect[1]
                if names:
                    for class_name in names:
                        self._enqueue_class(
                            class_name, depth, worklist, queued,
                            unresolved_dynamic,
                        )
                    self.stats.dynamic_classes_resolved += len(names)
                else:
                    self.stats.dynamic_sites_unresolved += 1

    # -- framework apply plans -----------------------------------------
    #
    # A framework method's effects resolve identically in every app
    # that shadows no framework class name (framework supertypes stay
    # inside the framework namespace, see ``FrameworkSpec``), so the
    # first such app to analyze the method applies them live and then
    # caches a plan on the ``Method`` object (shared process-wide per
    # class and level by the framework repository): the pre-resolved
    # call sites, each with its dispatch memo key and the class names
    # its recorded walk resolved.  Later apps replay the plan; a lazy
    # app resolves those names for a call not yet in its dispatch
    # memo, so class-load order and every load counter match the live
    # path exactly.

    def _framework_plan(
        self, caller: MethodRef, effects: tuple[tuple, ...]
    ) -> tuple:
        """Build the apply plan of one framework method from its
        prepared ``effects``, right after they were applied live —
        every framework callee's walk is on record.  A callee outside
        the framework namespace stays a ``live`` entry, replayed
        through :meth:`_apply_effects`."""
        walks = self._dispatch_walks
        entries: list[tuple] = []
        for effect in effects:
            if effect[0] != "invoke":
                # "loadclass" / "new" — already app-independent.
                entries.append(effect)
                continue
            _, invoke_kind, callee, virtual = effect
            if not callee.is_framework:
                entries.append(("live", effect))
                continue
            key = (invoke_kind, callee)
            resolved, names = walks[key]
            target = resolved or callee
            entries.append(
                (
                    "call",
                    _intern_site(caller, callee, resolved),
                    target,
                    target.is_framework,
                    virtual,
                    key,
                    names,
                )
            )
        return tuple(entries)

    def _replay_framework_plan(
        self,
        caller: MethodRef,
        plan: tuple,
        depth: int,
        callgraph: CallGraph,
        worklist: list[tuple[MethodRef, int]],
        queued: set[MethodRef],
        unresolved_dynamic: list[ClassName],
    ) -> None:
        """Apply a framework method's cached plan — same loads, edges,
        enqueues and order as :meth:`_apply_effects`, with the depth
        policy and app-override expansion evaluated live."""
        next_depth = depth + 1
        memo = self._dispatch_memo
        bucket: list | None = None
        for entry in plan:
            op = entry[0]
            if op == "call":
                _, site, target, target_is_framework, virtual, key, names = (
                    entry
                )
                if key not in memo:
                    # What _resolve_dispatch_ref would do: reuse the
                    # recorded walk in dedup mode, else redo its loads.
                    if not self._reuse_walks:
                        for name in names:
                            self.resolver.resolve(name)
                    memo[key] = site.resolved
                if bucket is None:
                    bucket = callgraph.edges.setdefault(caller, [])
                bucket.append(site)
                if target_is_framework:
                    if not self._follow_framework or (
                        self._max_framework_depth is not None
                        and next_depth > self._max_framework_depth
                    ):
                        continue
                    if target not in queued:
                        queued.add(target)
                        worklist.append((target, next_depth))
                elif target not in queued:
                    queued.add(target)
                    worklist.append((target, depth))
                if virtual:
                    subtypes = self._app_subtypes.get(site.callee.class_name)
                    if subtypes:
                        self._expand_overrides(
                            caller, site.callee, subtypes, depth,
                            callgraph, worklist, queued,
                        )
            elif op == "loadclass":
                names = entry[1]
                if names:
                    for class_name in names:
                        self._enqueue_class(
                            class_name, depth, worklist, queued,
                            unresolved_dynamic,
                        )
                    self.stats.dynamic_classes_resolved += len(names)
                else:
                    self.stats.dynamic_sites_unresolved += 1
            elif op == "new":
                self._enqueue(entry[1], depth, worklist, queued)
            else:  # "live"
                self._apply_effects(
                    caller, (entry[1],), depth, callgraph, worklist,
                    queued, unresolved_dynamic,
                )

    # -- dedup mode (corpus-wide class artifacts) -----------------------

    def _dedup_effects(self, clazz: Clazz) -> tuple[tuple, ...]:
        """The per-method effect streams of one app class, answered
        from the corpus-wide store when a byte-identical class was
        analyzed before (by any app, any run, any worker over the same
        cache directory) and recorded otherwise."""
        artifact = self.dedup_artifacts.get(clazz.name)
        if artifact is None:
            # Digest the class once: the key addresses the lookup, the
            # staged artifact on a miss, and later guard rows.
            key = self.dedup_keys[clazz.name] = self.class_store.key_for(
                clazz
            )
            artifact = self.class_store.get(key)
            if artifact is not None:
                self.stats.app_classes_deduped += 1
                self.stats.instructions_deduped += clazz.instruction_count
            else:
                artifact = self._record_artifact(clazz, key)
            self.dedup_artifacts[clazz.name] = artifact
        prepared = _PREPARED_STREAMS.get(artifact)
        if prepared is None:
            prepared = _PREPARED_STREAMS[artifact] = tuple(
                _prepare_stream(stream) for stream in artifact.effects
            )
        return prepared

    def _record_artifact(self, clazz: Clazz, key: str):
        """Derive and stage, under store ``key``, the full artifact of
        one app class: effect streams plus version-helper summaries
        (the expensive pure per-class computations).  Guard rows
        accumulate later, as the guard phase observes contexts."""
        from ..cache.classes import ClassArtifact
        from .summaries import summarize_version_helper

        effects = tuple(
            method_effects(method) for method in clazz.methods
        )
        helpers: dict[tuple[str, str], frozenset[int]] = {}
        for method in clazz.methods:
            if method.ref.return_type not in ("boolean", "int"):
                continue
            levels = summarize_version_helper(method)
            if levels is not None:
                helpers[(method.ref.name, method.ref.descriptor)] = levels
        artifact = ClassArtifact(effects=effects, helpers=helpers)
        self.class_store.stage(key, artifact)
        return artifact

    # -- summarized mode (framework pre-summaries) ---------------------

    def _try_summarize(
        self,
        ref: MethodRef,
        depth: int,
        analyzed_classes: set[ClassName],
        callgraph: CallGraph,
        worklist: list[tuple[MethodRef, int]],
        queued: set[MethodRef],
        unresolved_dynamic: list[ClassName],
    ) -> bool:
        """Answer a framework worklist entry from the pre-summary
        table.  Replays the class's recorded worklist effects with the
        exact depth/dedup rules of the lazy analysis, so the app
        methods reached (and therefore the findings) are identical;
        only the load/analysis accounting differs.  Returns False when
        the entry is not summarizable (app code, a name the app
        shadows, or a class absent from the table) — the caller falls
        through to the lazy path.
        """
        if not ref.is_framework:
            return False
        lookup = (
            self._apk.lookup
            if self._include_secondary
            else self._apk.lookup_primary
        )
        if lookup(ref.class_name) is not None:
            # The app shadows the framework name; lazy resolution
            # would analyze the app class, so must we.
            return False
        summary = self._summaries.class_summary(
            ref.class_name, self._level
        )
        self.stats.summary_lookups += 1
        if summary is None:
            return False
        if ref.class_name in analyzed_classes:
            return True
        analyzed_classes.add(ref.class_name)
        self.stats.classes_summarized += 1
        self.stats.instructions_summarized += summary.instruction_count

        next_depth = depth + 1
        for kind, target, container in summary.effects:
            if kind == "loadclass":
                if target:
                    for class_name in target:
                        self._enqueue_class(
                            class_name, depth, worklist, queued,
                            unresolved_dynamic,
                        )
                    self.stats.dynamic_classes_resolved += len(target)
                else:
                    self.stats.dynamic_sites_unresolved += 1
            elif kind == "new":
                self._enqueue(target, depth, worklist, queued)
            elif kind == "call":
                if target.is_framework:
                    if (
                        self._max_framework_depth is not None
                        and next_depth > self._max_framework_depth
                    ):
                        continue
                    self._enqueue(target, next_depth, worklist, queued)
                else:
                    self._enqueue(target, depth, worklist, queued)
            else:  # dispatch into app overrides
                subtypes = self._app_subtypes.get(target.class_name)
                if subtypes:
                    self._expand_overrides(
                        container, target, subtypes, depth, callgraph,
                        worklist, queued,
                    )
        return True

    def _expand_overrides(
        self,
        caller: MethodRef,
        callee: MethodRef,
        subtypes: list[ClassName],
        depth: int,
        callgraph: CallGraph,
        worklist: list[tuple[MethodRef, int]],
        queued: set[MethodRef],
    ) -> None:
        """A virtual call to ``callee`` may dispatch into an app
        override in any of its app ``subtypes`` (how framework
        dispatchers reach app callbacks): add an edge to, and enqueue,
        each app method that overrides it."""
        for subtype in subtypes:
            override = _intern_ref(subtype, callee.name, callee.descriptor)
            subtype_class = self._apk.lookup(subtype)
            if (
                subtype_class is not None
                and subtype_class.declares(override.signature)
            ):
                callgraph.add_edge(_intern_site(caller, callee, override))
                self._enqueue(override, depth, worklist, queued)

    def _resolve_dispatch_ref(
        self, kind: InvokeKind, callee: MethodRef
    ) -> MethodRef | None:
        memo_key = (kind, callee)
        if memo_key in self._dispatch_memo:
            return self._dispatch_memo[memo_key]
        walks = self._dispatch_walks if callee.is_framework else None
        if walks is not None and self._reuse_walks:
            walk = walks.get(memo_key)
            if walk is not None:
                self._dispatch_memo[memo_key] = walk[0]
                return walk[0]
        resolved = resolve_call(self.resolver, kind, callee)
        self._dispatch_memo[memo_key] = resolved
        if walks is not None and memo_key not in walks:
            walks[memo_key] = (resolved, self._walk_names(kind, callee))
        return resolved

    def _walk_names(
        self, kind: InvokeKind, callee: MethodRef
    ) -> tuple[ClassName, ...]:
        """The class names the dispatch walk for ``callee`` resolves,
        in order: the callee's class, then — for a dispatched (not
        static or direct) callee its class does not declare — every
        supertype name breadth-first.  Read back from the resolver's
        caches right after the walk, so it loads nothing."""
        names: tuple[ClassName, ...] = (callee.class_name,)
        if kind not in _STATIC_KINDS:
            clazz = self.resolver.resolve(callee.class_name)
            if clazz is not None and not clazz.declares(callee.signature):
                names += self.resolver.supertype_walk(callee.class_name)
        return names

    def _enqueue(
        self,
        ref: MethodRef,
        depth: int,
        worklist: list[tuple[MethodRef, int]],
        queued: set[MethodRef],
    ) -> None:
        if ref not in queued:
            queued.add(ref)
            worklist.append((ref, depth))

    def _enqueue_class(
        self,
        class_name: ClassName,
        depth: int,
        worklist: list[tuple[MethodRef, int]],
        queued: set[MethodRef],
        unresolved_dynamic: list[ClassName],
    ) -> None:
        clazz = self._apk.lookup(class_name)
        if clazz is None:
            # Late-bound code from outside the APK: not statically
            # analyzable (paper section III-A caveat).
            if class_name not in unresolved_dynamic:
                unresolved_dynamic.append(class_name)
            return
        for method in clazz.methods:
            self._enqueue(method.ref, depth, worklist, queued)

    # -- eager mode (ablation / whole-world baselines) -----------------

    def load_everything(self) -> None:
        """Charge a closed-world load: every app class plus the whole
        framework at the level, retained.  Used by the eager ablation
        and to model whole-framework baselines' memory footprint.

        App classes load one by one.  The framework half is counted
        from the repository's spec-counted image table, not built,
        less the framework copy of every class already loaded under a
        name the level defines (an app class shadows it).  Only those
        shadowed classes are looked up, so an app that shadows nothing
        materializes no framework class."""
        self.stats.retain_framework_bodies = True
        for clazz in self._apk.all_classes:
            self._on_class_loaded(clazz)
        classes = self._framework.image_class_count(self._level)
        instructions = self._framework.image_instruction_count(self._level)
        for name in self._loaded:
            if not is_framework_class(name):
                continue
            shadowed = self._framework.load_class(name, self._level)
            if shadowed is not None:
                classes -= 1
                instructions -= shadowed.instruction_count
        self.stats.classes_loaded += classes
        self.stats.framework_classes_loaded += classes
        self.stats.instructions_loaded += instructions
        self.stats.framework_instructions_loaded += instructions
