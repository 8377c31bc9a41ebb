"""AUM — the API Usage Modeler (paper section III-A).

Couples the CLVM exploration with the guard analysis to produce the
artifacts the mismatch detector consumes:

* **API usages** — every app→framework invocation together with the
  guard-refined interval of device levels under which it can execute.
  Guard intervals propagate *inter-procedurally*: a callee analyzed
  from a guarded call site inherits the site's interval as its entry
  context (memoized per ``(method, interval)``), which is exactly the
  context-sensitivity that separates SAINTDroid from CID and Lint.
* **Override records** — app methods overriding framework-declared
  signatures (callback candidates for Algorithm 3).
* **Permission uses** — API usages annotated with the dangerous
  permissions the transitive permission map assigns them.

Each stage is a module-level function (:func:`explore`,
:func:`propagate_guards`, :func:`collect_overrides`,
:func:`annotate_permissions`) over one :class:`AumModel`; the pipeline
passes in :mod:`repro.pipeline.passes` wrap them one-to-one, and
:class:`ApiUsageModeler` composes them for direct (non-pipeline) use.

Documented blind spot (paper section VI): methods of anonymous inner
classes (``Foo$1``) are analyzed, but guard context does not propagate
into them — a guard wrapping the *registration* of an anonymous
listener does not protect the listener body in SAINTDroid's view.
That asymmetry is the source of SAINTDroid's residual false alarms.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

from ..apk.package import Apk
from ..framework.repository import FrameworkRepository
from ..ir.method import Method, MethodFlags
from ..ir.types import ClassName, MethodRef, is_anonymous_class
from ..analysis.callgraph import CallGraph
from ..analysis.clvm import ClassLoaderVM, LoadStats, _intern_ref
from ..analysis.guards import guard_at_allocations, guard_at_invocations
from ..analysis.summaries import (
    collect_version_helpers,
    summarize_version_helper,
)
from ..analysis.intervals import ApiInterval
from .apidb import ApiDatabase

__all__ = ["ApiUsage", "OverrideRecord", "PermissionUse", "AumModel",
           "ApiUsageModeler", "GuardRowCache", "entry_points", "explore",
           "propagate_guards", "collect_overrides",
           "annotate_permissions", "nearest_framework_ancestor"]

#: Cap on distinct guard contexts analyzed per method before widening
#: to the app's full interval (prevents pathological blow-up).
MAX_CONTEXTS_PER_METHOD = 8


@dataclass(frozen=True)
class ApiUsage:
    """One app→framework call with its executable device-level range."""

    caller: MethodRef
    api: MethodRef
    interval: ApiInterval


@dataclass(frozen=True)
class OverrideRecord:
    """An app method overriding a framework-declared signature."""

    app_class: ClassName
    method: MethodRef
    framework_class: ClassName

    @property
    def signature(self) -> str:
        return f"{self.method.name}{self.method.descriptor}"


@dataclass(frozen=True)
class PermissionUse:
    """An API usage that requires dangerous permissions."""

    caller: MethodRef
    api: MethodRef
    permissions: frozenset[str]
    interval: ApiInterval


@dataclass
class AumModel:
    """Everything AUM extracts from one app."""

    apk: Apk
    usages: list[ApiUsage] = field(default_factory=list)
    overrides: list[OverrideRecord] = field(default_factory=list)
    permission_uses: list[PermissionUse] = field(default_factory=list)
    callgraph: CallGraph | None = None
    stats: LoadStats = field(default_factory=LoadStats)
    unresolved_dynamic_classes: tuple[ClassName, ...] = ()
    #: Summaries of the app's version-check helper methods:
    #: (class, name, descriptor) -> device levels returning true.
    version_helpers: dict[tuple, frozenset[int]] = field(
        default_factory=dict
    )
    #: Set in ``--dedup`` mode: answers guard-propagation contexts
    #: from (and records them into) the corpus-wide class store.
    guard_cache: "GuardRowCache | None" = None
    #: Measured wall seconds per modeling phase (``explore`` /
    #: ``guards``); the detector adds ``load`` and ``detect``.
    phase_seconds: dict = field(default_factory=dict)

    @property
    def app_interval(self) -> ApiInterval:
        lo, hi = self.apk.manifest.supported_range
        return ApiInterval.of(lo, hi)


# -- entry points -----------------------------------------------------------

def entry_points(apk: Apk) -> tuple[MethodRef, ...]:
    """Analysis roots: every concrete method of every primary-dex
    class.  Secondary (late-bound) dex classes join the exploration
    only through resolved ``loadClass`` sites or virtual dispatch,
    mirroring how the runtime reaches them."""
    roots: list[MethodRef] = []
    for dex in apk.dex_files:
        if dex.secondary:
            continue
        for clazz in dex.classes:
            for method in clazz.methods:
                if method.has_code:
                    roots.append(method.ref)
    return tuple(roots)


# -- exploration ------------------------------------------------------------

def explore(model: AumModel, vm: ClassLoaderVM) -> None:
    """Drive the CLVM worklist from the app's entry points and record
    the call graph, load accounting, and version-helper summaries."""
    exploration = vm.explore(entry_points(model.apk))
    model.callgraph = exploration.callgraph
    model.stats = exploration.stats
    model.unresolved_dynamic_classes = (
        exploration.unresolved_dynamic_classes
    )
    # Summarize the app's version-check helpers once; branches on
    # their results then refine intervals like inline SDK checks.
    if vm.class_store is None:
        model.version_helpers = collect_version_helpers(
            method
            for ref in exploration.callgraph.app_methods()
            if (method := exploration.callgraph.method(ref)) is not None
            and method.has_code
        )
    else:
        model.version_helpers = _dedup_version_helpers(
            vm, exploration.callgraph
        )
        model.guard_cache = GuardRowCache(
            vm.class_store, vm.dedup_artifacts, vm.dedup_keys
        )


def _dedup_version_helpers(
    vm: ClassLoaderVM, callgraph: CallGraph
) -> dict[tuple, frozenset[int]]:
    """The same helper table :func:`collect_version_helpers` builds,
    answered from class artifacts where one was consulted or recorded
    (artifacts carry the per-level helper evaluation — the most
    expensive pure-per-class computation)."""
    summaries: dict[tuple, frozenset[int]] = {}
    for ref in callgraph.app_methods():
        method = callgraph.method(ref)
        if method is None or not method.has_code:
            continue
        if method.ref.return_type not in ("boolean", "int"):
            continue
        artifact = vm.dedup_artifacts.get(method.ref.class_name)
        if artifact is not None:
            levels = artifact.helpers.get(
                (method.ref.name, method.ref.descriptor)
            )
        else:
            levels = summarize_version_helper(method)
        if levels is not None:
            summaries[
                (method.ref.class_name, method.ref.name,
                 method.ref.descriptor)
            ] = levels
    return summaries


# -- guard propagation ------------------------------------------------------

#: ``helpers_digest([])`` — filled in lazily on first GuardRowCache
#: construction (module-level import would cycle through the cache
#: package) and shared by every method with no version-helper calls.
_EMPTY_HELPER_DIGEST: str | None = None

#: artifact -> {row_key -> tuple[(MethodRef, ApiInterval), ...]}.
#: Raw guard rows are JSON-ish triples (they live in pickled store
#: entries); materializing them into interned refs/intervals once per
#: artifact — not once per app — is what keeps warm replay cheap.
#: Weakly keyed so evicted artifacts drop their materializations.
_MATERIALIZED_ROWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class GuardRowCache:
    """Dedup adapter between guard propagation and the class store.

    A guard context — one ``(method, entry interval)`` pair — is a pure
    function of the method body, the entry interval, and the helper
    summaries of the methods it invokes, so its refined call-site rows
    are valid for *any* app bundling the identical class under an
    equivalent helper environment.  The helper environment is pinned by
    digesting the helper summaries restricted to the method's invoked
    refs (the only ones the guard analysis can consult).
    """

    def __init__(self, store, artifacts: dict, keys: dict) -> None:
        self._store = store
        self._artifacts = artifacts
        self._keys = keys
        #: The helper-environment digest — and the method's rendered
        #: signature — depend only on the method (its invoked refs) and
        #: the app's fixed helper table, not on the entry interval, so
        #: the per-method prefix of every context key is built once
        #: even though a method is looked up once per context.
        self._digest_memo: dict[MethodRef, str] = {}
        self._prefix_memo: dict[MethodRef, tuple[str, str]] = {}
        global _EMPTY_HELPER_DIGEST
        if _EMPTY_HELPER_DIGEST is None:
            from ..cache.classes import helpers_digest

            _EMPTY_HELPER_DIGEST = helpers_digest([])

    def _helper_digest(
        self,
        method: Method,
        version_helpers: dict[tuple, frozenset[int]],
    ) -> str:
        cached = self._digest_memo.get(method.ref)
        if cached is not None:
            return cached
        relevant = None
        if version_helpers:
            for invoke in method.invocations:
                ref = invoke.method
                triple = (ref.class_name, ref.name, ref.descriptor)
                levels = version_helpers.get(triple)
                if levels is not None:
                    if relevant is None:
                        relevant = {}
                    relevant[triple] = levels
        if relevant is None:
            # The overwhelmingly common case — no version-helper calls
            # — shares one precomputed digest instead of hashing.
            digest = _EMPTY_HELPER_DIGEST
        else:
            from ..cache.classes import helpers_digest

            digest = helpers_digest(relevant.items())
        self._digest_memo[method.ref] = digest
        return digest

    def _context_key(
        self,
        method: Method,
        interval: ApiInterval,
        version_helpers: dict[tuple, frozenset[int]],
    ) -> tuple:
        prefix = self._prefix_memo.get(method.ref)
        if prefix is None:
            prefix = self._prefix_memo[method.ref] = (
                method.signature,
                self._helper_digest(method, version_helpers),
            )
        return (prefix[0], interval.lo, interval.hi, prefix[1])

    def lookup(
        self,
        method: Method,
        interval: ApiInterval,
        version_helpers: dict[tuple, frozenset[int]],
    ) -> tuple:
        """``(site_rows, row_key)`` — site_rows is ``None`` on a miss,
        else a tuple of ``(callee_ref, refined_interval)`` pairs
        materialized once per artifact and shared across apps; the
        row_key is reused by :meth:`record` so the context is digested
        once."""
        artifact = self._artifacts.get(method.ref.class_name)
        if artifact is None:
            self._store.stats.guard_misses += 1
            return None, None
        row_key = self._context_key(method, interval, version_helpers)
        rows = artifact.guard_rows.get(row_key)
        if rows is None:
            self._store.stats.guard_misses += 1
            return None, row_key
        self._store.stats.guard_hits += 1
        memo = _MATERIALIZED_ROWS.get(artifact)
        if memo is None:
            memo = _MATERIALIZED_ROWS[artifact] = {}
        site_rows = memo.get(row_key)
        if site_rows is None:
            site_rows = tuple(
                (
                    _intern_ref(cls, name, descriptor),
                    ApiInterval.of(lo, hi),
                )
                for (cls, name, descriptor), lo, hi in rows
            )
            memo[row_key] = site_rows
        return site_rows, row_key

    def record(self, method: Method, row_key: tuple, rows: tuple) -> None:
        key = self._keys.get(method.ref.class_name)
        if key is not None:
            self._store.record_guard_rows(key, row_key, rows)


def _guard_roots(model: AumModel) -> tuple[MethodRef, ...]:
    """Methods analyzed under the *unrefined* app interval: those
    with no resolved app-internal caller (components, callbacks,
    reflective targets, dead code)."""
    callgraph = model.callgraph
    called: set[MethodRef] = set()
    for caller, sites in callgraph.edges.items():
        if caller.is_framework:
            continue
        for site in sites:
            target = site.resolved or site.callee
            if not target.is_framework:
                called.add(target)
    return tuple(
        ref
        for ref in callgraph.app_methods()
        if ref not in called
    )


def _anonymous_entry_intervals(
    model: AumModel,
) -> dict[ClassName, ApiInterval]:
    """Guard interval at the allocation sites of each anonymous
    class, joined over all sites.  Only consulted in the ablation
    mode that removes the anonymous-class blind spot."""
    intervals: dict[ClassName, ApiInterval] = {}
    app_interval = model.app_interval
    for ref in model.callgraph.app_methods():
        method = model.callgraph.method(ref)
        if method is None or method.body is None:
            continue
        for allocation, interval in guard_at_allocations(
            method, app_interval, model.version_helpers
        ):
            if not is_anonymous_class(allocation.class_name):
                continue
            joined = interval
            if allocation.class_name in intervals:
                joined = intervals[allocation.class_name].join(interval)
            intervals[allocation.class_name] = joined
    return intervals


def propagate_guards(
    model: AumModel, *, into_anonymous: bool = False
) -> None:
    """Inter-procedural guard propagation over the explored call
    graph, appending the guard-refined :class:`ApiUsage` records."""
    callgraph = model.callgraph
    app_interval = model.app_interval
    anonymous_intervals: dict[ClassName, ApiInterval] = (
        _anonymous_entry_intervals(model) if into_anonymous else {}
    )
    contexts_seen: set[tuple[MethodRef, ApiInterval]] = set()
    context_counts: dict[MethodRef, int] = {}
    usage_keys: set[tuple[MethodRef, MethodRef]] = set()
    usage_intervals: dict[tuple[MethodRef, MethodRef], ApiInterval] = {}

    # Resolved targets per static callee ref, indexed lazily per
    # caller on first context visit: framework callers (never visited
    # below) cost nothing, and the per-row probe keys on the callee
    # alone instead of hashing a (caller, callee) tuple.
    edges = callgraph.edges
    resolution_memo: dict[MethodRef, dict[MethodRef, list[MethodRef]]] = {}

    def caller_resolution(
        caller: MethodRef,
    ) -> dict[MethodRef, list[MethodRef]]:
        per_callee = resolution_memo.get(caller)
        if per_callee is None:
            per_callee = resolution_memo[caller] = {}
            for site in edges.get(caller, ()):
                target = site.resolved or site.callee
                targets = per_callee.get(site.callee)
                if targets is None:
                    per_callee[site.callee] = [target]
                elif target not in targets:
                    targets.append(target)
        return per_callee

    def root_interval(root: MethodRef) -> ApiInterval:
        if is_anonymous_class(root.class_name):
            return anonymous_intervals.get(
                root.class_name, app_interval
            )
        return app_interval

    stack: list[tuple[MethodRef, ApiInterval]] = [
        (root, root_interval(root))
        for root in _guard_roots(model)
    ]
    while stack:
        ref, interval = stack.pop()
        if ref.is_framework:
            continue
        count = context_counts.get(ref, 0)
        if count >= MAX_CONTEXTS_PER_METHOD:
            interval = app_interval
        if (ref, interval) in contexts_seen:
            continue
        contexts_seen.add((ref, interval))
        context_counts[ref] = count + 1

        method = callgraph.method(ref)
        if method is None or method.body is None:
            continue

        if model.guard_cache is None:
            site_rows = [
                (invoke.method, refined)
                for invoke, refined in guard_at_invocations(
                    method, interval, model.version_helpers
                )
            ]
        else:
            site_rows, row_key = model.guard_cache.lookup(
                method, interval, model.version_helpers
            )
            if site_rows is None:
                site_rows = [
                    (invoke.method, refined)
                    for invoke, refined in guard_at_invocations(
                        method, interval, model.version_helpers
                    )
                ]
                if row_key is not None:
                    model.guard_cache.record(
                        method,
                        row_key,
                        tuple(
                            (
                                (ref.class_name, ref.name, ref.descriptor),
                                refined.lo,
                                refined.hi,
                            )
                            for ref, refined in site_rows
                        ),
                    )
                model.stats.guard_contexts_computed += 1
            else:
                model.stats.guard_contexts_deduped += 1

        row_resolution = caller_resolution(ref)
        for callee, refined in site_rows:
            targets = row_resolution.get(callee) or (callee,)
            for target in targets:
                if target.is_framework:
                    key = (ref, target)
                    merged = refined
                    if key in usage_intervals:
                        merged = usage_intervals[key].join(refined)
                    usage_intervals[key] = merged
                    usage_keys.add(key)
                else:
                    callee_interval = refined
                    if (
                        not into_anonymous
                        and is_anonymous_class(target.class_name)
                    ):
                        # Blind spot: guard context is dropped at
                        # the boundary of anonymous inner classes.
                        callee_interval = app_interval
                    stack.append((target, callee_interval))

    for (caller, api), interval in sorted(
        usage_intervals.items(),
        key=lambda item: (str(item[0][0]), str(item[0][1])),
    ):
        model.usages.append(
            ApiUsage(caller=caller, api=api, interval=interval)
        )


# -- overrides --------------------------------------------------------------

def nearest_framework_ancestor(
    apk: Apk, apidb: ApiDatabase, name: ClassName
) -> ClassName | None:
    """First framework class on the super chain, crossing app-level
    intermediate classes, level-agnostic (uses database hierarchy)."""
    seen: set[ClassName] = set()
    current: ClassName | None = name
    while current is not None and current not in seen:
        seen.add(current)
        app_class = apk.lookup(current)
        if app_class is not None:
            current = app_class.super_name
            continue
        if current in apidb:
            return current
        return None
    return None


def collect_overrides(model: AumModel, apidb: ApiDatabase) -> None:
    """Record app methods overriding framework-declared signatures."""
    apk = model.apk
    for clazz in apk.all_classes:
        if is_anonymous_class(clazz.name):
            # Documented limitation: dynamically-generated classes
            # for anonymous declarations are invisible.
            continue
        framework_root = nearest_framework_ancestor(
            apk, apidb, clazz.name
        )
        if framework_root is None:
            continue
        for method in clazz.methods:
            if method.name == "<init>":
                continue
            if method.flags & MethodFlags.STATIC:
                continue
            declared = apidb.resolve(framework_root, method.signature)
            if declared is not None:
                model.overrides.append(
                    OverrideRecord(
                        app_class=clazz.name,
                        method=method.ref,
                        framework_class=declared.class_name,
                    )
                )


# -- permissions ------------------------------------------------------------

def annotate_permissions(model: AumModel, apidb: ApiDatabase) -> None:
    """Attach transitive dangerous permissions to the API usages."""
    from ..framework.permissions import is_dangerous

    for usage in model.usages:
        permissions = apidb.permissions_for(usage.api, deep=True)
        dangerous = frozenset(
            p for p in permissions if is_dangerous(p)
        )
        if dangerous:
            model.permission_uses.append(
                PermissionUse(
                    caller=usage.caller,
                    api=usage.api,
                    permissions=dangerous,
                    interval=usage.interval,
                )
            )


class ApiUsageModeler:
    """Composes the stage functions above for direct (non-pipeline)
    use; the pipeline runs the same stages as individual passes."""

    def __init__(
        self,
        framework: FrameworkRepository,
        apidb: ApiDatabase,
        *,
        propagate_guards_into_anonymous: bool = False,
    ) -> None:
        """``propagate_guards_into_anonymous=True`` removes the
        documented anonymous-inner-class blind spot — the ablation knob
        for benchmark E8."""
        self._framework = framework
        self._apidb = apidb
        self._into_anonymous = propagate_guards_into_anonymous

    def entry_points(self, apk: Apk) -> tuple[MethodRef, ...]:
        return entry_points(apk)

    def build(self, apk: Apk) -> AumModel:
        model = AumModel(apk=apk)
        # Resolve against the newest framework level the app can run
        # on: dispatch through app subclasses must see APIs introduced
        # after the target level too (the database, not the loaded
        # image, decides per-level existence).
        level = apk.manifest.effective_max_sdk
        vm = ClassLoaderVM(apk, self._framework, level)
        # Under lazy loading the CLVM interleaves class loads with
        # exploration, so ``explore`` covers both; the eager ablation's
        # whole-world load is timed separately as ``load``.
        phase_started = time.perf_counter()
        explore(model, vm)
        now = time.perf_counter()
        model.phase_seconds["explore"] = now - phase_started
        phase_started = now

        propagate_guards(model, into_anonymous=self._into_anonymous)
        collect_overrides(model, self._apidb)
        annotate_permissions(model, self._apidb)
        model.phase_seconds["guards"] = (
            time.perf_counter() - phase_started
        )
        return model
