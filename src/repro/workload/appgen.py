"""AppForge: programmatic construction of apps with seeded issues.

Every benchmark replica and every corpus app is assembled from the
*scenario* methods below.  Each scenario emits real IR — classes,
methods, guards, call chains — plus the matching ground-truth record,
so detector accuracy is always measured against code, never against a
spreadsheet of expected outcomes.

Scenario catalog (traits in :mod:`repro.workload.groundtruth`):

====================================  =====================================
scenario                              who is expected to handle it
====================================  =====================================
``add_direct_issue``                  true API issue; all API tools detect
``add_guarded_direct``                non-issue; nobody should report
``add_caller_guard_trap``             non-issue; CID + Lint false-alarm
``add_anonymous_guard_trap``          non-issue; SAINTDroid (and CID/Lint)
                                      false-alarm — the paper's §VI blind
                                      spot
``add_inherited_issue``               true issue; CID/Lint miss (no
                                      framework hierarchy)
``add_library_issue``                 true issue; Lint misses (source
                                      scope)
``add_secondary_dex_issue``           true issue; only SAINTDroid reaches
                                      late-bound dex (CID crashes on
                                      multidex)
``add_external_dynamic_issue``        true issue nobody can see (code is
                                      outside the APK) — SAINTDroid's FNs
``add_forward_removed_issue``         true issue on a removed API
``add_callback_issue``                true APC issue (modeled/unmodeled/
                                      anonymous variants)
``add_permission_request_issue``      true PRM issue (target ≥23)
``add_permission_revocation_issue``   true PRM issue (target ≤22)
``add_semantic_issue``                true SEM issue (behavior-only
                                      delta); only SAINTDroid detects
``add_guarded_semantic``              non-issue; delta correctly
                                      SDK-guarded onto the target's side
``implement_permission_protocol``     makes the app permission-safe
``add_filler``                        plain safe code to reach a size
====================================  =====================================
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from typing import Callable

from ..apk.dexfile import DexFile
from ..apk.manifest import (
    Component,
    ComponentKind,
    Manifest,
    MAX_API_LEVEL,
    RUNTIME_PERMISSIONS_LEVEL,
)
from ..apk.package import Apk
from ..core.apidb import ApiDatabase, ApiEntry
from ..core.arm import build_api_database
from ..framework.permissions import is_dangerous
from ..ir.builder import ClassBuilder, MethodBuilder
from ..ir.clazz import Clazz
from ..ir.instructions import CmpOp
from ..ir.types import MethodRef
from .groundtruth import GroundTruth, SeededIssue, SeededTrap, Trait

__all__ = ["ApiPicker", "AppForge", "ForgedApp"]

#: CIDER's modeled classes (kept literal here to avoid importing the
#: baseline from the workload generator).
_MODELED_CLASSES = frozenset(
    {
        "android.app.Activity",
        "android.app.Fragment",
        "android.app.Service",
        "android.webkit.WebView",
    }
)

_PERMISSION_HOOK = (
    "onRequestPermissionsResult",
    "(int,java.lang.String[],int[])void",
)


@dataclass(frozen=True)
class _ApiFact:
    """Pre-digested view of an ApiEntry for picker filtering."""

    entry: ApiEntry
    introduced: int
    last: int
    contiguous: bool
    dangerous_permissions: frozenset[str]
    class_introduced: int


class ApiPicker:
    """Deterministic selection of framework APIs by characteristics.

    One picker per API database: :meth:`of` memoizes it in a
    :class:`weakref.WeakKeyDictionary` keyed on the database object,
    so it lives exactly as long as that database and is never stored
    on it (a database pickled into a pool worker does not drag its
    picker along).  Each selection method builds its candidate list
    once per argument tuple; every list keeps the catalog order of
    ``_facts``, so the forge's seeded RNG draws the same entry a fresh
    scan would and every generated app stays reproducible.
    """

    _memo: "weakref.WeakKeyDictionary[ApiDatabase, ApiPicker]" = (
        weakref.WeakKeyDictionary()
    )

    @classmethod
    def of(cls, apidb: ApiDatabase) -> "ApiPicker":
        """The shared picker for ``apidb``, built on first use."""
        picker = cls._memo.get(apidb)
        if picker is None:
            picker = cls._memo[apidb] = cls(apidb)
        return picker

    def __init__(self, apidb: ApiDatabase) -> None:
        # Only the permission map is kept: a reference back to the
        # database would keep its memo entry alive forever.
        self._permission_map = apidb.permission_map
        self._cache: dict[tuple, list[_ApiFact]] = {}
        self._facts: list[_ApiFact] = []
        for class_name in apidb.class_names:
            class_entry = apidb.clazz(class_name)
            if not class_entry.levels:
                continue
            class_introduced = min(class_entry.levels)
            for method in class_entry.methods.values():
                if not method.levels:
                    continue
                introduced, last = method.lifetime
                self._facts.append(
                    _ApiFact(
                        entry=method,
                        introduced=introduced,
                        last=last,
                        contiguous=(
                            len(method.levels) == last - introduced + 1
                        ),
                        dangerous_permissions=frozenset(
                            p
                            for p in self._permission_map.permissions_for(
                                method.ref
                            )
                            if is_dangerous(p)
                        ),
                        class_introduced=class_introduced,
                    )
                )
        self._facts.sort(
            key=lambda f: (f.entry.class_name, f.entry.signature)
        )

    # -- selection helpers -------------------------------------------------

    def _candidates(
        self, key: tuple, predicate: Callable[[_ApiFact], bool]
    ) -> list[_ApiFact]:
        """The facts matching ``predicate`` in ``_facts`` order, built
        on the first call for ``key`` (the method name plus its
        arguments) and cached."""
        candidates = self._cache.get(key)
        if candidates is None:
            candidates = self._cache[key] = [
                f for f in self._facts if predicate(f)
            ]
        return candidates

    def _choose(self, rng: random.Random, candidates: list[_ApiFact]) -> _ApiFact:
        if not candidates:
            raise LookupError("no API matches the requested characteristics")
        return rng.choice(candidates)

    def safe_api(self, rng: random.Random) -> ApiEntry:
        """A method present at every level with no dangerous
        permissions — harmless filler material."""
        candidates = self._candidates(
            ("safe_api",),
            lambda f: f.introduced == 2
            and f.last == MAX_API_LEVEL
            and not f.entry.callback
            and not f.dangerous_permissions
            and not f.entry.semantic_deltas
            and not f.entry.name.startswith("<"),
        )
        return self._choose(rng, candidates).entry

    def new_api(
        self,
        rng: random.Random,
        min_introduced: int,
        max_introduced: int,
    ) -> ApiEntry:
        """A non-callback, permission-free API introduced within
        ``[min_introduced, max_introduced]`` and alive through the
        newest level."""
        candidates = self._candidates(
            ("new_api", min_introduced, max_introduced),
            lambda f: min_introduced <= f.introduced <= max_introduced
            and f.last == MAX_API_LEVEL
            and f.contiguous
            and not f.entry.callback
            and not f.dangerous_permissions
            and not f.entry.semantic_deltas
            and not f.entry.name.startswith("<"),
        )
        return self._choose(rng, candidates).entry

    def removed_api(
        self, rng: random.Random, alive_at: int
    ) -> ApiEntry:
        """An API alive at ``alive_at`` but removed before the newest
        level (forward-compatibility material)."""
        candidates = self._candidates(
            ("removed_api", alive_at),
            lambda f: f.introduced <= alive_at <= f.last
            and f.last < MAX_API_LEVEL
            and f.contiguous
            and not f.entry.callback
            and not f.dangerous_permissions
            and not f.entry.semantic_deltas
            and not f.entry.name.startswith("<"),
        )
        return self._choose(rng, candidates).entry

    def subclassable_new_api(
        self,
        rng: random.Random,
        class_alive_at: int,
        min_introduced: int,
        max_introduced: int,
    ) -> ApiEntry:
        """A new API on a class that already exists at
        ``class_alive_at`` — so an app subclass is legal across the
        app's whole range while the method itself is newer."""
        candidates = self._candidates(
            (
                "subclassable_new_api",
                class_alive_at,
                min_introduced,
                max_introduced,
            ),
            lambda f: f.class_introduced <= class_alive_at
            and min_introduced <= f.introduced <= max_introduced
            and f.last == MAX_API_LEVEL
            and f.contiguous
            and not f.entry.callback
            and not f.dangerous_permissions
            and not f.entry.semantic_deltas
            and not f.entry.name.startswith("<"),
        )
        return self._choose(rng, candidates).entry

    def new_callback(
        self,
        rng: random.Random,
        min_introduced: int,
        max_introduced: int,
        *,
        modeled: bool | None = None,
    ) -> ApiEntry:
        """A callback introduced in the window.  ``modeled`` filters to
        (True) / away from (False) CIDER's four modeled classes."""

        def fits(f: _ApiFact) -> bool:
            if not f.entry.callback:
                return False
            if not (min_introduced <= f.introduced <= max_introduced):
                return False
            if f.last != MAX_API_LEVEL or not f.contiguous:
                return False
            if f.class_introduced > 2:
                return False  # the subclass must be legal at every level
            if (f.entry.name, f.entry.descriptor) == _PERMISSION_HOOK:
                return False
            if f.entry.semantic_deltas:
                return False
            in_modeled = f.entry.class_name in _MODELED_CLASSES
            if modeled is True and not in_modeled:
                return False
            if modeled is False and in_modeled:
                return False
            return True

        candidates = self._candidates(
            ("new_callback", min_introduced, max_introduced, modeled), fits
        )
        return self._choose(rng, candidates).entry

    def permission_api(
        self, rng: random.Random, *, deep: bool | None = None
    ) -> tuple[ApiEntry, frozenset[str]]:
        """An API requiring dangerous permissions, present at every
        level.  ``deep=True`` restricts to APIs whose *direct*
        permission set is empty (enforcement buried in the framework);
        ``deep=False`` to directly-enforcing APIs."""

        def fits(f: _ApiFact) -> bool:
            # Realistic APIs require one or two dangerous permissions;
            # bulk framework methods sitting atop huge transitive
            # enforcement cones are not representative call targets.
            if not 1 <= len(f.dangerous_permissions) <= 2:
                return False
            if f.introduced != 2 or f.last != MAX_API_LEVEL:
                return False
            if f.entry.callback or f.entry.name.startswith("<"):
                return False
            if f.entry.semantic_deltas:
                return False
            direct = frozenset(
                p
                for p in self._permission_map.permissions_for(
                    f.entry.ref, deep=False
                )
                if is_dangerous(p)
            )
            if deep is True and direct:
                return False
            if deep is False and not direct:
                return False
            return True

        fact = self._choose(
            rng, self._candidates(("permission_api", deep), fits)
        )
        return fact.entry, fact.dangerous_permissions

    def semantic_api(
        self,
        rng: random.Random,
        *,
        min_sdk: int,
        target_sdk: int,
        max_level: int,
        single_delta: bool = False,
    ) -> ApiEntry:
        """A permission-free, always-callable API carrying at least one
        behavior delta that *matters* for an app with the given SDK
        triple: some supported device level sits on the other side of
        the delta from ``target_sdk``.  ``single_delta=True`` restricts
        to one-delta APIs, so a single SDK guard can neutralize the
        whole method (the guarded-trap scenario needs that)."""
        def active(level: int) -> bool:
            if level <= target_sdk:
                return level > min_sdk
            return level <= max_level

        candidates = self._candidates(
            ("semantic_api", min_sdk, target_sdk, max_level, single_delta),
            lambda f: f.entry.semantic_deltas
            and f.introduced <= min_sdk
            and f.last == MAX_API_LEVEL
            and f.contiguous
            and not f.entry.callback
            and not f.dangerous_permissions
            and not f.entry.name.startswith("<")
            and any(active(d.level) for d in f.entry.semantic_deltas)
            and (not single_delta or len(f.entry.semantic_deltas) == 1),
        )
        return self._choose(rng, candidates).entry


@dataclass
class ForgedApp:
    """A generated app plus its ground truth."""

    apk: Apk
    truth: GroundTruth


class AppForge:
    """Assembles one app from scenarios.

    Typical use::

        forge = AppForge("com.example.demo", "Demo", min_sdk=21,
                         target_sdk=26, seed=7)
        forge.add_direct_issue()
        forge.add_callback_issue(modeled=False)
        forge.add_filler(kloc=4.0)
        forged = forge.build()
    """

    def __init__(
        self,
        package: str,
        label: str,
        *,
        min_sdk: int,
        target_sdk: int,
        max_sdk: int | None = None,
        buildable: bool = True,
        seed: int = 0,
        apidb: ApiDatabase | None = None,
    ) -> None:
        self.package = package
        self.label = label
        self.min_sdk = min_sdk
        self.target_sdk = target_sdk
        self.max_sdk = max_sdk
        self.buildable = buildable
        self._rng = random.Random(seed)
        self._apidb = apidb or build_api_database()
        self._picker = ApiPicker.of(self._apidb)
        self._classes: list[Clazz] = []
        self._secondary: list[Clazz] = []
        self._permissions: set[str] = set()
        self._components: list[Component] = []
        self._counter = 0
        self._protocol_implemented = False
        self._loader_sites: list[str] = []
        #: Per-app API vocabulary: real apps exercise a bounded slice
        #: of the framework, which is precisely what makes lazy class
        #: loading pay off.  Filler code draws from this pool.
        self._safe_pool: list[ApiEntry] = []
        self._issue_pool: list[ApiEntry] = []
        self.truth = GroundTruth(app=label)
        self._effective_max = (
            max_sdk if max_sdk is not None else MAX_API_LEVEL
        )
        self._add_main_activity()

    # -- naming -----------------------------------------------------------

    def _next(self, stem: str) -> str:
        self._counter += 1
        return f"{self.package}.gen.{stem}{self._counter}"

    def _next_library(self, stem: str) -> str:
        self._counter += 1
        return f"com.thirdparty.{stem.lower()}.{stem}{self._counter}"

    def _next_plugin(self, stem: str) -> str:
        self._counter += 1
        return f"{self.package}.plugin.{stem}{self._counter}"

    # -- shared pieces -------------------------------------------------------

    @property
    def main_activity(self) -> str:
        return f"{self.package}.MainActivity"

    def _add_main_activity(self) -> None:
        builder = ClassBuilder(
            self.main_activity, super_name="android.app.Activity"
        )
        method = builder.method("onCreate", "(android.os.Bundle)void")
        method.invoke_super(
            "android.app.Activity", "onCreate", "(android.os.Bundle)void"
        )
        safe = self._pooled_safe_api()
        method.invoke_virtual(safe.class_name, safe.name, safe.descriptor)
        method.return_void()
        builder.finish(method)
        self._classes.append(builder.build())
        self._components.append(
            Component(self.main_activity, ComponentKind.ACTIVITY)
        )

    def _pooled_safe_api(self) -> ApiEntry:
        """A safe API from the app's bounded vocabulary."""
        if not self._safe_pool:
            pool_size = self._rng.randint(8, 18)
            self._safe_pool = [
                self._picker.safe_api(self._rng) for _ in range(pool_size)
            ]
        return self._rng.choice(self._safe_pool)

    def _pooled_new_api(self) -> ApiEntry:
        """A newer-than-minSdk API from the app's bounded vocabulary.

        An app with many mismatch sites typically owes them to a
        handful of newer APIs used repeatedly (one outdated library),
        not to dozens of unrelated platform corners.
        """
        if not self._issue_pool:
            low, high = self._issue_window()
            pool_size = self._rng.randint(3, 8)
            self._issue_pool = [
                self._picker.new_api(self._rng, low, high)
                for _ in range(pool_size)
            ]
        return self._rng.choice(self._issue_pool)

    def _issue_window(self) -> tuple[int, int]:
        """Introduction-level window producing a real backward issue:
        strictly above minSdk, at most the newest modeled level."""
        low = self.min_sdk + 1
        high = MAX_API_LEVEL
        return low, high

    def _emit_call(
        self, method: MethodBuilder, entry: ApiEntry
    ) -> None:
        method.invoke_virtual(entry.class_name, entry.name, entry.descriptor)

    # ------------------------------------------------------------------
    # Extension hooks (external strategy layers, e.g. difftest)
    # ------------------------------------------------------------------

    @property
    def rng(self) -> random.Random:
        """The forge's RNG — reseedable by deterministic planners."""
        return self._rng

    @property
    def picker(self) -> ApiPicker:
        return self._picker

    @property
    def apidb(self) -> ApiDatabase:
        return self._apidb

    def next_name(self, stem: str) -> str:
        """A fresh app-package class name (public `_next`)."""
        return self._next(stem)

    def add_class(self, clazz: Clazz, *, secondary: bool = False) -> None:
        """Register an externally built class with the app."""
        (self._secondary if secondary else self._classes).append(clazz)

    def preseed_pools(self) -> None:
        """Materialize the safe and issue API pools immediately.

        The pools are normally built lazily by the first scenario that
        needs them, so later scenarios' API picks depend on which
        scenario ran first.  Deterministic strategy layers (the
        differential-testing planner) call this right after
        construction so deleting one scenario never shifts another
        scenario's API choices.
        """
        self._pooled_safe_api()
        self._pooled_new_api()

    # ------------------------------------------------------------------
    # API invocation scenarios
    # ------------------------------------------------------------------

    def add_direct_issue(self) -> SeededIssue:
        """Unguarded call to a newer API from an app-package class."""
        api = self._pooled_new_api()
        class_name = self._next("Screen")
        builder = ClassBuilder(class_name)
        method = builder.method("render")
        self._emit_call(method, api)
        method.return_void()
        builder.finish(method)
        self._classes.append(builder.build())

        caller = MethodRef(class_name, "render", "()void")
        issue = SeededIssue(
            key=(
                "API",
                self.label,
                caller,
                (api.class_name, api.name, api.descriptor),
            ),
            kind="API",
            trait=Trait.DIRECT,
            description=(
                f"{class_name}.render calls {api.ref} (API "
                f"{api.lifetime[0]}+) with minSdk {self.min_sdk}"
            ),
        )
        self.truth.issues.append(issue)
        return issue

    def add_guarded_direct(self) -> SeededTrap:
        """Correctly guarded call — nobody should report it."""
        api = self._pooled_new_api()
        class_name = self._next("SafeScreen")
        builder = ClassBuilder(class_name)
        method = builder.method("render")
        method.guarded_call(
            api.lifetime[0], api.class_name, api.name, api.descriptor
        )
        method.return_void()
        builder.finish(method)
        self._classes.append(builder.build())

        caller = MethodRef(class_name, "render", "()void")
        trap = SeededTrap(
            fp_keys=(
                (
                    "API",
                    self.label,
                    caller,
                    (api.class_name, api.name, api.descriptor),
                ),
            ),
            trait=Trait.TRAP_GUARDED_DIRECT,
            description=f"{class_name}.render guards {api.ref} correctly",
        )
        self.truth.traps.append(trap)
        return trap

    def add_caller_guard_trap(self) -> SeededTrap:
        """Guard in the caller, API call in the callee — safe, but
        context-insensitive tools flag the callee."""
        api = self._pooled_new_api()
        helper_name = self._next("Helper")
        helper = ClassBuilder(helper_name)
        apply_method = helper.method("applyFeature")
        self._emit_call(apply_method, api)
        apply_method.return_void()
        helper.finish(apply_method)
        self._classes.append(helper.build())

        caller_name = self._next("Coordinator")
        caller = ClassBuilder(caller_name)
        update = caller.method("update")
        skip = update.fresh_label("skip_")
        update.sdk_int(0)
        update.const_int(1, api.lifetime[0])
        update.if_cmp(CmpOp.LT, 0, 1, skip)
        update.invoke_virtual(helper_name, "applyFeature")
        update.label(skip)
        update.return_void()
        caller.finish(update)
        self._classes.append(caller.build())

        helper_ref = MethodRef(helper_name, "applyFeature", "()void")
        trap = SeededTrap(
            fp_keys=(
                (
                    "API",
                    self.label,
                    helper_ref,
                    (api.class_name, api.name, api.descriptor),
                ),
            ),
            trait=Trait.TRAP_CALLER_GUARD,
            description=(
                f"{caller_name}.update guards the call into "
                f"{helper_name}.applyFeature ({api.ref})"
            ),
        )
        self.truth.traps.append(trap)
        return trap

    def add_helper_guard_trap(self) -> SeededTrap:
        """The SDK check is wrapped in a boolean helper method — the
        ubiquitous ``VersionUtils.isAtLeastM()`` idiom.  Safe;
        summary-aware interprocedural analysis (SAINTDroid) sees
        through it, per-method tools false-alarm."""
        api = self._pooled_new_api()
        level = api.lifetime[0]
        utils_name = self._next("VersionUtils")
        utils = ClassBuilder(utils_name)
        helper = utils.method("isSupported", "()boolean")
        skip = helper.fresh_label("no_")
        helper.sdk_int(0)
        helper.const_int(1, level)
        helper.if_cmp(CmpOp.LT, 0, 1, skip)
        helper.const_int(2, 1)
        helper.return_value(2)
        helper.label(skip)
        helper.const_int(2, 0)
        helper.return_value(2)
        utils.finish(helper)
        self._classes.append(utils.build())

        user_name = self._next("FeatureGate")
        user = ClassBuilder(user_name)
        apply_method = user.method("applyFeature")
        out = apply_method.fresh_label("skip_")
        apply_method.invoke_virtual(utils_name, "isSupported", "()boolean")
        apply_method.move_result(0)
        apply_method.if_cmpz(CmpOp.EQ, 0, out)
        apply_method.invoke_virtual(
            api.class_name, api.name, api.descriptor
        )
        apply_method.label(out)
        apply_method.return_void()
        user.finish(apply_method)
        self._classes.append(user.build())

        user_ref = MethodRef(user_name, "applyFeature", "()void")
        trap = SeededTrap(
            fp_keys=(
                (
                    "API",
                    self.label,
                    user_ref,
                    (api.class_name, api.name, api.descriptor),
                ),
            ),
            trait=Trait.TRAP_HELPER_GUARD,
            description=(
                f"{user_name}.applyFeature guards {api.ref} through "
                f"{utils_name}.isSupported()"
            ),
        )
        self.truth.traps.append(trap)
        return trap

    def add_anonymous_guard_trap(self) -> SeededTrap:
        """Guarded allocation of an anonymous listener whose body calls
        the new API — safe by construction, but the guard does not
        survive the anonymous-class boundary in any of the tools."""
        api = self._pooled_new_api()
        host_name = self._next("Panel")
        listener_name = f"{host_name}$1"

        listener = ClassBuilder(
            listener_name, interfaces=("java.lang.Runnable",)
        )
        run = listener.method("run")
        self._emit_call(run, api)
        run.return_void()
        listener.finish(run)
        self._classes.append(listener.build())

        host = ClassBuilder(host_name)
        setup = host.method("setup")
        skip = setup.fresh_label("skip_")
        setup.sdk_int(0)
        setup.const_int(1, api.lifetime[0])
        setup.if_cmp(CmpOp.LT, 0, 1, skip)
        setup.new_instance(2, listener_name)
        setup.invoke_virtual(
            "android.os.Handler", "post", "(java.lang.Runnable)boolean",
            args=(2,),
        )
        setup.label(skip)
        setup.return_void()
        host.finish(setup)
        self._classes.append(host.build())

        run_ref = MethodRef(listener_name, "run", "()void")
        trap = SeededTrap(
            fp_keys=(
                (
                    "API",
                    self.label,
                    run_ref,
                    (api.class_name, api.name, api.descriptor),
                ),
            ),
            trait=Trait.TRAP_ANONYMOUS_GUARD,
            description=(
                f"{host_name}.setup posts {listener_name} only on "
                f"API {api.lifetime[0]}+; the listener calls {api.ref}"
            ),
        )
        self.truth.traps.append(trap)
        return trap

    def add_inherited_issue(self) -> SeededIssue:
        """API reached through an app subclass receiver."""
        low, high = self._issue_window()
        api = self._picker.subclassable_new_api(
            self._rng, self.min_sdk, low, high
        )
        class_name = self._next("Custom")
        builder = ClassBuilder(class_name, super_name=api.class_name)
        # The caller name must not collide with any generatable API
        # name: a subclass method named like the picked API (e.g. a
        # caller "refresh" when the API is refresh()void) would shadow
        # the inherited framework method and the call would resolve to
        # the app's own definition instead of the seeded API.
        method = builder.method("exerciseInherited")
        # Receiver is the app subclass: first-level tools do not treat
        # this as an API call.
        method.invoke_virtual(class_name, api.name, api.descriptor)
        method.return_void()
        builder.finish(method)
        self._classes.append(builder.build())

        caller = MethodRef(class_name, "exerciseInherited", "()void")
        issue = SeededIssue(
            key=(
                "API",
                self.label,
                caller,
                (api.class_name, api.name, api.descriptor),
            ),
            kind="API",
            trait=Trait.INHERITED,
            description=(
                f"{class_name} extends {api.class_name} and calls the "
                f"inherited {api.signature} (API {api.lifetime[0]}+)"
            ),
        )
        self.truth.issues.append(issue)
        return issue

    def add_library_issue(self) -> SeededIssue:
        """Unguarded newer-API call inside a bundled library class."""
        api = self._pooled_new_api()
        class_name = self._next_library("Widget")
        builder = ClassBuilder(class_name, origin="library")
        method = builder.method("decorate")
        self._emit_call(method, api)
        method.return_void()
        builder.finish(method)
        self._classes.append(builder.build())

        caller = MethodRef(class_name, "decorate", "()void")
        issue = SeededIssue(
            key=(
                "API",
                self.label,
                caller,
                (api.class_name, api.name, api.descriptor),
            ),
            kind="API",
            trait=Trait.LIBRARY,
            description=(
                f"bundled library {class_name} calls {api.ref} "
                f"(API {api.lifetime[0]}+)"
            ),
        )
        self.truth.issues.append(issue)
        return issue

    def add_secondary_dex_issue(self) -> SeededIssue:
        """Unguarded newer-API call in a late-bound secondary dex,
        reached through a statically resolvable ``loadClass``."""
        low, high = self._issue_window()
        api = self._picker.new_api(self._rng, low, high)
        plugin_name = self._next_plugin("Plugin")

        plugin = ClassBuilder(plugin_name)
        boot = plugin.method("boot")
        self._emit_call(boot, api)
        boot.return_void()
        plugin.finish(boot)
        self._secondary.append(plugin.build())

        loader_name = self._next("Loader")
        loader = ClassBuilder(loader_name)
        load = loader.method("loadPlugin")
        load.const_string(0, plugin_name)
        load.invoke_virtual(
            "dalvik.system.DexClassLoader",
            "loadClass",
            "(java.lang.String)java.lang.Class",
            args=(0,),
        )
        load.return_void()
        loader.finish(load)
        self._classes.append(loader.build())
        self._loader_sites.append(plugin_name)

        caller = MethodRef(plugin_name, "boot", "()void")
        issue = SeededIssue(
            key=(
                "API",
                self.label,
                caller,
                (api.class_name, api.name, api.descriptor),
            ),
            kind="API",
            trait=Trait.SECONDARY_DEX,
            description=(
                f"late-bound {plugin_name}.boot calls {api.ref} "
                f"(API {api.lifetime[0]}+)"
            ),
        )
        self.truth.issues.append(issue)
        return issue

    def add_external_dynamic_issue(self) -> SeededIssue:
        """A known issue in code loaded from outside the APK — not
        statically analyzable by any tool (SAINTDroid's residual FNs)."""
        low, high = self._issue_window()
        api = self._picker.new_api(self._rng, low, high)
        external_name = f"com.external.remote.Module{self._counter + 1}"
        self._counter += 1

        loader_name = self._next("RemoteLoader")
        loader = ClassBuilder(loader_name)
        load = loader.method("loadRemote")
        load.const_string(0, external_name)
        load.invoke_virtual(
            "dalvik.system.DexClassLoader",
            "loadClass",
            "(java.lang.String)java.lang.Class",
            args=(0,),
        )
        load.return_void()
        loader.finish(load)
        self._classes.append(loader.build())

        caller = MethodRef(external_name, "boot", "()void")
        issue = SeededIssue(
            key=(
                "API",
                self.label,
                caller,
                (api.class_name, api.name, api.descriptor),
            ),
            kind="API",
            trait=Trait.EXTERNAL_DYNAMIC,
            description=(
                f"{external_name} (downloaded at runtime) calls "
                f"{api.ref}; outside the APK, invisible to static tools"
            ),
        )
        self.truth.issues.append(issue)
        return issue

    def add_forward_removed_issue(self) -> SeededIssue:
        """Unguarded call to an API removed at a later level."""
        api = self._picker.removed_api(self._rng, self.min_sdk)
        class_name = self._next("LegacyNet")
        builder = ClassBuilder(class_name)
        method = builder.method("fetch")
        self._emit_call(method, api)
        method.return_void()
        builder.finish(method)
        self._classes.append(builder.build())

        caller = MethodRef(class_name, "fetch", "()void")
        issue = SeededIssue(
            key=(
                "API",
                self.label,
                caller,
                (api.class_name, api.name, api.descriptor),
            ),
            kind="API",
            trait=Trait.FORWARD_REMOVED,
            description=(
                f"{class_name}.fetch calls {api.ref}, removed after "
                f"API {api.lifetime[1]}"
            ),
        )
        self.truth.issues.append(issue)
        return issue

    # ------------------------------------------------------------------
    # API callback scenarios
    # ------------------------------------------------------------------

    def add_callback_issue(
        self, *, modeled: bool, anonymous: bool = False
    ) -> SeededIssue:
        """Override a framework callback newer than minSdk.

        ``modeled=True`` places it on one of CIDER's four classes;
        ``anonymous=True`` hosts the override in an anonymous inner
        class (invisible to SAINTDroid and CIDER alike)."""
        low, high = self._issue_window()
        callback = self._picker.new_callback(
            self._rng, low, high, modeled=modeled
        )
        stem = "Hook" if not anonymous else "HookHost"
        base_name = self._next(stem)
        class_name = f"{base_name}$1" if anonymous else base_name

        builder = ClassBuilder(class_name, super_name=callback.class_name)
        method = builder.method(callback.name, callback.descriptor)
        safe = self._pooled_safe_api()
        method.invoke_virtual(safe.class_name, safe.name, safe.descriptor)
        method.return_void()
        builder.finish(method)
        self._classes.append(builder.build())

        if anonymous:
            # The enclosing class allocates the anonymous subclass.
            host = ClassBuilder(base_name)
            attach = host.method("attach")
            attach.new_instance(0, class_name)
            attach.return_void()
            host.finish(attach)
            self._classes.append(host.build())

        trait = (
            Trait.CALLBACK_ANONYMOUS
            if anonymous
            else (
                Trait.CALLBACK_MODELED
                if modeled
                else Trait.CALLBACK_UNMODELED
            )
        )
        issue = SeededIssue(
            key=(
                "APC",
                self.label,
                class_name,
                f"{callback.name}{callback.descriptor}",
            ),
            kind="APC",
            trait=trait,
            description=(
                f"{class_name} overrides {callback.ref} "
                f"(API {callback.lifetime[0]}+) with minSdk {self.min_sdk}"
            ),
        )
        self.truth.issues.append(issue)
        return issue

    # ------------------------------------------------------------------
    # Permission scenarios
    # ------------------------------------------------------------------

    def add_permission_request_issue(
        self, *, deep: bool = False
    ) -> tuple[SeededIssue, ...]:
        """Use a dangerous-permission API without implementing the
        runtime request protocol (requires ``target_sdk >= 23``)."""
        if self.target_sdk < RUNTIME_PERMISSIONS_LEVEL:
            raise ValueError(
                "permission request mismatches require targetSdk >= 23"
            )
        if self._protocol_implemented:
            raise ValueError(
                "app already implements the runtime permission protocol"
            )
        api, permissions = self._picker.permission_api(
            self._rng, deep=deep if deep else None
        )
        class_name = self._next("Capture")
        builder = ClassBuilder(class_name)
        method = builder.method("acquire")
        self._emit_call(method, api)
        method.return_void()
        builder.finish(method)
        self._classes.append(builder.build())
        self._permissions.update(permissions)

        trait = Trait.PERMISSION_DEEP if deep else Trait.PERMISSION_REQUEST
        issues = []
        for permission in sorted(permissions):
            issue = SeededIssue(
                key=("PRM-request", self.label, permission),
                kind="PRM-request",
                trait=trait,
                description=(
                    f"{class_name}.acquire uses {api.ref} requiring "
                    f"{permission}; no runtime request protocol"
                ),
            )
            self.truth.issues.append(issue)
            issues.append(issue)
        return tuple(issues)

    def add_permission_revocation_issue(
        self, *, deep: bool = False
    ) -> tuple[SeededIssue, ...]:
        """Use a requested dangerous permission under the install-time
        model (requires ``target_sdk <= 22``)."""
        if self.target_sdk >= RUNTIME_PERMISSIONS_LEVEL:
            raise ValueError(
                "permission revocation mismatches require targetSdk <= 22"
            )
        api, permissions = self._picker.permission_api(
            self._rng, deep=deep if deep else None
        )
        class_name = self._next("Exporter")
        builder = ClassBuilder(class_name)
        method = builder.method("export")
        self._emit_call(method, api)
        method.return_void()
        builder.finish(method)
        self._classes.append(builder.build())
        self._permissions.update(permissions)

        trait = (
            Trait.PERMISSION_DEEP if deep else Trait.PERMISSION_REVOCATION
        )
        issues = []
        for permission in sorted(permissions):
            issue = SeededIssue(
                key=("PRM-revocation", self.label, permission),
                kind="PRM-revocation",
                trait=trait,
                description=(
                    f"{class_name}.export uses {api.ref} requiring "
                    f"{permission}; revocable on API 23+ devices"
                ),
            )
            self.truth.issues.append(issue)
            issues.append(issue)
        return tuple(issues)

    def implement_permission_protocol(self) -> None:
        """Add the runtime permission request/result protocol to the
        main activity; the app then has no request mismatches."""
        if self._protocol_implemented:
            return
        self._protocol_implemented = True
        class_name = self._next("PermissionAware")
        builder = ClassBuilder(class_name, super_name="android.app.Activity")
        ask = builder.method("ask")
        # The canonical pattern guards the runtime request on SDK_INT.
        ask.guarded_call(
            RUNTIME_PERMISSIONS_LEVEL,
            "android.app.Activity",
            "requestPermissions",
            "(java.lang.String[],int)void",
        )
        ask.return_void()
        builder.finish(ask)
        hook = builder.method(_PERMISSION_HOOK[0], _PERMISSION_HOOK[1])
        hook.return_void()
        builder.finish(hook)
        self._classes.append(builder.build())

    def request_permission(self, permission: str) -> None:
        """Add a manifest ``uses-permission`` entry directly."""
        self._permissions.add(permission)

    # ------------------------------------------------------------------
    # Semantic (behavior-only) scenarios
    # ------------------------------------------------------------------

    def add_semantic_issue(self) -> SeededIssue:
        """Unguarded call to an API whose *behavior* (not availability)
        changes at a level on the other side of the target SDK."""
        api = self._picker.semantic_api(
            self._rng,
            min_sdk=self.min_sdk,
            target_sdk=self.target_sdk,
            max_level=self._effective_max,
        )
        class_name = self._next("Tuner")
        builder = ClassBuilder(class_name)
        method = builder.method("adjust")
        self._emit_call(method, api)
        method.return_void()
        builder.finish(method)
        self._classes.append(builder.build())

        caller = MethodRef(class_name, "adjust", "()void")
        deltas = ", ".join(
            f"{d.change}@{d.level}" for d in api.semantic_deltas
        )
        issue = SeededIssue(
            key=(
                "SEM",
                self.label,
                caller,
                (api.class_name, api.name, api.descriptor),
            ),
            kind="SEM",
            trait=Trait.SEMANTIC,
            description=(
                f"{class_name}.adjust calls {api.ref}, whose behavior "
                f"changes ({deltas}) inside the supported range with "
                f"targetSdk {self.target_sdk}"
            ),
        )
        self.truth.issues.append(issue)
        return issue

    def add_guarded_semantic(self) -> SeededTrap:
        """Delta-carrying call correctly SDK-guarded onto the target's
        side of the delta — no finding, no behavior difference."""
        api = self._picker.semantic_api(
            self._rng,
            min_sdk=self.min_sdk,
            target_sdk=self.target_sdk,
            max_level=self._effective_max,
            single_delta=True,
        )
        delta = api.semantic_deltas[0]
        class_name = self._next("SafeTuner")
        builder = ClassBuilder(class_name)
        method = builder.method("adjust")
        if self.target_sdk >= delta.level:
            # Target sees the new behavior: run only where it holds.
            method.guarded_call(
                delta.level, api.class_name, api.name, api.descriptor
            )
        else:
            # Target sees the old behavior: stay below the delta.
            method.guarded_call_max(
                delta.level - 1, api.class_name, api.name, api.descriptor
            )
        method.return_void()
        builder.finish(method)
        self._classes.append(builder.build())

        caller = MethodRef(class_name, "adjust", "()void")
        trap = SeededTrap(
            fp_keys=(
                (
                    "SEM",
                    self.label,
                    caller,
                    (api.class_name, api.name, api.descriptor),
                ),
            ),
            trait=Trait.TRAP_GUARDED_SEMANTIC,
            description=(
                f"{class_name}.adjust keeps {api.ref} on the target's "
                f"side of its {delta.change}@{delta.level} delta"
            ),
        )
        self.truth.traps.append(trap)
        return trap

    # ------------------------------------------------------------------
    # filler
    # ------------------------------------------------------------------

    def add_filler(self, kloc: float, *, interior: int = 4) -> None:
        """Plain, safe code: classes calling always-available APIs and
        each other, sized to roughly ``kloc`` thousand instructions.

        ``interior`` sets the straight-line (non-invoke) instructions
        per method.  The default keeps the historical call-dense shape;
        corpus generators model realistic dex — where most instructions
        are arithmetic and moves between sparse call sites — by raising
        it (real apps average well over ten interior instructions per
        call site)."""
        target = int(kloc * 1000)
        emitted = 0
        previous_class: str | None = None
        while emitted < target:
            class_name = self._next("Util")
            builder = ClassBuilder(class_name)
            methods = self._rng.randint(4, 9)
            for index in range(methods):
                method = builder.method(f"op{index}")
                body_calls = self._rng.randint(1, 3)
                for position in range(interior):
                    method.const_int(position % 4, position)
                    emitted += 1
                for _ in range(body_calls):
                    safe = self._pooled_safe_api()
                    method.invoke_virtual(
                        safe.class_name, safe.name, safe.descriptor
                    )
                    emitted += 1
                if previous_class is not None and index == 0:
                    method.invoke_virtual(previous_class, "op0")
                    emitted += 1
                method.return_void()
                emitted += 1
                builder.finish(method)
            self._classes.append(builder.build())
            previous_class = class_name

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------

    def build(self) -> ForgedApp:
        manifest = Manifest(
            package=self.package,
            min_sdk=self.min_sdk,
            target_sdk=self.target_sdk,
            max_sdk=self.max_sdk,
            permissions=tuple(sorted(self._permissions)),
            components=tuple(self._components),
            buildable=self.buildable,
        )
        dex_files = [DexFile("classes.dex", tuple(self._classes))]
        if self._secondary:
            dex_files.append(
                DexFile(
                    "classes2.dex",
                    tuple(self._secondary),
                    secondary=True,
                )
            )
        apk = Apk(
            manifest=manifest,
            dex_files=tuple(dex_files),
            label=self.label,
        )
        return ForgedApp(apk=apk, truth=self.truth)
