"""Class-hierarchy resolution across the app/framework boundary.

The resolver answers hierarchy questions ("what does this app class
extend, transitively, into the framework?", "which framework callback
does this app method override?") while *loading lazily*: framework
ancestors are materialized one class at a time through the repository,
never as a whole image.  It is shared by the CLVM, the call-graph
builder, and the callback mismatch detector.
"""

from __future__ import annotations

from ..apk.package import Apk
from ..framework.repository import FrameworkRepository
from ..ir.clazz import Clazz
from ..ir.types import ClassName, MethodRef

__all__ = ["HierarchyResolver"]


def _no_app_class(name: ClassName) -> None:
    return None


class HierarchyResolver:
    """Resolve classes and hierarchy walks for one (app, device level)."""

    def __init__(
        self,
        apk: Apk | None,
        framework: FrameworkRepository,
        level: int,
        *,
        include_secondary_dex: bool = True,
        loaded_hook=None,
    ) -> None:
        """``apk=None`` resolves against the framework alone — the
        framework-internal world the summary table is built over."""
        if apk is None:
            self._app_lookup = _no_app_class
        elif include_secondary_dex:
            self._app_lookup = apk.lookup
        else:
            self._app_lookup = apk.lookup_primary
        self._framework = framework
        self._level = level
        self._cache: dict[ClassName, Clazz | None] = {}
        # Ancestor walks are pure for a fixed (apk, framework, level)
        # and re-requested for every dispatch/override query on the
        # same receiver class, so both walk shapes are memoized.
        self._chain_cache: dict[ClassName, tuple[Clazz, ...]] = {}
        self._supers_cache: dict[ClassName, tuple[Clazz, ...]] = {}
        #: Every name each :meth:`all_supertypes` walk resolved, in
        #: order, resolvable or not (see :meth:`supertype_walk`).
        self._walk_cache: dict[ClassName, tuple[ClassName, ...]] = {}
        #: Optional ``hook(clazz, warm)`` fired the first time a class
        #: is resolved; the CLVM uses it to account for load costs.
        #: ``warm`` is True when a framework class came from the shared
        #: repository cache rather than being materialized afresh.
        self._loaded_hook = loaded_hook

    @property
    def level(self) -> int:
        return self._level

    def resolve(self, name: ClassName) -> Clazz | None:
        """Find ``name`` in the app dex files or the framework image."""
        if name in self._cache:
            return self._cache[name]
        warm = False
        clazz = self._app_lookup(name)
        if clazz is None:
            clazz, warm = self._framework.load_class_cached(
                name, self._level
            )
        self._cache[name] = clazz
        if clazz is not None and self._loaded_hook is not None:
            self._loaded_hook(clazz, warm)
        return clazz

    # -- hierarchy walks ------------------------------------------------

    def supertype_chain(self, name: ClassName) -> tuple[Clazz, ...]:
        """All resolvable ancestors of ``name``, nearest first.

        The walk follows super classes only (interfaces are handled by
        :meth:`all_supertypes`); it stops at unresolvable names and
        guards against cycles in malformed input.
        """
        cached = self._chain_cache.get(name)
        if cached is not None:
            return cached
        chain: list[Clazz] = []
        seen: set[ClassName] = {name}
        current = self.resolve(name)
        while current is not None and current.super_name is not None:
            if current.super_name in seen:
                break
            seen.add(current.super_name)
            parent = self.resolve(current.super_name)
            if parent is None:
                break
            chain.append(parent)
            current = parent
        result = tuple(chain)
        self._chain_cache[name] = result
        return result

    def all_supertypes(self, name: ClassName) -> tuple[Clazz, ...]:
        """Ancestors including interfaces, breadth-first, deduplicated."""
        cached = self._supers_cache.get(name)
        if cached is not None:
            return cached
        out: list[Clazz] = []
        walked: list[ClassName] = []
        seen: set[ClassName] = {name}
        queue: list[ClassName] = []
        first = self.resolve(name)
        if first is not None:
            queue.extend(first.supertypes)
        while queue:
            super_name = queue.pop(0)
            if super_name in seen:
                continue
            seen.add(super_name)
            walked.append(super_name)
            clazz = self.resolve(super_name)
            if clazz is None:
                continue
            out.append(clazz)
            queue.extend(clazz.supertypes)
        result = tuple(out)
        self._supers_cache[name] = result
        self._walk_cache[name] = tuple(walked)
        return result

    def supertype_walk(self, name: ClassName) -> tuple[ClassName, ...]:
        """Every name :meth:`all_supertypes` resolves for ``name``,
        breadth-first, including names that resolve to nothing.
        Resolving these names in this order reproduces the walk's
        class loads exactly."""
        self.all_supertypes(name)
        return self._walk_cache[name]

    def framework_ancestors(self, name: ClassName) -> tuple[Clazz, ...]:
        """The subset of :meth:`all_supertypes` owned by the framework."""
        return tuple(
            clazz for clazz in self.all_supertypes(name)
            if clazz.origin == "framework"
        )

    def extends_framework(self, name: ClassName) -> bool:
        return bool(self.framework_ancestors(name))

    # -- dispatch -----------------------------------------------------

    def dispatch(self, ref: MethodRef) -> Clazz | None:
        """The class whose declaration a virtual call to ``ref``
        resolves against: the receiver class or its nearest ancestor
        declaring the signature."""
        clazz = self.resolve(ref.class_name)
        if clazz is None:
            return None
        if clazz.declares(ref.signature):
            return clazz
        for ancestor in self.all_supertypes(ref.class_name):
            if ancestor.declares(ref.signature):
                return ancestor
        return None

    def overridden_framework_method(
        self, app_class: ClassName, signature: str
    ) -> Clazz | None:
        """The nearest framework ancestor declaring ``signature``, i.e.
        the callback an app method with that signature overrides —
        or ``None`` when the method overrides nothing framework-owned.

        Intervening app-class declarations do not end the search: if
        ``B extends A extends android.app.Activity`` and both ``A`` and
        ``B`` override ``onCreate``, both override the framework
        callback."""
        for ancestor in self.all_supertypes(app_class):
            if ancestor.origin == "framework" and ancestor.declares(signature):
                return ancestor
        return None
