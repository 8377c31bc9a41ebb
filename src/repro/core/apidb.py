"""The API database — ARM's primary artifact.

Stores, for every framework class, the set of API levels at which each
method exists, whether it is a callback, the class hierarchy links,
and the permission map.  The database answers the three queries the
AMD algorithms issue:

* ``apidb.CONTAINS(block, lvl)`` → :meth:`exists` (inheritance-aware);
* callback lookup for Algorithm 3 → :meth:`callback_entry`;
* permission lookup for Algorithm 4 → :meth:`permissions_for`.

The database is built once per framework (paper section III-B) and
reused across every app analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apk.manifest import MAX_API_LEVEL, MIN_API_LEVEL
from ..framework.permissions import PermissionMap
from ..framework.spec import SemanticDelta
from ..ir.types import ClassName, MethodRef
from ..analysis.intervals import ApiInterval

__all__ = ["ApiEntry", "ApiClassEntry", "ApiDatabase", "DbCacheCounters"]


@dataclass(frozen=True)
class ApiEntry:
    """One framework method's database record.

    ``semantic_deltas`` are the method's behavior-only changes, sorted
    by (level, change, detail) — the facts the SEM detector consumes.
    """

    class_name: ClassName
    name: str
    descriptor: str
    levels: frozenset[int]
    callback: bool = False
    semantic_deltas: tuple[SemanticDelta, ...] = ()

    @property
    def signature(self) -> str:
        return f"{self.name}{self.descriptor}"

    @property
    def ref(self) -> MethodRef:
        return MethodRef(self.class_name, self.name, self.descriptor)

    def exists_at(self, level: int) -> bool:
        return level in self.levels

    @property
    def lifetime(self) -> tuple[int, int]:
        return (min(self.levels), max(self.levels))


@dataclass
class ApiClassEntry:
    """One framework class's database record."""

    name: ClassName
    super_name: ClassName | None
    levels: frozenset[int]
    methods: dict[str, ApiEntry] = field(default_factory=dict)

    def exists_at(self, level: int) -> bool:
        return level in self.levels


@dataclass
class DbCacheCounters:
    """Hit/miss accounting for the database's memoized lookups.

    ``resolve`` covers :meth:`ApiDatabase.resolve` (and everything
    built on it: callbacks, permission resolution); ``levels`` covers
    the per-signature callable-level sets behind :meth:`exists` /
    :meth:`missing_levels`; ``permissions`` covers
    :meth:`permissions_for`.
    """

    resolve_hits: int = 0
    resolve_misses: int = 0
    levels_hits: int = 0
    levels_misses: int = 0
    permission_hits: int = 0
    permission_misses: int = 0

    @property
    def hits(self) -> int:
        return self.resolve_hits + self.levels_hits + self.permission_hits

    @property
    def misses(self) -> int:
        return (
            self.resolve_misses
            + self.levels_misses
            + self.permission_misses
        )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "resolve_hits": self.resolve_hits,
            "resolve_misses": self.resolve_misses,
            "levels_hits": self.levels_hits,
            "levels_misses": self.levels_misses,
            "permission_hits": self.permission_hits,
            "permission_misses": self.permission_misses,
            "hit_rate": self.hit_rate,
        }


class ApiDatabase:
    """Queryable view over every modeled framework level.

    The database is immutable after construction (``classes`` and the
    permission map are never modified), so the hierarchy-walking
    queries — :meth:`resolve`, :meth:`exists`, :meth:`missing_levels`,
    :meth:`permissions_for` — are memoized: each (class, signature)
    pair is resolved against the hierarchy once and every later query
    is a dict lookup.  :attr:`cache_counters` exposes the hit/miss
    accounting so corpus-scale harnesses can report amortization.
    """

    def __init__(
        self,
        classes: dict[ClassName, ApiClassEntry],
        permission_map: PermissionMap,
    ) -> None:
        self._classes = classes
        self._permission_map = permission_map
        self._resolve_cache: dict[
            tuple[ClassName, str], ApiEntry | None
        ] = {}
        self._levels_cache: dict[
            tuple[ClassName, str], frozenset[int]
        ] = {}
        self._permission_cache: dict[
            tuple[MethodRef, bool], frozenset[str]
        ] = {}
        self._missing_cache: dict[
            tuple[ClassName, str, int, int], "ApiInterval"
        ] = {}
        self.cache_counters = DbCacheCounters()
        # Per-level API counts, computed once: api_count_at used to
        # rescan every method of every class on every call.
        self._level_counts: dict[int, int] = {
            level: 0
            for level in range(MIN_API_LEVEL, MAX_API_LEVEL + 1)
        }
        for entry in classes.values():
            for method in entry.methods.values():
                for level in method.levels:
                    if level in self._level_counts:
                        self._level_counts[level] += 1

    def reset_cache_counters(self) -> None:
        self.cache_counters = DbCacheCounters()

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, name: ClassName) -> bool:
        return name in self._classes

    @property
    def class_names(self) -> tuple[ClassName, ...]:
        return tuple(self._classes)

    @property
    def permission_map(self) -> PermissionMap:
        return self._permission_map

    def clazz(self, name: ClassName) -> ApiClassEntry | None:
        return self._classes.get(name)

    @property
    def method_count(self) -> int:
        return sum(len(entry.methods) for entry in self._classes.values())

    # -- hierarchy ---------------------------------------------------------

    def ancestors(self, name: ClassName) -> tuple[ClassName, ...]:
        """Super-class chain of ``name``, nearest first (level-agnostic)."""
        chain: list[ClassName] = []
        seen = {name}
        entry = self._classes.get(name)
        while entry is not None and entry.super_name is not None:
            if entry.super_name in seen:
                break
            seen.add(entry.super_name)
            chain.append(entry.super_name)
            entry = self._classes.get(entry.super_name)
        return tuple(chain)

    # -- method resolution --------------------------------------------------

    def resolve(
        self, name: ClassName, signature: str
    ) -> ApiEntry | None:
        """Find the nearest declaration of ``signature`` on ``name`` or
        its ancestors (level-agnostic).  Memoized."""
        key = (name, signature)
        counters = self.cache_counters
        try:
            found = self._resolve_cache[key]
            counters.resolve_hits += 1
            return found
        except KeyError:
            counters.resolve_misses += 1
        found = None
        entry = self._classes.get(name)
        seen: set[ClassName] = set()
        while entry is not None and entry.name not in seen:
            seen.add(entry.name)
            declared = entry.methods.get(signature)
            if declared is not None:
                found = declared
                break
            if entry.super_name is None:
                break
            entry = self._classes.get(entry.super_name)
        self._resolve_cache[key] = found
        return found

    def _callable_levels(
        self, name: ClassName, signature: str
    ) -> frozenset[int]:
        """Every level at which ``signature`` is callable on ``name``:
        the union, over the super chain, of levels where a declaring
        class and its declaration are both alive.  Memoized — this is
        the single hierarchy walk behind :meth:`exists` and
        :meth:`missing_levels`."""
        key = (name, signature)
        counters = self.cache_counters
        try:
            levels = self._levels_cache[key]
            counters.levels_hits += 1
            return levels
        except KeyError:
            counters.levels_misses += 1
        callable_levels: set[int] = set()
        entry = self._classes.get(name)
        seen: set[ClassName] = set()
        while entry is not None and entry.name not in seen:
            seen.add(entry.name)
            found = entry.methods.get(signature)
            if found is not None:
                callable_levels |= entry.levels & found.levels
            if entry.super_name is None:
                break
            entry = self._classes.get(entry.super_name)
        levels = frozenset(callable_levels)
        self._levels_cache[key] = levels
        return levels

    def exists(self, name: ClassName, signature: str, level: int) -> bool:
        """Algorithm 2's ``apidb.CONTAINS``: is the method callable on
        ``name`` at ``level``?  Inheritance-aware and sensitive to the
        declaring class's own lifetime."""
        return level in self._callable_levels(name, signature)

    def missing_levels(
        self, name: ClassName, signature: str, interval: ApiInterval
    ) -> ApiInterval:
        """Hull of levels within ``interval`` at which the method is
        not callable (empty = fully supported).  Memoized: detection
        asks the same (api, window) question for every usage site."""
        key = (name, signature, interval.lo, interval.hi)
        cached = self._missing_cache.get(key)
        if cached is not None:
            # A warm (api, window) answer is a hit on the underlying
            # callable-level set — keep the observability contract
            # (hit counters climb as memo tables warm) intact.
            self.cache_counters.levels_hits += 1
            return cached
        callable_levels = self._callable_levels(name, signature)
        missing = [
            level for level in interval if level not in callable_levels
        ]
        result = (
            ApiInterval.empty()
            if not missing
            else ApiInterval.of(min(missing), max(missing))
        )
        self._missing_cache[key] = result
        return result

    # -- callbacks -----------------------------------------------------------

    def callback_entry(
        self, name: ClassName, signature: str
    ) -> ApiEntry | None:
        """The callback declaration ``signature`` resolves to on
        ``name``/ancestors, or None when it is not a callback."""
        found = self.resolve(name, signature)
        if found is not None and found.callback:
            return found
        return None

    def callbacks_of(self, name: ClassName) -> tuple[ApiEntry, ...]:
        """All callbacks declared by ``name`` and its ancestors."""
        out: list[ApiEntry] = []
        for class_name in (name, *self.ancestors(name)):
            entry = self._classes.get(class_name)
            if entry is None:
                continue
            out.extend(
                method for method in entry.methods.values()
                if method.callback
            )
        return tuple(out)

    # -- semantics ----------------------------------------------------------

    def semantic_deltas_for(
        self, name: ClassName, signature: str
    ) -> tuple[SemanticDelta, ...]:
        """Behavior-only changes of the method ``signature`` resolves
        to on ``name``/ancestors (empty for unknown methods)."""
        found = self.resolve(name, signature)
        if found is None:
            return ()
        return found.semantic_deltas

    # -- permissions ------------------------------------------------------------

    def permissions_for(
        self, ref: MethodRef, *, deep: bool = True
    ) -> frozenset[str]:
        """Permissions required to execute ``ref`` (resolved against
        the hierarchy first, so inherited APIs map correctly).
        Memoized — called once per API usage per app otherwise."""
        key = (ref, deep)
        counters = self.cache_counters
        try:
            permissions = self._permission_cache[key]
            counters.permission_hits += 1
            return permissions
        except KeyError:
            counters.permission_misses += 1
        resolved = self.resolve(ref.class_name, ref.name + ref.descriptor)
        target = resolved.ref if resolved is not None else ref
        permissions = self._permission_map.permissions_for(
            target, deep=deep
        )
        self._permission_cache[key] = permissions
        return permissions

    # -- summaries ----------------------------------------------------------------

    def api_count_at(self, level: int) -> int:
        """How many API methods exist at ``level`` (precomputed)."""
        if not MIN_API_LEVEL <= level <= MAX_API_LEVEL:
            raise ValueError(f"level {level} outside modeled range")
        return self._level_counts[level]
