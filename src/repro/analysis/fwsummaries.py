"""Whole-framework pre-summaries: stop the CLVM at the boundary.

The lazy CLVM follows app→framework calls into framework method bodies
(to ``DEFAULT_FRAMEWORK_DEPTH``) because that is where virtual
dispatchers reach app callbacks and permission enforcement lives.  But
framework code is immutable per (spec, level): what exploration learns
from a framework class is a pure function of the framework, not of the
app.  This module records it once per level — CID-style
whole-framework pre-analysis, amortized over the corpus — as a thin
layer over the CLVM's own machinery:

* a :class:`ClassSummary` per framework class records the *worklist
  effects* of analyzing that class — allocations, resolved call
  targets, and virtual/interface dispatch sites — in the exact order
  the lazy analysis produces them, so a summarized exploration
  enqueues the same app methods in the same order as a lazy one
  (findings parity, enforced by test);
* the build reads the level through
  :meth:`~repro.framework.repository.FrameworkRepository.load_image`,
  derives each method's effects with the CLVM's
  :func:`~repro.analysis.clvm.prepared_effects` (memoized on the
  ``Method`` objects the repository shares with lazy analyses) and
  resolves framework-internal calls with
  :func:`~repro.analysis.clvm.resolve_call` over a framework-only
  :class:`~repro.analysis.hierarchy.HierarchyResolver` — the level is
  materialized once per process, whichever mode asks first;
* tables are built lazily per API level, memoized in-process (and
  shared with pool workers over fork, like the API database), and
  persisted content-addressed on the framework spec digest under a
  cache directory (``<cache>/summaries/``) as checksummed blobs: a
  corrupt file is a miss, never an error.

The consumer is :class:`~repro.analysis.clvm.ClassLoaderVM` in
summarized mode (``summaries=``): a framework method popped from the
worklist costs one table lookup instead of a class materialization
plus a per-instruction scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from ..framework.repository import FrameworkRepository
from ..ir.types import ClassName
from .clvm import prepared_effects, resolve_call
from .hierarchy import HierarchyResolver

__all__ = [
    "SUMMARY_SCHEMA_VERSION",
    "ClassSummary",
    "SummaryTableStats",
    "FrameworkSummaryTable",
    "summary_table",
    "cached_table",
]

#: Version 2: effects only (no per-method interval/permission
#: records), allocations carry their constructor ref.
SUMMARY_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ClassSummary:
    """Worklist effects of one framework class.

    ``effects`` replays, in order, every enqueue the lazy CLVM would
    perform while analyzing this class: ``("loadclass", names, m)``
    for statically-resolved dynamic loads, ``("new", init_ref, m)``
    for allocations, ``("call", target, m)`` for resolved invocations,
    and ``("dispatch", callee, m)`` for virtual/interface sites that
    may dispatch into app overrides (``m`` is the containing method,
    kept so dispatch edges carry their true caller).
    """

    name: ClassName
    instruction_count: int
    effects: tuple[tuple, ...]


@dataclass
class SummaryTableStats:
    """Where each level's table came from, and what it cost."""

    levels_built: int = 0
    levels_loaded: int = 0
    build_seconds: float = 0.0


class FrameworkSummaryTable:
    """Per-level framework summaries, built lazily and cached.

    One table serves every app analyzed against the same framework
    spec; pool workers inherit the parent's table over fork exactly
    like the API database, and a ``store_dir`` persists each level's
    summaries content-addressed on the spec digest so later processes
    load instead of rebuilding.
    """

    def __init__(
        self,
        framework: FrameworkRepository,
        *,
        store_dir: str | Path | None = None,
    ) -> None:
        self._framework = framework
        self._store_dir = (
            Path(store_dir) if store_dir is not None else None
        )
        self._levels: dict[int, dict[ClassName, ClassSummary]] = {}
        self.stats = SummaryTableStats()

    @property
    def framework(self) -> FrameworkRepository:
        return self._framework

    @property
    def store_dir(self) -> Path | None:
        return self._store_dir

    def set_store_dir(self, store_dir: str | Path | None) -> None:
        """Late-bind the persistence directory (the corpus layer knows
        the cache dir, the detector that constructs the table does
        not)."""
        if store_dir is not None and self._store_dir is None:
            self._store_dir = Path(store_dir)

    # -- lookups ------------------------------------------------------

    def level_summaries(
        self, level: int
    ) -> dict[ClassName, ClassSummary]:
        """Every class summary at ``level`` (built on first use)."""
        table = self._levels.get(level)
        if table is None:
            table = self._load(level)
            if table is None:
                table = self._build(level)
                self._store(level, table)
            self._levels[level] = table
        return table

    def class_summary(
        self, name: ClassName, level: int
    ) -> ClassSummary | None:
        return self.level_summaries(level).get(name)

    # -- construction -------------------------------------------------

    def _build(self, level: int) -> dict[ClassName, ClassSummary]:
        started = time.perf_counter()
        image = self._framework.load_image(level)
        resolver = HierarchyResolver(None, self._framework, level)
        table: dict[ClassName, ClassSummary] = {}
        for name, clazz in image.items():
            effects: list[tuple] = []
            for method in clazz.methods:
                caller = method.ref
                for effect in prepared_effects(method):
                    if effect[0] != "invoke":
                        # ("new", init_ref) / ("loadclass", names)
                        effects.append((effect[0], effect[1], caller))
                        continue
                    _, kind, callee, virtual = effect
                    target = resolve_call(resolver, kind, callee) or callee
                    effects.append(("call", target, caller))
                    if virtual:
                        effects.append(("dispatch", callee, caller))
            table[name] = ClassSummary(
                name=name,
                instruction_count=clazz.instruction_count,
                effects=tuple(effects),
            )
        self.stats.levels_built += 1
        self.stats.build_seconds += time.perf_counter() - started
        return table

    # -- persistence --------------------------------------------------

    def _path(self, level: int) -> Path | None:
        if self._store_dir is None:
            return None
        from ..cache.fingerprint import fingerprint_spec

        key = fingerprint_spec(self._framework.spec)
        return self._store_dir / "summaries" / f"{key}-L{level}.summ"

    def _store(self, level: int, table: dict) -> None:
        path = self._path(level)
        if path is None or path.exists():
            return
        from ..cache.manifest import shared_manifest, write_checksummed

        size = write_checksummed(
            path,
            {
                "version": SUMMARY_SCHEMA_VERSION,
                "level": level,
                "classes": table,
            },
        )
        # Size the entry into the directory's shared manifest so the
        # summary store participates in the LRU byte budget alongside
        # result and class-artifact entries.
        manifest = shared_manifest(self._store_dir)
        manifest.record(str(path.relative_to(self._store_dir)), size)
        manifest.prune()
        manifest.save()

    def _load(self, level: int) -> dict[ClassName, ClassSummary] | None:
        """Load one level from the store; ``None`` on any defect
        (missing, truncated, checksum/version mismatch) — a miss,
        never an error."""
        path = self._path(level)
        if path is None:
            return None
        from ..cache.manifest import read_checksummed, shared_manifest

        doc = read_checksummed(path)
        if (
            not isinstance(doc, dict)
            or doc.get("version") != SUMMARY_SCHEMA_VERSION
            or doc.get("level") != level
            or not isinstance(doc.get("classes"), dict)
        ):
            return None
        self.stats.levels_loaded += 1
        manifest = shared_manifest(self._store_dir)
        relative = str(path.relative_to(self._store_dir))
        if relative in manifest.entries:
            manifest.touch(relative)
        else:
            # A table written before manifest sizing existed (or by a
            # concurrent worker whose manifest save lost the race):
            # adopt it so eviction accounting stays complete.
            try:
                manifest.record(relative, path.stat().st_size)
            except OSError:
                pass  # evicted since the read: nothing to account
        return doc["classes"]


# -- in-process registry (fork-shared, like the API database) --------------

_TABLES: dict[int, FrameworkSummaryTable] = {}


def summary_table(
    framework: FrameworkRepository,
    *,
    store_dir: str | Path | None = None,
) -> FrameworkSummaryTable:
    """The shared summary table for ``framework``'s spec, creating it
    on first request.  Keyed by spec identity so forked pool workers
    inherit the parent's built levels for free."""
    key = id(framework.spec)
    table = _TABLES.get(key)
    if table is None:
        table = FrameworkSummaryTable(framework, store_dir=store_dir)
        _TABLES[key] = table
    elif store_dir is not None:
        table.set_store_dir(store_dir)
    return table


def cached_table(spec) -> FrameworkSummaryTable | None:
    """The registered table for ``spec``, if any (no build)."""
    return _TABLES.get(id(spec))
