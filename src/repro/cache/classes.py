"""Corpus-wide content-addressed store of per-class analysis
artifacts — the engine behind ``--dedup``.

Apps overwhelmingly share code: common libraries and SDK scaffolding
dominate each APK, so two apps that differ by one class should not
each pay full per-class analysis.  This store caches, keyed by a
canonical digest of the class bytecode plus the framework-spec and
tool-config digests (:func:`repro.cache.fingerprint.class_key`), every
fact the per-app phases derive *from the class alone*:

* **explore effects** — the ordered per-method effect stream the lazy
  class-loader VM derives by scanning instructions and running the
  constant-string dataflow over ``Class.forName``-style sites: which
  classes a method instantiates, which targets it invokes (as *static*
  refs — virtual dispatch is re-resolved live against each app's
  hierarchy), and which dynamically-loaded names its strings resolve
  to;
* **version-helper summaries** — the per-level concrete evaluation of
  every candidate SDK-predicate helper
  (:func:`repro.analysis.summaries.summarize_version_helper`), the
  most expensive pure-per-class computation in the pipeline;
* **guard rows** — for each ``(method, entry interval, helper-set)``
  context the guard propagation has ever asked about, the refined
  interval at every reachable call site (the product of
  ``build_cfg`` + forward dataflow in :mod:`repro.analysis.guards`).

What is deliberately *not* cached: anything that depends on the whole
app — virtual/interface dispatch resolution, subtype overrides,
callback overrides, manifest-derived intervals.  Replay re-derives
those live, which is what makes a cached artifact valid across apps.

Chaos discipline: artifacts produced while analyzing an app are
**staged**, and only an explicit end-of-pipeline commit publishes
them.  A crash, timeout, or injected fault aborts the pipeline before
the commit pass runs, so a faulted app can never populate the store
(the same rule the result cache enforces with ``result.ok``).

Disk entries are checksummed pickles (corruption is a miss, never an
error) recorded in the directory's *shared* manifest, so per-class
artifacts, per-app results, and framework summary tables together
respect one LRU byte budget.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .fingerprint import (
    canonical_json,
    class_key,
    fingerprint_clazz,
    fingerprint_config,
    fingerprint_spec,
)
from .manifest import read_checksummed, shared_manifest, write_checksummed

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from ..framework.spec import FrameworkSpec
    from ..ir.clazz import Clazz

__all__ = [
    "CLASS_ARTIFACT_VERSION",
    "ClassArtifact",
    "ClassStoreStats",
    "ClassStore",
    "class_store",
    "dedup_store",
    "reset_class_stores",
]

#: Version of the artifact payload semantics (effect encoding, helper
#: map, guard-row keying).  Part of the checksum preamble: bumping it
#: orphans old entries without migration code.  v2: semantic-delta
#: (SEM) facts joined the analysis substrate — pre-SEM artifacts must
#: degrade to misses, never resurface as findings.
CLASS_ARTIFACT_VERSION = 2


@dataclass(eq=False)  # identity semantics: artifacts are cache
# entries, and downstream memos key them (weakly) by instance.
class ClassArtifact:
    """Everything derivable from one class in isolation.

    ``effects`` is aligned with ``clazz.methods``: one tuple of effect
    records per declared method, in declaration order, each record one
    of::

        ("loadclass", (name, ...))   # constant-resolved dynamic names
                                     # (empty tuple = unresolved site)
        ("new", class_name)          # NewInstance allocation
        ("invoke", kind, (class_name, name, descriptor))

    ``helpers`` maps ``(name, descriptor)`` of every summarizable
    version-predicate method to its true-level set.  ``guard_rows``
    maps ``(signature, entry_lo, entry_hi, helpers_digest)`` to the
    refined interval at each reachable call site:
    ``((class_name, name, descriptor), lo, hi)`` per row.  Guard rows
    accumulate as new contexts are observed; the rest is immutable.
    """

    effects: tuple[tuple, ...] = ()
    helpers: dict = field(default_factory=dict)
    guard_rows: dict = field(default_factory=dict)


@dataclass
class ClassStoreStats:
    """One process's traffic against the class-artifact store."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    evicted: int = 0
    discarded: int = 0
    guard_hits: int = 0
    guard_misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def guard_hit_rate(self) -> float:
        total = self.guard_hits + self.guard_misses
        return self.guard_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "evicted": self.evicted,
            "discarded": self.discarded,
            "guard_hits": self.guard_hits,
            "guard_misses": self.guard_misses,
            "hit_rate": self.hit_rate,
            "guard_hit_rate": self.guard_hit_rate,
        }


def helpers_digest(helper_items) -> str:
    """Digest of the helper summaries visible to one guard context.

    ``helper_items`` is an iterable of ``((class, name, descriptor),
    levels)`` pairs; the digest is order-insensitive, so the same
    helper environment always keys the same guard rows.
    """
    doc = sorted(
        (list(key), sorted(levels)) for key, levels in helper_items
    )
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


class ClassStore:
    """In-memory + on-disk store of :class:`ClassArtifact` entries.

    One instance is scoped to a (framework fingerprint, config
    fingerprint) pair; entries are keyed by a class's content digest
    (:meth:`key_for`).  ``cache_dir=None`` keeps the store purely in
    memory — dedup still amortizes across the apps of one run (or the
    lifetime of a daemon worker), it just does not survive the
    process.
    """

    def __init__(
        self,
        cache_dir: str | Path | None,
        *,
        framework_fingerprint: str,
        config_fingerprint: str,
        max_bytes: int | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.framework_fingerprint = framework_fingerprint
        self.config_fingerprint = config_fingerprint
        self.stats = ClassStoreStats()
        self._memory: dict[str, ClassArtifact] = {}
        self._dirty: set[str] = set()
        self._staged: dict[str, ClassArtifact] = {}
        self._staged_guards: dict[str, dict] = {}
        self._manifest = (
            shared_manifest(self.cache_dir, max_bytes=max_bytes)
            if self.cache_dir is not None
            else None
        )

    # -- keys and paths ------------------------------------------------

    def key_for(self, clazz: "Clazz") -> str:
        return class_key(
            fingerprint_clazz(clazz),
            self.framework_fingerprint,
            self.config_fingerprint,
        )

    def _entry_path(self, key: str) -> Path:
        return self.cache_dir / "classes" / key[:2] / f"{key}.cls"

    def _relative(self, path: Path) -> str:
        return str(path.relative_to(self.cache_dir))

    # -- lookup --------------------------------------------------------

    def get(self, key: str) -> "ClassArtifact | None":
        """The cached artifact under ``key`` (:meth:`key_for` of the
        class), or ``None`` (corrupt disk entries are dropped and count
        as misses)."""
        artifact = self._memory.get(key)
        if artifact is not None:
            self.stats.hits += 1
            return artifact
        artifact = self._load(key)
        if artifact is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._memory[key] = artifact
        return artifact

    def _load(self, key: str) -> "ClassArtifact | None":
        if self.cache_dir is None:
            return None
        path = self._entry_path(key)
        doc = read_checksummed(path)
        if doc is None and not path.exists():
            return None  # never stored: a plain miss
        version, artifact = (
            doc if isinstance(doc, tuple) and len(doc) == 2 else (None, None)
        )
        if (
            version != CLASS_ARTIFACT_VERSION
            or not isinstance(artifact, ClassArtifact)
        ):
            self.stats.corrupt += 1
            path.unlink(missing_ok=True)
            if self._manifest is not None:
                self._manifest.forget(self._relative(path))
            return None
        if self._manifest is not None:
            self._manifest.touch(self._relative(path))
        return artifact

    # -- staging (one app's pipeline) ----------------------------------

    def begin_app(self) -> None:
        """Discard any staging left by an aborted pipeline (fault,
        timeout, crash): a faulted app must never publish artifacts."""
        self.stats.discarded += len(self._staged)
        self._staged.clear()
        self._staged_guards.clear()

    def stage(self, key: str, artifact: ClassArtifact) -> None:
        """Stage a freshly-recorded artifact; published on commit."""
        self._staged[key] = artifact

    def record_guard_rows(self, key: str, row_key: tuple, rows) -> None:
        """Stage guard rows for an artifact (cached or staged)."""
        self._staged_guards.setdefault(key, {})[row_key] = tuple(rows)

    def commit_app(self) -> None:
        """Publish this app's staged artifacts and guard rows.  Runs
        only as the final pipeline pass — any earlier failure leaves
        the store untouched."""
        wrote = False
        for key, artifact in self._staged.items():
            self._memory[key] = artifact
            self._dirty.add(key)
        for key, row_map in self._staged_guards.items():
            artifact = self._memory.get(key)
            if artifact is None:
                continue  # artifact itself was evicted or never staged
            artifact.guard_rows.update(row_map)
            self._dirty.add(key)
        self._staged.clear()
        self._staged_guards.clear()
        if self.cache_dir is not None:
            for key in sorted(self._dirty):
                artifact = self._memory.get(key)
                if artifact is not None:
                    self._write(key, artifact)
                    wrote = True
        self._dirty.clear()
        if wrote and self._manifest is not None:
            self.stats.evicted += len(self._manifest.prune())
            self._manifest.save()

    def _write(self, key: str, artifact: ClassArtifact) -> None:
        path = self._entry_path(key)
        fresh = not path.exists()
        size = write_checksummed(path, (CLASS_ARTIFACT_VERSION, artifact))
        if fresh:
            self.stats.stores += 1
        if self._manifest is not None:
            self._manifest.record(self._relative(path), size)

    # -- maintenance ---------------------------------------------------

    def adopt_untracked(self) -> int:
        """Re-enter on-disk entries missing from the manifest.

        Concurrent workers over one cache directory write entries
        atomically but save the manifest last-writer-wins; files the
        surviving manifest never saw would escape the byte budget.
        Returns how many entries were adopted.
        """
        if self.cache_dir is None or self._manifest is None:
            return 0
        root = self.cache_dir / "classes"
        adopted = 0
        if not root.is_dir():
            return 0
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                if not name.endswith(".cls"):
                    continue
                path = Path(dirpath) / name
                relative = self._relative(path)
                if relative in self._manifest.entries:
                    continue
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                self._manifest.record(relative, size)
                adopted += 1
        return adopted

    def flush(self) -> None:
        """Adopt stray entries, enforce the byte budget, persist the
        manifest.  Called at end of run / daemon drain."""
        if self._manifest is None:
            return
        self.adopt_untracked()
        self.stats.evicted += len(self._manifest.prune())
        self._manifest.save()


# One store per (directory, framework, config) per process: the lazy
# VM, the guard propagation, and the pipeline passes of every app in a
# run — or every job through a daemon worker — must share the
# in-memory table for dedup to amortize.
_STORES: dict[tuple, ClassStore] = {}


def class_store(
    cache_dir: str | Path | None,
    *,
    framework_fingerprint: str,
    config_fingerprint: str,
    max_bytes: int | None = None,
) -> ClassStore:
    key = (
        os.path.abspath(os.fspath(cache_dir))
        if cache_dir is not None
        else None,
        framework_fingerprint,
        config_fingerprint,
    )
    store = _STORES.get(key)
    if store is None:
        store = ClassStore(
            cache_dir,
            framework_fingerprint=framework_fingerprint,
            config_fingerprint=config_fingerprint,
            max_bytes=max_bytes,
        )
        _STORES[key] = store
    return store


def dedup_store(
    cache_dir: str | Path | None, spec: "FrameworkSpec"
) -> ClassStore:
    """The store SAINTDroid's ``--dedup`` analyzes against over
    ``spec``: the one key the dedup pass opens and a run's finish
    flushes.  The config digest pins only what artifacts depend on —
    the artifact semantics version.  Detector knobs (ablations,
    summaries) deliberately do not partition the store: artifacts hold
    static per-class facts valid under every configuration."""
    return class_store(
        cache_dir,
        framework_fingerprint=fingerprint_spec(spec),
        config_fingerprint=fingerprint_config(
            ("SAINTDroid",), {"classes": CLASS_ARTIFACT_VERSION}
        ),
    )


def registered_stores() -> tuple[ClassStore, ...]:
    """Every store opened by this process (observability)."""
    return tuple(_STORES.values())


def reset_class_stores() -> None:
    """Drop the registry (tests needing cold stores)."""
    _STORES.clear()
