"""Persistent, content-addressed cache layer for incremental runs.

Corpus-scale vetting re-analyzes the same corpora as tools and API
databases evolve; this package makes the *unchanged* part of every
re-run cost near zero.  Three tiers:

* **framework snapshots** (:mod:`.snapshot`) — the materialized
  repository + mined API database serialized once per framework
  fingerprint, loaded by corpus runs, the serve daemon and sweep
  points instead of regenerated;
* **per-app results** (:mod:`.results`) — finalized
  :class:`~repro.eval.runner.AppResult` records keyed by (APK content,
  framework, detector configuration) fingerprints; warm runs are
  fingerprint-identical to cold ones while skipping the analysis;
* **bookkeeping** (:mod:`.manifest`) — versioned schema, atomic
  writes, corruption-as-miss, size-bounded LRU eviction.

Everything is keyed through :mod:`.fingerprint`; nothing in here
affects *what* a run computes, only whether it recomputes it.
"""

from .classes import (
    ClassArtifact,
    ClassStore,
    ClassStoreStats,
    class_store,
)
from .fingerprint import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    class_key,
    digest_json,
    fingerprint_apk,
    fingerprint_clazz,
    fingerprint_config,
    fingerprint_spec,
    result_key,
)
from .manifest import (
    CacheManifest,
    atomic_write_bytes,
    atomic_write_text,
    shared_manifest,
)
from .results import ResultCache, ResultCacheStats
from .snapshot import (
    ensure_snapshot,
    load_or_build_substrate,
    load_snapshot,
    snapshot_path,
    write_snapshot,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheManifest",
    "ClassArtifact",
    "ClassStore",
    "ClassStoreStats",
    "ResultCache",
    "ResultCacheStats",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json",
    "class_key",
    "class_store",
    "digest_json",
    "ensure_snapshot",
    "fingerprint_apk",
    "fingerprint_clazz",
    "fingerprint_config",
    "fingerprint_spec",
    "load_or_build_substrate",
    "load_snapshot",
    "result_key",
    "shared_manifest",
    "snapshot_path",
    "write_snapshot",
]
