"""Persistent, content-addressed cache layer for incremental runs.

Corpus-scale vetting re-analyzes the same corpora as tools and API
databases evolve; this package makes the *unchanged* part of every
re-run cost near zero.  Three tiers:

* **per-app results** (:mod:`.results`) — finalized
  :class:`~repro.eval.runner.AppResult` records keyed by (APK content,
  framework, detector configuration) fingerprints; warm runs are
  fingerprint-identical to cold ones while skipping the analysis;
* **per-class artifacts** (:mod:`.classes`) — the content-addressed
  class store behind ``--dedup``;
* **bookkeeping** (:mod:`.manifest`) — versioned schema, atomic
  writes, corruption-as-miss, size-bounded LRU eviction.

Framework summary tables (:mod:`repro.analysis.fwsummaries`) persist
under the same directory and manifest.  The framework substrate itself
is not cached: every process builds it from the spec.  Everything is
keyed through :mod:`.fingerprint`; nothing in here affects *what* a
run computes, only whether it recomputes it.
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
    "fingerprint_apk",
    "fingerprint_clazz",
    "fingerprint_config",
    "fingerprint_spec",
    "result_key",
    "shared_manifest",
]
