"""Framework snapshots: the substrate serialized once, loaded forever.

Every corpus run, serve daemon and sweep point needs the same two
artifacts before it can analyze its first app: the
:class:`~repro.framework.repository.FrameworkRepository` and the
:class:`~repro.core.apidb.ApiDatabase` mined from it.  Both
are pure functions of the framework spec, so a snapshot materializes
them exactly once and serves every later consumer from disk:

* the snapshot stores the spec, the database (with its prebuilt
  hierarchy/level indexes), and the *key set* of the repository's
  materialized-class cache — a snapshot written after a corpus run
  records every framework class that run touched, and loading
  re-materializes them from the spec (cheaper than unpickling the
  full class graphs), so the next run's CLVM starts warm;
* files are content-addressed by the caller's ``key`` (normally
  :func:`~repro.cache.fingerprint.fingerprint_spec`), embedded in the
  payload and re-checked on load, so a stale file for a different
  framework can never be served;
* a leading SHA-256 checksum guards the pickle: a truncated or
  bit-flipped snapshot fails the checksum and is treated as a miss
  (rebuilt and atomically rewritten), never unpickled, never an error.

Loading also registers the database in :mod:`repro.core.arm`'s
build cache, so a later ``build_api_database(repository)`` over the
loaded spec is a dictionary hit rather than a re-mine.
"""

from __future__ import annotations

from pathlib import Path

from ..core.apidb import ApiDatabase
from ..core.arm import build_api_database, cached_database, register_database
from ..framework.generator import materialize_class
from ..framework.repository import FrameworkRepository
from ..framework.spec import FrameworkSpec
from .fingerprint import fingerprint_spec
from .manifest import read_checksummed, write_checksummed

__all__ = [
    "SNAPSHOT_VERSION",
    "snapshot_path",
    "write_snapshot",
    "ensure_snapshot",
    "load_snapshot",
    "load_or_build_substrate",
]

#: Format of the snapshot payload, in the file name and the payload.
#: Version 2: method refs pickle without their memoized hash, which
#: follows the writer's hash seed; snapshots written before that are
#: misses.
SNAPSHOT_VERSION = 2


def snapshot_path(cache_dir: str | Path, key: str) -> Path:
    return (
        Path(cache_dir) / "framework" / f"{key}.v{SNAPSHOT_VERSION}.snapshot"
    )


def write_snapshot(
    cache_dir: str | Path,
    key: str,
    framework: FrameworkRepository,
    apidb: ApiDatabase,
) -> Path:
    """Serialize the substrate under ``key``; returns the file path."""
    path = snapshot_path(cache_dir, key)
    write_checksummed(
        path,
        {
            "version": SNAPSHOT_VERSION,
            "key": key,
            "spec": framework.spec,
            # Keys only: materialization is a pure function of the
            # spec, and re-running it on load is several times cheaper
            # than unpickling the full class graphs.
            "warm_classes": sorted(framework.export_class_cache()),
            "apidb": apidb,
        },
    )
    return path


def ensure_snapshot(
    cache_dir: str | Path,
    framework: FrameworkRepository,
    apidb: ApiDatabase,
    *,
    key: str | None = None,
) -> Path:
    """Write the snapshot for ``framework`` unless one already exists;
    returns its path either way."""
    key = key or fingerprint_spec(framework.spec)
    path = snapshot_path(cache_dir, key)
    if not path.exists():
        return write_snapshot(cache_dir, key, framework, apidb)
    return path


def load_snapshot(
    path: str | Path, *, key: str | None = None
) -> tuple[FrameworkRepository, ApiDatabase] | None:
    """Load a snapshot; ``None`` on any defect (missing, truncated,
    checksum mismatch, version/key mismatch) — a miss, never an error.
    """
    doc = read_checksummed(Path(path))
    if (
        not isinstance(doc, dict)
        or doc.get("version") != SNAPSHOT_VERSION
        or (key is not None and doc.get("key") != key)
        or not isinstance(doc.get("spec"), FrameworkSpec)
        or not isinstance(doc.get("apidb"), ApiDatabase)
    ):
        return None
    framework = FrameworkRepository(doc["spec"])
    framework.preload_class_cache(
        {
            (level, name): materialize_class(doc["spec"], name, level)
            for level, name in doc.get("warm_classes") or ()
        }
    )
    apidb = doc["apidb"]
    apidb.reset_cache_counters()
    register_database(framework.spec, apidb)
    return framework, apidb


def load_or_build_substrate(
    cache_dir: str | Path | None,
    spec: FrameworkSpec,
    *,
    key: str | None = None,
) -> tuple[FrameworkRepository, ApiDatabase, str]:
    """The substrate for ``spec``, from the snapshot store when
    possible.

    Returns ``(framework, apidb, source)`` where ``source`` is
    ``"snapshot"`` (served from disk), ``"built"`` (mined now and — if
    a cache directory was given — snapshotted for the next caller), or
    ``"memory"`` (the in-process build cache already had it, so disk
    was not consulted).
    """
    cached = cached_database(spec)
    if cached is not None:
        # Already mined in this process (or inherited over fork):
        # cheaper than any disk read.
        return FrameworkRepository(spec), cached, "memory"
    if cache_dir is None:
        framework = FrameworkRepository(spec)
        return framework, build_api_database(framework), "built"
    key = key or fingerprint_spec(spec)
    loaded = load_snapshot(snapshot_path(cache_dir, key), key=key)
    if loaded is not None:
        return loaded[0], loaded[1], "snapshot"
    framework = FrameworkRepository(spec)
    apidb = build_api_database(framework)
    write_snapshot(cache_dir, key, framework, apidb)
    return framework, apidb, "built"
