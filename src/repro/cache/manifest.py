"""Cache bookkeeping: the manifest and atomic on-disk writes.

The manifest is a small JSON document at ``<cache_dir>/manifest.json``
recording the schema version and one row per stored artifact (size,
last-touch timestamp).  It exists for two jobs:

* **invalidation by version** — a manifest written by a different
  schema version marks the whole directory stale; entries are simply
  ignored (re-created on demand), never migrated;
* **size-bounded eviction** — :meth:`CacheManifest.prune` drops the
  least-recently-touched entries until the cache fits its byte
  budget, so a long-lived cache directory cannot grow without bound.

Like the checkpoint journal, the manifest is corruption-tolerant: an
unreadable or truncated manifest is treated as empty and rebuilt by
scanning the directory, because losing bookkeeping must never lose a
run.  All writes go through :func:`atomic_write_bytes` (temp file +
``os.replace``), so a crash mid-write leaves either the old artifact
or the new one, never a torn file.  Pickled artifacts (framework
snapshots, class artifacts, summary tables) share one encoding,
:func:`write_checksummed` / :func:`read_checksummed`: a SHA-256 digest
in front of the pickle, so a damaged file is detected before it is
unpickled.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from pathlib import Path

from .fingerprint import CACHE_SCHEMA_VERSION

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "read_checksummed",
    "write_checksummed",
    "CacheManifest",
    "shared_manifest",
]

#: Default byte budget for the result-entry store (framework
#: snapshots are few and excluded from eviction).
DEFAULT_MAX_BYTES = 512 * 1024 * 1024


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` so that ``path`` is never observed torn."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


_CHECKSUM_BYTES = 32  # sha256 digest length


def write_checksummed(path: Path, obj) -> int:
    """Atomically write ``obj`` as a pickle behind its SHA-256 digest;
    returns the blob's size in bytes."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    blob = hashlib.sha256(payload).digest() + payload
    atomic_write_bytes(path, blob)
    return len(blob)


def read_checksummed(path: Path):
    """The object :func:`write_checksummed` stored at ``path``, or
    ``None`` on any defect — missing, truncated, checksum mismatch,
    unreadable pickle — so a damaged entry is a miss, never an error."""
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    digest, payload = blob[:_CHECKSUM_BYTES], blob[_CHECKSUM_BYTES:]
    if not payload or hashlib.sha256(payload).digest() != digest:
        return None
    try:
        return pickle.loads(payload)
    except Exception:
        # The checksum holds but the payload no longer unpickles (a
        # class it names was renamed or removed since it was written).
        return None


class CacheManifest:
    """Versioned bookkeeping over one cache directory."""

    FILENAME = "manifest.json"

    def __init__(
        self, cache_dir: str | Path, *, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.path = self.cache_dir / self.FILENAME
        self.max_bytes = max_bytes
        #: relative path -> {"size": int, "touched": float}
        self.entries: dict[str, dict] = {}
        self._load()

    # -- persistence ---------------------------------------------------

    def _load(self) -> None:
        try:
            doc = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # Missing, truncated, or corrupt: start empty.  Entries on
            # disk are still usable (they self-validate); they re-enter
            # the manifest as they are touched.
            self.entries = {}
            return
        if not isinstance(doc, dict) or (
            doc.get("version") != CACHE_SCHEMA_VERSION
        ):
            self.entries = {}
            return
        entries = doc.get("entries")
        self.entries = dict(entries) if isinstance(entries, dict) else {}

    def save(self) -> None:
        atomic_write_text(
            self.path,
            json.dumps(
                {
                    "version": CACHE_SCHEMA_VERSION,
                    "entries": self.entries,
                },
                sort_keys=True,
            ),
        )

    # -- bookkeeping ---------------------------------------------------

    def record(self, relative: str, size: int) -> None:
        """Note that ``relative`` was just written (or served)."""
        self.entries[relative] = {
            "size": int(size), "touched": time.time()
        }

    def touch(self, relative: str) -> None:
        entry = self.entries.get(relative)
        if entry is not None:
            entry["touched"] = time.time()

    def forget(self, relative: str) -> None:
        self.entries.pop(relative, None)

    @property
    def total_bytes(self) -> int:
        return sum(entry.get("size", 0) for entry in self.entries.values())

    def prune(self) -> list[str]:
        """Evict least-recently-touched entries until the byte budget
        holds; returns the relative paths removed."""
        evicted: list[str] = []
        if self.total_bytes <= self.max_bytes:
            return evicted
        by_age = sorted(
            self.entries.items(),
            key=lambda item: item[1].get("touched", 0.0),
        )
        for relative, entry in by_age:
            if self.total_bytes <= self.max_bytes:
                break
            target = self.cache_dir / relative
            try:
                target.unlink(missing_ok=True)
            except OSError:
                pass  # eviction is best-effort; bookkeeping still drops it
            self.entries.pop(relative, None)
            evicted.append(relative)
        return evicted

    def sizes_by_store(self) -> dict[str, dict]:
        """Entry counts and byte totals grouped by top-level store
        directory (``results``, ``classes``, ``summaries``, …) — the
        observability view behind the daemon's ``/statsz``."""
        stores: dict[str, dict] = {}
        for relative, entry in self.entries.items():
            prefix = relative.split("/", 1)[0]
            bucket = stores.setdefault(prefix, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += entry.get("size", 0)
        return stores


# One cache directory holds several artifact stores (per-app results,
# per-class artifacts, framework summary tables) that must share one
# byte budget: two CacheManifest instances over the same directory
# would clobber each other's rows on save, and an unshared store's
# bytes would escape the LRU bound entirely.  The registry hands every
# store over one directory the same manifest object.
_SHARED_MANIFESTS: dict[str, CacheManifest] = {}


def shared_manifest(
    cache_dir: str | Path, *, max_bytes: int | None = None
) -> CacheManifest:
    """The process-wide :class:`CacheManifest` for ``cache_dir``.

    ``max_bytes`` tightens (or relaxes) the budget of an existing
    instance when given explicitly; ``None`` keeps whatever the first
    opener configured (the default 512MB bound).
    """
    key = os.path.abspath(os.fspath(cache_dir))
    manifest = _SHARED_MANIFESTS.get(key)
    if manifest is None:
        manifest = CacheManifest(
            cache_dir,
            max_bytes=(
                max_bytes if max_bytes is not None else DEFAULT_MAX_BYTES
            ),
        )
        _SHARED_MANIFESTS[key] = manifest
    elif max_bytes is not None:
        manifest.max_bytes = max_bytes
    return manifest
