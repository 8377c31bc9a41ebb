"""Per-app result cache: analyses keyed by what actually determines
them.

An :class:`~repro.eval.runner.AppResult` is a pure function of three
inputs — the APK bytes, the framework the database was mined from, and
the detector configuration — so a corpus re-run over unchanged inputs
can be served entirely from disk.  Entries are JSON documents encoded
with the checkpoint journal's codec, which round-trips every
fingerprint-relevant field: a warm run restored from this cache is
bit-identical (by :meth:`RunResults.fingerprint`) to the cold run that
populated it.

Discipline (shared with the checkpoint journal and class store):

* **only clean results are stored** — a failed, quarantined, or
  fault-injected app is never cached, so retries and chaos runs always
  re-analyze (a quarantine decision can never be masked by a stale
  hit);
* **corruption is a miss** — an unreadable, truncated, or
  key-mismatched entry is dropped and re-analyzed, never an error;
* **writes are atomic** and the store is size-bounded: the manifest
  evicts least-recently-used entries past the byte budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .fingerprint import CACHE_SCHEMA_VERSION, result_key
from .manifest import DEFAULT_MAX_BYTES, atomic_write_text, shared_manifest

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from ..eval.runner import AppResult

__all__ = ["ResultCacheStats", "ResultCache"]


@dataclass
class ResultCacheStats:
    """Accounting for one run's traffic against the result store."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    evicted: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "evicted": self.evicted,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Disk store of finalized app results for one configuration.

    One instance is scoped to a (framework fingerprint, detector
    configuration fingerprint) pair; lookups take only the APK content
    fingerprint.  Changing any of the three produces different keys —
    invalidation is structural, not procedural.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        framework_fingerprint: str,
        config_fingerprint: str,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.framework_fingerprint = framework_fingerprint
        self.config_fingerprint = config_fingerprint
        self.stats = ResultCacheStats()
        # The manifest is shared with every other store over this
        # directory (class artifacts, framework summaries), so the
        # byte budget bounds their *combined* footprint.
        self._manifest = shared_manifest(
            self.cache_dir,
            max_bytes=max_bytes if max_bytes != DEFAULT_MAX_BYTES else None,
        )

    def _entry_path(self, apk_fingerprint: str) -> Path:
        key = result_key(
            apk_fingerprint,
            self.framework_fingerprint,
            self.config_fingerprint,
        )
        return self.cache_dir / "results" / key[:2] / f"{key}.json"

    def _relative(self, path: Path) -> str:
        return str(path.relative_to(self.cache_dir))

    # -- traffic -------------------------------------------------------

    def get(self, apk_fingerprint: str) -> "AppResult | None":
        """The cached result for these exact inputs, or ``None``."""
        from ..eval.checkpoint import result_from_dict

        path = self._entry_path(apk_fingerprint)
        try:
            doc = json.loads(path.read_text())
        except OSError:
            self.stats.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            # Torn or bit-rotted entry: drop it and re-analyze.
            self.stats.corrupt += 1
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            self._manifest.forget(self._relative(path))
            return None
        try:
            if doc.get("version") != CACHE_SCHEMA_VERSION:
                raise ValueError("schema version mismatch")
            _, result = result_from_dict(doc["result"])
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            self._manifest.forget(self._relative(path))
            return None
        self.stats.hits += 1
        self._manifest.touch(self._relative(path))
        result.from_cache = True
        return result

    def put(self, apk_fingerprint: str, result: "AppResult") -> bool:
        """Store one *clean* result; failed results are refused (their
        absence is what forces re-analysis and keeps quarantine
        honest).  Returns whether the entry was written."""
        from ..eval.checkpoint import result_to_dict

        if not result.ok:
            return False
        path = self._entry_path(apk_fingerprint)
        text = json.dumps(
            {
                "version": CACHE_SCHEMA_VERSION,
                # Index 0 is a placeholder: entries are position-free
                # (the same app may sit anywhere in any corpus).
                "result": result_to_dict(0, result),
            }
        )
        atomic_write_text(path, text)
        self.stats.stores += 1
        self._manifest.record(self._relative(path), len(text))
        self.stats.evicted += len(self._manifest.prune())
        return True

    def flush(self) -> None:
        """Persist manifest bookkeeping (call once per run, not per
        entry — the entries themselves are already durable)."""
        self._manifest.save()
