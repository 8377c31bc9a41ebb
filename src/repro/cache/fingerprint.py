"""Content fingerprints for the persistent cache.

Every cache key in :mod:`repro.cache` is *content-addressed*: a
SHA-256 digest over a canonical JSON rendering of the thing being
keyed.  Three inputs determine whether a cached analysis result is
still valid, and each gets its own fingerprint:

* the **framework spec** (:func:`fingerprint_spec`) — every class and
  method history, including permissions and call chains, so adding a
  method or shifting an ``introduced`` level invalidates everything
  derived from the framework;
* the **APK content** (:func:`fingerprint_apk`) — the full serialized
  package, so any byte-level change to manifest or dex code is a new
  app as far as the cache is concerned;
* the **detector configuration** (:func:`fingerprint_config`) — which
  tools ran and with which options, so a run with a different tool
  set never sees another configuration's results.

Fingerprints also embed :data:`CACHE_SCHEMA_VERSION`: bumping it
orphans (never corrupts) every existing entry, which is how on-disk
format changes roll out without migration code.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..apk.package import Apk
from ..apk.serialization import apk_to_dict
from ..framework.spec import FrameworkSpec

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "canonical_json",
    "digest_json",
    "fingerprint_spec",
    "fingerprint_apk",
    "fingerprint_clazz",
    "fingerprint_config",
    "result_key",
    "class_key",
]

#: Version of every on-disk cache artifact (result entries, class
#: artifacts, summary tables, manifest).  Part of every key: bump to
#: orphan old entries.
#: v2: framework method padding is a CRC of the method signature
#: instead of the hash-seeded ``hash()``, so the framework a spec
#: materializes — its summaries, class artifacts and every
#: cached work/memory unit — changed; the spec digest embeds this
#: version, so all of them are misses.
CACHE_SCHEMA_VERSION = 2


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def digest_json(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON rendering."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def _method_history_doc(history) -> dict:
    return {
        "name": history.name,
        "descriptor": history.descriptor,
        "introduced": history.introduced,
        "removed": history.removed,
        "callback": history.callback,
        "permissions": sorted(history.permissions),
        "calls": sorted(
            [ref.class_name, ref.name, ref.descriptor]
            for ref in history.calls
        ),
        # Unconditional (not elided when empty): adding the field
        # deliberately rotated every pre-SEM spec digest, so caches
        # written before semantic deltas existed can never be read as
        # current.
        "semantics": [
            [delta.level, delta.change, delta.detail]
            for delta in history.semantics
        ],
    }


# fingerprint_spec walks every method history of the framework, which
# costs a substantial fraction of a warm run's wall time if repeated.
# A FrameworkSpec is immutable after construction, so the digest is
# memoized per instance (keyed by id, with the spec kept referenced so
# the id cannot be recycled).
_SPEC_FINGERPRINTS: dict[int, tuple[FrameworkSpec, str]] = {}


def fingerprint_spec(spec: FrameworkSpec) -> str:
    """Digest of the complete framework revision history."""
    memo = _SPEC_FINGERPRINTS.get(id(spec))
    if memo is not None and memo[0] is spec:
        return memo[1]
    classes = []
    for name in sorted(spec.class_names):
        history = spec.clazz(name)
        classes.append(
            {
                "name": history.name,
                "super": history.super_name,
                "introduced": history.introduced,
                "removed": history.removed,
                "interfaces": list(history.interfaces),
                "methods": [
                    _method_history_doc(m) for m in history.methods
                ],
            }
        )
    digest = digest_json(
        {"schema": CACHE_SCHEMA_VERSION, "classes": classes}
    )
    _SPEC_FINGERPRINTS[id(spec)] = (spec, digest)
    return digest


def fingerprint_apk(apk: Apk) -> str:
    """Digest of the package's full serialized content.

    This is the same document ``save_apk`` writes, so a `.sapk` file
    reloaded byte-identically fingerprints identically, and any edit —
    manifest attribute, instruction, dex layout — is a new key.
    """
    return digest_json(apk_to_dict(apk))


def fingerprint_clazz(clazz) -> str:
    """Digest of one class's full serialized content.

    This is the per-class analogue of :func:`fingerprint_apk`: the
    same document the ``.sapk`` codec writes for the class, so two
    byte-identical classes bundled by different apps share one digest
    (the corpus-dedup property), while any change to a method body,
    flag, or supertype is a new key.

    A :class:`~repro.ir.clazz.Clazz` is immutable after construction,
    and the overlapping-corpus generators share ``Clazz`` instances
    across apps, so the digest is memoized on the instance.
    """
    memo = getattr(clazz, "_content_fingerprint", None)
    if memo is not None:
        return memo
    from ..apk.serialization import _class_to_dict

    digest = digest_json(_class_to_dict(clazz))
    object.__setattr__(clazz, "_content_fingerprint", digest)
    return digest


def fingerprint_config(
    tools: tuple[str, ...], options: dict | None = None
) -> str:
    """Digest of the detector configuration for one run.

    ``tools`` is ordered (the tool set determines which reports an
    :class:`~repro.eval.runner.AppResult` carries and in what
    iteration order); ``options`` holds any detector knobs that change
    findings (ablations, device ranges).
    """
    return digest_json(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "tools": list(tools),
            "options": options or {},
        }
    )


def result_key(
    apk_fingerprint: str,
    framework_fingerprint: str,
    config_fingerprint: str,
) -> str:
    """The cache key of one app's analysis under one configuration."""
    return hashlib.sha256(
        f"{CACHE_SCHEMA_VERSION}:{framework_fingerprint}:"
        f"{config_fingerprint}:{apk_fingerprint}".encode()
    ).hexdigest()


def class_key(
    clazz_fingerprint: str,
    framework_fingerprint: str,
    config_fingerprint: str,
) -> str:
    """The cache key of one class's analysis artifacts.

    Keyed exactly like :func:`result_key` but on the *class* content
    digest: the artifacts record only class-local facts (static call
    targets, constant-resolved loadclass names, SDK-guard rows), so
    they are valid for every app that bundles a byte-identical class
    under the same framework revision and tool configuration.
    """
    return hashlib.sha256(
        f"{CACHE_SCHEMA_VERSION}:{framework_fingerprint}:"
        f"{config_fingerprint}:class:{clazz_fingerprint}".encode()
    ).hexdigest()
