"""Versioned framework repository: lazy, cached class provider.

The repository is the single source of framework code for every
analysis.  Lazy lookups (:meth:`load_class`) back SAINTDroid's CLVM;
whole images (:meth:`load_image`) back ARM's image mining and
parent-side level warming.  Both draw on one class cache, so repeated
benchmark runs measure analysis behaviour, not regeneration cost —
the *accounting* of what was loaded happens in each tool's metrics,
not here.  Whole-framework loads — the closed-world ablation
(SAINTDroid-eager) and CID — only need the image's size, which
:meth:`image_class_count` and :meth:`image_instruction_count` read
from a per-level table counted from the spec in one pass on first
use, without materializing anything.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from ..apk.manifest import MAX_API_LEVEL, MIN_API_LEVEL
from ..ir.clazz import Clazz
from ..ir.types import ClassName, is_framework_class
from .catalog import default_spec
from .generator import ImageCount, image_counts, materialize_class
from .spec import FrameworkSpec

__all__ = ["FrameworkCacheStats", "FrameworkRepository"]


@dataclass
class FrameworkCacheStats:
    """Hit/miss accounting for the shared class cache.

    Framework IR is immutable per level, so a class materialized for
    one app is served from cache to every later :class:`ClassLoaderVM`
    over the same repository — a hit here is a parse the corpus run
    did *not* pay for again.  ``class_*`` count lazy lookups;
    ``image_*`` count :meth:`FrameworkRepository.load_image` calls, a
    hit being an image whose every class was already cached and a miss
    one that had to materialize at least one class."""

    class_hits: int = 0
    class_misses: int = 0
    image_hits: int = 0
    image_misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.class_hits + self.class_misses
        return self.class_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "class_hits": self.class_hits,
            "class_misses": self.class_misses,
            "image_hits": self.image_hits,
            "image_misses": self.image_misses,
            "hit_rate": self.hit_rate,
        }


class FrameworkRepository:
    """Serves framework classes for any API level in [2, 29]."""

    def __init__(self, spec: FrameworkSpec | None = None) -> None:
        self._spec = spec if spec is not None else default_spec()
        self._class_cache: dict[tuple[int, ClassName], Clazz | None] = {}
        self._image_counts: dict[int, ImageCount] | None = None
        self._dispatch_walks: dict[int, dict] = {}
        self.cache_stats = FrameworkCacheStats()

    def dispatch_walks(self, level: int) -> dict:
        """Shared per-level dispatch walks of framework callees: each
        ``(invoke kind, callee)`` maps to its resolution and the class
        names the walk resolved, in order.

        Framework-internal dispatch is a pure function of (spec, level)
        as long as the app does not shadow a framework class name, so
        explorers of such apps record each walk once per process:
        dedup-mode explorers reuse the resolution instead of walking,
        and framework apply plans replay the names to keep every app's
        load accounting exact.  Callers gate on the shadow check; the
        repository just owns the table's lifetime."""
        walks = self._dispatch_walks.get(level)
        if walks is None:
            walks = self._dispatch_walks[level] = {}
        return walks

    @property
    def spec(self) -> FrameworkSpec:
        return self._spec

    @property
    def levels(self) -> range:
        return range(MIN_API_LEVEL, MAX_API_LEVEL + 1)

    def _check_level(self, level: int) -> None:
        if level not in self.levels:
            raise ValueError(
                f"API level {level} outside modeled range "
                f"[{MIN_API_LEVEL}, {MAX_API_LEVEL}]"
            )

    # -- lazy access (CLVM path) --------------------------------------

    def load_class(self, name: ClassName, level: int) -> Clazz | None:
        """Materialize one class at ``level`` (None when absent)."""
        return self.load_class_cached(name, level)[0]

    def load_class_cached(
        self, name: ClassName, level: int
    ) -> tuple[Clazz | None, bool]:
        """Like :meth:`load_class`, plus whether the class was served
        warm from the shared cache (True = no parse happened)."""
        self._check_level(level)
        key = (level, name)
        try:
            clazz = self._class_cache[key]
            self.cache_stats.class_hits += 1
            return clazz, True
        except KeyError:
            self.cache_stats.class_misses += 1
        clazz = materialize_class(self._spec, name, level)
        self._class_cache[key] = clazz
        return clazz, False

    @property
    def cached_class_count(self) -> int:
        """How many ``(level, name)`` entries the class cache holds."""
        return len(self._class_cache)

    def export_class_cache(
        self,
    ) -> dict[tuple[int, ClassName], Clazz | None]:
        """A copy of the materialized-class cache, keyed by
        ``(level, name)``: every framework class this repository has
        materialized so far."""
        return dict(self._class_cache)

    def warm_level(self, level: int) -> int:
        """Pre-warm the class cache with the complete image at
        ``level`` so every later lazy lookup is a hit; returns how many
        classes were newly installed.  This is the parent-side prep for
        pool runs: warm once here, and every pool worker starts with
        the whole level warm instead of each re-materializing its own
        working set."""
        before = self.cached_class_count
        self.load_image(level)
        return self.cached_class_count - before

    def owns(self, name: ClassName) -> bool:
        """Whether ``name`` is in the framework namespace (regardless of
        whether any level defines it)."""
        return is_framework_class(name)

    def defines(self, name: ClassName) -> bool:
        """Whether the spec has a history for ``name`` at any level."""
        return name in self._spec

    # -- eager access (whole-framework tools) --------------------------

    def class_names(self, level: int) -> tuple[ClassName, ...]:
        self._check_level(level)
        return self._spec.class_names_at(level)

    def load_image(self, level: int) -> dict[ClassName, Clazz]:
        """The complete framework image at ``level``, assembled from
        the class cache: only classes not cached yet are materialized
        (and cached), so an image shares its class objects with lazy
        :meth:`load_class` lookups."""
        image: dict[ClassName, Clazz] = {}
        materialized = False
        # Framework IR holds no reference cycles, so a collection
        # triggered by the build's allocations could free nothing; it
        # would only re-walk the growing image.  Pause the collector
        # and hand the caller back its own setting.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for name in self.class_names(level):
                key = (level, name)
                clazz = self._class_cache.get(key)
                if clazz is None:
                    clazz = materialize_class(self._spec, name, level)
                    self._class_cache[key] = clazz
                    materialized = True
                image[name] = clazz
        finally:
            if enabled:
                gc.enable()
        if materialized:
            self.cache_stats.image_misses += 1
        else:
            self.cache_stats.image_hits += 1
        return image

    def _image_count(self, level: int) -> ImageCount:
        """Size of the image at ``level``, counted from the spec for
        every level at once (:func:`image_counts`) on first use, not by
        materializing any image."""
        self._check_level(level)
        if self._image_counts is None:
            self._image_counts = image_counts(self._spec)
        return self._image_counts[level]

    def image_class_count(self, level: int) -> int:
        return self._image_count(level).classes

    def image_instruction_count(self, level: int) -> int:
        """Total code size of the image — the memory-model cost a
        whole-framework tool pays up front."""
        return self._image_count(level).instructions
