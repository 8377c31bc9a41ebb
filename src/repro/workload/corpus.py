"""Synthetic real-world corpus (RQ2 substitute for F-Droid + AndroZoo).

The paper analyzes 3,571 real-world apps and reports population
statistics; we generate a stochastic population whose *rates* are
calibrated to those numbers, with per-app ground truth retained:

* 41.19% of apps harbor ≥1 (potential) API invocation mismatch, with
  68,268 total reports over 3,571 apps — flagged apps typically carry
  dozens of sites (an outdated bundled library is one bad class away
  from fifty findings);
* ≈15% of API reports are false alarms (sampled precision 85%),
  modeled by mixing anonymous-guard traps in proportion;
* 20.05% of apps carry API callback mismatches, ≈3 per flagged app;
* 1,815 apps target API ≥23 and 12.34% of them have a permission
  *request* mismatch; 1,756 target ≤22 and 68.68% of them are open to
  permission *revocation*;
* sizes follow a log-normal-ish distribution up to ~80 KDex-LOC, plus
  rare "library-heavy" outliers: small apps that drag in a huge
  framework surface (the top-left outlier in the paper's Figure 3).

Apps are produced lazily (generator) so arbitrarily large corpora can
stream through an analysis without holding every APK in memory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

from ..core.apidb import ApiDatabase
from ..core.arm import build_api_database
from .appgen import AppForge, ForgedApp

__all__ = ["CorpusConfig", "CorpusApp", "generate_corpus",
           "OverlapConfig", "generate_overlapping_corpus",
           "PAPER_CORPUS_SIZE"]

#: The paper's corpus size after exclusions (section IV-A).
PAPER_CORPUS_SIZE = 3571


@dataclass(frozen=True)
class CorpusConfig:
    """Calibration knobs; defaults reproduce the paper's RQ2 rates."""

    count: int = PAPER_CORPUS_SIZE
    #: Default seed chosen so the default 150-app *sample* also lands
    #: near the paper's population rates (any seed converges at scale).
    seed: int = 1234567
    #: Fraction of apps targeting API >= 23 (1,815 / 3,571).
    modern_target_fraction: float = 1815 / 3571
    #: P(app has >= 1 API invocation issue).  Slightly above the
    #: paper's observed 41.19% because a few percent of draws find no
    #: API fitting the app's SDK window and seed nothing.
    api_flagged_fraction: float = 0.435
    #: Mean seeded API sites per flagged app (68,268 / (0.4119*3,571)).
    api_sites_mean: float = 46.4
    #: Anonymous-trap sites per true site (≈15% FP share in reports).
    api_trap_ratio: float = 0.18
    #: P(app has >= 1 callback issue), compensated as above
    #: (paper observed: 20.05%).
    apc_flagged_fraction: float = 0.23
    #: Mean callback issues per flagged app (2,115 / (0.2005*3,571)).
    apc_sites_mean: float = 2.95
    #: P(permission request mismatch | target >= 23).
    prm_request_fraction: float = 0.1234
    #: P(permission revocation mismatch | target <= 22).
    prm_revocation_fraction: float = 0.6868
    #: P(protocol implemented | modern target, no request mismatch).
    protocol_adoption: float = 0.45
    #: P(an app is a library-heavy outlier).
    outlier_fraction: float = 0.004
    #: Median / sigma of the log-normal size distribution (KLOC).
    kloc_median: float = 10.0
    kloc_sigma: float = 0.85
    kloc_max: float = 80.0


@dataclass
class CorpusApp:
    """One corpus member plus its sampling metadata."""

    forged: ForgedApp
    index: int
    modern_target: bool
    outlier: bool

    @property
    def apk(self):
        return self.forged.apk

    @property
    def truth(self):
        return self.forged.truth


def _poisson_like(rng: random.Random, mean: float) -> int:
    """Geometric-ish positive count with the requested mean (>=1)."""
    if mean <= 1.0:
        return 1
    # Exponential rounding keeps the tail long, like real libraries.
    value = int(rng.expovariate(1.0 / (mean - 1.0))) + 1
    return max(1, value)


def generate_corpus(
    config: CorpusConfig | None = None,
    apidb: ApiDatabase | None = None,
) -> Iterator[CorpusApp]:
    """Yield ``config.count`` calibrated apps, deterministically."""
    config = config or CorpusConfig()
    apidb = apidb or build_api_database()
    rng = random.Random(config.seed)

    for index in range(config.count):
        modern = rng.random() < config.modern_target_fraction
        if modern:
            target = rng.randint(23, 29)
        else:
            target = rng.randint(15, 22)
        min_sdk = max(5, target - rng.randint(3, 14))

        outlier = rng.random() < config.outlier_fraction
        kloc = min(
            config.kloc_max,
            config.kloc_median
            * math.exp(rng.gauss(0.0, config.kloc_sigma)),
        )
        if outlier:
            kloc = min(kloc, 4.0)  # tiny app, huge library surface

        forge = AppForge(
            f"app.generated.a{index}",
            f"corpus-{index:05d}",
            min_sdk=min_sdk,
            target_sdk=target,
            seed=config.seed * 1_000_003 + index,
            apidb=apidb,
        )
        if outlier:
            # A game-engine style app: little own code, a very wide
            # framework vocabulary (drags many classes into analysis).
            forge._safe_pool = [
                forge.picker.safe_api(forge._rng) for _ in range(400)
            ]

        # -- API invocation issues -------------------------------------
        if rng.random() < config.api_flagged_fraction:
            sites = _poisson_like(rng, config.api_sites_mean)
            for _ in range(sites):
                roll = rng.random()
                try:
                    if roll < 0.42:
                        forge.add_direct_issue()
                    elif roll < 0.78:
                        forge.add_library_issue()
                    elif roll < 0.94:
                        forge.add_inherited_issue()
                    else:
                        forge.add_forward_removed_issue()
                except LookupError:
                    # No API matches this app's narrow SDK window for
                    # the drawn mechanism; skip the site.
                    continue
            # Late-bound and external code is an app-level property —
            # only some apps ship plugins — not a per-site lottery
            # (it also crashes CID's loader, which should stay rare).
            if rng.random() < 0.08:
                for _ in range(rng.randint(1, 2)):
                    try:
                        forge.add_secondary_dex_issue()
                    except LookupError:
                        break
            if rng.random() < 0.05:
                try:
                    forge.add_external_dynamic_issue()
                except LookupError:
                    pass
            traps = int(round(sites * config.api_trap_ratio))
            for _ in range(traps):
                try:
                    forge.add_anonymous_guard_trap()
                except LookupError:
                    continue
        # Benign guard patterns appear everywhere, flagged or not.
        for _ in range(rng.randint(0, 2)):
            try:
                forge.add_guarded_direct()
            except LookupError:
                break
        if rng.random() < 0.25:
            try:
                forge.add_helper_guard_trap()
            except LookupError:
                pass

        # -- callback issues ---------------------------------------------
        if rng.random() < config.apc_flagged_fraction:
            for _ in range(_poisson_like(rng, config.apc_sites_mean)):
                roll = rng.random()
                try:
                    forge.add_callback_issue(
                        modeled=roll < 0.25,
                        anonymous=roll > 0.95,
                    )
                except LookupError:
                    try:
                        forge.add_callback_issue(modeled=False)
                    except LookupError:
                        continue

        # -- permission issues ----------------------------------------------
        if modern:
            if rng.random() < config.prm_request_fraction:
                deep = rng.random() < 0.2
                forge.add_permission_request_issue(deep=deep)
            elif rng.random() < config.protocol_adoption:
                forge.implement_permission_protocol()
        else:
            if rng.random() < config.prm_revocation_fraction:
                deep = rng.random() < 0.2
                forge.add_permission_revocation_issue(deep=deep)

        forge.add_filler(kloc=kloc)
        yield CorpusApp(
            forged=forge.build(),
            index=index,
            modern_target=modern,
            outlier=outlier,
        )


# -- overlapping corpora (class-level dedup workloads) -------------------
#
# Real corpora overwhelmingly share code: common libraries and SDK
# scaffolding dominate each APK, so two apps usually differ by a thin
# app-specific layer over an identical bundled-library bulk.  The
# calibrated corpus above deliberately makes every app unique (its
# filler lives under the app's own package); this generator instead
# models the library-dominated shape so the ``--dedup`` class-artifact
# store has something real to deduplicate: one shared library embedded
# in every member plus a small per-app unique layer.  Crucially the
# library is *re-forged per member* from the same seed — byte-identical
# content, hence identical class digests, but distinct
# :class:`~repro.ir.clazz.Clazz` objects per app, exactly as parsing
# the same bundled dex out of N different APKs would produce.  Sharing
# the objects instead would let object-keyed memos inside a single
# process smuggle work across apps and flatter the non-dedup baseline.


@dataclass(frozen=True)
class OverlapConfig:
    """Shape knobs for a library-dominated corpus."""

    count: int = 8
    seed: int = 424243
    #: Shared-library size (thousand instructions) — the deduplicated
    #: bulk every member embeds verbatim.
    library_kloc: float = 12.0
    #: Per-app unique code size (thousand instructions).
    unique_kloc: float = 2.0
    #: Straight-line instructions per filler method — realistic dex is
    #: call-sparse, and the ratio matters here: delta analysis replays
    #: recorded call effects without rescanning method bodies, so the
    #: interior instruction count is exactly the work a warm hit skips.
    filler_interior: int = 24
    #: Version-guarded library scenarios, so the store's guard-row
    #: cache is exercised, not just explore-effect replay.
    library_guards: int = 3
    #: Per-app seeded API issues (unique-layer findings).
    app_issues: int = 2
    #: One SDK window for every member: identical entry intervals keep
    #: guard-row contexts shareable across the corpus.
    min_sdk: int = 16
    target_sdk: int = 26


def _build_shared_library(
    config: OverlapConfig, apidb: ApiDatabase
) -> tuple:
    """The bundled library: re-forged per member from a fixed seed, so
    every copy is content-identical but object-distinct."""
    forge = AppForge(
        "lib.shared",
        "shared-library",
        min_sdk=config.min_sdk,
        target_sdk=config.target_sdk,
        seed=config.seed,
        apidb=apidb,
    )
    for _ in range(config.library_guards):
        try:
            forge.add_guarded_direct()
        except LookupError:  # pragma: no cover — exhausted window
            break
        try:
            forge.add_helper_guard_trap()
        except LookupError:  # pragma: no cover
            pass
    forge.add_filler(
        kloc=config.library_kloc, interior=config.filler_interior
    )
    return tuple(forge._classes)


def generate_overlapping_corpus(
    config: OverlapConfig | None = None,
    apidb: ApiDatabase | None = None,
) -> Iterator[CorpusApp]:
    """Yield ``config.count`` apps sharing one bundled library.

    Every member embeds a content-identical copy of the library (same
    names, same bytecode, hence the same class digests) alongside its
    own manifest and unique code layer; corpus-wide, the unique-class
    ratio is roughly ``unique / (unique + library)`` per app after the
    first.  Copies are distinct objects per member — the realistic
    shape: each APK parses its bundled dex independently."""
    config = config or OverlapConfig()
    apidb = apidb or build_api_database()

    for index in range(config.count):
        library = _build_shared_library(config, apidb)
        forge = AppForge(
            f"app.overlap.a{index}",
            f"overlap-{index:03d}",
            min_sdk=config.min_sdk,
            target_sdk=config.target_sdk,
            seed=config.seed * 7_368_787 + index,
            apidb=apidb,
        )
        for _ in range(config.app_issues):
            try:
                forge.add_direct_issue()
            except LookupError:  # pragma: no cover — narrow window
                break
        forge.add_filler(
            kloc=config.unique_kloc, interior=config.filler_interior
        )
        # Embedding in the primary dex is enough to analyze the
        # library: every primary-dex method is an exploration root
        # (see :func:`repro.core.aum.entry_points`).
        forge._classes.extend(library)
        yield CorpusApp(
            forged=forge.build(),
            index=index,
            modern_target=config.target_sdk >= 23,
            outlier=False,
        )
