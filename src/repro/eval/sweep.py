"""Parameter sweeps over the substrate.

The scalability claim of the paper is *asymptotic*: SAINTDroid's cost
tracks the code an app actually reaches, while closed-world tools pay
for the entire framework, so the gap must widen as the platform grows.
The paper demonstrates this indirectly (memory/time on one framework);
this sweep makes it explicit by rebuilding the framework at several
sizes and measuring every tool on the *same* apps.

``sweep_framework_scale`` is deliberately self-contained: each sweep
point constructs its own spec/repository/database/tools, so points are
independent measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.cid import Cid
from ..core.arm import mine_spec
from ..core.detector import SaintDroid
from ..framework.catalog import build_spec
from ..framework.repository import FrameworkRepository
from ..workload.appgen import AppForge

__all__ = ["SweepPoint", "sweep_framework_scale"]


@dataclass(frozen=True)
class SweepPoint:
    """Measurements for one framework size."""

    bulk_classes: int
    framework_classes_at_26: int
    saintdroid_seconds: float
    saintdroid_memory_mb: float
    saintdroid_classes_loaded: int
    cid_seconds: float
    cid_memory_mb: float

    @property
    def memory_ratio(self) -> float:
        return self.cid_memory_mb / self.saintdroid_memory_mb

    @property
    def time_ratio(self) -> float:
        return self.cid_seconds / self.saintdroid_seconds


def _probe_app(apidb, seed: int):
    """A fixed-size probe app; its seeded content is identical in
    spirit across sweep points (API identities necessarily differ
    because the framework itself differs)."""
    forge = AppForge(
        "com.sweep.probe", "SweepProbe",
        min_sdk=19, target_sdk=26, seed=seed,
        apidb=apidb,
    )
    forge.add_direct_issue()
    forge.add_guarded_direct()
    forge.add_caller_guard_trap()
    forge.add_filler(kloc=4.0)
    return forge.build().apk


def _sweep_point(
    bulk: int,
    probes_per_point: int,
    seed: int,
    cache_dir: str | None = None,
    summaries: bool = False,
) -> SweepPoint:
    """One self-contained sweep measurement."""
    spec = build_spec(bulk_classes=bulk, seed=seed)
    framework = FrameworkRepository(spec)
    # Mined directly: each point's spec is new and never looked up
    # again, so the process-wide build memo would only pin its
    # database until exit.
    apidb = mine_spec(spec)
    saintdroid = SaintDroid(
        framework,
        apidb,
        framework_summaries=summaries,
        cache_dir=cache_dir,
    )
    cid = Cid(framework, apidb)

    saint_seconds = saint_memory = saint_loaded = 0.0
    cid_seconds = cid_memory = 0.0
    for probe_index in range(probes_per_point):
        apk = _probe_app(apidb, seed=seed + probe_index)
        saint_report = saintdroid.analyze(apk)
        cid_report = cid.analyze(apk)
        saint_seconds += saint_report.metrics.modeled_seconds
        saint_memory += saint_report.metrics.modeled_memory_mb
        saint_loaded += saint_report.metrics.stats.classes_loaded
        cid_seconds += cid_report.metrics.modeled_seconds
        cid_memory += cid_report.metrics.modeled_memory_mb

    return SweepPoint(
        bulk_classes=bulk,
        framework_classes_at_26=framework.image_class_count(26),
        saintdroid_seconds=saint_seconds / probes_per_point,
        saintdroid_memory_mb=saint_memory / probes_per_point,
        saintdroid_classes_loaded=int(saint_loaded / probes_per_point),
        cid_seconds=cid_seconds / probes_per_point,
        cid_memory_mb=cid_memory / probes_per_point,
    )


def sweep_framework_scale(
    bulk_sizes: tuple[int, ...] = (500, 1000, 2000, 4000),
    *,
    probes_per_point: int = 3,
    seed: int = 11,
    cache_dir: str | None = None,
    summaries: bool = False,
) -> list[SweepPoint]:
    """Measure SAINTDroid vs CID across framework sizes, one point
    after another in ``bulk_sizes`` order.  ``summaries`` runs
    SAINTDroid's probes with framework pre-summaries (same findings,
    summarized explore phase), and ``cache_dir`` persists each point's
    summary tables.
    """
    return [
        _sweep_point(bulk, probes_per_point, seed, cache_dir, summaries)
        for bulk in bulk_sizes
    ]
