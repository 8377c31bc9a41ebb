"""Pipeline configurations: tools as ordered tuples of passes.

A :class:`PipelineConfig` is the declarative description of one
detector — its pass sequence plus a handful of report-shaping knobs.
``SaintDroid`` and both ablations are built here; the baselines'
configurations live in :mod:`repro.baselines.passes` (their passes
import baseline scaffolding that in turn imports this package).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.kinds import family_of
from .passes import (
    ClassDedupPass,
    ClassStoreCommitPass,
    ClvmLoadPass,
    DetectApcPass,
    DetectApiPass,
    DetectPrmPass,
    DetectSemPass,
    EagerLoadPass,
    FrameworkSummariesPass,
    GuardPropagationPass,
    IcfgExplorePass,
    ManifestIngestPass,
    OverrideCollectionPass,
    Pass,
    PermissionAnnotationPass,
)

__all__ = [
    "PipelineConfig",
    "SAINTDROID_PHASES",
    "saintdroid_pipeline",
    "saintdroid_variants",
]

#: The paper's phase breakdown, seeded to 0.0 on every SAINTDroid
#: report so a lazy run still exports ``load: 0.0``.
SAINTDROID_PHASES = ("load", "explore", "guards", "detect")


@dataclass(frozen=True)
class PipelineConfig:
    """One tool expressed as a pass sequence.

    ``phase_keys`` are pre-seeded at 0.0 in ``phase_seconds`` so the
    report always carries the tool's full phase vocabulary.  With
    ``single_detect_phase`` the manager charges the whole wall time to
    a single ``detect`` phase at finalize (the baselines model
    monolithic tools with no internal phases).  ``modeled_budget_s``
    applies the baseline analysis-time budget: reports whose modeled
    cost exceeds it are marked failed with their findings dropped.
    """

    tool: str
    passes: tuple[Pass, ...]
    phase_keys: tuple[str, ...] = ()
    single_detect_phase: bool = False
    modeled_budget_s: float | None = None
    _providers: dict[str, str] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._validate()

    @property
    def pass_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    @property
    def capabilities(self) -> frozenset[str]:
        """Kind families this configuration detects — derived from the
        registered detector passes, never hand-written."""
        return frozenset(
            family_of(value) for p in self.passes for value in p.kinds
        )

    def provider_of(self, slot: str) -> str | None:
        """Name of the pass that provides ``slot``, if any."""
        return self._providers.get(slot)

    def _validate(self) -> None:
        """Check the dataflow: every require has an earlier provider."""
        provided: dict[str, str] = self._providers
        seen: set[str] = set()
        for p in self.passes:
            if p.name in seen:
                raise ValueError(
                    f"pipeline {self.tool!r} lists pass {p.name!r} twice"
                )
            seen.add(p.name)
            for slot in p.requires:
                if slot not in provided:
                    raise ValueError(
                        f"pipeline {self.tool!r}: pass {p.name!r} "
                        f"requires slot {slot!r} but no earlier pass "
                        f"provides it"
                    )
            for slot in p.provides:
                provided.setdefault(slot, p.name)


def saintdroid_pipeline(
    *,
    lazy_loading: bool = True,
    propagate_guards_into_anonymous: bool = False,
    framework_summaries: bool = False,
    dedup: bool = False,
    cache_dir: str | None = None,
) -> PipelineConfig:
    """SAINTDroid as a pass configuration.

    The ablation knobs of the evaluation are expressed structurally:
    eager loading inserts ``eager-load`` (the only pass charged to the
    ``load`` phase), the anonymous-class blind spot is a constructor
    argument of ``guard-propagation``, and ``framework_summaries``
    inserts the whole-framework pre-analysis pass so the CLVM stops at
    the framework boundary with a table lookup (same findings as lazy,
    enforced by the parity test).  ``dedup`` brackets the run with the
    corpus-wide class-artifact store passes — delta analysis at the
    class boundary (same findings as lazy, enforced by the parity
    suite).  ``cache_dir`` persists the table and the artifacts
    across processes.  Dedup mode
    implies the pre-summary pass: delta analysis re-answers the app's
    own classes from the artifact store, and the framework half of the
    walk is exactly what the summary table already answers — both
    shortcuts preserve findings, so they compose.
    """
    use_summaries = framework_summaries or dedup
    passes: list[Pass] = [
        ManifestIngestPass(),
    ]
    if dedup:
        passes.append(ClassDedupPass(store_dir=cache_dir))
    if use_summaries:
        passes.append(FrameworkSummariesPass(store_dir=cache_dir))
    passes += [
        ClvmLoadPass(use_summaries=use_summaries, dedup=dedup),
        IcfgExplorePass(),
        GuardPropagationPass(
            into_anonymous=propagate_guards_into_anonymous
        ),
        OverrideCollectionPass(),
        PermissionAnnotationPass(),
    ]
    if not lazy_loading:
        passes.append(EagerLoadPass())
    passes += [
        DetectApiPass(),
        DetectApcPass(),
        DetectPrmPass(),
        DetectSemPass(),
    ]
    if dedup:
        passes.append(ClassStoreCommitPass())
    return PipelineConfig(
        tool="SAINTDroid",
        passes=tuple(passes),
        phase_keys=SAINTDROID_PHASES,
    )


def saintdroid_variants() -> dict:
    """The SAINTDroid configurations by *catalog name* — the plain
    tool plus its two named ablations, each a zero-argument pipeline
    factory.

    This is the declared side of the capability cross-check: an
    agreement campaign derives each configuration's families from
    these pipelines' ``Pass.kinds`` (exactly what ``saintdroid
    passes`` prints) and fails when the observed behaviour disagrees.
    """
    return {
        "SAINTDroid": lambda: saintdroid_pipeline(),
        "SAINTDroid-eager": lambda: saintdroid_pipeline(
            lazy_loading=False
        ),
        "SAINTDroid-anon": lambda: saintdroid_pipeline(
            propagate_guards_into_anonymous=True
        ),
    }
