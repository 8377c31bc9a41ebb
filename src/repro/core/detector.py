"""SAINTDroid facade: AUM + ARM + AMD behind one ``analyze`` call.

This is the class downstream users instantiate::

    from repro import SaintDroid
    detector = SaintDroid()
    report = detector.analyze(apk)
    for mismatch in report.mismatches:
        print(mismatch.describe())

Since the pipeline refactor the facade is a thin binding of the
SAINTDroid pass configuration (:func:`repro.pipeline.saintdroid_pipeline`)
to the shared :class:`~repro.pipeline.manager.PipelineDetector`
machinery; the two ablation knobs the evaluation section studies —
eager (whole-world) loading instead of the CLVM, and guard propagation
into anonymous inner classes — select different pass configurations
rather than different code paths.
"""

from __future__ import annotations

from ..framework.repository import FrameworkRepository
from ..pipeline.configs import saintdroid_pipeline
from ..pipeline.manager import PipelineDetector
from .analysis_report import AnalysisReport
from .apidb import ApiDatabase

__all__ = ["AnalysisReport", "SaintDroid"]


class SaintDroid(PipelineDetector):
    """The full detector (paper Figure 2).

    Satisfies the same duck-typed interface as the baselines in
    :mod:`repro.baselines` (``analyze``, ``name``, ``capabilities``,
    ``requires_source``) so evaluation code treats all tools uniformly.
    """

    name = "SAINTDroid"
    requires_source = False

    def __init__(
        self,
        framework: FrameworkRepository | None = None,
        apidb: ApiDatabase | None = None,
        *,
        lazy_loading: bool = True,
        propagate_guards_into_anonymous: bool = False,
        framework_summaries: bool = False,
        dedup: bool = False,
        cache_dir: str | None = None,
    ) -> None:
        """``lazy_loading=False`` switches the AUM to closed-world
        loading (the eager ablation: same findings, whole-framework
        cost).  ``propagate_guards_into_anonymous=True`` removes the
        documented anonymous-class blind spot.
        ``framework_summaries=True`` bounds the CLVM at the framework
        boundary with whole-framework pre-summaries (same findings as
        lazy).  ``dedup=True`` answers per-class analysis from the
        corpus-wide content-addressed artifact store (same findings as
        lazy).  ``cache_dir`` persists the summary table and the
        artifacts across processes.
        """
        super().__init__(
            saintdroid_pipeline(
                lazy_loading=lazy_loading,
                propagate_guards_into_anonymous=(
                    propagate_guards_into_anonymous
                ),
                framework_summaries=framework_summaries,
                dedup=dedup,
                cache_dir=cache_dir,
            ),
            framework,
            apidb,
        )
