"""Campaign driver: plan → analyze → oracle → shrink → mutate.

One campaign is one deterministic function of its seed: the same
``CampaignConfig`` always produces a byte-identical disagreement
report (``render_report``) as long as no wall-clock budget truncates
the run — budget truncation is recorded in the report so a consumer
can tell a complete campaign from a cut-off one.

The static phase rides the orchestration engine from the corpus runs
(:func:`repro.eval.runner.run_tools`): parallel workers, retry /
quarantine, checkpoint / resume, and the persistent cache all apply
to fuzz campaigns unchanged.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.arm import build_api_database
from ..eval.runner import RunResults, ToolSet, run_tools
from ..framework.repository import FrameworkRepository
from .mutation import MutationResult, run_mutation_pass
from .oracle import (
    Classification,
    DifferentialOracle,
    DISAGREEMENTS,
    OracleRecord,
)
from .shrink import (
    ShrinkResult,
    build_reproducer,
    shrink_plan,
    write_regression_file,
)
from .strategy import ALL_KINDS, AppPlan, materialize, plan_apps

__all__ = ["CampaignConfig", "CampaignResult", "run_campaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs, serializable into its report."""

    seed: int = 2026
    n_apps: int = 50
    budget_s: float | None = None
    shrink: bool = True
    coverage: bool = True
    tool: str = "SAINTDroid"
    mutation: bool = True
    #: Where shrunk repros are written as pytest files (None: nowhere).
    corpus_dir: str | None = None
    # -- orchestration passthrough (PRs 1–3) -------------------------
    jobs: int = 1
    timeout_s: float | None = None
    max_retries: int = 0
    retry_backoff_s: float = 0.0
    checkpoint: str | None = None
    cache_dir: str | None = None
    #: Run the tool with framework pre-summaries (same findings as
    #: lazy exploration; a campaign under --summaries exercises the
    #: summarized CLVM against the oracle).
    summaries: bool = False
    #: Run the tool with class-artifact delta analysis (a campaign
    #: under --dedup fuzzes the replay path against the oracle).
    dedup: bool = False


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    config: CampaignConfig
    plans: list[AppPlan] = field(default_factory=list)
    #: Classification counts per app label, in plan order.
    app_summaries: list[dict] = field(default_factory=list)
    #: Each entry: the disagreeing record, its plan, and (when
    #: shrinking ran) the minimal repro.
    disagreements: list[dict] = field(default_factory=list)
    shrink_results: list[ShrinkResult] = field(default_factory=list)
    mutation: MutationResult | None = None
    truncated: bool = False
    apps_examined: int = 0

    @property
    def ok(self) -> bool:
        """True when the campaign found no detector bug: no
        disagreements and no surviving mutant."""
        survivors = self.mutation.survivors if self.mutation else ()
        return not self.disagreements and not survivors

    def report_dict(self) -> dict:
        """The disagreement report.  Deterministic for a fixed seed:
        no timestamps, no wall-clock figures, sorted keys."""
        return {
            "campaign": {
                "seed": self.config.seed,
                "nApps": self.config.n_apps,
                "tool": self.config.tool,
                "coverage": self.config.coverage,
                "shrink": self.config.shrink,
                "scenarioKinds": list(ALL_KINDS),
            },
            "appsExamined": self.apps_examined,
            "truncated": self.truncated,
            "apps": self.app_summaries,
            "disagreements": self.disagreements,
            "mutation": (
                self.mutation.to_dict() if self.mutation else None
            ),
        }

    def render_report(self) -> str:
        return json.dumps(
            self.report_dict(), indent=2, sort_keys=True
        ) + "\n"


def _summarize(label: str, records: list[OracleRecord]) -> dict:
    counts: dict[str, int] = {}
    for record in records:
        counts[record.classification.value] = (
            counts.get(record.classification.value, 0) + 1
        )
    return {"app": label, "counts": counts}


def run_campaign(
    config: CampaignConfig,
    *,
    framework: FrameworkRepository | None = None,
    apidb=None,
) -> CampaignResult:
    """Run one full differential campaign."""
    framework = framework or FrameworkRepository()
    apidb = apidb or build_api_database(framework)
    result = CampaignResult(config=config)

    # Phase 1: plan + materialize.
    plans = plan_apps(config.seed, config.n_apps, coverage=config.coverage)
    result.plans = plans
    apps = [materialize(plan, apidb) for plan in plans]

    # Phase 2: static analysis through the orchestration engine.
    toolset = ToolSet.default(
        framework,
        apidb,
        include=(config.tool,),
        summaries=config.summaries,
        dedup=config.dedup,
        cache_dir=config.cache_dir,
    )
    run: RunResults = run_tools(
        apps,
        toolset,
        jobs=config.jobs,
        timeout_s=config.timeout_s,
        max_retries=config.max_retries,
        retry_backoff_s=config.retry_backoff_s,
        checkpoint=config.checkpoint,
        cache_dir=config.cache_dir,
    )

    # Phase 3: the oracle, under the wall-clock budget.
    oracle = DifferentialOracle(apidb)
    tool = toolset.tools[0]
    started = time.monotonic()
    disagreeing: list[tuple[AppPlan, OracleRecord]] = []
    for plan, forged, app_result in zip(plans, apps, run.results):
        if (
            config.budget_s is not None
            and time.monotonic() - started > config.budget_s
        ):
            result.truncated = True
            break
        if app_result.error is not None:
            records = [
                OracleRecord(
                    app=forged.apk.name,
                    classification=Classification.ANALYSIS_FAILURE,
                    kind=app_result.error.kind.value,
                    subject=app_result.error.phase.value,
                    detail=str(app_result.error),
                )
            ]
        else:
            report = app_result.reports[config.tool]
            records = oracle.examine(forged, report)
        result.apps_examined += 1
        result.app_summaries.append(_summarize(forged.apk.name, records))
        seen_signatures = set()
        for record in records:
            if record.classification not in DISAGREEMENTS:
                continue
            if record.signature in seen_signatures:
                continue
            seen_signatures.add(record.signature)
            disagreeing.append((plan, record))

    # Phase 4: shrink each disagreement to a minimal repro.
    for plan, record in disagreeing:
        entry: dict = {
            "record": record.to_dict(),
            "plan": plan.to_dict(),
        }
        if config.shrink:
            reproduces = build_reproducer(
                tool, oracle, apidb, record.signature
            )
            if reproduces(plan):
                shrunk, evaluations = shrink_plan(plan, reproduces)
                shrink_result = ShrinkResult(
                    plan=shrunk,
                    signature=record.signature,
                    evaluations=evaluations,
                )
                result.shrink_results.append(shrink_result)
                entry["shrunk"] = shrink_result.to_dict()
                if config.corpus_dir:
                    path = write_regression_file(
                        config.corpus_dir, shrunk, record.signature
                    )
                    entry["regressionFile"] = path.name
        result.disagreements.append(entry)

    # Phase 5: mutation-test the harness itself on the coverage apps.
    if config.mutation:
        coverage_plans = plan_apps(
            config.seed, len(ALL_KINDS), coverage=True
        )
        result.mutation = run_mutation_pass(
            coverage_plans, tool, apidb
        )

    return result


def write_report(result: CampaignResult, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(result.render_report())
    return path


def write_mutation_report(
    result: CampaignResult, path: str | Path
) -> Path | None:
    if result.mutation is None:
        return None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(result.mutation.to_dict(), indent=2, sort_keys=True)
        + "\n"
    )
    return path
