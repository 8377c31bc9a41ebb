"""Corpus-scale cross-detector agreement study (``saintdroid compare``).

Liu et al.'s replicability study showed that published incompatibility
detectors disagree wildly on the same apps.  This module measures that
disagreement instead of assuming it away: one campaign runs *every*
registered tool/ablation configuration (:data:`COMPARE_CONFIGS`) over
one seeded generated corpus, joins each configuration's findings
against the seeded ground truth, and computes

* per-configuration confusion matrices per mismatch kind —
  label-complete over the kind registry, so SEM and future kinds need
  zero new code here;
* pairwise agreement (Jaccard over reported finding keys; symmetric,
  diagonal exactly 1.0) and per-kind pairwise confusion
  (both / only-A / only-B / missed-by-both);
* per *scenario* kind recall and trap hit counts, attributed through
  the :class:`~repro.difftest.strategy.ScenarioTrace` channel of
  ``materialize`` — no builder semantics re-derived here;
* an observed capability table cross-checked against the
  ``Pass.kinds``-declared one (exactly what ``saintdroid passes``
  prints); any disagreement is a campaign failure;
* a blind-spot report: scenario kinds whose seeded issues *no*
  configuration found — emitted as a machine-readable JSON artifact
  that seeds the next round of ``workload/appgen.py`` scenarios (the
  scenario-diversity flywheel).

Campaigns are deterministic — the canonical report is byte-identical
across the serial scheduler and the process pool (``jobs > 1``) — and
checkpoint/resumable: each configuration journals to its own JSONL
file under ``checkpoint_dir``, so a killed 10k-app campaign resumes
mid-configuration.  ``--summaries``/``--dedup`` compose: cross-mode
runs over the same corpus are the ideal case for the class store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from ..core.arm import build_api_database
from ..core.kinds import family_of, kind_families, registered_kinds
from ..difftest.strategy import (
    ALL_KINDS,
    AppPlan,
    ScenarioTrace,
    materialize,
    plan_apps,
)
from ..framework.repository import FrameworkRepository
from ..workload.appgen import ForgedApp
from .accuracy import ConfusionCounts
from .runner import (
    ALL_TOOL_CONFIGS,
    RunResults,
    ToolSet,
    run_tools,
)
from .tables import render_table4

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from .faults import FaultPlan

__all__ = [
    "COMPARE_CONFIGS",
    "CompareConfig",
    "CompareError",
    "CompareResult",
    "AppJoin",
    "agreement_matrix",
    "blind_spots",
    "build_report",
    "canonical_json",
    "declared_capabilities",
    "missing_scenario_kinds",
    "ordered_kind_values",
    "pairwise_confusion",
    "per_kind_matrix",
    "plan_compare_corpus",
    "run_compare",
    "scenario_kind_coverage",
    "scenario_stats",
    "write_blind_spot_report",
]

#: The campaign's configuration roster — every registered tool plus
#: both SAINTDroid ablations, in canonical order.
COMPARE_CONFIGS: tuple[str, ...] = ALL_TOOL_CONFIGS


class CompareError(Exception):
    """A campaign invariant was violated (coverage gap, capability
    mismatch surfaced via ``check``)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompareConfig:
    """One agreement campaign, reproducible from data alone."""

    seed: int = 2026
    n_apps: int = 200
    configs: tuple[str, ...] = COMPARE_CONFIGS
    #: Worker processes per configuration run (1 = serial).
    jobs: int = 1
    timeout_s: float | None = None
    max_retries: int = 0
    retry_backoff_s: float = 0.0
    #: Directory for per-configuration JSONL checkpoint journals
    #: (``compare-<config>.jsonl``); a killed campaign pointed at the
    #: same directory resumes mid-configuration.
    checkpoint_dir: str | None = None
    cache_dir: str | None = None
    summaries: bool = False
    dedup: bool = False
    #: Chaos-testing seam: injected faults keyed by corpus index,
    #: applied to every configuration's run.
    fault_plan: "FaultPlan | None" = None


# ---------------------------------------------------------------------------
# corpus planning + ground-truth join
# ---------------------------------------------------------------------------


def plan_compare_corpus(
    seed: int,
    n_apps: int,
    apidb=None,
) -> tuple[list[AppPlan], list[ForgedApp], list[list[ScenarioTrace]]]:
    """Plan and materialize the campaign corpus with attribution.

    Reuses the difftest strategy layer verbatim: a coverage prefix
    guarantees every scenario kind appears once regardless of
    ``n_apps``, and each app's :class:`ScenarioTrace` list records
    which ground-truth keys each scenario seeded.
    """
    plans = plan_apps(seed, n_apps)
    apps: list[ForgedApp] = []
    traces: list[list[ScenarioTrace]] = []
    for plan in plans:
        trace: list[ScenarioTrace] = []
        apps.append(materialize(plan, apidb, trace=trace))
        traces.append(trace)
    return plans, apps, traces


@dataclass(frozen=True)
class AppJoin:
    """One app's findings joined across every configuration."""

    app: str
    truth_keys: frozenset
    #: Configuration name → reported finding keys (empty for a failed
    #: or crashed analysis — the tool genuinely found nothing).
    reported: dict[str, frozenset] = field(default_factory=dict)
    #: Configuration name → True when the analysis failed outright.
    failed: dict[str, bool] = field(default_factory=dict)


def join_runs(
    apps: list[ForgedApp],
    runs: dict[str, RunResults],
) -> list[AppJoin]:
    """Join per-configuration results by corpus position.

    Ground truth comes from the locally materialized apps (never from
    round-tripped result records), reported keys from each
    configuration's report for that position.
    """
    joins: list[AppJoin] = []
    for index, app in enumerate(apps):
        join = AppJoin(
            app=app.apk.name,
            truth_keys=frozenset(app.truth.issue_keys),
        )
        for name, run in runs.items():
            result = run.results[index]
            if result.app != join.app:
                raise CompareError(
                    f"configuration {name!r} results misaligned at "
                    f"index {index}: {result.app!r} != {join.app!r}"
                )
            report = result.reports.get(name)
            failed = (
                result.error is not None
                or report is None
                or (
                    report.metrics is not None
                    and report.metrics.failed
                )
            )
            join.failed[name] = failed
            join.reported[name] = (
                frozenset() if failed else frozenset(report.keys)
            )
        joins.append(join)
    return joins


# ---------------------------------------------------------------------------
# agreement math (pure functions — property-tested directly)
# ---------------------------------------------------------------------------


def ordered_kind_values() -> tuple[str, ...]:
    """Registered kind values in stable column order: family
    first-registration order, then value — immune to plugin
    unregister/re-register cycles."""
    families = kind_families()
    return tuple(
        sorted(
            (spec.value for spec in registered_kinds()),
            key=lambda value: (
                families.index(family_of(value)),
                value,
            ),
        )
    )


def _kind_of(key: tuple) -> str:
    return key[0]


def per_kind_matrix(
    joins: Iterable[AppJoin],
    configs: tuple[str, ...],
    kinds: tuple[str, ...] | None = None,
) -> dict[str, dict[str, ConfusionCounts]]:
    """Per-configuration confusion counts per kind, label-complete:
    every registered kind appears for every configuration, zero-filled
    when nothing was seeded or reported."""
    kinds = kinds or ordered_kind_values()
    matrix: dict[str, dict[str, ConfusionCounts]] = {
        name: {kind: ConfusionCounts() for kind in kinds}
        for name in configs
    }
    for join in joins:
        for name in configs:
            reported = join.reported.get(name, frozenset())
            for kind in kinds:
                truth = {
                    k for k in join.truth_keys if _kind_of(k) == kind
                }
                found = {k for k in reported if _kind_of(k) == kind}
                cell = matrix[name][kind]
                cell.tp += len(found & truth)
                cell.fp += len(found - truth)
                cell.fn += len(truth - found)
    return matrix


def agreement_matrix(
    joins: Iterable[AppJoin],
    configs: tuple[str, ...],
) -> dict[str, dict[str, float]]:
    """Pairwise Jaccard agreement over reported keys.

    Symmetric with diagonal exactly 1.0; two configurations that both
    report nothing agree perfectly (vacuous 1.0) — disagreement needs
    evidence, not absence.
    """
    keysets = {name: [] for name in configs}
    for join in joins:
        for name in configs:
            keysets[name].append(join.reported.get(name, frozenset()))
    matrix: dict[str, dict[str, float]] = {}
    for a in configs:
        matrix[a] = {}
        for b in configs:
            if a == b:
                matrix[a][b] = 1.0
                continue
            intersection = union = 0
            for left, right in zip(keysets[a], keysets[b]):
                intersection += len(left & right)
                union += len(left | right)
            matrix[a][b] = (
                1.0 if union == 0 else round(intersection / union, 6)
            )
    return matrix


def pairwise_confusion(
    joins: Iterable[AppJoin],
    configs: tuple[str, ...],
    kinds: tuple[str, ...] | None = None,
) -> dict[str, dict[str, dict[str, dict[str, int]]]]:
    """Per-pair per-kind confusion: findings both report, findings
    only one reports, and seeded issues *neither* reports (the pair's
    joint blind spot).  ``onlyA`` under ``[A][B]`` equals ``onlyB``
    under ``[B][A]`` by construction."""
    kinds = kinds or ordered_kind_values()
    matrix: dict[str, dict[str, dict[str, dict[str, int]]]] = {}
    for a in configs:
        matrix[a] = {}
        for b in configs:
            cells = {
                kind: {"both": 0, "onlyA": 0, "onlyB": 0, "neither": 0}
                for kind in kinds
            }
            for join in joins:
                left = join.reported.get(a, frozenset())
                right = join.reported.get(b, frozenset())
                for kind in kinds:
                    lk = {k for k in left if _kind_of(k) == kind}
                    rk = {k for k in right if _kind_of(k) == kind}
                    truth = {
                        k
                        for k in join.truth_keys
                        if _kind_of(k) == kind
                    }
                    cell = cells[kind]
                    cell["both"] += len(lk & rk)
                    cell["onlyA"] += len(lk - rk)
                    cell["onlyB"] += len(rk - lk)
                    cell["neither"] += len(truth - lk - rk)
            matrix[a][b] = cells
    return matrix


def scenario_stats(
    traces: list[list[ScenarioTrace]],
    joins: list[AppJoin],
    configs: tuple[str, ...],
) -> dict[str, dict]:
    """Per scenario kind: seeded issues/traps and what each
    configuration found of them (recall numerators) or fell for
    (trap hits)."""
    stats: dict[str, dict] = {
        kind: {
            "planned": 0,
            "skipped": 0,
            "issues": 0,
            "trapKeys": 0,
            "found": {name: 0 for name in configs},
            "trapHits": {name: 0 for name in configs},
        }
        for kind in ALL_KINDS
    }
    for trace, join in zip(traces, joins):
        for entry in trace:
            row = stats.setdefault(
                entry.kind,
                {
                    "planned": 0,
                    "skipped": 0,
                    "issues": 0,
                    "trapKeys": 0,
                    "found": {name: 0 for name in configs},
                    "trapHits": {name: 0 for name in configs},
                },
            )
            row["planned"] += 1
            if entry.skipped:
                row["skipped"] += 1
                continue
            row["issues"] += len(entry.issue_keys)
            row["trapKeys"] += len(entry.trap_keys)
            issue_keys = set(entry.issue_keys)
            trap_keys = set(entry.trap_keys)
            for name in configs:
                reported = join.reported.get(name, frozenset())
                row["found"][name] += len(reported & issue_keys)
                row["trapHits"][name] += len(reported & trap_keys)
    return stats


def blind_spots(stats: dict[str, dict]) -> list[dict]:
    """Scenario kinds whose seeded issues *every* configuration
    missed entirely — the flywheel's next-round seeds."""
    spots = []
    for kind in sorted(stats):
        row = stats[kind]
        if row["issues"] == 0:
            continue
        if all(count == 0 for count in row["found"].values()):
            spots.append(
                {
                    "scenario": kind,
                    "seededIssues": row["issues"],
                    "found": dict(sorted(row["found"].items())),
                }
            )
    return spots


# ---------------------------------------------------------------------------
# capability cross-check
# ---------------------------------------------------------------------------


def declared_capabilities(
    configs: tuple[str, ...] = COMPARE_CONFIGS,
) -> dict[str, frozenset[str]]:
    """Each configuration's ``Pass.kinds``-declared kind families,
    derived from the same pipeline configs ``saintdroid passes``
    prints — never hand-written."""
    from ..baselines.passes import (
        cid_pipeline,
        cider_pipeline,
        lint_pipeline,
    )
    from ..pipeline.configs import saintdroid_variants

    factories: dict[str, Callable] = dict(saintdroid_variants())
    factories["CID"] = cid_pipeline
    factories["CIDER"] = cider_pipeline
    factories["Lint"] = lint_pipeline
    out: dict[str, frozenset[str]] = {}
    for name in configs:
        if name not in factories:
            raise CompareError(
                f"unknown configuration {name!r}; registered: "
                + ", ".join(sorted(factories))
            )
        out[name] = factories[name]().capabilities
    return out


def capability_crosscheck(
    matrix: dict[str, dict[str, ConfusionCounts]],
    declared: dict[str, frozenset[str]],
) -> dict:
    """Derive the observed capability table from campaign results and
    diff it against the declared one.

    A family is *observed* when the configuration scored at least one
    true positive of any kind in it; it is *testable* when the corpus
    seeded at least one issue of it.  A declared-but-unobserved
    testable family, or an observed-but-undeclared one, is a mismatch
    (and a campaign failure).
    """
    families = kind_families()
    testable = {
        family: any(
            counts.actual > 0
            for per_kind in matrix.values()
            for kind, counts in per_kind.items()
            if family_of(kind) == family
        )
        for family in families
    }
    observed: dict[str, frozenset[str]] = {}
    for name, per_kind in matrix.items():
        observed[name] = frozenset(
            family_of(kind)
            for kind, counts in per_kind.items()
            if counts.tp > 0
        )
    mismatches = []
    for name in matrix:
        for family in families:
            is_declared = family in declared[name]
            is_observed = family in observed[name]
            if is_declared and testable[family] and not is_observed:
                mismatches.append(
                    {
                        "configuration": name,
                        "family": family,
                        "declared": True,
                        "observed": False,
                        "reason": (
                            "declared capability scored zero true "
                            "positives on seeded issues"
                        ),
                    }
                )
            elif is_observed and not is_declared:
                mismatches.append(
                    {
                        "configuration": name,
                        "family": family,
                        "declared": False,
                        "observed": True,
                        "reason": (
                            "true positives of an undeclared family "
                            "— a detect pass is missing its kinds "
                            "declaration"
                        ),
                    }
                )
    return {
        "families": list(families),
        "testable": {f: testable[f] for f in families},
        "declared": {
            name: sorted(values) for name, values in declared.items()
        },
        "observed": {
            name: sorted(values) for name, values in observed.items()
        },
        "mismatches": mismatches,
        "ok": not mismatches,
    }


# ---------------------------------------------------------------------------
# kind-coverage gate
# ---------------------------------------------------------------------------


def scenario_kind_coverage(
    apidb=None,
    *,
    seed: int = 2026,
) -> dict[str, tuple[str, ...]]:
    """Mismatch kind value → scenario kinds that seed it, measured by
    materializing the coverage prefix (one app per scenario kind)."""
    _, _, traces = plan_compare_corpus(seed, len(ALL_KINDS), apidb)
    coverage: dict[str, list[str]] = {}
    for trace in traces:
        for entry in trace:
            for key in entry.issue_keys:
                scenarios = coverage.setdefault(_kind_of(key), [])
                if entry.kind not in scenarios:
                    scenarios.append(entry.kind)
    return {kind: tuple(v) for kind, v in coverage.items()}


def missing_scenario_kinds(
    coverage: dict[str, tuple[str, ...]] | None = None,
    apidb=None,
) -> tuple[str, ...]:
    """Registered kinds no compare-corpus scenario can seed.

    Non-empty means the agreement study is structurally blind to a
    kind: register a difftest scenario builder for it
    (``MismatchKindSpec.scenario_builders``) or add a forge scenario
    in ``workload/appgen.py`` so campaigns exercise it.
    """
    if coverage is None:
        coverage = scenario_kind_coverage(apidb)
    return tuple(
        spec.value
        for spec in registered_kinds()
        if spec.value not in coverage
    )


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _counts_doc(counts: ConfusionCounts) -> dict:
    return {
        "tp": counts.tp,
        "fp": counts.fp,
        "fn": counts.fn,
        "precision": round(counts.precision, 6),
        "recall": round(counts.recall, 6),
        "f1": round(counts.f1, 6),
    }


def build_report(
    config: CompareConfig,
    joins: list[AppJoin],
    traces: list[list[ScenarioTrace]],
) -> dict:
    """The campaign's canonical document: everything deterministic,
    nothing wall-clock — byte-identical across schedulers and the
    serve path by construction."""
    kinds = ordered_kind_values()
    configs = config.configs
    matrix = per_kind_matrix(joins, configs, kinds)
    stats = scenario_stats(traces, joins, configs)
    declared = declared_capabilities(configs)
    capabilities = capability_crosscheck(matrix, declared)
    total_issues = sum(len(j.truth_keys) for j in joins)
    per_kind_doc = {
        name: {kind: _counts_doc(matrix[name][kind]) for kind in kinds}
        for name in configs
    }
    per_scenario_doc = {
        kind: {
            "planned": row["planned"],
            "skipped": row["skipped"],
            "issues": row["issues"],
            "trapKeys": row["trapKeys"],
            "found": dict(sorted(row["found"].items())),
            "trapHits": dict(sorted(row["trapHits"].items())),
        }
        for kind, row in sorted(stats.items())
    }
    return {
        "schema": "saintdroid-compare/1",
        "campaign": {
            "seed": config.seed,
            "apps": config.n_apps,
            "configurations": list(configs),
            "summaries": config.summaries,
            "dedup": config.dedup,
        },
        "corpus": {
            "apps": len(joins),
            "seededIssues": total_issues,
            "seededIssuesByKind": {
                kind: sum(
                    1
                    for j in joins
                    for k in j.truth_keys
                    if _kind_of(k) == kind
                )
                for kind in kinds
            },
            "failedApps": {
                name: sorted(
                    j.app for j in joins if j.failed.get(name)
                )
                for name in configs
            },
        },
        "kinds": list(kinds),
        "perKind": per_kind_doc,
        "perScenario": per_scenario_doc,
        "agreement": agreement_matrix(joins, configs),
        "pairwise": pairwise_confusion(joins, configs, kinds),
        "capabilities": capabilities,
        "blindSpots": blind_spots(stats),
    }


def canonical_json(document: dict) -> str:
    """The byte-stable serialization every determinism check
    compares."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def blind_spot_document(report: dict) -> dict:
    """The machine-readable flywheel artifact: what the generator must
    grow scenarios for next."""
    stats = report["perScenario"]
    universal_traps = [
        {
            "scenario": kind,
            "trapKeys": row["trapKeys"],
            "trapHits": row["trapHits"],
        }
        for kind, row in stats.items()
        if row["trapKeys"] > 0
        and all(hits > 0 for hits in row["trapHits"].values())
    ]
    return {
        "schema": "saintdroid-compare-blindspots/1",
        "campaign": report["campaign"],
        "blindSpots": report["blindSpots"],
        "universalTraps": universal_traps,
        "scenarioCatalog": list(ALL_KINDS),
        "uncoveredKinds": [
            kind
            for kind in report["kinds"]
            if report["corpus"]["seededIssuesByKind"][kind] == 0
        ],
    }


def write_blind_spot_report(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(blind_spot_document(report)))
    return path


# ---------------------------------------------------------------------------
# campaign execution
# ---------------------------------------------------------------------------


def _checkpoint_path(
    config: CompareConfig, name: str
) -> Path | None:
    if config.checkpoint_dir is None:
        return None
    directory = Path(config.checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"compare-{name}.jsonl"


def _run_config(
    name: str,
    apps: list[ForgedApp],
    config: CompareConfig,
    framework: FrameworkRepository,
    apidb,
    progress: Callable[[str], None] | None,
) -> RunResults:
    toolset = ToolSet.default(
        framework,
        apidb,
        include=(name,),
        summaries=config.summaries,
        dedup=config.dedup,
        cache_dir=config.cache_dir,
    )
    return run_tools(
        apps,
        toolset,
        jobs=config.jobs,
        timeout_s=config.timeout_s,
        max_retries=config.max_retries,
        retry_backoff_s=config.retry_backoff_s,
        fault_plan=config.fault_plan,
        checkpoint=_checkpoint_path(config, name),
        cache_dir=config.cache_dir,
        progress=progress,
    )


@dataclass
class CompareResult:
    """One finished campaign: the canonical report plus everything
    non-deterministic kept out of it."""

    config: CompareConfig
    report: dict
    runs: dict[str, RunResults]

    @property
    def ok(self) -> bool:
        return bool(self.report["capabilities"]["ok"])

    def report_json(self) -> str:
        return canonical_json(self.report)

    def render(self) -> str:
        return render_report(self.report)


def run_compare(
    config: CompareConfig,
    *,
    substrate: tuple | None = None,
    progress: Callable[[str], None] | None = None,
) -> CompareResult:
    """Run one agreement campaign end to end.

    ``substrate`` reuses an existing ``(framework, apidb)`` pair (the
    test suite's session fixtures); by default the framework substrate
    is built once and shared by every configuration, exactly as the
    paper's protocol prescribes.
    """
    if substrate is not None:
        framework, apidb = substrate
    else:
        framework = FrameworkRepository()
        apidb = build_api_database(framework)

    uncovered = missing_scenario_kinds(apidb=apidb)
    if uncovered:
        raise CompareError(
            "no scenario builder seeds mismatch kind(s) "
            + ", ".join(repr(kind) for kind in uncovered)
            + " — the agreement study would be structurally blind to "
            "them; register scenario_builders on the kind spec or add "
            "a forge scenario in workload/appgen.py"
        )

    _, apps, traces = plan_compare_corpus(
        config.seed, config.n_apps, apidb
    )
    runs: dict[str, RunResults] = {}
    for name in config.configs:
        if progress is not None:
            progress(f"=== configuration {name}")
        runs[name] = _run_config(
            name, apps, config, framework, apidb, progress
        )
    joins = join_runs(apps, runs)
    report = build_report(config, joins, traces)
    return CompareResult(config=config, report=report, runs=runs)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_report(report: dict) -> str:
    """Human-readable campaign summary (the canonical JSON is the
    machine artifact; this is what the CLI prints)."""
    configs = report["campaign"]["configurations"]
    kinds = report["kinds"]
    lines = [
        f"Agreement campaign: seed {report['campaign']['seed']}, "
        f"{report['corpus']['apps']} apps, "
        f"{len(configs)} configurations, "
        f"{report['corpus']['seededIssues']} seeded issues",
        "",
        "Per-kind accuracy (TP/FP/FN, precision, recall):",
    ]
    header = f"{'configuration':<18}" + "".join(
        f"{kind:>22}" for kind in kinds
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name in configs:
        cells = []
        for kind in kinds:
            cell = report["perKind"][name][kind]
            cells.append(
                f"{cell['tp']}/{cell['fp']}/{cell['fn']} "
                f"p{cell['precision']:.2f} r{cell['recall']:.2f}"
                .rjust(22)
            )
        lines.append(f"{name:<18}" + "".join(cells))

    lines.append("")
    lines.append("Pairwise agreement (Jaccard over reported keys):")
    short = {name: name.replace("SAINTDroid", "SD") for name in configs}
    header = f"{'':<18}" + "".join(
        f"{short[name]:>10}" for name in configs
    )
    lines.append(header)
    for a in configs:
        row = "".join(
            f"{report['agreement'][a][b]:>10.3f}" for b in configs
        )
        lines.append(f"{a:<18}{row}")

    lines.append("")
    capabilities = report["capabilities"]
    declared_rows = [
        {
            "tool": name,
            **{
                family: family in capabilities["declared"][name]
                for family in capabilities["families"]
            },
        }
        for name in configs
    ]
    lines.append(render_table4(declared_rows))
    lines.append("")
    lines.append("Observed capabilities (>=1 TP in family):")
    for name in configs:
        observed = ", ".join(capabilities["observed"][name]) or "(none)"
        lines.append(f"  {name:<18}{observed}")
    if capabilities["ok"]:
        lines.append("capability cross-check: OK (derived == declared)")
    else:
        lines.append("capability cross-check: MISMATCH")
        for mismatch in capabilities["mismatches"]:
            lines.append(
                f"  {mismatch['configuration']} / "
                f"{mismatch['family']}: {mismatch['reason']}"
            )

    lines.append("")
    spots = report["blindSpots"]
    if spots:
        lines.append(
            f"Blind spots ({len(spots)} scenario kind(s) no "
            f"configuration detects):"
        )
        for spot in spots:
            lines.append(
                f"  {spot['scenario']:<22}"
                f"{spot['seededIssues']} seeded issue(s), 0 found"
            )
    else:
        lines.append("Blind spots: none")
    return "\n".join(lines)
