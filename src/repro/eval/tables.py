"""Renderers for the paper's tables.

Each ``table*`` function returns structured data; each ``render_*``
turns it into the aligned text :mod:`repro.eval.results` writes.  Nothing
here fabricates numbers — every cell is computed from detector runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.kinds import kind_families
from ..core.mismatch import MismatchKind
from ..framework.permissions import DANGEROUS_PERMISSIONS
from ..workload.groundtruth import GroundTruth
from .accuracy import ConfusionCounts, score_app
from .runner import RunResults

__all__ = [
    "table1_taxonomy",
    "render_table1",
    "table2_accuracy",
    "render_table2",
    "table3_times",
    "render_table3",
    "table4_capabilities",
    "render_table4",
    "rq2_summary",
    "render_rq2",
    "failure_breakdown",
    "render_failures",
    "phase_breakdown",
    "render_phases",
]


# ---------------------------------------------------------------------------
# Table I — mismatch taxonomy
# ---------------------------------------------------------------------------

def table1_taxonomy() -> list[dict]:
    """The mismatch taxonomy as data (paper Table I)."""
    return [
        {
            "mismatch": "API invocation (App → API)",
            "abbr": MismatchKind.API_INVOCATION.value,
            "app_level": ">= alpha",
            "device_level": "< alpha",
            "results_in": "app invokes method introduced/updated in alpha",
        },
        {
            "mismatch": "API callback (API → App)",
            "abbr": MismatchKind.API_CALLBACK.value,
            "app_level": ">= alpha",
            "device_level": "< alpha",
            "results_in": "app overrides a callback introduced/updated "
                          "in alpha",
        },
        {
            "mismatch": "Permission-induced",
            "abbr": "PRM",
            "app_level": ">= 23 or <= 22",
            "device_level": ">= 23",
            "results_in": "app misuses runtime permission checking "
                          f"({len(DANGEROUS_PERMISSIONS)} dangerous "
                          f"permissions)",
        },
    ]


def render_table1() -> str:
    rows = table1_taxonomy()
    lines = ["Table I: API- and permission-induced compatibility issues"]
    header = f"{'Mismatch':<28}{'Abbr':<6}{'App level':<16}{'Device':<10}Results in"
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row['mismatch']:<28}{row['abbr']:<6}"
            f"{row['app_level']:<16}{row['device_level']:<10}"
            f"{row['results_in']}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table II — accuracy on the benchmark suites
# ---------------------------------------------------------------------------

@dataclass
class Table2:
    """Structured Table II: per-app per-tool counts plus totals."""

    tools: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)
    totals: dict[str, dict[str, ConfusionCounts]] = field(
        default_factory=dict
    )


def table2_accuracy(run: RunResults) -> Table2:
    tools = run.tools
    table = Table2(tools=tools)
    for result in run.results:
        row = {"app": result.app, "truth": {
            "API": len(result.truth.issues_of_kind("API")),
            "APC": len(result.truth.issues_of_kind("APC")),
        }}
        for tool in tools:
            report = result.reports.get(tool)
            if report is None:
                # The app's analysis crashed or timed out (AppResult
                # carries the error); render it like a tool failure.
                row[tool] = {
                    "failed": True,
                    "API": ConfusionCounts(),
                    "APC": ConfusionCounts(),
                }
                continue
            failed = report.metrics is not None and report.metrics.failed
            row[tool] = {
                "failed": failed,
                "API": score_app(report, result.truth, ("API",)),
                "APC": score_app(report, result.truth, ("APC",)),
            }
        table.rows.append(row)
    for tool in tools:
        accuracy = run.accuracy(tool)
        table.totals[tool] = dict(accuracy.by_group)
    return table


def render_table2(table: Table2) -> str:
    lines = [
        "Table II: detected compatibility issues "
        "(TP/FP per kind; '-' = no result)"
    ]
    header = f"{'App':<18}{'truth':<12}" + "".join(
        f"{tool:<24}" for tool in table.tools
    )
    lines.append(header)
    lines.append(
        f"{'':<18}{'API/APC':<12}"
        + "".join(f"{'API tp/fp  APC tp/fp':<24}" for _ in table.tools)
    )
    lines.append("-" * len(header))
    for row in table.rows:
        cells = []
        for tool in table.tools:
            cell = row[tool]
            if cell["failed"]:
                cells.append(f"{'-':<24}")
                continue
            api, apc = cell["API"], cell["APC"]
            cells.append(
                f"{api.tp}/{api.fp:<6}{apc.tp}/{apc.fp:<14}"
            )
        truth = row["truth"]
        lines.append(
            f"{row['app']:<18}{truth['API']}/{truth['APC']:<10}"
            + "".join(cells)
        )
    lines.append("-" * len(header))
    for group in ("API", "APC", "API+APC"):
        for metric in ("precision", "recall", "f1"):
            cells = []
            for tool in table.tools:
                counts = table.totals[tool][group]
                cells.append(f"{getattr(counts, metric):<24.2f}")
            lines.append(
                f"{group + ' ' + metric:<30}" + "".join(cells)
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table III — analysis times
# ---------------------------------------------------------------------------

def table3_times(
    run: RunResults,
    tools: tuple[str, ...] = ("SAINTDroid", "CID", "Lint"),
    apps: tuple[str, ...] | None = None,
) -> list[dict]:
    """Per-app modeled analysis seconds; ``None`` = failed/timeout."""
    rows = []
    for result in run.results:
        if apps is not None and result.app not in apps:
            continue
        row = {"app": result.app, "kloc": result.kloc}
        for tool in tools:
            report = result.reports.get(tool)
            if report is None or report.metrics is None:
                row[tool] = None
                continue
            row[tool] = (
                None
                if report.metrics.failed
                else report.metrics.modeled_seconds
            )
        rows.append(row)
    return rows


def render_table3(rows: list[dict], tools=("SAINTDroid", "CID", "Lint")) -> str:
    lines = ["Table III: analysis time in seconds ('-' = fails/timeout)"]
    header = f"{'App':<18}{'KLOC':>7}  " + "".join(
        f"{tool:>12}" for tool in tools
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        cells = "".join(
            f"{row[tool]:>12.1f}" if row[tool] is not None else f"{'-':>12}"
            for tool in tools
        )
        lines.append(f"{row['app']:<18}{row['kloc']:>7.1f}  {cells}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table IV — capability matrix
# ---------------------------------------------------------------------------

def table4_capabilities(tools) -> list[dict]:
    """Capability matrix from live tool objects (paper Table IV).

    The columns are the registered kind families, and each tool's row
    is its derived ``capabilities`` set — so a family added to the
    registry (e.g. SEM) grows the table without editing this module,
    and a tool's row can never disagree with the passes it runs.
    """
    rows = []
    for tool in tools:
        row: dict = {"tool": tool.name}
        for family in kind_families():
            row[family] = family in tool.capabilities
        rows.append(row)
    return rows


def render_table4(rows: list[dict]) -> str:
    lines = ["Table IV: detection capabilities"]
    families = kind_families()
    # Ablation rows ("SAINTDroid-eager") outgrow the paper's column.
    width = max([14] + [len(row["tool"]) + 2 for row in rows])
    header = f"{'Tool':<{width}}" + "".join(
        f"{family:<6}" for family in families
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        cells = "".join(
            f"{'yes' if row.get(family) else 'no':<6}"
            for family in families
        )
        lines.append(f"{row['tool']:<{width}}{cells}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Failure breakdown — fault-tolerance accounting for corpus runs
# ---------------------------------------------------------------------------

def failure_breakdown(run: RunResults) -> dict:
    """Per-kind failure accounting over one run.

    Returns totals plus one row per quarantined app (kind, phase,
    attempt count, message) — the "what did we lose and why" table a
    corpus run ends with.
    """
    rows = []
    for result in run.results:
        error = result.error
        if error is None:
            continue
        rows.append(
            {
                "app": result.app,
                "kind": error.kind.value,
                "phase": error.phase.value,
                "retryable": error.retryable,
                "attempts": error.attempts,
                "message": error.message,
            }
        )
    return {
        "total_apps": len(run.results),
        "failed_apps": len(rows),
        "by_kind": run.error_summary(),
        "rows": rows,
    }


def render_failures(breakdown: dict) -> str:
    total = breakdown["total_apps"]
    failed = breakdown["failed_apps"]
    lines = [
        f"Failures: {failed}/{total} apps quarantined"
        + (
            " ("
            + ", ".join(
                f"{kind}: {count}"
                for kind, count in breakdown["by_kind"].items()
            )
            + ")"
            if breakdown["by_kind"]
            else ""
        )
    ]
    if not breakdown["rows"]:
        return lines[0]
    header = (
        f"{'App':<18}{'Kind':<14}{'Phase':<7}{'Tries':>5}  Message"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in breakdown["rows"]:
        message = row["message"]
        if len(message) > 60:
            message = message[:57] + "..."
        lines.append(
            f"{row['app']:<18}{row['kind']:<14}{row['phase']:<7}"
            f"{row['attempts']:>5}  {message}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Phase breakdown — measured wall time per pipeline phase
# ---------------------------------------------------------------------------

#: Pipeline order for rendering (anything else sorts after these).
_PHASE_ORDER = ("load", "explore", "guards", "detect")


def phase_breakdown(run: RunResults) -> dict:
    """Measured wall seconds per pipeline phase over one run.

    Returns run-wide totals, per-tool totals, and the cache/resume
    accounting that explains how much of the measured work this run
    actually performed (cached and resumed apps contribute their
    *original* timings).
    """
    per_tool: dict[str, dict[str, float]] = {}
    per_pass: dict[str, dict[str, float]] = {}
    for result in run.results:
        for tool, report in result.reports.items():
            metrics = report.metrics
            if metrics is None:
                continue
            totals = per_tool.setdefault(tool, {})
            for phase, seconds in metrics.phase_seconds.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
            # Per-pass terms keep pipeline execution order (the order
            # pass managers recorded them in), not alphabetical.
            passes = per_pass.setdefault(tool, {})
            for name, seconds in metrics.pass_seconds.items():
                passes[name] = passes.get(name, 0.0) + seconds
    return {
        "totals": run.phase_totals(),
        "per_tool": {
            tool: dict(sorted(phases.items()))
            for tool, phases in sorted(per_tool.items())
        },
        "per_pass": {
            tool: dict(passes)
            for tool, passes in sorted(per_pass.items())
        },
        "apps": len(run.results),
        "cached_apps": len(run.cached_indices),
        "resumed_apps": len(run.resumed_indices),
    }


def _phase_sort_key(phase: str) -> tuple[int, str]:
    try:
        return (_PHASE_ORDER.index(phase), phase)
    except ValueError:
        return (len(_PHASE_ORDER), phase)


def render_phases(breakdown: dict) -> str:
    phases = sorted(breakdown["totals"], key=_phase_sort_key)
    analyzed = (
        breakdown["apps"]
        - breakdown["cached_apps"]
        - breakdown["resumed_apps"]
    )
    lines = [
        f"Phase timing: {breakdown['apps']} apps "
        f"({analyzed} analyzed, {breakdown['cached_apps']} cached, "
        f"{breakdown['resumed_apps']} resumed)"
    ]
    if not phases:
        return lines[0]
    header = f"{'Tool':<14}" + "".join(
        f"{phase:>10}" for phase in phases
    ) + f"{'total':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for tool, totals in breakdown["per_tool"].items():
        cells = "".join(
            f"{totals.get(phase, 0.0):>10.3f}" for phase in phases
        )
        lines.append(
            f"{tool:<14}{cells}{sum(totals.values()):>10.3f}"
        )
    totals = breakdown["totals"]
    cells = "".join(
        f"{totals.get(phase, 0.0):>10.3f}" for phase in phases
    )
    lines.append(
        f"{'all tools':<14}{cells}{sum(totals.values()):>10.3f}"
    )
    # Per-pass terms (pipeline execution order), for runs produced by
    # pass-manager detectors; absent for old journals.
    per_pass = breakdown.get("per_pass") or {}
    if any(passes for passes in per_pass.values()):
        lines.append("")
        lines.append("Per-pass terms:")
        for tool, passes in per_pass.items():
            if not passes:
                continue
            lines.append(f"  {tool}:")
            for name, seconds in passes.items():
                lines.append(f"    {name:<24}{seconds:>10.3f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# RQ2 — real-world summary
# ---------------------------------------------------------------------------

def rq2_summary(
    results: list[tuple],
    *,
    sample_size: int = 60,
) -> dict:
    """Population statistics over corpus results.

    ``results`` is a list of ``(report, truth, modern_target)`` tuples
    for SAINTDroid runs.  Returns totals, prevalence percentages, and
    sampled precision per kind (the paper samples 60 flagged apps).
    """
    total_apps = len(results)
    api_total = apc_total = 0
    api_apps = apc_apps = 0
    modern_apps = legacy_apps = 0
    request_apps = revocation_apps = 0
    sampled: list[tuple] = []

    for report, truth, modern in results:
        kinds = report.by_kind()
        api_count = kinds.get("API", 0)
        apc_count = kinds.get("APC", 0)
        api_total += api_count
        apc_total += apc_count
        api_apps += 1 if api_count else 0
        apc_apps += 1 if apc_count else 0
        if modern:
            modern_apps += 1
            if kinds.get("PRM-request", 0):
                request_apps += 1
        else:
            legacy_apps += 1
            if kinds.get("PRM-revocation", 0):
                revocation_apps += 1
        if api_count or apc_count or kinds.get("PRM-request") or (
            kinds.get("PRM-revocation")
        ):
            if len(sampled) < sample_size:
                sampled.append((report, truth))

    def _sampled_precision(kinds: tuple[str, ...]) -> float:
        counts = ConfusionCounts()
        for report, truth in sampled:
            counts.add(score_app(report, truth, kinds))
        return counts.precision if counts.reported else 1.0

    def _pct(numerator: int, denominator: int) -> float:
        return 100.0 * numerator / denominator if denominator else 0.0

    return {
        "total_apps": total_apps,
        "api_total": api_total,
        "api_apps_pct": _pct(api_apps, total_apps),
        "apc_total": apc_total,
        "apc_apps_pct": _pct(apc_apps, total_apps),
        "modern_apps": modern_apps,
        "legacy_apps": legacy_apps,
        "request_apps": request_apps,
        "request_pct": _pct(request_apps, modern_apps),
        "revocation_apps": revocation_apps,
        "revocation_pct": _pct(revocation_apps, legacy_apps),
        "permission_apps": request_apps + revocation_apps,
        "sampled_apps": len(sampled),
        "sampled_precision_api": _sampled_precision(("API",)),
        "sampled_precision_apc": _sampled_precision(("APC",)),
        "sampled_precision_prm": _sampled_precision(
            ("PRM-request", "PRM-revocation")
        ),
    }


def render_rq2(summary: dict) -> str:
    return "\n".join(
        [
            "RQ2: real-world applicability (SAINTDroid)",
            f"  apps analyzed:                {summary['total_apps']}",
            f"  API invocation mismatches:    {summary['api_total']} "
            f"({summary['api_apps_pct']:.2f}% of apps with >= 1)",
            f"  API callback mismatches:      {summary['apc_total']} "
            f"({summary['apc_apps_pct']:.2f}% of apps with >= 1)",
            f"  apps targeting >= 23:         {summary['modern_apps']} "
            f"({summary['request_apps']} with request mismatch, "
            f"{summary['request_pct']:.2f}%)",
            f"  apps targeting <= 22:         {summary['legacy_apps']} "
            f"({summary['revocation_apps']} with revocation mismatch, "
            f"{summary['revocation_pct']:.2f}%)",
            f"  apps with any PRM issue:      "
            f"{summary['permission_apps']}",
            f"  sampled precision (n={summary['sampled_apps']}): "
            f"API {summary['sampled_precision_api']:.0%}, "
            f"APC {summary['sampled_precision_apc']:.0%}, "
            f"PRM {summary['sampled_precision_prm']:.0%}",
        ]
    )
