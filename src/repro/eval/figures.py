"""Series generators for the paper's figures.

* Figure 1 — the mismatch-region diagram: computed as the backward-
  and forward-incompatibility regions over (app target level, device
  level) pairs.
* Figure 3 — scatter of analysis time vs app size (KLOC) for real-
  world apps, plus per-tool timing summaries.
* Figure 4 — per-app peak analysis memory, SAINTDroid vs CID.

:mod:`repro.eval.results` renders these as text (an ASCII scatter for
Figure 3); the raw series are returned so users can plot them with any
tool.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apk.manifest import MAX_API_LEVEL, MIN_API_LEVEL
from .runner import RunResults

__all__ = [
    "figure1_regions",
    "figure3_series",
    "figure4_series",
    "TimingSummary",
    "ascii_scatter",
]


def figure1_regions(app_level: int) -> dict[int, str]:
    """Figure 1: classify each device level against an app's target.

    ``backward`` marks the region where the device predates APIs the
    app may use; ``forward`` where the device may have removed them;
    ``compatible`` the matching level.
    """
    regions: dict[int, str] = {}
    for device in range(MIN_API_LEVEL, MAX_API_LEVEL + 1):
        if device < app_level:
            regions[device] = "backward-mismatch-risk"
        elif device > app_level:
            regions[device] = "forward-mismatch-risk"
        else:
            regions[device] = "compatible"
    return regions


@dataclass
class TimingSummary:
    tool: str
    average: float
    minimum: float
    maximum: float
    completed: int
    failed: int


def _tool_seconds(run: RunResults, tool: str) -> list[tuple[float, float]]:
    """(kloc, modeled seconds) for completed analyses."""
    points = []
    for result in run.results:
        report = result.reports.get(tool)
        if report is None or report.metrics is None:
            continue
        if report.metrics.failed:
            continue
        points.append((result.kloc, report.metrics.modeled_seconds))
    return points


def figure3_series(
    run: RunResults,
    tools: tuple[str, ...] = ("SAINTDroid", "CID", "Lint"),
) -> dict:
    """Scatter points for SAINTDroid plus per-tool timing summaries."""
    summaries: list[TimingSummary] = []
    for tool in tools:
        points = _tool_seconds(run, tool)
        failed = sum(
            1
            for result in run.results
            if tool in result.reports
            and result.reports[tool].metrics is not None
            and result.reports[tool].metrics.failed
        )
        if points:
            seconds = [s for _, s in points]
            summaries.append(
                TimingSummary(
                    tool=tool,
                    average=sum(seconds) / len(seconds),
                    minimum=min(seconds),
                    maximum=max(seconds),
                    completed=len(points),
                    failed=failed,
                )
            )
        else:
            summaries.append(
                TimingSummary(tool, 0.0, 0.0, 0.0, 0, failed)
            )
    return {
        "scatter": _tool_seconds(run, tools[0]),
        "summaries": summaries,
    }


def figure4_series(
    run: RunResults,
    tools: tuple[str, ...] = ("SAINTDroid", "CID"),
) -> dict:
    """Per-app modeled memory (MB) for the compared tools."""
    series: dict[str, list[float]] = {tool: [] for tool in tools}
    for result in run.results:
        for tool in tools:
            report = result.reports.get(tool)
            if report is None or report.metrics is None:
                continue
            series[tool].append(report.metrics.modeled_memory_mb)
    summary = {}
    for tool, values in series.items():
        if values:
            summary[tool] = {
                "average_mb": sum(values) / len(values),
                "min_mb": min(values),
                "max_mb": max(values),
            }
        else:
            summary[tool] = {"average_mb": 0.0, "min_mb": 0.0, "max_mb": 0.0}
    return {"series": series, "summary": summary}


def ascii_scatter(
    points: list[tuple[float, float]],
    *,
    width: int = 68,
    height: int = 16,
    x_label: str = "KLOC",
    y_label: str = "seconds",
) -> str:
    """Render (x, y) points as a terminal scatter plot."""
    if not points:
        return "(no data)"
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_max = max(xs) or 1.0
    y_max = max(ys) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        column = min(width - 1, int(x / x_max * (width - 1)))
        row = min(height - 1, int(y / y_max * (height - 1)))
        grid[height - 1 - row][column] = "*"
    lines = [f"{y_label} (max {y_max:.1f})"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f" {x_label} (max {x_max:.1f})")
    return "\n".join(lines)
