"""Machine-readable exports of experiment results.

The text renderers in :mod:`repro.eval.tables` target terminals; this
module writes the same data as CSV/JSON so results can be plotted or
post-processed with any external tool (the paper's figures are scatter
and bar charts — the series exported here regenerate them exactly).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .accuracy import KIND_GROUPS
from .runner import RunResults

__all__ = [
    "export_accuracy_csv",
    "export_timing_csv",
    "export_memory_csv",
    "export_run_json",
    "memory_csv",
    "timing_csv",
]


def export_accuracy_csv(run: RunResults, path: str | Path) -> None:
    """Per-tool, per-group confusion counts and derived metrics."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["tool", "group", "tp", "fp", "fn",
             "precision", "recall", "f1"]
        )
        for tool in run.tools:
            accuracy = run.accuracy(tool)
            for group in KIND_GROUPS:
                counts = accuracy.group(group)
                writer.writerow(
                    [
                        tool, group, counts.tp, counts.fp, counts.fn,
                        f"{counts.precision:.4f}",
                        f"{counts.recall:.4f}",
                        f"{counts.f1:.4f}",
                    ]
                )


def timing_csv(run: RunResults) -> str:
    """Per-app, per-tool modeled seconds (Figure 3 raw series)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["app", "kloc", "tool", "seconds", "failed"])
    for result in run.results:
        for tool, report in result.reports.items():
            if report.metrics is None:
                continue
            writer.writerow(
                [
                    result.app,
                    f"{result.kloc:.2f}",
                    tool,
                    ""
                    if report.metrics.failed
                    else f"{report.metrics.modeled_seconds:.3f}",
                    int(report.metrics.failed),
                ]
            )
    return buffer.getvalue()


def memory_csv(run: RunResults) -> str:
    """Per-app, per-tool modeled MB (Figure 4 raw series)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["app", "kloc", "tool", "memory_mb"])
    for result in run.results:
        for tool, report in result.reports.items():
            if report.metrics is None or report.metrics.failed:
                continue
            writer.writerow(
                [
                    result.app,
                    f"{result.kloc:.2f}",
                    tool,
                    f"{report.metrics.modeled_memory_mb:.1f}",
                ]
            )
    return buffer.getvalue()


def export_timing_csv(run: RunResults, path: str | Path) -> None:
    Path(path).write_bytes(timing_csv(run).encode())


def export_memory_csv(run: RunResults, path: str | Path) -> None:
    Path(path).write_bytes(memory_csv(run).encode())


def export_run_json(run: RunResults, path: str | Path) -> None:
    """Full structured dump: per-app findings and metrics per tool."""
    payload = []
    for result in run.results:
        entry = {
            "app": result.app,
            "kloc": result.kloc,
            "truthIssues": len(result.truth.issues),
            "error": result.error.to_dict() if result.error else None,
            "ingestDiagnostics": list(result.ingest_diagnostics),
            "tools": {},
        }
        for tool, report in result.reports.items():
            metrics = report.metrics
            entry["tools"][tool] = {
                "failed": bool(metrics and metrics.failed),
                "failureReason": metrics.failure_reason if metrics else "",
                "findings": report.by_kind(),
                "modeledSeconds": (
                    None
                    if metrics is None or metrics.failed
                    else round(metrics.modeled_seconds, 3)
                ),
                "modeledMemoryMb": (
                    None
                    if metrics is None or metrics.failed
                    else round(metrics.modeled_memory_mb, 1)
                ),
                "wallSeconds": (
                    None if metrics is None
                    else round(metrics.wall_time_s, 4)
                ),
                "phaseSeconds": (
                    None
                    if metrics is None
                    else {
                        phase: round(seconds, 4)
                        for phase, seconds in sorted(
                            metrics.phase_seconds.items()
                        )
                    }
                ),
                "passSeconds": (
                    None
                    if metrics is None
                    else {
                        name: round(seconds, 4)
                        for name, seconds in sorted(
                            metrics.pass_seconds.items()
                        )
                    }
                ),
            }
        payload.append(entry)
    Path(path).write_text(json.dumps(payload, indent=2))
