"""Checkpoint journal: crash-safe JSONL of completed app results.

A corpus run over thousands of apps can be killed — by an operator, a
scheduler preemption, or the machine itself — with hours of finished
analysis in memory.  The journal makes those results durable: every
finalized :class:`~repro.eval.runner.AppResult` is appended, fsynced,
the moment it completes (one line per app, in completion order, tagged
with its corpus index).  A re-run pointed at the same journal
*resumes*: journaled indices are restored instead of re-analyzed, and
because the serialization round-trips every fingerprint-relevant field
(mismatches, metrics work/memory units, ground truth, error records),
a resumed run's :meth:`RunResults.fingerprint` is bit-identical to an
uninterrupted one's.

File format — line 1 is a header record::

    {"type": "header", "version": 1, "tools": ["SAINTDroid", ...]}

followed by one result record per completed app::

    {"type": "result", "index": 17, "app": "corpus-00017", ...}

The framing is :class:`~repro.eval.journal.AppendLog`'s: a header for
other tools or another version is refused, and a torn final line (the
run died mid-write) is dropped, so that app is re-analyzed; the
resumed run's first append cuts it and leaves a ``torn`` marker, which
this reader skips.  Any other line that does not decode raises
:class:`CheckpointError`.
"""

from __future__ import annotations

from pathlib import Path

from ..analysis.intervals import ApiInterval
from ..core.detector import AnalysisReport
from ..core.errors import AnalysisError
from ..core.metrics import AnalysisMetrics
from ..core.mismatch import Mismatch, MismatchKind
from ..ir.types import MethodRef
from ..workload.groundtruth import GroundTruth
from .journal import AppendLog, JournalError
from .runner import AppResult

__all__ = ["CheckpointError", "CheckpointJournal"]

#: The journal error type, under the name the batch API exports.
CheckpointError = JournalError


# ---------------------------------------------------------------------------
# result codec
# ---------------------------------------------------------------------------

def _ref_to_list(ref: MethodRef | None) -> list[str] | None:
    if ref is None:
        return None
    return [ref.class_name, ref.name, ref.descriptor]


def _ref_from_list(data: list[str] | None) -> MethodRef | None:
    if data is None:
        return None
    return MethodRef(*data)


def _mismatch_to_dict(mismatch: Mismatch) -> dict:
    return {
        "kind": mismatch.kind.value,
        "app": mismatch.app,
        "location": _ref_to_list(mismatch.location),
        "subject": _ref_to_list(mismatch.subject),
        "levels": [mismatch.missing_levels.lo, mismatch.missing_levels.hi],
        "permission": mismatch.permission,
        "message": mismatch.message,
    }


def _mismatch_from_dict(doc: dict) -> Mismatch:
    return Mismatch(
        kind=MismatchKind(doc["kind"]),
        app=doc["app"],
        location=_ref_from_list(doc.get("location")),
        subject=_ref_from_list(doc.get("subject")),
        missing_levels=ApiInterval.of(*doc["levels"]),
        permission=doc.get("permission"),
        message=doc.get("message", ""),
    )


def _metrics_to_dict(metrics: AnalysisMetrics | None) -> dict | None:
    if metrics is None:
        return None
    return {
        "failed": metrics.failed,
        "failureReason": metrics.failure_reason,
        "workUnits": metrics.work_units,
        "memoryUnits": metrics.memory_units,
        "wallTimeS": metrics.wall_time_s,
        "phaseSeconds": dict(metrics.phase_seconds),
        "passSeconds": dict(metrics.pass_seconds),
    }


def _metrics_from_dict(
    doc: dict | None, *, tool: str, app: str
) -> AnalysisMetrics | None:
    if doc is None:
        return None
    # Totals are restored through the ``extra_*`` channels over empty
    # LoadStats, so the ``work_units``/``memory_units`` properties —
    # and everything derived from them (modeled seconds/MB,
    # fingerprints) — reproduce the journaled values exactly.
    return AnalysisMetrics(
        tool=tool,
        app=app,
        wall_time_s=doc.get("wallTimeS", 0.0),
        extra_work_units=doc.get("workUnits", 0),
        extra_memory_units=doc.get("memoryUnits", 0),
        failed=bool(doc.get("failed", False)),
        failure_reason=doc.get("failureReason", ""),
        # Optional for journals written before phase/pass timing
        # existed.
        phase_seconds=dict(doc.get("phaseSeconds") or {}),
        pass_seconds=dict(doc.get("passSeconds") or {}),
    )


def result_to_dict(index: int, result: AppResult) -> dict:
    """Encode one finalized result as a journal record."""
    return {
        "type": "result",
        "index": index,
        "app": result.app,
        "kloc": result.kloc,
        "ingest": list(result.ingest_diagnostics),
        "error": result.error.to_dict() if result.error else None,
        "truth": result.truth.to_dict(),
        "reports": {
            tool: {
                "mismatches": [
                    _mismatch_to_dict(m) for m in report.mismatches
                ],
                "metrics": _metrics_to_dict(report.metrics),
            }
            for tool, report in result.reports.items()
        },
    }


def result_from_dict(doc: dict) -> tuple[int, AppResult]:
    """Decode a journal record back into ``(index, AppResult)``."""
    app = doc["app"]
    reports = {}
    for tool, entry in doc.get("reports", {}).items():
        reports[tool] = AnalysisReport(
            app=app,
            tool=tool,
            mismatches=[
                _mismatch_from_dict(m) for m in entry["mismatches"]
            ],
            metrics=_metrics_from_dict(
                entry.get("metrics"), tool=tool, app=app
            ),
        )
    error_doc = doc.get("error")
    return doc["index"], AppResult(
        app=app,
        truth=GroundTruth.from_dict(doc["truth"]),
        reports=reports,
        kloc=doc["kloc"],
        error=AnalysisError.from_dict(error_doc) if error_doc else None,
        ingest_diagnostics=tuple(doc.get("ingest", ())),
    )


# ---------------------------------------------------------------------------
# the journal
# ---------------------------------------------------------------------------

class CheckpointJournal:
    """Append-only JSONL journal keyed by corpus index.

    ``load()`` returns everything already journaled (empty for a fresh
    file), and ``records()`` checks the same lines without decoding
    them; ``append()`` durably records one more finalized result.
    The same path can be carried across any number of kill/resume
    cycles.
    """

    def __init__(self, path: str | Path, *, tools: tuple[str, ...]):
        self._log = AppendLog(path, tools=tools)

    def records(self) -> list[dict]:
        """The journaled result records, checked but not decoded."""
        records, bad, _torn = self._log.read()
        if bad:
            raise CheckpointError(
                f"{self._log.path}: corrupt journal line {bad[0]}"
            )
        return [doc for doc in records if doc.get("type") == "result"]

    def load(self) -> dict[int, AppResult]:
        """Read all journaled results, validating the header."""
        return dict(result_from_dict(doc) for doc in self.records())

    def append(self, index: int, result: AppResult) -> None:
        """Durably record one finalized result."""
        self._log.append(result_to_dict(index, result))

    def close(self) -> None:
        self._log.close()
