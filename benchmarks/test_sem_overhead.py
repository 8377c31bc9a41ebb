"""E13 — SEM detector overhead on a SEM-free corpus.

``DetectSemPass`` runs inside every SAINTDroid pipeline, so apps with
no semantic-delta usage at all still pay its walk over the usage
table.  That cost must be negligible: this benchmark times the same
no-SEM corpus twice — the full pipeline, and the identical pipeline
with ``skip_passes=("detect-sem",)`` — interleaved, min-of-N
repetitions, and asserts the full pipeline stays within 5% of the
skipping one.  Numbers land in ``results/BENCH_sem.json``.

Environment knobs: ``REPRO_SEM_CORPUS`` (apps, default 12),
``REPRO_SEM_REPS`` (repetitions, default 6).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core import SaintDroid
from repro.eval.runner import ToolSet
from repro.workload.corpus import CorpusConfig, generate_corpus

from .conftest import RESULTS_DIR

CORPUS_SIZE = int(os.environ.get("REPRO_SEM_CORPUS", "12"))
REPS = int(os.environ.get("REPRO_SEM_REPS", "6"))

SEM_CORPUS = CorpusConfig(
    count=CORPUS_SIZE, kloc_median=3.0, kloc_max=12.0, seed=24680
)

#: DetectSemPass may cost at most this fraction of a run that skips it.
MAX_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def overhead() -> dict:
    toolset = ToolSet.default()
    detector = SaintDroid(toolset.framework, toolset.apidb)
    apps = [
        member.forged.apk
        for member in generate_corpus(SEM_CORPUS, toolset.apidb)
    ]

    def run(skip=()):
        return [
            detector.analyze(apk, skip_passes=skip) for apk in apps
        ]

    # Warm both paths (framework caches, database memoization).
    run()
    run(skip=("detect-sem",))

    full_times: list[float] = []
    skipped_times: list[float] = []
    full_reports = skipped_reports = None
    # Interleave so drift (thermal, scheduler) hits both arms alike.
    for _ in range(REPS):
        start = time.perf_counter()
        full_reports = run()
        full_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        skipped_reports = run(skip=("detect-sem",))
        skipped_times.append(time.perf_counter() - start)

    return {
        "full_reports": full_reports,
        "skipped_reports": skipped_reports,
        "full_s": min(full_times),
        "skipped_s": min(skipped_times),
        "full_times": full_times,
        "skipped_times": skipped_times,
    }


def test_corpus_is_sem_free_and_skip_changes_nothing(overhead):
    """The comparison is honest only if SEM has no work to do here:
    zero SEM findings with the pass on, identical findings with it
    off."""
    for full, skipped in zip(
        overhead["full_reports"], overhead["skipped_reports"]
    ):
        assert full.by_kind().get("SEM", 0) == 0
        assert full.keys == skipped.keys


def test_overhead_and_report(overhead):
    full_s = overhead["full_s"]
    skipped_s = overhead["skipped_s"]
    ratio = full_s / skipped_s

    payload = {
        "corpus_apps": CORPUS_SIZE,
        "repetitions": REPS,
        "full_min_s": round(full_s, 4),
        "skipped_min_s": round(skipped_s, 4),
        "full_times_s": [round(t, 4) for t in overhead["full_times"]],
        "skipped_times_s": [
            round(t, 4) for t in overhead["skipped_times"]
        ],
        "overhead_ratio": round(ratio, 4),
        "overhead_pct": round(100.0 * (ratio - 1.0), 2),
        "budget_pct": 100.0 * MAX_OVERHEAD,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sem.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print()
    print(json.dumps(payload, indent=2))

    assert ratio <= 1.0 + MAX_OVERHEAD, (
        f"DetectSemPass costs {100 * (ratio - 1):.1f}% on a SEM-free "
        f"corpus (budget {100 * MAX_OVERHEAD:.0f}%)"
    )
