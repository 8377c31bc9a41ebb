"""E9 — corpus-wide class deduplication: lazy vs delta analysis.

Real corpora share code: the same library classes ship inside most
apps, and SAINTDroid's per-app analyses re-derive identical facts for
every copy.  ``--dedup`` keys per-class artifacts (explore effects,
version-helper summaries, guard rows) by canonical bytecode digest in
a corpus-wide content-addressed store, so per-app analysis becomes
delta analysis: only classes never seen before are analyzed, the rest
replay recorded effects without rescanning method bodies.

This benchmark runs SAINTDroid three ways over one library-dominated
corpus (each member embeds a content-identical copy of a shared
library next to its own unique layer) and reports:

* the findings are identical across all three arms (the parity
  guarantee — also enforced by ``tests/eval/test_dedup_parity.py``
  and the CI ``dedup-parity`` job);
* the cold dedup pass (empty store: every unique class digested,
  analyzed, and persisted) — the one-time cost the corpus amortizes;
* the warm pass (store populated: hit rate 1.0) is at least 3x faster
  than the non-dedup run, the acceptance bar for the delta-analysis
  machinery.

Wall times use the min of ``REPRO_DEDUP_REPEATS`` runs per timed arm
to damp scheduler noise; every run analyzes a freshly generated,
object-distinct corpus (same digests, new objects — the shape real
APK parsing produces), so per-object memos never carry between runs.
Numbers land in ``results/BENCH_dedup.json``.

Environment knobs: ``REPRO_DEDUP_CORPUS`` (apps, default 6),
``REPRO_DEDUP_REPEATS`` (timed repeats per arm, default 3).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cache.classes import registered_stores, reset_class_stores
from repro.core.arm import build_api_database
from repro.eval.runner import ToolSet, run_tools
from repro.framework.repository import FrameworkRepository
from repro.workload.corpus import OverlapConfig, generate_overlapping_corpus

from .conftest import RESULTS_DIR

CORPUS_SIZE = int(os.environ.get("REPRO_DEDUP_CORPUS", "6"))
REPEATS = int(os.environ.get("REPRO_DEDUP_REPEATS", "3"))

CONFIG = OverlapConfig(count=CORPUS_SIZE)

#: The acceptance bar: a warm store must make the corpus run at least
#: this many times faster than the non-dedup baseline.
WARM_SPEEDUP_FLOOR = 3.0


def _store_stats() -> dict:
    totals: dict[str, float] = {}
    for store in registered_stores():
        for key, value in store.stats.as_dict().items():
            if key.endswith("_rate"):
                totals[key] = value
            else:
                totals[key] = totals.get(key, 0) + value
    return totals


@pytest.fixture(scope="module")
def dedup_bench(tmp_path_factory) -> dict:
    framework = FrameworkRepository()
    apidb = build_api_database(framework)

    def corpus():
        return [
            m.forged for m in generate_overlapping_corpus(CONFIG, apidb)
        ]

    def run_arm(*, dedup: bool, cache_dir: str | None = None):
        reset_class_stores()
        tools = ToolSet.default(
            framework,
            apidb,
            include=("SAINTDroid",),
            dedup=dedup,
            cache_dir=cache_dir,
        )
        apps = corpus()
        start = time.perf_counter()
        results = run_tools(apps, tools)
        wall = time.perf_counter() - start
        stats = _store_stats()
        for store in registered_stores():
            store.flush()
        return results, wall, stats

    # Untimed warm-up: later arms would otherwise inherit a warmer
    # shared framework substrate (dispatch memos, hierarchy shadows)
    # than the first, biasing whichever arm runs last.
    run_tools(corpus()[:2], ToolSet.default(
        framework, apidb, include=("SAINTDroid",)
    ))

    lazy_runs = [run_arm(dedup=False) for _ in range(REPEATS)]
    lazy_results = lazy_runs[0][0]
    lazy_wall = min(wall for _, wall, _ in lazy_runs)

    store_dir = str(tmp_path_factory.mktemp("dedup-store"))
    cold_results, cold_wall, cold_stats = run_arm(
        dedup=True, cache_dir=store_dir
    )

    warm_runs = [
        run_arm(dedup=True, cache_dir=store_dir) for _ in range(REPEATS)
    ]
    warm_results = warm_runs[0][0]
    warm_wall = min(wall for _, wall, _ in warm_runs)
    warm_stats = warm_runs[0][2]

    return {
        "lazy": lazy_results,
        "cold": cold_results,
        "warm": warm_results,
        "lazy_wall": lazy_wall,
        "cold_wall": cold_wall,
        "warm_wall": warm_wall,
        "cold_stats": cold_stats,
        "warm_stats": warm_stats,
    }


def test_findings_parity(dedup_bench):
    lazy = dedup_bench["lazy"].findings_fingerprint()
    assert dedup_bench["cold"].findings_fingerprint() == lazy
    assert dedup_bench["warm"].findings_fingerprint() == lazy


def test_corpus_overlap_shape(dedup_bench):
    """The corpus delivers the library-dominated shape the benchmark
    claims: at least 60% of class instances repeat corpus-wide, and a
    populated store answers every class on the warm pass."""
    cold = dedup_bench["cold_stats"]
    assert cold["hit_rate"] >= 0.6
    warm = dedup_bench["warm_stats"]
    assert warm["misses"] == 0
    assert warm["hit_rate"] == 1.0
    assert warm["guard_hit_rate"] == 1.0
    # A clean warm pass stores nothing new.
    assert warm["stores"] == 0


def test_warm_speedup(dedup_bench):
    lazy, warm = dedup_bench["lazy_wall"], dedup_bench["warm_wall"]
    assert warm < lazy
    assert lazy / warm >= WARM_SPEEDUP_FLOOR, (
        f"warm dedup {warm:.3f}s vs lazy {lazy:.3f}s — "
        f"{lazy / warm:.2f}x, below the {WARM_SPEEDUP_FLOOR}x bar"
    )


def test_report(dedup_bench):
    cold = dedup_bench["cold_stats"]
    lookups = cold["hits"] + cold["misses"]
    payload = {
        "corpus_apps": CORPUS_SIZE,
        "repeats": REPEATS,
        "unique_class_ratio": round(cold["misses"] / lookups, 3),
        "cold_hit_rate": round(cold["hit_rate"], 3),
        "cold_guard_hit_rate": round(cold["guard_hit_rate"], 3),
        "warm_hit_rate": round(dedup_bench["warm_stats"]["hit_rate"], 3),
        "lazy_wall_s": round(dedup_bench["lazy_wall"], 3),
        "cold_wall_s": round(dedup_bench["cold_wall"], 3),
        "warm_wall_s": round(dedup_bench["warm_wall"], 3),
        "cold_speedup": round(
            dedup_bench["lazy_wall"] / dedup_bench["cold_wall"], 2
        ),
        "warm_speedup": round(
            dedup_bench["lazy_wall"] / dedup_bench["warm_wall"], 2
        ),
        "unique_classes_stored": cold["stores"],
        "class_lookups": lookups,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_dedup.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print()
    print(json.dumps(payload, indent=2, sort_keys=True))
