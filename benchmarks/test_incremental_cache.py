"""E13 — persistent incremental runs: the on-disk cache end to end.

The same corpus analyzed with no cache, then twice against one
``--cache-dir``: the cold pass analyzes and stores, the warm pass must
be served from the result cache, fingerprint-identical and at least 5x
faster, and populating the cache must not slow the cold pass by more
than 1.5x.  Written to ``results/BENCH_incremental.json``.

Environment knobs: ``REPRO_INCREMENTAL_CORPUS`` (apps, default 12).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.arm import mine_spec
from repro.eval.runner import ToolSet, run_tools
from repro.framework import FrameworkRepository
from repro.framework.catalog import build_spec
from repro.workload.corpus import CorpusConfig, generate_corpus

from .conftest import RESULTS_DIR

CORPUS_SIZE = int(os.environ.get("REPRO_INCREMENTAL_CORPUS", "12"))

BENCH_CORPUS = CorpusConfig(
    count=CORPUS_SIZE, kloc_median=4.0, kloc_max=20.0, seed=13579
)


@pytest.fixture(scope="module")
def incremental(tmp_path_factory) -> dict:
    cache_dir = tmp_path_factory.mktemp("incremental-cache")
    spec = build_spec()
    framework = FrameworkRepository(spec)
    apidb = mine_spec(spec)
    apps = [
        member.forged for member in generate_corpus(BENCH_CORPUS, apidb)
    ]

    def toolset() -> ToolSet:
        return ToolSet.default(framework, apidb)

    # Reference: no cache at all.
    start = time.perf_counter()
    uncached = run_tools(apps, toolset())
    uncached_s = time.perf_counter() - start

    # Cold: cache enabled but empty — analyzes and stores.
    start = time.perf_counter()
    cold = run_tools(apps, toolset(), cache_dir=cache_dir)
    cold_s = time.perf_counter() - start

    # Warm: every app served from the result cache.
    start = time.perf_counter()
    warm = run_tools(apps, toolset(), cache_dir=cache_dir)
    warm_s = time.perf_counter() - start

    # Warm parallel: parent-side hits, the pool never spins up.
    start = time.perf_counter()
    warm_parallel = run_tools(apps, toolset(), jobs=4, cache_dir=cache_dir)
    warm_parallel_s = time.perf_counter() - start

    return {
        "cache_dir": cache_dir,
        "uncached": uncached,
        "cold": cold,
        "warm": warm,
        "warm_parallel": warm_parallel,
        "uncached_s": uncached_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_parallel_s": warm_parallel_s,
    }


def test_all_runs_fingerprint_identical(incremental):
    reference = incremental["uncached"].fingerprint()
    assert incremental["cold"].fingerprint() == reference
    assert incremental["warm"].fingerprint() == reference
    assert incremental["warm_parallel"].fingerprint() == reference


def test_cache_traffic_shape(incremental):
    cold = incremental["cold"].cache_stats["results"]
    assert cold["stores"] == CORPUS_SIZE
    assert cold["hits"] == 0
    warm = incremental["warm"].cache_stats["results"]
    assert warm["hits"] == CORPUS_SIZE
    assert warm["misses"] == 0
    assert incremental["warm"].cached_indices == tuple(
        range(CORPUS_SIZE)
    )


def test_speedups_and_report(incremental):
    uncached_s = incremental["uncached_s"]
    cold_s = incremental["cold_s"]
    warm_s = incremental["warm_s"]
    warm_speedup = cold_s / warm_s
    cache_overhead = cold_s / uncached_s

    payload = {
        "corpus_apps": CORPUS_SIZE,
        "uncached_s": round(uncached_s, 3),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "warm_parallel_s": round(incremental["warm_parallel_s"], 3),
        "warm_speedup_vs_cold": round(warm_speedup, 2),
        "cold_overhead_vs_uncached": round(cache_overhead, 3),
        "phase_totals_cold": {
            phase: round(seconds, 3)
            for phase, seconds in incremental["cold"]
            .phase_totals()
            .items()
        },
        "cold_cache": incremental["cold"].cache_stats["results"],
        "warm_cache": incremental["warm"].cache_stats["results"],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_incremental.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print()
    print(json.dumps(payload, indent=2))

    # The acceptance bar: a warm run over an unchanged corpus is at
    # least 5x faster than the cold run that populated the cache.
    assert warm_speedup >= 5.0
    # Populating the cache must not meaningfully slow the cold run.
    assert cache_overhead <= 1.5
