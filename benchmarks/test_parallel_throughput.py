"""E7 — corpus throughput: cross-app caching + the parallel engine.

Three ways to analyze the same corpus:

* **cold**   — a fresh framework repository + API database per app:
  no cross-app reuse at all (the pre-batch-engine behavior of running
  the CLI once per app);
* **warm**   — one shared tool set, serial (``jobs=1``): every app
  after the first hits the framework class cache and the database
  memo tables;
* **parallel** — the process-pool engine (``jobs=4``): the parent
  warms the corpus's framework levels in the caller's repository once
  and every worker is started with that repository and database as
  process arguments (copy-on-write pages under fork), so workers start
  warm instead of each rebuilding its own cache.

All three must produce fingerprint-identical results; the wall-clock
and cache-hit numbers land in ``results/BENCH_parallel.json``.

The report is honest about hardware: ``cpu_count`` is what
``os.cpu_count()`` actually said, ``oversubscribed`` flags runs where
``jobs`` exceeds it, and the wall-clock assertions switch to a
core-normalized efficiency metric in that case — a pool of 4 on one
core merely time-slices, so demanding a 4× speedup there would test
the scheduler's lies, not our engine.  What IS asserted regardless of
core count: per-worker framework cache hit rates must be at least the
serial loop's (the shared-substrate guarantee — no worker pays the
cold-start the serial loop amortizes).

Environment knobs: ``REPRO_PARALLEL_CORPUS`` (apps, default 16),
``REPRO_PARALLEL_JOBS`` (default 4).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.arm import mine_spec
from repro.eval.runner import ToolSet, analyze_app, run_tools
from repro.framework import FrameworkRepository, default_spec
from repro.workload.corpus import CorpusConfig, generate_corpus

from .conftest import RESULTS_DIR

CORPUS_SIZE = int(os.environ.get("REPRO_PARALLEL_CORPUS", "16"))
JOBS = int(os.environ.get("REPRO_PARALLEL_JOBS", "4"))

#: Mid-size apps keep the bench fast while leaving the per-app
#: analysis large enough that caching, not noise, dominates.
BENCH_CORPUS = CorpusConfig(
    count=CORPUS_SIZE, kloc_median=4.0, kloc_max=20.0, seed=24680
)


@pytest.fixture(scope="module")
def throughput() -> dict:
    spec = default_spec()
    shared_framework = FrameworkRepository(spec)
    shared_db = mine_spec(spec)
    apps = [
        member.forged
        for member in generate_corpus(BENCH_CORPUS, shared_db)
    ]

    # Cold: fresh substrate per app, nothing amortized.
    start = time.perf_counter()
    cold_results = []
    for forged in apps:
        framework = FrameworkRepository(spec)
        toolset = ToolSet.default(framework, mine_spec(spec))
        cold_results.append(analyze_app(toolset, forged))
    cold_s = time.perf_counter() - start
    cold_fingerprint = [r.fingerprint() for r in cold_results]

    # Warm: one shared tool set, serial.
    toolset = ToolSet.default(shared_framework, shared_db)
    shared_db.reset_cache_counters()
    start = time.perf_counter()
    warm = run_tools(apps, toolset)
    warm_s = time.perf_counter() - start

    # Parallel: the pool engine over the same corpus.
    start = time.perf_counter()
    parallel = run_tools(apps, toolset, jobs=JOBS)
    parallel_s = time.perf_counter() - start

    return {
        "apps": apps,
        "cold_fingerprint": cold_fingerprint,
        "warm": warm,
        "parallel": parallel,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "parallel_s": parallel_s,
    }


def test_all_schedules_agree(throughput):
    assert (
        throughput["warm"].fingerprint()
        == throughput["parallel"].fingerprint()
    )
    assert (
        throughput["cold_fingerprint"]
        == [r.fingerprint() for r in throughput["warm"].results]
    )


def test_caches_are_hit_from_second_app_onward(throughput):
    warm_stats = throughput["warm"].cache_stats
    assert warm_stats["framework"]["class_hits"] > 0
    assert warm_stats["apidb"]["levels_hits"] > 0
    parallel_stats = throughput["parallel"].cache_stats
    assert parallel_stats["workers"] >= 1
    assert parallel_stats["framework"]["class_hits"] > 0
    assert parallel_stats["apidb"]["hit_rate"] > 0.5


def test_no_worker_starts_colder_than_the_serial_loop(throughput):
    """The shared-substrate guarantee, independent of core count:
    every worker attaches to the parent-prepared substrate, so no
    worker's framework hit rate may fall below what the serial loop
    achieves by amortizing across the whole corpus."""
    serial_rate = throughput["warm"].cache_stats["framework"]["hit_rate"]
    per_worker = throughput["parallel"].cache_stats["framework"][
        "per_worker_hit_rates"
    ]
    assert per_worker, "no worker ever reported stats"
    assert min(per_worker) >= serial_rate


def test_throughput_and_report(throughput):
    cold_s = throughput["cold_s"]
    warm_s = throughput["warm_s"]
    parallel_s = throughput["parallel_s"]
    cpus = os.cpu_count() or 1
    effective_workers = max(1, min(JOBS, cpus))
    oversubscribed = cpus < JOBS

    amortized_speedup = cold_s / warm_s
    parallel_speedup = cold_s / parallel_s
    pool_speedup = warm_s / parallel_s
    # Speedup per core the pool could actually use: 1.0 means the
    # engine converted every available core into linear speedup over
    # the cold baseline; on an oversubscribed box this collapses to
    # plain speedup-vs-cold (effective_workers == cpus).
    core_normalized_efficiency = parallel_speedup / effective_workers

    payload = {
        "corpus_apps": CORPUS_SIZE,
        "jobs": JOBS,
        "cpu_count": cpus,
        "effective_workers": effective_workers,
        "oversubscribed": oversubscribed,
        "serial_cold_s": round(cold_s, 3),
        "serial_warm_s": round(warm_s, 3),
        "parallel_s": round(parallel_s, 3),
        "amortized_speedup_warm_vs_cold": round(amortized_speedup, 2),
        "parallel_speedup_vs_cold": round(parallel_speedup, 2),
        "parallel_speedup_vs_warm": round(pool_speedup, 2),
        "core_normalized_efficiency": round(
            core_normalized_efficiency, 2
        ),
        "warm_cache": throughput["warm"].cache_stats,
        "parallel_cache": throughput["parallel"].cache_stats,
    }
    if oversubscribed:
        payload["note"] = (
            f"jobs={JOBS} > cpu_count={cpus}: the pool time-slices "
            f"{cpus} core(s), so wall-clock speedup targets are "
            f"core-normalized (see core_normalized_efficiency)"
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_parallel.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print()
    print(json.dumps(payload, indent=2))

    # Cross-app caching must at least double corpus throughput over
    # the no-reuse baseline.
    assert amortized_speedup >= 2.0
    if not oversubscribed:
        # With real cores behind the pool the engine must at least
        # double over cold and beat the warm serial loop outright.
        assert parallel_speedup >= 2.0
        assert pool_speedup >= 1.5
    else:
        # Time-slicing cannot beat warm serial, but the shared
        # substrate must still make the pool beat the cold baseline
        # on the cores it actually has.
        assert core_normalized_efficiency > 1.0
