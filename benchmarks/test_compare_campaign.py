"""Agreement-campaign throughput (``saintdroid compare``).

One seeded corpus through the full configuration roster, two ways
— serial and pooled (``--jobs 2``) — plus a dedup arm that runs the
store-consuming configuration against a cold and then a warm
class-artifact store.

Published to ``results/BENCH_compare.json``:

* apps/sec per configuration (serial arm, measured individually);
* wall time serial vs pooled, with the canonical reports asserted
  byte-identical across both (the determinism guarantee the CI
  ``compare`` job also enforces end to end);
* the class-store hit-rate uplift a warm store gives a repeated
  campaign over the same corpus (only the plain SAINTDroid
  configuration consumes the store — the ablations deliberately
  ablate against the plain lazy configuration).

Environment knobs: ``REPRO_COMPARE_CORPUS`` (apps, default 24),
``REPRO_COMPARE_CONFIGS`` (comma-separated roster subset, default
all).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cache.classes import registered_stores, reset_class_stores
from repro.core.arm import build_api_database
from repro.eval.compare import (
    COMPARE_CONFIGS,
    CompareConfig,
    canonical_json,
    plan_compare_corpus,
    run_compare,
)
from repro.eval.runner import ToolSet, run_tools
from repro.framework.repository import FrameworkRepository

from .conftest import RESULTS_DIR

CORPUS_SIZE = int(os.environ.get("REPRO_COMPARE_CORPUS", "24"))
CONFIGS = tuple(
    name
    for name in os.environ.get(
        "REPRO_COMPARE_CONFIGS", ",".join(COMPARE_CONFIGS)
    ).split(",")
    if name
)
SEED = 2026


def _store_hit_rate() -> float:
    hits = misses = 0
    for store in registered_stores():
        stats = store.stats.as_dict()
        hits += stats.get("hits", 0)
        misses += stats.get("misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


@pytest.fixture(scope="module")
def campaign_bench() -> dict:
    framework = FrameworkRepository()
    apidb = build_api_database(framework)
    substrate = (framework, apidb)
    _, apps, _ = plan_compare_corpus(SEED, CORPUS_SIZE, apidb)

    # Per-configuration serial throughput.
    per_config: dict[str, dict] = {}
    serial_wall = 0.0
    for name in CONFIGS:
        toolset = ToolSet.default(framework, apidb, include=(name,))
        start = time.perf_counter()
        run = run_tools(apps, toolset)
        elapsed = time.perf_counter() - start
        serial_wall += elapsed
        per_config[name] = {
            "wall_s": round(elapsed, 3),
            "apps_per_s": round(len(apps) / elapsed, 2),
            "failed": len(run.failed_apps),
        }

    def timed(**overrides) -> tuple[float, str]:
        config = CompareConfig(
            seed=SEED, n_apps=CORPUS_SIZE, configs=CONFIGS, **overrides
        )
        start = time.perf_counter()
        result = run_compare(config, substrate=substrate)
        return time.perf_counter() - start, canonical_json(
            result.report
        )

    wall_serial_campaign, report_serial = timed()
    wall_pooled, report_pooled = timed(jobs=2)

    # Dedup arm: the store-consuming configuration cold, then warm
    # against the same in-process store (a repeated campaign's view).
    reset_class_stores()
    try:
        dedup_tools = ToolSet.default(
            framework, apidb, include=("SAINTDroid",), dedup=True
        )
        start = time.perf_counter()
        run_tools(apps, dedup_tools)
        cold_s = time.perf_counter() - start
        cold_rate = _store_hit_rate()
        start = time.perf_counter()
        run_tools(apps, dedup_tools)
        warm_s = time.perf_counter() - start
        warm_rate = _store_hit_rate()
    finally:
        reset_class_stores()

    return {
        "apps": len(apps),
        "configurations": list(CONFIGS),
        "perConfiguration": per_config,
        "wall_s": {
            "serial_sum": round(serial_wall, 3),
            "serial_campaign": round(wall_serial_campaign, 3),
            "pooled_jobs2": round(wall_pooled, 3),
        },
        "reports_identical": report_serial == report_pooled,
        "dedup": {
            "configuration": "SAINTDroid",
            "cold_wall_s": round(cold_s, 3),
            "warm_wall_s": round(warm_s, 3),
            "cold_hit_rate": round(cold_rate, 4),
            "warm_hit_rate": round(warm_rate, 4),
            "uplift": round(warm_rate - cold_rate, 4),
        },
    }


def test_reports_identical_across_arms(campaign_bench):
    assert campaign_bench["reports_identical"]


def test_every_configuration_measured(campaign_bench):
    for name in CONFIGS:
        row = campaign_bench["perConfiguration"][name]
        assert row["apps_per_s"] > 0
        assert row["failed"] == 0


def test_warm_store_uplift(campaign_bench):
    dedup = campaign_bench["dedup"]
    # A repeated campaign replays every previously seen class.
    assert dedup["warm_hit_rate"] > dedup["cold_hit_rate"]


def test_publish(campaign_bench):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_compare.json"
    path.write_text(json.dumps(campaign_bench, indent=2) + "\n")
    print()
    print(json.dumps(campaign_bench, indent=2))
