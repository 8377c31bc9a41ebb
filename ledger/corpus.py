"""Workload ``corpus``: the ``table``/``rq2`` path.

SAINTDroid, CID and Lint analyse a calibrated RQ2 corpus through
``run_tools(..., jobs=2)``, with no cache, no ``--dedup`` and no
``--summaries``.  It is analysis-bound and the only workload on the
process pool (``eval/parallel.py``).  The corpus is generated before
the clock starts and every cache is off, so a change to generation or
to a cache should not move it.

App sizes are the calibrated log-normal scaled by 1/20 (median
0.5 KLOC, cap 4 KLOC); every other calibration rate is the RQ2
default.  Small apps let one run hold enough of them that the
heavy-tailed per-app cost averages out across seeds.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from contextlib import nullcontext

from common import (
    GENERATORS,
    SETUP_SAMPLES,
    Run,
    cost_units,
    generate,
    pass_totals,
    probe_setup,
    reports_of,
    saintdroid_scores,
    service_seconds,
)

JOBS = 2
#: The detectors of the ``table``/``rq2`` real-world comparison.
TOOLS = ("SAINTDroid", "CID", "Lint")
#: Apps per second of ``--seconds``.  A pool run pays a fixed cost
#: per worker (each materializes CID's framework images), and its
#: makespan wobbles with the last chunks; 144 apps (at 12 s) make both
#: small against the whole on a 2-core x86 box.
APPS_PER_SECOND = 12
KLOC_MEDIAN = 0.5
KLOC_MAX = 4.0


def parallelism() -> int:
    return max(JOBS, GENERATORS)


def measure(run: Run) -> tuple[dict, dict, int]:
    from repro.core.arm import build_api_database
    from repro.eval import parallel
    from repro.eval.runner import ToolSet, run_tools
    from repro.framework.repository import FrameworkRepository

    tracer = run.tracer
    n_apps = max(24, APPS_PER_SECOND * run.seconds)
    if run.traced:
        # The traced run analyses its corpus twice, traced then
        # untraced; each pass pays the pool's fixed cost again.
        n_apps //= 3
    targets = [
        (parallel.PoolBackend, "prepare", "eval.pool.prepare"),
        (parallel.PoolBackend, "run_round", "eval.pool.dispatch"),
        (parallel.PoolBackend, "finish", "eval.pool.finish"),
    ]

    def analyze():
        with tracer.span("eval.run_tools"):
            began = time.perf_counter()
            results = run_tools(apps, toolset, jobs=JOBS)
            return results, time.perf_counter() - began

    with tracer.instrument(targets) if run.traced else nullcontext():
        probes = probe_setup(run.tmp, SETUP_SAMPLES - 1)
        start = time.perf_counter()
        with tracer.span("framework.build"):
            framework = FrameworkRepository()
        built = time.perf_counter()
        with tracer.span("arm.apidb_build"):
            apidb = build_api_database(framework)
        done = time.perf_counter()
        probes.append({"framework_s": built - start, "apidb_s": done - built})
        with tracer.span("workload.generate"):
            generated = generate(
                run,
                "corpus",
                n_apps,
                {"kloc_median": KLOC_MEDIAN, "kloc_max": KLOC_MAX},
            )
        apps = generated.apps
        toolset = ToolSet.default(framework, apidb, include=TOOLS)
        results, wall = analyze()
        with tracer.span("eval.report"):
            began = time.perf_counter()
            precision, recall = saintdroid_scores(results.results)
            results.accuracies()
            report_s = time.perf_counter() - began

    overhead = 1.0
    if run.traced:
        untraced, untraced_wall = analyze()
        overhead = untraced_wall / wall
        run.check(
            untraced.findings_fingerprint() == results.findings_fingerprint(),
            "traced and untraced corpus runs disagree on findings",
        )

    failed_apps = [r.app for r in results.results if not r.ok]
    run.check(
        not failed_apps,
        f"apps without a verdict: {failed_apps[:5]}",
        len(failed_apps),
    )
    run.check(
        not multiprocessing.active_children(), "pool workers outlived the run"
    )
    setup = [p["framework_s"] + p["apidb_s"] for p in probes]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "apps_per_s": n_apps / wall,
        # Every verdict of a batch arrives when run_tools returns.
        "latency_p50_s": wall,
        "latency_p90_s": wall,
        "recall": recall,
        "precision": precision,
    }
    reports = reports_of(results.results)
    work, memory = cost_units(reports)
    stats = results.cache_stats
    busy = sum(service_seconds(r) for r in results.results)
    layers = {
        "framework.build_s": statistics.median(
            p["framework_s"] for p in probes
        ),
        "arm.apidb_build_s": statistics.median(p["apidb_s"] for p in probes),
        "framework.class_hit_rate": stats["framework"]["hit_rate"],
        "apidb.memo_hit_rate": stats["apidb"]["hit_rate"],
        "analysis.work_units": work,
        "analysis.memory_units": memory,
        "workload.plan_s": generated.seconds,
        "workload.picker_builds": generated.picker_builds,
        "eval.analysis_s": wall,
        "eval.report_s": report_s,
        "eval.pool.prepare_s": tracer.total("eval.pool.prepare"),
        "eval.pool.busy_ratio": busy / (JOBS * wall),
        "eval.retries": max(
            0, tracer.counts.get("eval.pool.dispatch", 1) - 1
        ),
        "latency.samples": 1,
        "trace.overhead_ratio": overhead,
    }
    for name, seconds in pass_totals(reports).items():
        layers[f"pass.{name}_s"] = seconds
    return end_to_end, layers, n_apps
