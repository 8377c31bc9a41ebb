"""Workload ``compare``: ``saintdroid compare`` end to end.

``run_compare`` runs all six configurations serially over a seeded
compare corpus; the input is a seed and an app count, as on the
command line.  Each app is about 0.01 KLOC, so the run is bound by
generation: the kind-coverage gate, ``plan_compare_corpus`` and the
``ApiPicker`` each app's forge rebuilds.  An analysis-layer change
should barely move it; a generation change should.  ``apps_per_s``
counts corpus planning because the user waits for it.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext

from common import (
    SETUP_SAMPLES,
    Run,
    cost_units,
    pass_totals,
    probe_setup,
    reports_of,
    saintdroid_scores,
)

#: Campaign apps per second of ``--seconds`` (about the throughput on
#: a 2-core x86 box).
APPS_PER_SECOND = 1.6


def parallelism() -> int:
    return 1


def measure(run: Run) -> tuple[dict, dict, int]:
    from repro.core.arm import build_api_database, mine_spec
    from repro.eval import compare
    from repro.framework.repository import FrameworkRepository
    from repro.workload import appgen

    tracer = run.tracer
    n_apps = max(6, round(APPS_PER_SECOND * run.seconds))
    if run.traced:
        # Traced then untraced over the same campaign: half the apps.
        n_apps = max(6, n_apps // 2)
    config = compare.CompareConfig(seed=run.seed, n_apps=n_apps)
    targets = [
        (appgen.ApiPicker, "__init__", "workload.picker_build"),
        (compare, "missing_scenario_kinds", "workload.coverage_gate"),
        (compare, "plan_compare_corpus", "workload.plan"),
        (compare, "materialize", "difftest.materialize"),
        (compare, "run_tools", "eval.analysis"),
        (compare, "join_runs", "eval.report.join"),
        (compare, "build_report", "eval.report.build"),
    ]

    def campaign(substrate):
        with tracer.span("eval.compare"):
            began = time.perf_counter()
            result = compare.run_compare(config, substrate=substrate)
            wall = time.perf_counter() - began
            with tracer.span("eval.report.canonical"):
                document = compare.canonical_json(result.report)
        return result, document, wall

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
        result, document, wall = campaign((framework, apidb))
    overhead = 1.0
    if run.traced:
        # A fresh substrate, so the untraced pass starts as cold as
        # the traced one did.
        spec = framework.spec
        _, untraced_document, untraced_wall = campaign(
            (FrameworkRepository(spec), mine_spec(spec))
        )
        overhead = untraced_wall / wall
        run.check(
            untraced_document == document,
            "traced and untraced canonical reports differ",
        )

    run.check(
        result.ok,
        "capability cross-check failed: "
        f"{result.report['capabilities']['mismatches'][:3]}",
    )
    runs = result.runs
    all_results = [r for name in config.configs for r in runs[name].results]
    failed = [r.app for r in all_results if not r.ok]
    run.check(not failed, f"apps without a verdict: {failed[:5]}", len(failed))
    precision, recall = saintdroid_scores(runs["SAINTDroid"].results)
    setup = [p["framework_s"] + p["apidb_s"] for p in probes]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "apps_per_s": n_apps / wall,
        # The user reads every verdict in the campaign's report.
        "latency_p50_s": wall,
        "latency_p90_s": wall,
        "recall": recall,
        "precision": precision,
    }
    reports = reports_of(all_results)
    work, memory = cost_units(reports)
    stats = runs[config.configs[-1]].cache_stats
    layers = {
        "framework.build_s": statistics.median(
            p["framework_s"] for p in probes
        ),
        "arm.apidb_build_s": statistics.median(p["apidb_s"] for p in probes),
        "framework.class_hit_rate": stats["framework"]["hit_rate"],
        "apidb.memo_hit_rate": stats["apidb"]["hit_rate"],
        "analysis.work_units": work,
        "analysis.memory_units": memory,
        # Planning outside the gate; the gate plans its own prefix.
        "workload.plan_s": tracer.total(
            "workload.plan", outside="workload.coverage_gate"
        ),
        "workload.coverage_gate_s": tracer.total("workload.coverage_gate"),
        "workload.picker_builds": tracer.counts.get(
            "workload.picker_build", 0
        ),
        "eval.analysis_s": tracer.total("eval.analysis"),
        "eval.report_s": sum(
            tracer.total(name)
            for name in (
                "eval.report.join",
                "eval.report.build",
                "eval.report.canonical",
            )
        ),
        "latency.samples": 1,
        "trace.overhead_ratio": overhead,
    }
    for name, seconds in pass_totals(reports).items():
        layers[f"pass.{name}_s"] = seconds
    return end_to_end, layers, len(all_results)
