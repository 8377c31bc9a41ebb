"""The repository's benchmark: one ledger for the paths users run.

    python3 ledger/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` and ``ledger/README.md``):

* ``corpus``  — ``run_tools(..., jobs=2)`` over a calibrated corpus;
* ``compare`` — ``run_compare`` end to end, six configurations;
* ``serve``   — a ``saintdroid serve`` daemon under two closed-loop
  clients.

Inputs are generated from ``--seed``.  With ``--trace 0`` the last
line of standard output is a JSON object carrying every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` it carries every
per-layer metric, taken from spans the benchmark records around its
calls into the package plus counters the package already publishes.
A layer the workload does not exercise reports 0.  The environment
stamp, the spans and the full result are written under ``.ledger/``.

The command exits 1 when a correctness check fails (after printing
the result, whose ``correct`` is then false) and 2 when it cannot run
at all.  ``--repeat K`` runs the workload K times on consecutive
seeds, each in a fresh interpreter, and prints each end-to-end
metric's median, quartiles and spread against its bound.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from common import (
    BENCHMARK,
    SRC,
    STATE,
    environment_stamp,
    finish_run,
    new_run,
    nproc,
    peak_rss_mb,
    shm_entries,
    spec,
)

WORKLOADS = ("corpus", "compare", "serve")
#: A run that has not finished by now is stopped and fails; the
#: harness allows 180 s.
DEADLINE_S = 170


def _expired(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def _fail(message: str) -> int:
    print(f"ledger: {message}", file=sys.stderr)
    return 2


def run_once(workload: str, seed: int, seconds: int, traced: bool) -> int:
    began = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no package source under {SRC}; run from a checkout")
    if not BENCHMARK.is_file():
        return _fail(f"{BENCHMARK.name} is missing")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(workload)
    if module.parallelism() > nproc():
        return _fail(
            f"{workload} needs {module.parallelism()} cores, "
            f"only {nproc()} are available"
        )
    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(DEADLINE_S)
    run = new_run(workload, seed, seconds, traced)
    run.stamp = environment_stamp(run, module.parallelism())
    shm_before = shm_entries()
    try:
        end_to_end, layers, attempted = module.measure(run)
    finally:
        # The deadline must not cut the clean-up short.
        signal.alarm(0)
        stray = finish_run(run)
    run.check(not stray, f"processes outlived the workload: {stray}")
    leaked = sorted(shm_entries() - shm_before)
    run.check(not leaked, f"left /dev/shm segments: {leaked}")
    failed = min(run.failed, attempted)
    end_to_end["success_rate"] = (attempted - failed) / attempted
    end_to_end["peak_rss_mb"] = peak_rss_mb()
    run.stamp["loadavg_after"] = list(os.getloadavg())
    run.phases["total"] = time.perf_counter() - began

    names = [m["name"] for m in spec()["per_layer" if traced else "end_to_end"]]
    units = {
        m["name"]: m["unit"]
        for m in spec()["end_to_end"] + spec()["per_layer"]
    }
    values = layers if traced else end_to_end
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": units[name]}
        for name in names
    }
    correct = not run.failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{workload}-seed{seed}-trace{int(traced)}-{int(time.time())}"
    runs_dir = STATE / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"{stem}.json").write_text(
        json.dumps(
            {
                "environment": run.stamp,
                "failures": run.failures,
                "phases": run.phases,
                "samples": run.samples,
                "end_to_end": end_to_end,
                "per_layer": layers,
                "result": result,
            },
            indent=2,
        )
        + "\n"
    )
    if traced:
        run.tracer.write(STATE / "traces" / f"{stem}.json")
        print(f"[{workload}] per-layer self time", file=sys.stderr)
        print(run.tracer.summary(), file=sys.stderr)
    print(json.dumps({"environment": run.stamp, "phases": run.phases}))
    for failure in run.failures:
        print(f"ledger: check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def repeat(
    workloads: list[str], seed: int, seconds: int, traced: bool, k: int
) -> int:
    """K runs per workload on seeds seed..seed+K-1, each in a fresh
    interpreter; prints median, quartiles and spread per metric."""
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    summary: dict = {}
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for offset in range(k):
            proc = subprocess.run(
                [
                    sys.executable, __file__,
                    "--workload", workload,
                    "--seed", str(seed + offset),
                    "--seconds", str(seconds),
                    "--trace", str(int(traced)),
                ],
                capture_output=True,
                text=True,
                timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            doc = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not doc.get("correct"):
                status = 1
                print(proc.stderr, file=sys.stderr)
            for name, metric in doc.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        print(f"== {workload}: {k} runs, seeds {seed}..{seed + k - 1}")
        print(
            f"{'metric':<28} {'median':>11} {'q1':>11} {'q3':>11} "
            f"{'spread':>7} {'bound':>6}"
        )
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = (
                "  OVER 1/3 BOUND"
                if bound is not None and spread > bound / 3
                else ""
            )
            print(
                f"{name:<28} {median:>11.4f} {q1:>11.4f} {q3:>11.4f} "
                f"{spread:>7.2%} {bound if bound is not None else '':>6}"
                f"{flag}"
            )
            rows[name] = {
                "values": series,
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bound,
            }
        summary[workload] = rows
    out = STATE / f"repeat-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({"repeat": str(out)}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=0, metavar="K",
        help="run each workload K times on consecutive seeds and "
        "print the run-to-run spread of every metric",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.repeat:
        if args.repeat < 2:
            parser.error("--repeat needs at least 2 runs")
        workloads = (
            list(WORKLOADS) if args.workload == "all" else [args.workload]
        )
        return repeat(
            workloads, args.seed, args.seconds, bool(args.trace), args.repeat
        )
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
