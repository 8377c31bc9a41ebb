"""What every workload shares: paths, child environments, the set-up
probe, the environment stamp, run hygiene checks and metric helpers."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Everything a run writes lives here (listed in the root .gitignore).
STATE = ROOT / ".ledger"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Cold substrate builds per run; the median is reported.
SETUP_SAMPLES = 3
#: Processes generating a workload's apps before the clock starts.
GENERATORS = 2


def spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(tmp: Path) -> dict:
    """A clean environment for every process the benchmark starts: the
    checkout's package first on the path, temp files inside the run
    directory, and no inherited cache directory or substrate override."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def probe_setup(tmp: Path, samples: int) -> list[dict]:
    """Cold substrate builds, each in its own fresh interpreter."""
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            env=child_env(tmp),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); needs 2+ values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for
    descendant (pool workers, the daemon and its worker, probes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def pool_start_method() -> str:
    # The package's process pools prefer fork wherever it exists.
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


@dataclass
class Run:
    """One benchmark invocation: its inputs, scratch space, tracer and
    the failures its correctness checks found.  ``failed`` counts
    submissions: a check that fails counts one, an app left without a
    verdict counts one each."""

    workload: str
    seed: int
    seconds: int
    traced: bool
    tmp: Path
    tracer: Tracer = field(default_factory=Tracer)
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    stamp: dict = field(default_factory=dict)
    #: Wall seconds of each stage of the run, for the result file.
    phases: dict = field(default_factory=dict)
    #: Per-submission timings, for the result file.
    samples: list = field(default_factory=list)

    def check(self, ok: bool, message: str, count: int = 1) -> bool:
        if not ok:
            self.failures.append(message)
            self.failed += count
        return ok


def environment_stamp(run: Run, parallelism: int) -> dict:
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.traced),
        "nproc": nproc(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "parallelism": parallelism,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "pool_start_method": pool_start_method(),
        "loadavg_before": list(os.getloadavg()),
        "started_at": time.time(),
    }


def new_run(workload: str, seed: int, seconds: int, traced: bool) -> Run:
    STATE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=STATE))
    # The run's own process gets the environment its children get.
    env = child_env(tmp)
    os.environ.clear()
    os.environ.update(env)
    tempfile.tempdir = str(tmp)
    return Run(workload, seed, seconds, traced, tmp)


def finish_run(run: Run) -> list[int]:
    """Remove the run's scratch space and stop every process the run
    started that is still around; returns the pids that had to be
    killed."""
    stray = stop_children()
    shutil.rmtree(run.tmp, ignore_errors=True)
    tempfile.tempdir = None
    return stray


# -- processes ---------------------------------------------------------------


def children(pid: int) -> list[int]:
    """Processes whose parent is ``pid``, zombies included."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[-1].split()[1]) == pid:
            out.append(int(entry))
    return out


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it.

    A spawn pool starts it on first use and leaves it to end on its
    own once this process has exited, so it would outlive the run."""
    from multiprocessing import resource_tracker

    # A no-op when the tracker is not running.
    resource_tracker._resource_tracker._stop()


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # A zombie still answers signal 0; it no longer runs.
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[-1].split()[0] != "Z"


def stop_children() -> list[int]:
    """Stop the resource tracker, then kill and wait for any other
    process this one started; returns the pids that were still
    running."""
    stop_resource_tracker()
    stray = children(os.getpid())
    running = [pid for pid in stray if alive(pid)]
    for pid in stray:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return running


# -- input generation ------------------------------------------------------


def _generate(kind: str, seed: int, count: int, options: dict):
    """One generator process: a substrate, then ``count`` apps of a
    calibrated (``corpus``) or library-overlapping (``overlap``)
    corpus.  Returns the apps, the substrate's build seconds and how
    many ``ApiPicker``s were built."""
    from repro.core.arm import build_api_database
    from repro.framework.repository import FrameworkRepository
    from repro.workload import appgen
    from repro.workload.corpus import (
        CorpusConfig,
        OverlapConfig,
        generate_corpus,
        generate_overlapping_corpus,
    )

    start = time.perf_counter()
    framework = FrameworkRepository()
    built = time.perf_counter()
    apidb = build_api_database(framework)
    setup = {
        "framework_s": built - start,
        "apidb_s": time.perf_counter() - built,
    }
    builds = 0
    original = appgen.ApiPicker.__init__

    def counted(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        original(self, *args, **kwargs)

    appgen.ApiPicker.__init__ = counted
    try:
        if kind == "corpus":
            config = CorpusConfig(count=count, seed=seed, **options)
            members = generate_corpus(config, apidb)
        else:
            config = OverlapConfig(count=count, seed=seed, **options)
            members = generate_overlapping_corpus(config, apidb)
        apps = [member.forged for member in members]
    finally:
        appgen.ApiPicker.__init__ = original
    return apps, setup, builds


@dataclass
class Generated:
    apps: list
    seconds: float
    #: Each generator's cold substrate build.
    setups: list[dict]
    picker_builds: int


def generate(run: Run, kind: str, total: int, options: dict) -> Generated:
    """``total`` apps from ``GENERATORS`` fresh processes, each a corpus
    of its own seed derived from the run's seed, interleaved so every
    part appears throughout the list."""
    shares = [
        total // GENERATORS + (k < total % GENERATORS)
        for k in range(GENERATORS)
    ]
    began = time.perf_counter()
    with ProcessPoolExecutor(
        max_workers=GENERATORS,
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        futures = [
            pool.submit(
                _generate, kind, run.seed * GENERATORS + k, share, options
            )
            for k, share in enumerate(shares)
        ]
        parts = [future.result() for future in futures]
    seconds = time.perf_counter() - began
    run.phases["generate"] = seconds
    apps = [
        app
        for group in zip_longest(*(part[0] for part in parts))
        for app in group
        if app is not None
    ]
    return Generated(
        apps,
        seconds,
        [part[1] for part in parts],
        sum(part[2] for part in parts),
    )


# -- analysis results ------------------------------------------------------


def reports_of(results) -> list:
    return [
        report for result in results for report in result.reports.values()
    ]


def pass_totals(reports) -> dict[str, float]:
    totals: dict[str, float] = {}
    for report in reports:
        if report.metrics is None:
            continue
        for name, seconds in report.metrics.pass_seconds.items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals


def cost_units(reports) -> tuple[int, int]:
    work = memory = 0
    for report in reports:
        if report.metrics is not None:
            work += report.metrics.work_units
            memory += report.metrics.memory_units
    return work, memory


def service_seconds(result) -> float:
    """Seconds one app held a worker: its tools' measured wall time."""
    return sum(
        report.metrics.wall_time_s
        for report in result.reports.values()
        if report.metrics is not None
    )


def saintdroid_scores(results, truths=None) -> tuple[float, float]:
    """SAINTDroid's precision and recall against seeded truth (ALL);
    ``truths`` replaces the truth each result carries."""
    from repro.eval.accuracy import KIND_GROUPS, score_apps

    truths = truths or [result.truth for result in results]
    pairs = [
        (result.reports["SAINTDroid"], truth)
        for result, truth in zip(results, truths)
        if "SAINTDroid" in result.reports
    ]
    counts = score_apps("SAINTDroid", pairs, KIND_GROUPS).by_group["ALL"]
    return counts.precision, counts.recall
