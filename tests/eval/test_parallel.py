"""Tests for the parallel corpus-analysis engine.

The load-bearing property is *equivalence*: a parallel run must be
indistinguishable (fingerprint-identical) from a serial run over the
same corpus.  The rest is failure isolation — one poisoned app must
never cost the run the remaining apps — plus the scheduling and cache
accounting around it.
"""

from __future__ import annotations

import gc
import multiprocessing
import time

import pytest

from repro.cli import build_parser
from repro.core.errors import ErrorKind
from repro.eval import parallel
from repro.eval import (
    AppTimeoutError,
    RunResults,
    ToolSet,
    analyze_app,
    run_tools,
)
from repro.eval.faults import FaultKind, FaultPlan, InjectedFault
from repro.eval.orchestration import run_corpus
from repro.framework.repository import FrameworkRepository
from repro.workload.appgen import ForgedApp
from repro.workload.corpus import CorpusConfig, generate_corpus
from repro.workload.groundtruth import GroundTruth

#: Small but non-trivial corpus: mixed targets, seeded issues, tiny
#: app bodies so the whole file stays fast.
SMALL_CORPUS = CorpusConfig(count=6, kloc_median=1.5, kloc_max=4.0)
#: Enough apps that both workers still have queued work when one dies.
DEATH_CORPUS = CorpusConfig(count=16, kloc_median=0.5, kloc_max=1.0)


@pytest.fixture(scope="module")
def small_corpus(apidb):
    return [member.forged for member in generate_corpus(SMALL_CORPUS, apidb)]


@pytest.fixture()
def saintdroid(framework, apidb):
    return ToolSet.default(framework, apidb, include=("SAINTDroid",))


class _KaboomApk:
    """Picklable stand-in that detonates once a tool touches it."""

    name = "kaboom"
    label = "kaboom"
    dex_kloc = 0.1

    def __getattr__(self, attr):
        if attr.startswith("__"):
            raise AttributeError(attr)
        raise RuntimeError("kaboom: synthetic analysis crash")


def _kaboom():
    return ForgedApp(apk=_KaboomApk(), truth=GroundTruth(app="kaboom"))


class _SleepyTool:
    name = "Sleepy"

    def analyze(self, apk):
        time.sleep(5.0)
        raise AssertionError("deadline did not fire")


class _CallerBuiltTool:
    """A tool the ``ToolSet.default`` catalog has no name for: the
    default SAINTDroid, wrapped."""

    name = "Custom"

    def __init__(self, inner) -> None:
        self._inner = inner

    def analyze(self, apk):
        return self._inner.analyze(apk)


class _FreezeProbe:
    """Fails every app with the analyzing process's frozen-object
    count, so a test can read it off the results."""

    name = "FreezeProbe"

    def analyze(self, apk):
        raise RuntimeError(f"frozen={gc.get_freeze_count()}")


class TestEquivalence:
    def test_parallel_matches_serial(
        self, framework, apidb, small_corpus
    ):
        toolset = ToolSet.default(framework, apidb)
        serial = run_tools(small_corpus, toolset)
        parallel = run_tools(small_corpus, toolset, jobs=3)
        assert serial.fingerprint() == parallel.fingerprint()
        assert len(parallel) == len(small_corpus)
        assert [r.app for r in parallel.results] == [
            f.apk.name for f in small_corpus
        ]

    def test_parallel_cache_stats_merged(self, saintdroid, small_corpus):
        out = run_tools(small_corpus, saintdroid, jobs=2)
        stats = out.cache_stats
        assert stats["workers"] >= 1
        # From the second app onward the framework image and database
        # memo tables are warm — hits must be nonzero.
        assert stats["framework"]["class_hits"] > 0
        assert stats["apidb"]["levels_hits"] > 0
        assert 0.0 < stats["apidb"]["hit_rate"] <= 1.0

    def test_pool_adopts_the_callers_substrate(
        self, spec, apidb, saintdroid, small_corpus
    ):
        """The pool warms the caller's own repository (no second one
        is built) and its findings equal a serial run's."""
        framework = FrameworkRepository(spec)
        assert framework.export_class_cache() == {}
        pooled = run_tools(
            small_corpus,
            ToolSet.default(framework, apidb, include=("SAINTDroid",)),
            jobs=2,
        )
        levels = {
            forged.apk.manifest.effective_max_sdk for forged in small_corpus
        }
        warmed = {level for level, _name in framework.export_class_cache()}
        assert warmed == levels
        serial = run_tools(small_corpus, saintdroid)
        assert pooled.findings_fingerprint() == serial.findings_fingerprint()

    def test_pool_runs_the_callers_tool_set(
        self, framework, apidb, saintdroid, small_corpus
    ):
        """Workers analyze with the caller's tools themselves, so a
        tool built outside the catalog runs in the pool as it does in
        the serial loop."""
        toolset = ToolSet(
            framework, apidb, tools=[_CallerBuiltTool(saintdroid.tools[0])]
        )
        serial = run_tools(small_corpus, toolset)
        pooled = run_tools(small_corpus, toolset, jobs=2)
        assert all(result.ok for result in pooled.results)
        assert pooled.findings_fingerprint() == serial.findings_fingerprint()

    def test_empty_corpus(self, saintdroid):
        out = run_tools([], saintdroid, jobs=2)
        assert isinstance(out, RunResults)
        assert len(out) == 0


class TestFailureIsolation:
    def test_poisoned_app_does_not_kill_the_run(
        self, saintdroid, small_corpus
    ):
        apps = [small_corpus[0], _kaboom(), small_corpus[1]]
        out = run_tools(apps, saintdroid, jobs=2)
        assert [r.app for r in out.results] == [
            small_corpus[0].apk.name, "kaboom", small_corpus[1].apk.name
        ]
        good_first, bad, good_last = out.results
        assert good_first.ok and good_last.ok
        assert not bad.ok
        assert bad.error.kind is ErrorKind.CRASH
        assert "RuntimeError" in bad.error.message
        assert not bad.error.retryable
        assert bad.reports == {}
        assert out.failed_apps == ("kaboom",)
        assert out.error_summary() == {"crash": 1}

    def test_worker_death_costs_only_its_app(self, saintdroid, apidb):
        """A worker that dies takes exactly the app it held: the slot
        is respawned and every queued app still gets a verdict."""
        apps = [m.forged for m in generate_corpus(DEATH_CORPUS, apidb)]
        plan = FaultPlan(
            faults={0: InjectedFault(FaultKind.WORKER_DEATH, None)}
        )
        out = run_tools(
            apps, saintdroid, jobs=2, max_retries=0, fault_plan=plan
        )
        failed = [i for i, r in enumerate(out.results) if not r.ok]
        assert failed == [0]
        assert out.results[0].error.kind is ErrorKind.WORKER_LOST

    def test_serial_error_capture(self, framework, apidb):
        toolset = ToolSet.default(
            framework, apidb, include=("SAINTDroid",)
        )
        result = analyze_app(toolset, _kaboom())
        assert not result.ok
        assert result.error.kind is ErrorKind.CRASH
        assert "RuntimeError" in result.error.message
        assert result.error.traceback_tail  # last frames preserved
        assert result.reports == {}

    def test_timeout_is_recorded_not_raised(
        self, framework, apidb, small_corpus
    ):
        toolset = ToolSet(
            framework=framework, apidb=apidb, tools=[_SleepyTool()]
        )
        result = analyze_app(toolset, small_corpus[0], timeout_s=0.2)
        assert not result.ok
        assert result.error.kind is ErrorKind.TIMEOUT
        assert result.error.retryable

    def test_timeout_error_type(self):
        assert issubclass(AppTimeoutError, Exception)


class TestScheduling:
    def test_progress_callback_sees_every_app(
        self, saintdroid, small_corpus
    ):
        seen: list[str] = []
        run_tools(small_corpus[:3], saintdroid, jobs=2, progress=seen.append)
        assert sorted(seen) == sorted(
            f.apk.name for f in small_corpus[:3]
        )


@pytest.fixture()
def task_spy(monkeypatch):
    """Records, parent-side, every task the pool sends, with the pool,
    the app map its workers were given and its respawn count at that
    moment."""
    sent: list[dict] = []
    original = parallel.PoolBackend._task

    def _spy(self, entry):
        task = original(self, entry)
        sent.append(
            {
                "task": task,
                "backend": self,
                "apps": dict(self._apps),
                "restarts": self.restarts,
            }
        )
        return task

    monkeypatch.setattr(parallel.PoolBackend, "_task", _spy)
    return sent


class TestAppShipping:
    """Forked workers inherit a batch run's apps and are sent indices;
    spawned workers are sent the apps themselves."""

    def test_forked_tasks_carry_indices_only(
        self, saintdroid, small_corpus, task_spy
    ):
        assert parallel._pool_context().get_start_method() == "fork"
        out = run_tools(small_corpus, saintdroid, jobs=2)
        assert all(result.ok for result in out.results)
        tasks = [sent["task"] for sent in task_spy]
        assert sorted(task[0] for task in tasks) == list(
            range(len(small_corpus))
        )
        assert all(task[1] is None for task in tasks)
        for sent in task_spy:
            assert sent["apps"] == dict(enumerate(small_corpus))
        assert task_spy[-1]["backend"]._apps == {}

    def test_respawned_slot_is_sent_indices_only(
        self, saintdroid, small_corpus, task_spy
    ):
        """A slot respawned after a worker death is given the same app
        map as the first worker, so it too gets indices only."""
        apps = small_corpus[:3]
        plan = FaultPlan(
            faults={0: InjectedFault(FaultKind.WORKER_DEATH, 1)}
        )
        backend = parallel.PoolBackend(
            saintdroid, workers=1, hang_timeout_s=None, fault_plan=plan
        )
        out = run_corpus(apps, backend, max_retries=1)
        serial = run_tools(apps, saintdroid)
        assert out.findings_fingerprint() == serial.findings_fingerprint()
        assert backend.restarts == 1
        after_respawn = [s["task"] for s in task_spy if s["restarts"]]
        # Apps 1 and 2 plus app 0's retry all went to the new worker.
        assert sorted(task[0] for task in after_respawn) == [0, 1, 2]
        assert all(sent["task"][1] is None for sent in task_spy)
        assert backend._apps == {}

    def test_app_map_cleared_when_a_round_raises(
        self, saintdroid, small_corpus, monkeypatch
    ):
        maps: list[dict] = []

        def _raising(self, entry):
            maps.append(dict(self._apps))
            raise RuntimeError("dispatch failed")

        monkeypatch.setattr(parallel.PoolBackend, "_task", _raising)
        backend = parallel.PoolBackend(
            saintdroid, workers=2, hang_timeout_s=None
        )
        with pytest.raises(RuntimeError, match="dispatch failed"):
            run_corpus(small_corpus, backend)
        assert maps == [dict(enumerate(small_corpus))]
        assert backend._apps == {}
        assert backend.liveness()["pids"] == [None, None]

    def test_spawn_pool_ships_apps_and_matches_serial(
        self, framework, apidb, small_corpus, task_spy, monkeypatch
    ):
        monkeypatch.setattr(
            parallel,
            "_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        apps = small_corpus[:4]
        toolset = ToolSet.default(framework, apidb)
        serial = run_tools(apps, toolset)
        pooled = run_tools(apps, toolset, jobs=2)
        assert pooled.findings_fingerprint() == serial.findings_fingerprint()
        tasks = [sent["task"] for sent in task_spy]
        assert len(tasks) == len(apps)
        assert all(isinstance(task[1], ForgedApp) for task in tasks)
        assert all(sent["apps"] == {} for sent in task_spy)


class TestCollector:
    def test_workers_freeze_the_substrate_and_the_caller_does_not(
        self, framework, apidb, small_corpus
    ):
        """Pool workers move the inherited substrate out of the cyclic
        collector's reach; the caller's process keeps no freeze, so its
        own cycles stay collectable."""
        before = gc.get_freeze_count()
        probe = ToolSet(framework, apidb, tools=[_FreezeProbe()])
        out = run_tools(small_corpus[:2], probe, jobs=2)
        assert gc.get_freeze_count() == before
        frozen = [
            int(result.error.message.rsplit("frozen=", 1)[1])
            for result in out.results
        ]
        assert len(frozen) == 2 and min(frozen) > 0


class TestCli:
    def test_jobs_flag_parses(self):
        parser = build_parser()
        assert parser.parse_args(["table", "2"]).jobs == 1
        assert parser.parse_args(["table", "2", "--jobs", "4"]).jobs == 4
        assert parser.parse_args(["rq2", "--jobs", "2"]).jobs == 2

    def test_robustness_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "rq2", "--max-retries", "2", "--retry-backoff", "0.5",
                "--timeout", "30", "--checkpoint", "run.jsonl",
            ]
        )
        assert args.max_retries == 2
        assert args.retry_backoff == 0.5
        assert args.timeout == 30.0
        assert args.checkpoint.name == "run.jsonl"
        defaults = parser.parse_args(["table", "2"])
        assert defaults.max_retries == 0
        assert defaults.checkpoint is None
