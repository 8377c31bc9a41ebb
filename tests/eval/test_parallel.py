"""Tests for the parallel corpus-analysis engine.

The load-bearing property is *equivalence*: a parallel run must be
indistinguishable (fingerprint-identical) from a serial run over the
same corpus.  The rest is failure isolation — one poisoned app must
never cost the run the remaining apps — plus the scheduling and cache
accounting around it.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cli import build_parser
from repro.core.errors import ErrorKind
from repro.eval import parallel
from repro.eval import (
    AppTimeoutError,
    ParallelConfig,
    RunResults,
    ToolSet,
    analyze_app,
    run_tools,
    run_tools_parallel,
)
from repro.workload.appgen import ForgedApp
from repro.workload.corpus import CorpusConfig, generate_corpus
from repro.workload.groundtruth import GroundTruth

#: Small but non-trivial corpus: mixed targets, seeded issues, tiny
#: app bodies so the whole file stays fast.
SMALL_CORPUS = CorpusConfig(count=6, kloc_median=1.5, kloc_max=4.0)


@pytest.fixture(scope="module")
def small_corpus(apidb):
    return [member.forged for member in generate_corpus(SMALL_CORPUS, apidb)]


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


class TestEquivalence:
    def test_parallel_matches_serial(
        self, framework, apidb, small_corpus
    ):
        toolset = ToolSet.default(framework, apidb)
        serial = run_tools(small_corpus, toolset)
        parallel = run_tools(small_corpus, toolset, jobs=3, chunk_size=2)
        assert serial.fingerprint() == parallel.fingerprint()
        assert len(parallel) == len(small_corpus)
        assert [r.app for r in parallel.results] == [
            f.apk.name for f in small_corpus
        ]

    def test_parallel_cache_stats_merged(
        self, spec, small_corpus
    ):
        config = ParallelConfig(jobs=2, chunk_size=2, include=("SAINTDroid",))
        out = run_tools_parallel(small_corpus, spec, config)
        stats = out.cache_stats
        assert stats["workers"] >= 1
        # From the second app onward the framework image and database
        # memo tables are warm — hits must be nonzero.
        assert stats["framework"]["class_hits"] > 0
        assert stats["apidb"]["levels_hits"] > 0
        assert 0.0 < stats["apidb"]["hit_rate"] <= 1.0

    def test_empty_corpus(self, spec):
        out = run_tools_parallel([], spec, ParallelConfig(jobs=2))
        assert isinstance(out, RunResults)
        assert len(out) == 0


class TestFailureIsolation:
    def test_poisoned_app_does_not_kill_the_run(
        self, spec, small_corpus
    ):
        apps = [small_corpus[0], _kaboom(), small_corpus[1]]
        config = ParallelConfig(
            jobs=2, chunk_size=1, include=("SAINTDroid",)
        )
        out = run_tools_parallel(apps, spec, config)
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
    def test_resolved_chunk_size_default(self):
        config = ParallelConfig(jobs=4)
        # 160 apps / 4 workers = 40 per worker -> several chunks each,
        # capped so pickling never dominates.
        assert 1 <= config.resolved_chunk_size(160) <= 16
        assert config.resolved_chunk_size(2) == 1

    def test_resolved_chunk_size_explicit(self):
        config = ParallelConfig(jobs=4, chunk_size=7)
        assert config.resolved_chunk_size(1000) == 7
        assert ParallelConfig(chunk_size=0).resolved_chunk_size(10) == 1

    def test_progress_callback_sees_every_app(self, spec, small_corpus):
        seen: list[str] = []
        config = ParallelConfig(jobs=2, include=("SAINTDroid",))
        run_tools_parallel(
            small_corpus[:3], spec, config, progress=seen.append
        )
        assert sorted(seen) == sorted(
            f.apk.name for f in small_corpus[:3]
        )


class _SpyPool(ProcessPoolExecutor):
    """Records, parent-side, every chunk the engine submits and the
    round's app map at that moment."""

    chunks: list = []
    maps: list = []

    def submit(self, fn, chunk, *args, **kwargs):
        type(self).chunks.append(chunk)
        type(self).maps.append(dict(parallel._ROUND_APPS))
        return super().submit(fn, chunk, *args, **kwargs)


class _RaisingPool(_SpyPool):
    def submit(self, fn, chunk, *args, **kwargs):
        type(self).maps.append(dict(parallel._ROUND_APPS))
        raise RuntimeError("submit failed")


@pytest.fixture()
def spy_pool(monkeypatch):
    _SpyPool.chunks, _SpyPool.maps = [], []
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _SpyPool)
    return _SpyPool


class TestAppShipping:
    """Forked workers inherit the round's apps and are sent indices;
    other start methods are sent the apps themselves."""

    def test_forked_chunks_carry_indices_only(
        self, spec, small_corpus, spy_pool
    ):
        assert parallel._pool_context().get_start_method() == "fork"
        config = ParallelConfig(jobs=2, chunk_size=2, include=("SAINTDroid",))
        out = run_tools_parallel(small_corpus, spec, config)
        assert all(result.ok for result in out.results)
        entries = [entry for chunk in spy_pool.chunks for entry in chunk]
        assert sorted(index for index, _, _ in entries) == list(
            range(len(small_corpus))
        )
        assert all(forged is None for _, forged, _ in entries)
        for app_map in spy_pool.maps:
            assert app_map == dict(enumerate(small_corpus))
        assert parallel._ROUND_APPS == {}

    def test_app_map_cleared_when_a_round_raises(
        self, spec, small_corpus, monkeypatch
    ):
        _RaisingPool.maps = []
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _RaisingPool)
        backend = parallel.PoolBackend(
            spec, ParallelConfig(jobs=2, include=("SAINTDroid",))
        )
        pending = [
            (index, forged, 0) for index, forged in enumerate(small_corpus)
        ]
        with pytest.raises(RuntimeError, match="submit failed"):
            backend.run_round(pending, 0)
        assert _RaisingPool.maps == [dict(enumerate(small_corpus))]
        assert parallel._ROUND_APPS == {}

    def test_spawn_pool_ships_apps_and_matches_serial(
        self, spec, framework, apidb, small_corpus, spy_pool, monkeypatch
    ):
        monkeypatch.setattr(
            parallel,
            "_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        apps = small_corpus[:4]
        serial = run_tools(apps, ToolSet.default(framework, apidb))
        pooled = run_tools_parallel(apps, spec, ParallelConfig(jobs=2))
        assert pooled.findings_fingerprint() == serial.findings_fingerprint()
        entries = [entry for chunk in spy_pool.chunks for entry in chunk]
        assert len(entries) == len(apps)
        assert all(isinstance(forged, ForgedApp) for _, forged, _ in entries)
        assert all(app_map == {} for app_map in spy_pool.maps)


class TestCli:
    def test_jobs_flag_parses(self):
        parser = build_parser()
        assert parser.parse_args(["table", "2"]).jobs == 1
        assert parser.parse_args(["table", "2", "--jobs", "4"]).jobs == 4
        assert parser.parse_args(["rq2", "--jobs", "2"]).jobs == 2
        assert parser.parse_args(
            ["sweep", "--jobs", "3", "--bulk-sizes", "200", "400"]
        ).jobs == 3

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
