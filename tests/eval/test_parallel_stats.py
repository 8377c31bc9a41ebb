"""Tests for the pool's stats merging and loss synthesis.

`_merge_cache_stats` and `_worker_lost_results` are the two pure
helpers the pool backend leans on when things go wrong: the first
must stay honest about per-worker cache behavior (including the
degenerate no-snapshot case), the second must synthesize retryable
``worker-lost`` records that keep the run alive.  Both are also
exercised end-to-end here with a worker that actually dies mid-run.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ErrorKind
from repro.eval.faults import FaultKind, FaultPlan, InjectedFault
from repro.eval.parallel import _merge_cache_stats, _worker_lost_results
from repro.eval.runner import ToolSet, run_tools
from repro.workload.corpus import CorpusConfig, generate_corpus

STATS_CORPUS = CorpusConfig(
    count=6, kloc_median=1.5, kloc_max=4.0, seed=4242
)


@pytest.fixture(scope="module")
def corpus(apidb):
    return [m.forged for m in generate_corpus(STATS_CORPUS, apidb)]


def _snapshot(
    class_hits=0,
    class_misses=0,
    image_hits=0,
    image_misses=0,
    resolve_hits=0,
    resolve_misses=0,
    levels_hits=0,
    levels_misses=0,
    permission_hits=0,
    permission_misses=0,
):
    return {
        "framework": {
            "class_hits": class_hits,
            "class_misses": class_misses,
            "image_hits": image_hits,
            "image_misses": image_misses,
        },
        "apidb": {
            "resolve_hits": resolve_hits,
            "resolve_misses": resolve_misses,
            "levels_hits": levels_hits,
            "levels_misses": levels_misses,
            "permission_hits": permission_hits,
            "permission_misses": permission_misses,
        },
    }


class TestMergeCacheStats:
    def test_empty_snapshots(self):
        merged = _merge_cache_stats({})
        assert merged["workers"] == 0
        assert merged["framework"]["hit_rate"] == 0.0
        assert merged["framework"]["per_worker_hit_rates"] == []
        assert merged["apidb"]["hit_rate"] == 0.0

    def test_counters_are_summed(self):
        merged = _merge_cache_stats(
            {
                101: _snapshot(
                    class_hits=90, class_misses=10, levels_hits=5
                ),
                202: _snapshot(
                    class_hits=30, class_misses=70, levels_misses=5
                ),
            }
        )
        assert merged["workers"] == 2
        assert merged["framework"]["class_hits"] == 120
        assert merged["framework"]["class_misses"] == 80
        assert merged["framework"]["hit_rate"] == pytest.approx(0.6)
        assert merged["apidb"]["levels_hits"] == 5
        assert merged["apidb"]["levels_misses"] == 5
        assert merged["apidb"]["hit_rate"] == pytest.approx(0.5)

    def test_per_worker_rates_expose_the_cold_worker(self):
        """The blended rate can look healthy while one worker
        re-materialized the whole framework — the sorted per-worker
        list is what the benchmark asserts against."""
        merged = _merge_cache_stats(
            {
                101: _snapshot(class_hits=990, class_misses=10),
                202: _snapshot(class_hits=0, class_misses=100),
            }
        )
        assert merged["framework"]["hit_rate"] == pytest.approx(0.9)
        assert merged["framework"]["per_worker_hit_rates"] == [
            0.0,
            0.99,
        ]

    def test_worker_with_no_class_traffic_counts_as_zero(self):
        merged = _merge_cache_stats({101: _snapshot()})
        assert merged["framework"]["per_worker_hit_rates"] == [0.0]


class TestWorkerLostResults:
    def test_every_chunk_entry_gets_a_retryable_record(self, corpus):
        chunk = [
            (0, corpus[0], 0),
            (3, corpus[3], 1),
        ]
        out = _worker_lost_results(
            chunk, BrokenProcessPoolStandin("pool broke")
        )
        assert [index for index, _ in out] == [0, 3]
        for (_, result), (_, forged, attempt) in zip(out, chunk):
            assert result.app == forged.apk.name
            assert result.truth == forged.truth
            assert result.kloc == forged.apk.dex_kloc
            assert result.error is not None
            assert result.error.kind is ErrorKind.WORKER_LOST
            assert result.error.retryable
            assert result.error.attempts == attempt + 1
            assert "BrokenProcessPoolStandin" in result.error.message

    def test_empty_chunk_is_fine(self):
        assert _worker_lost_results([], RuntimeError("x")) == []


class BrokenProcessPoolStandin(RuntimeError):
    """Stands in for concurrent.futures.BrokenProcessPool."""


class TestStatsAcrossRetryRounds:
    def test_worker_death_midchunk_still_merges_stats(
        self, framework, apidb, corpus
    ):
        """A dying worker is replaced in place by a new process with a
        new pid.  The merged stats must reflect the respawned worker
        as well as the survivor, and the transiently killed app must
        come back clean."""
        out = run_tools(
            corpus,
            ToolSet.default(framework, apidb),
            jobs=2,
            max_retries=1,
            fault_plan=FaultPlan(
                faults={
                    1: InjectedFault(
                        FaultKind.WORKER_DEATH, fail_attempts=1
                    )
                }
            ),
        )
        assert len(out) == len(corpus)
        assert out.results[1].error is None
        stats = out.cache_stats
        # The survivor plus the respawned worker.
        assert stats["workers"] >= 2
        assert len(stats["framework"]["per_worker_hit_rates"]) == (
            stats["workers"]
        )
        assert stats["framework"]["class_hits"] > 0
