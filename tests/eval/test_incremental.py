"""End-to-end tests for persistent incremental runs.

The contract under test: a warm run over an unchanged corpus is
fingerprint-identical to the cold run that populated the cache — for
serial and parallel schedules, with and without checkpoints — and the
cache never masks a fault-injected or quarantined app.
"""

from __future__ import annotations

import pytest

from repro.eval import ToolSet, run_tools
from repro.eval.faults import FaultKind, FaultPlan, InjectedFault
from repro.eval.tables import phase_breakdown, render_phases
from repro.workload.corpus import CorpusConfig, generate_corpus

SMALL_CORPUS = CorpusConfig(count=5, kloc_median=1.5, kloc_max=4.0)
TOOLS = ("SAINTDroid", "CID")


@pytest.fixture(scope="module")
def small_corpus(apidb):
    return [m.forged for m in generate_corpus(SMALL_CORPUS, apidb)]


@pytest.fixture(scope="module")
def toolset(framework, apidb):
    return ToolSet.default(framework, apidb, include=TOOLS)


@pytest.fixture(scope="module")
def baseline(toolset, small_corpus):
    """Uncached reference run."""
    return run_tools(small_corpus, toolset)


def fresh_toolset(framework, apidb):
    return ToolSet.default(framework, apidb, include=TOOLS)


class TestWarmRuns:
    def test_cold_then_warm_identical_fingerprints(
        self, tmp_path, framework, apidb, small_corpus, baseline
    ):
        cold = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        assert cold.fingerprint() == baseline.fingerprint()
        assert cold.cached_indices == ()
        assert cold.cache_stats["results"]["stores"] == len(small_corpus)

        warm = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        assert warm.fingerprint() == baseline.fingerprint()
        assert warm.cached_indices == tuple(range(len(small_corpus)))
        stats = warm.cache_stats["results"]
        assert stats["hits"] == len(small_corpus)
        assert stats["misses"] == 0
        assert all(result.from_cache for result in warm.results)

    def test_parallel_warm_equals_serial_cold(
        self, tmp_path, framework, apidb, small_corpus, baseline
    ):
        run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        parallel = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            jobs=2,
            cache_dir=tmp_path,
        )
        assert parallel.fingerprint() == baseline.fingerprint()
        assert parallel.cache_stats["results"]["hits"] == len(
            small_corpus
        )

    def test_parallel_cold_populates_cache(
        self, tmp_path, framework, apidb, small_corpus, baseline
    ):
        cold = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            jobs=2,
            cache_dir=tmp_path,
        )
        assert cold.fingerprint() == baseline.fingerprint()
        assert cold.cache_stats["results"]["stores"] == len(small_corpus)
        warm = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        assert warm.fingerprint() == baseline.fingerprint()
        assert warm.cache_stats["results"]["hits"] == len(small_corpus)

    def test_corpus_change_invalidates_only_changed_apps(
        self, tmp_path, framework, apidb, small_corpus, baseline
    ):
        run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        # Swap one app for a differently-seeded one: only it misses.
        other = [
            m.forged
            for m in generate_corpus(
                CorpusConfig(count=5, kloc_median=1.5, kloc_max=4.0,
                             seed=SMALL_CORPUS.seed + 1),
                apidb,
            )
        ]
        edited = list(small_corpus)
        edited[2] = other[2]
        run = run_tools(
            edited, fresh_toolset(framework, apidb), cache_dir=tmp_path
        )
        stats = run.cache_stats["results"]
        assert stats["hits"] == 4
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert 2 not in run.cached_indices

    def test_different_toolset_never_shares_entries(
        self, tmp_path, framework, apidb, small_corpus
    ):
        run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        other = run_tools(
            small_corpus,
            ToolSet.default(framework, apidb, include=("SAINTDroid",)),
            cache_dir=tmp_path,
        )
        stats = other.cache_stats["results"]
        assert stats["hits"] == 0
        assert stats["misses"] == len(small_corpus)


class TestChaosInterplay:
    def test_faulted_index_bypasses_warm_cache(
        self, tmp_path, framework, apidb, small_corpus
    ):
        run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        plan = FaultPlan(
            {2: InjectedFault(kind=FaultKind.CRASH, fail_attempts=None)}
        )
        chaos = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
            fault_plan=plan,
            max_retries=1,
        )
        # The faulted app is quarantined even though a clean cached
        # entry exists for it, and nothing new is stored.
        assert not chaos.results[2].ok
        stats = chaos.cache_stats["results"]
        assert stats["hits"] == len(small_corpus) - 1
        assert stats["stores"] == 0
        assert 2 not in chaos.cached_indices

    def test_quarantine_set_matches_uncached_chaos_run(
        self, tmp_path, framework, apidb, small_corpus
    ):
        plan = FaultPlan(
            {
                1: InjectedFault(
                    kind=FaultKind.CRASH, fail_attempts=None
                ),
                3: InjectedFault(
                    kind=FaultKind.CRASH, fail_attempts=None
                ),
            }
        )
        uncached = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            fault_plan=plan,
            max_retries=1,
        )
        run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        cached = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
            fault_plan=plan,
            max_retries=1,
        )
        assert cached.failed_apps == uncached.failed_apps

    def test_failed_results_never_enter_the_cache(
        self, tmp_path, framework, apidb, small_corpus
    ):
        plan = FaultPlan(
            {0: InjectedFault(kind=FaultKind.CRASH, fail_attempts=None)}
        )
        run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
            fault_plan=plan,
        )
        # Next clean run must re-analyze index 0 (miss), hit the rest.
        clean = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        stats = clean.cache_stats["results"]
        assert stats["misses"] == 1
        assert stats["hits"] == len(small_corpus) - 1
        assert clean.results[0].ok


class TestCheckpointInterplay:
    def test_cache_hits_are_journaled(
        self, tmp_path, framework, apidb, small_corpus, baseline
    ):
        cache = tmp_path / "cache"
        run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=cache,
        )
        journal = tmp_path / "run.jsonl"
        warm = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=cache,
            checkpoint=journal,
        )
        assert warm.fingerprint() == baseline.fingerprint()
        # A resume over the same journal restores everything without
        # touching cache or analysis.
        resumed = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            checkpoint=journal,
        )
        assert resumed.fingerprint() == baseline.fingerprint()
        assert resumed.resumed_indices == tuple(
            range(len(small_corpus))
        )


class TestPhaseTiming:
    def test_saintdroid_reports_pipeline_phases(self, baseline):
        report = baseline.results[0].reports["SAINTDroid"]
        phases = report.metrics.phase_seconds
        assert set(phases) == {"load", "explore", "guards", "detect"}
        assert phases["load"] == 0.0  # lazy loading: no eager phase
        assert phases["explore"] > 0.0
        assert phases["detect"] > 0.0

    def test_baselines_report_detect_phase(self, baseline):
        report = baseline.results[0].reports["CID"]
        phases = report.metrics.phase_seconds
        assert set(phases) == {"detect"}
        assert phases["detect"] == pytest.approx(
            report.metrics.wall_time_s
        )

    def test_eager_ablation_times_the_load_phase(
        self, framework, apidb, small_corpus
    ):
        from repro.core.detector import SaintDroid

        eager = SaintDroid(framework, apidb, lazy_loading=False)
        report = eager.analyze(small_corpus[0].apk)
        assert report.metrics.phase_seconds["load"] > 0.0

    def test_run_phase_totals_aggregate(self, baseline):
        totals = baseline.phase_totals()
        per_app = [r.phase_seconds() for r in baseline.results]
        assert totals["detect"] == pytest.approx(
            sum(p.get("detect", 0.0) for p in per_app)
        )

    def test_phase_breakdown_and_renderer(self, baseline):
        breakdown = phase_breakdown(baseline)
        assert breakdown["apps"] == len(baseline.results)
        assert breakdown["cached_apps"] == 0
        assert set(breakdown["per_tool"]) == set(TOOLS)
        text = render_phases(breakdown)
        assert "explore" in text
        assert "SAINTDroid" in text

    def test_phase_seconds_survive_the_cache(
        self, tmp_path, framework, apidb, small_corpus
    ):
        cold = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        warm = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        for phase, seconds in cold.phase_totals().items():
            assert warm.phase_totals()[phase] == pytest.approx(seconds)

    def test_export_includes_phase_seconds(self, tmp_path, baseline):
        import json

        from repro.eval import export_run_json

        path = tmp_path / "run.json"
        export_run_json(baseline, path)
        payload = json.loads(path.read_text())
        phases = payload[0]["tools"]["SAINTDroid"]["phaseSeconds"]
        assert set(phases) == {"load", "explore", "guards", "detect"}


class TestRetryRoundSubstrateReuse:
    def test_retry_rounds_inherit_parent_database(
        self, framework, apidb, small_corpus, baseline
    ):
        """A retrying parallel run (multiple fresh pools) stays
        fingerprint-identical and recovers the transient fault —
        with the parent-built database inherited by every round."""
        from repro.core import arm

        # Worker death is retryable: round 1 dispatches the app on a
        # fresh pool, whose workers must inherit the substrate.
        plan = FaultPlan(
            {
                1: InjectedFault(
                    kind=FaultKind.WORKER_DEATH, fail_attempts=1
                )
            }
        )
        run = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            jobs=2,
            fault_plan=plan,
            max_retries=2,
        )
        assert run.fingerprint() == baseline.fingerprint()
        # The parent registered its substrate for worker inheritance.
        assert arm._cached(framework.spec) is not None


class TestPassTiming:
    """Per-pass timing terms: populated, journaled, exported."""

    def test_saintdroid_pass_terms(self, baseline):
        report = baseline.results[0].reports["SAINTDroid"]
        passes = report.metrics.pass_seconds
        assert tuple(passes) == (
            "manifest-ingest", "clvm-load", "icfg-explore",
            "guard-propagation", "override-collection",
            "permission-annotation", "detect-api", "detect-apc",
            "detect-prm", "detect-sem",
        )

    def test_pass_seconds_survive_the_cache(
        self, tmp_path, framework, apidb, small_corpus
    ):
        run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        warm = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            cache_dir=tmp_path,
        )
        report = warm.results[0].reports["SAINTDroid"]
        assert report.metrics.pass_seconds
        assert all(result.from_cache for result in warm.results)

    def test_pass_seconds_survive_the_journal(
        self, tmp_path, framework, apidb, small_corpus, baseline
    ):
        journal = tmp_path / "run.jsonl"
        run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            checkpoint=journal,
        )
        resumed = run_tools(
            small_corpus,
            fresh_toolset(framework, apidb),
            checkpoint=journal,
        )
        assert resumed.resumed_indices == tuple(
            range(len(small_corpus))
        )
        restored = resumed.results[0].reports["SAINTDroid"].metrics
        fresh = baseline.results[0].reports["SAINTDroid"].metrics
        assert set(restored.pass_seconds) == set(fresh.pass_seconds)

    def test_export_includes_pass_seconds(self, tmp_path, baseline):
        import json

        from repro.eval import export_run_json

        path = tmp_path / "run.json"
        export_run_json(baseline, path)
        payload = json.loads(path.read_text())
        passes = payload[0]["tools"]["SAINTDroid"]["passSeconds"]
        assert "icfg-explore" in passes
        assert "cid-detect-api" in payload[0]["tools"]["CID"]["passSeconds"]

    def test_breakdown_renders_per_pass_terms(self, baseline):
        breakdown = phase_breakdown(baseline)
        assert set(breakdown["per_pass"]) == set(TOOLS)
        assert "guard-propagation" in breakdown["per_pass"]["SAINTDroid"]
        text = render_phases(breakdown)
        assert "Per-pass terms:" in text
        assert "guard-propagation" in text
