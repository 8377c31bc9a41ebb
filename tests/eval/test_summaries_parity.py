"""Lazy vs summarized exploration: findings parity, cost ordering.

The framework pre-summary mode exists purely as a performance
substitution — it must never change what the detector finds.  The
contract, enforced here and by the CI parity job:

* ``findings_fingerprint`` (mismatches + failure flags + error
  records) is identical between a lazy and a summarized run over the
  same corpus;
* the summarized mode's modeled work and memory are strictly lower
  (that is the whole point of the table);
* parallel summarized runs are full-fingerprint identical to serial
  summarized runs — including over the shared-memory attach path.
"""

from __future__ import annotations

import pytest

from repro.eval.runner import ToolSet, run_tools
from repro.workload.benchsuite import build_benchmark_suite
from repro.workload.corpus import CorpusConfig, generate_corpus

PARITY_CORPUS = CorpusConfig(
    count=8, kloc_median=2.0, kloc_max=6.0, seed=86420
)


@pytest.fixture(scope="module")
def corpus(apidb):
    return [m.forged for m in generate_corpus(PARITY_CORPUS, apidb)]


@pytest.fixture(scope="module")
def lazy_run(framework, apidb, corpus):
    return run_tools(
        corpus,
        ToolSet.default(framework, apidb, include=("SAINTDroid",)),
    )


@pytest.fixture(scope="module")
def summarized_run(framework, apidb, corpus):
    return run_tools(
        corpus,
        ToolSet.default(
            framework, apidb, include=("SAINTDroid",), summaries=True
        ),
    )


class TestFindingsParity:
    def test_corpus_findings_identical(self, lazy_run, summarized_run):
        assert (
            lazy_run.findings_fingerprint()
            == summarized_run.findings_fingerprint()
        )

    def test_benchmark_suite_findings_identical(self, framework, apidb):
        """The replica suite concentrates every scenario kind the
        detectors know (guards, callbacks, permissions, dynamic
        loading), so parity here is parity where it matters."""
        apps = build_benchmark_suite(apidb, scale=0.25)
        lazy = run_tools(
            apps,
            ToolSet.default(framework, apidb, include=("SAINTDroid",)),
        )
        summarized = run_tools(
            apps,
            ToolSet.default(
                framework, apidb, include=("SAINTDroid",),
                summaries=True,
            ),
        )
        assert (
            lazy.findings_fingerprint()
            == summarized.findings_fingerprint()
        )

    def test_full_fingerprints_differ_only_in_accounting(
        self, lazy_run, summarized_run
    ):
        """Work/memory units ARE expected to change — the full
        fingerprint must therefore differ while findings agree (guards
        against findings_fingerprint accidentally comparing nothing)."""
        assert lazy_run.fingerprint() != summarized_run.fingerprint()


class TestCostOrdering:
    def test_summarized_work_and_memory_are_lower(
        self, lazy_run, summarized_run
    ):
        lazy_work = summarized_work = 0
        lazy_memory = summarized_memory = 0
        for lazy_result, summarized_result in zip(
            lazy_run.results, summarized_run.results
        ):
            lazy_stats = (
                lazy_result.reports["SAINTDroid"].metrics.stats
            )
            summarized_stats = (
                summarized_result.reports["SAINTDroid"].metrics.stats
            )
            lazy_work += lazy_stats.work_units
            summarized_work += summarized_stats.work_units
            lazy_memory += lazy_stats.memory_units
            summarized_memory += summarized_stats.memory_units
        assert summarized_work < lazy_work
        assert summarized_memory < lazy_memory

    def test_unit_totals_are_pinned(self, lazy_run, summarized_run):
        """The parity corpus's exact cost-model totals: a change to how
        the table is built or replayed must not move the accounting of
        either mode."""
        def totals(run):
            stats = [
                r.reports["SAINTDroid"].metrics.stats for r in run.results
            ]
            return (
                sum(s.work_units for s in stats),
                sum(s.memory_units for s in stats),
            )

        assert totals(lazy_run) == (228_421, 288_106)
        assert totals(summarized_run) == (35_656, 82_614)

    def test_summarized_mode_actually_summarizes(self, summarized_run):
        summarized_classes = sum(
            r.reports["SAINTDroid"].metrics.stats.classes_summarized
            for r in summarized_run.results
        )
        assert summarized_classes > 0


class TestSchedulerParity:
    def test_parallel_summarized_matches_serial(
        self, framework, apidb, corpus, summarized_run
    ):
        parallel = run_tools(
            corpus,
            ToolSet.default(
                framework, apidb, include=("SAINTDroid",),
                summaries=True,
            ),
            jobs=2,
        )
        assert parallel.fingerprint() == summarized_run.fingerprint()
