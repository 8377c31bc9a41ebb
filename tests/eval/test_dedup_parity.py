"""Lazy vs deduplicated (delta) analysis: findings parity everywhere.

``--dedup`` is a pure performance substitution: replaying per-class
artifacts from the content-addressed store must never change what the
detector finds.  The contract, enforced here and by the CI
``dedup-parity`` job:

* ``findings_fingerprint`` is identical between a lazy and a dedup
  run over the same corpus — on the serial path, the process pool
  (``--jobs 2``), and the serve daemon;
* a corrupted store degrades to cache misses, never to different
  findings (or errors);
* a faulted app never publishes artifacts: the store stays exactly as
  it was before the doomed pipeline started.
"""

from __future__ import annotations

import pytest

from repro.cache.classes import registered_stores, reset_class_stores
from repro.eval.faults import FaultKind, FaultPlan, InjectedFault
from repro.eval.runner import ToolSet, analyze_app, run_tools
from repro.workload.appgen import ForgedApp
from repro.workload.benchsuite import build_benchmark_suite
from repro.workload.corpus import (
    OverlapConfig,
    generate_overlapping_corpus,
)
from repro.workload.groundtruth import GroundTruth

from ..conftest import activity_class, make_apk

#: Small but overlap-shaped: every member embeds the same library
#: layer, so the dedup arm actually exercises hits after app 0.
PARITY_CORPUS = OverlapConfig(
    count=4, library_kloc=3.0, unique_kloc=1.0, seed=192837
)


@pytest.fixture(scope="module")
def corpus(apidb):
    return [
        m.forged for m in generate_overlapping_corpus(PARITY_CORPUS, apidb)
    ]


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("class-store"))


@pytest.fixture(scope="module")
def lazy_run(framework, apidb, corpus):
    return run_tools(
        corpus,
        ToolSet.default(framework, apidb, include=("SAINTDroid",)),
    )


@pytest.fixture(scope="module")
def dedup_run(framework, apidb, corpus, store_dir):
    reset_class_stores()
    return run_tools(
        corpus,
        ToolSet.default(
            framework, apidb, include=("SAINTDroid",),
            dedup=True, dedup_dir=store_dir,
        ),
    )


class TestFindingsParity:
    def test_serial_corpus_findings_identical(self, lazy_run, dedup_run):
        assert (
            lazy_run.findings_fingerprint()
            == dedup_run.findings_fingerprint()
        )

    def test_dedup_actually_deduplicates(self, dedup_run):
        stats = {}
        for store in registered_stores():
            for key, value in store.stats.as_dict().items():
                if not key.endswith("_rate"):
                    stats[key] = stats.get(key, 0) + value
        assert stats["hits"] > 0
        assert stats["stores"] > 0

    def test_full_fingerprints_differ_only_in_accounting(
        self, lazy_run, dedup_run
    ):
        """Modeled cost accounting IS expected to change (dedup
        implies the pre-summary shortcut) — the full fingerprint must
        therefore differ while findings agree, guarding against
        ``findings_fingerprint`` accidentally comparing nothing."""
        assert lazy_run.fingerprint() != dedup_run.fingerprint()

    def test_benchmark_suite_findings_identical(self, framework, apidb):
        """The replica suite concentrates every scenario kind the
        detectors know (guards, callbacks, permissions, dynamic
        loading), so parity here is parity where it matters.  The
        store is memory-only: dedup semantics must not depend on the
        disk tier."""
        apps = build_benchmark_suite(apidb, scale=0.25)
        lazy = run_tools(
            apps,
            ToolSet.default(framework, apidb, include=("SAINTDroid",)),
        )
        reset_class_stores()
        dedup = run_tools(
            apps,
            ToolSet.default(
                framework, apidb, include=("SAINTDroid",), dedup=True
            ),
        )
        assert (
            lazy.findings_fingerprint() == dedup.findings_fingerprint()
        )


class TestSchedulerParity:
    def test_pooled_dedup_matches_lazy(
        self, framework, apidb, corpus, lazy_run, store_dir
    ):
        """``--jobs 2`` — worker processes each open the shared store
        directory; artifacts written by one schedule must replay to
        the same findings."""
        pooled = run_tools(
            corpus,
            ToolSet.default(
                framework, apidb, include=("SAINTDroid",),
                dedup=True, dedup_dir=store_dir,
            ),
            jobs=2,
        )
        assert (
            pooled.findings_fingerprint()
            == lazy_run.findings_fingerprint()
        )

    def test_serve_dedup_matches_lazy(
        self, spec, framework, apidb, corpus, lazy_run, tmp_path
    ):
        """The resident daemon with ``dedup: true`` — jobs stream
        through pool workers that share one store directory."""
        from repro.apk.serialization import apk_to_dict
        from repro.serve import AnalysisService, ServeConfig

        config = ServeConfig(
            workers=2,
            include=("SAINTDroid",),
            timeout_s=30.0,
            retry_backoff_s=0.0,
            journal=str(tmp_path / "wal.jsonl"),
            dedup=True,
            cache_dir=str(tmp_path / "cache"),
        )
        service = AnalysisService(
            config, spec, substrate=(framework, apidb)
        ).start()
        try:
            jobs = [
                service.submit(apk_to_dict(app.apk)) for app in corpus
            ]
            lazy_by_app = {
                r.app: r.findings_fingerprint() for r in lazy_run.results
            }
            for app, job in zip(corpus, jobs):
                done = service.wait(job.id, timeout_s=60.0)
                assert done is not None and done.terminal
                assert done.result is not None
                assert (
                    done.result.findings_fingerprint()
                    == lazy_by_app[app.apk.name]
                )
        finally:
            service.drain(timeout_s=30.0)


class TestCorruptionResilience:
    def test_corrupt_store_degrades_to_misses_not_findings(
        self, framework, apidb, corpus, lazy_run, dedup_run, store_dir
    ):
        """Flip a byte in every on-disk artifact: the rerun must
        re-analyze (miss) and still match lazy findings."""
        from pathlib import Path

        entries = list(Path(store_dir).rglob("*.cls"))
        assert entries, "dedup run should have persisted artifacts"
        for path in entries:
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            path.write_bytes(bytes(blob))

        reset_class_stores()
        rerun = run_tools(
            corpus,
            ToolSet.default(
                framework, apidb, include=("SAINTDroid",),
                dedup=True, dedup_dir=store_dir,
            ),
        )
        assert (
            rerun.findings_fingerprint()
            == lazy_run.findings_fingerprint()
        )
        corrupt = sum(s.stats.corrupt for s in registered_stores())
        assert corrupt > 0


class TestChaosDiscipline:
    def test_faulted_app_never_populates_the_store(
        self, framework, apidb, tmp_path
    ):
        """A pipeline killed mid-analysis must leave no trace: only
        the surviving app's classes are answerable afterwards."""
        doomed = make_apk(
            [activity_class(package="com.chaos.doomed")],
            package="com.chaos.doomed",
        )
        survivor = make_apk(
            [activity_class(package="com.chaos.survivor")],
            package="com.chaos.survivor",
        )
        apps = [
            ForgedApp(apk=apk, truth=GroundTruth(app=apk.name))
            for apk in (doomed, survivor)
        ]
        plan = FaultPlan(
            faults={0: InjectedFault(FaultKind.CRASH, fail_attempts=None)}
        )
        reset_class_stores()
        results = run_tools(
            apps,
            ToolSet.default(
                framework, apidb, include=("SAINTDroid",),
                dedup=True, dedup_dir=str(tmp_path / "chaos-store"),
            ),
            fault_plan=plan,
        )
        assert results.results[0].error is not None
        assert results.results[1].error is None

        (store,) = registered_stores()
        for clazz in survivor.dex_files[0].classes:
            assert store.get(store.key_for(clazz)) is not None
        before = store.stats.misses
        for clazz in doomed.dex_files[0].classes:
            assert store.get(store.key_for(clazz)) is None
        assert store.stats.misses > before
        reset_class_stores()
