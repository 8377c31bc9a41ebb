"""SEM findings-fingerprint parity across every execution path.

A new mismatch kind must not disturb the orchestration invariants:
findings over a SEM-bearing corpus are identical on the serial path,
the process pool (``--jobs 2``), the class-artifact delta path
(``--dedup``), and the resident serve daemon.  SEM artifacts ride the
same codecs as every other kind, so any asymmetry here means a codec
or replay path dropped (or invented) semantic findings.
"""

from __future__ import annotations

import pytest

from repro.cache.classes import reset_class_stores
from repro.core.mismatch import MismatchKind
from repro.eval.runner import ToolSet, run_tools
from repro.workload.appgen import AppForge


@pytest.fixture(scope="module")
def corpus(apidb):
    """Four apps, every one carrying at least one SEM scenario; the
    shared picker seeds overlap so the dedup arm sees repeat classes."""
    apps = []
    for index in range(4):
        forge = AppForge(
            f"com.semparity.app{index}",
            f"SemParity{index}",
            apidb=apidb,
            min_sdk=19,
            target_sdk=26,
            seed=900 + index,
        )
        forge.add_semantic_issue()
        forge.add_guarded_semantic()
        if index % 2:
            forge.add_direct_issue()
        apps.append(forge.build())
    return apps


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("sem-class-store"))


@pytest.fixture(scope="module")
def lazy_run(framework, apidb, corpus):
    return run_tools(
        corpus,
        ToolSet.default(framework, apidb, include=("SAINTDroid",)),
    )


def test_corpus_actually_has_sem_findings(lazy_run):
    sem = [
        m
        for result in lazy_run.results
        for report in result.reports.values()
        for m in report.mismatches
        if m.kind is MismatchKind.SEMANTIC
    ]
    assert len(sem) == 4


def test_pooled_matches_serial(framework, apidb, corpus, lazy_run):
    pooled = run_tools(
        corpus,
        ToolSet.default(framework, apidb, include=("SAINTDroid",)),
        jobs=2,
    )
    assert (
        pooled.findings_fingerprint()
        == lazy_run.findings_fingerprint()
    )


def test_dedup_matches_lazy(
    framework, apidb, corpus, lazy_run, store_dir
):
    reset_class_stores()
    dedup = run_tools(
        corpus,
        ToolSet.default(
            framework, apidb, include=("SAINTDroid",),
            dedup=True, cache_dir=store_dir,
        ),
    )
    assert (
        dedup.findings_fingerprint()
        == lazy_run.findings_fingerprint()
    )
    # Replay from the freshly-populated store, serial and pooled: SEM
    # facts must come back out of the artifacts, not just fall out of
    # re-analysis.
    reset_class_stores()
    replayed = run_tools(
        corpus,
        ToolSet.default(
            framework, apidb, include=("SAINTDroid",),
            dedup=True, cache_dir=store_dir,
        ),
        jobs=2,
    )
    assert (
        replayed.findings_fingerprint()
        == lazy_run.findings_fingerprint()
    )
    reset_class_stores()


def test_serve_matches_lazy(
    spec, framework, apidb, corpus, lazy_run, tmp_path
):
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
