"""SEM — the behavior-only (semantic) mismatch kind — end to end.

SEM is this refactor's proof that the kind registry is a real seam:
the kind is registered from :mod:`repro.core.sem` and must flow from
the framework spec through mining, static detection, dynamic replay,
and every result codec without the core layers naming it.
"""

from __future__ import annotations

import pytest

from repro.cache import ResultCache, fingerprint_apk
from repro.core import SaintDroid
from repro.core.arm import mine_images, mine_spec
from repro.core.mismatch import MismatchKind
from repro.dynamic.interpreter import CrashKind
from repro.dynamic.verifier import DynamicVerifier, Verdict
from repro.eval import ToolSet, analyze_app
from repro.eval.checkpoint import (
    _mismatch_from_dict,
    _mismatch_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.workload.appgen import AppForge


@pytest.fixture(scope="module")
def detector(framework, apidb):
    return SaintDroid(framework, apidb)


def forge(apidb, **kwargs):
    defaults = dict(min_sdk=19, target_sdk=26, seed=41)
    defaults.update(kwargs)
    return AppForge(
        "com.sem.app", "SemApp", apidb=apidb, **defaults
    )


def _sem_findings(report):
    return [m for m in report.mismatches
            if m.kind is MismatchKind.SEMANTIC]


# ---------------------------------------------------------------------------
# mining: spec path and image path agree on every delta
# ---------------------------------------------------------------------------

def _delta_map(db):
    out = {}
    for name in db.class_names:
        entry = db.clazz(name)
        for method in entry.methods.values():
            if method.semantic_deltas:
                out[method.ref] = method.semantic_deltas
    return out


class TestMining:
    def test_spec_and_image_mining_agree(self, spec, framework):
        spec_deltas = _delta_map(mine_spec(spec))
        image_deltas = _delta_map(mine_images(framework))
        assert spec_deltas == image_deltas
        # The curated catalog seeds five delta-carrying methods (one
        # of them with two deltas).
        assert len(spec_deltas) == 5
        assert sum(len(v) for v in spec_deltas.values()) == 6

    def test_deltas_resolve_through_the_database(self, apidb):
        deltas = apidb.semantic_deltas_for(
            "android.os.Vibrator", "vibrate(long)void"
        )
        assert [d.level for d in deltas] == [26]
        assert deltas[0].change == "new-exception"

    def test_deltas_are_sorted_and_multi_delta_preserved(self, apidb):
        deltas = apidb.semantic_deltas_for(
            "android.net.ConnectivityManager",
            "getNetworkInfo(int)android.net.NetworkInfo",
        )
        assert [(d.level, d.change) for d in deltas] == [
            (23, "return-contract"), (28, "default-change")
        ]


# ---------------------------------------------------------------------------
# static detection
# ---------------------------------------------------------------------------

class TestDetection:
    def test_unguarded_delta_is_found(self, detector, apidb):
        f = forge(apidb)
        issue = f.add_semantic_issue()
        report = detector.analyze(f.build().apk)
        sem = _sem_findings(report)
        assert [m.key for m in sem] == [issue.key]
        assert sem[0].subject is not None

    def test_guarded_delta_is_silent(self, detector, apidb):
        f = forge(apidb)
        f.add_guarded_semantic()
        report = detector.analyze(f.build().apk)
        assert _sem_findings(report) == []

    def test_wrong_side_interval(self, detector, apidb):
        """Every reported level must disagree with the target SDK
        about at least one delta — that is SEM's detection rule."""
        f = forge(apidb)
        issue = f.add_semantic_issue()
        forged = f.build()
        report = detector.analyze(forged.apk)
        (sem,) = _sem_findings(report)
        subject_class, subject_name, subject_descriptor = issue.key[3]
        deltas = apidb.semantic_deltas_for(
            subject_class, f"{subject_name}{subject_descriptor}"
        )
        target = forged.apk.manifest.target_sdk
        hull = sem.missing_levels
        for bound in (hull.lo, hull.hi):
            assert any(
                (bound >= d.level) != (target >= d.level)
                for d in deltas
            ), (bound, target, deltas)

    def test_sem_report_counts_by_kind(self, detector, apidb):
        f = forge(apidb)
        f.add_semantic_issue()
        report = detector.analyze(f.build().apk)
        assert report.by_kind().get("SEM", 0) == 1


# ---------------------------------------------------------------------------
# dynamic replay: the interpreter observes the behavior difference
# ---------------------------------------------------------------------------

class TestDynamicReplay:
    def test_semantic_issue_confirmed(self, detector, apidb):
        f = forge(apidb)
        issue = f.add_semantic_issue()
        forged = f.build()
        report = detector.analyze(forged.apk)
        result = DynamicVerifier(forged.apk, apidb).verify_all(report)
        matches = [
            v for v in result.verified if v.mismatch.key == issue.key
        ]
        assert len(matches) == 1
        verified = matches[0]
        assert verified.verdict is Verdict.CONFIRMED
        assert verified.evidence is not None
        assert verified.evidence.kind is CrashKind.BEHAVIOR_CHANGE


# ---------------------------------------------------------------------------
# codecs: SEM findings survive every persistence boundary
# ---------------------------------------------------------------------------

class TestCodecs:
    @pytest.fixture(scope="class")
    def sem_app(self, apidb):
        f = forge(apidb)
        f.add_semantic_issue()
        f.add_guarded_semantic()
        return f.build()

    @pytest.fixture(scope="class")
    def sem_result(self, framework, apidb, sem_app):
        toolset = ToolSet.default(
            framework, apidb, include=("SAINTDroid",)
        )
        return analyze_app(toolset, sem_app)

    def test_mismatch_codec_round_trip(self, detector, sem_app):
        report = detector.analyze(sem_app.apk)
        (sem,) = _sem_findings(report)
        clone = _mismatch_from_dict(_mismatch_to_dict(sem))
        assert clone.kind is MismatchKind.SEMANTIC
        assert clone.key == sem.key
        assert clone.describe() == sem.describe()

    def test_journal_record_round_trip(self, sem_result):
        index, restored = result_from_dict(
            result_to_dict(7, sem_result)
        )
        assert index == 7
        assert (
            restored.findings_fingerprint()
            == sem_result.findings_fingerprint()
        )
        report = restored.reports["SAINTDroid"]
        assert report.by_kind().get("SEM", 0) == 1

    def test_result_cache_round_trip(self, tmp_path, sem_app, sem_result):
        cache = ResultCache(
            tmp_path, framework_fingerprint="fw", config_fingerprint="cfg"
        )
        fp = fingerprint_apk(sem_app.apk)
        assert cache.get(fp) is None
        assert cache.put(fp, sem_result)
        restored = cache.get(fp)
        assert restored is not None
        assert (
            restored.findings_fingerprint()
            == sem_result.findings_fingerprint()
        )
        report = restored.reports["SAINTDroid"]
        assert any(
            m.kind is MismatchKind.SEMANTIC for m in report.mismatches
        )
