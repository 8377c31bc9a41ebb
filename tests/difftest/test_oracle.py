"""Oracle semantics on the coverage apps: agreement by default,
expected static FPs on the designed blind spots, level-sensitive
false-negative detection."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.difftest.oracle import Classification, DISAGREEMENTS
from repro.difftest.strategy import ALL_KINDS, materialize, plan_apps


@pytest.fixture(scope="module")
def coverage(tool, oracle, apidb):
    """kind -> (forged app, static report, oracle records)."""
    out = {}
    for plan in plan_apps(2026, len(ALL_KINDS), coverage=True):
        kind = plan.scenarios[0].kind
        forged = materialize(plan, apidb)
        report = tool.analyze(forged.apk)
        out[kind] = (forged, report, oracle.examine(forged, report))
    return out


def _classifications(coverage, kind):
    return {record.classification for record in coverage[kind][2]}


def test_unmutated_detector_never_disagrees(coverage):
    for kind, (_, _, records) in coverage.items():
        bad = [r for r in records if r.classification in DISAGREEMENTS]
        assert not bad, f"{kind}: {bad}"


def test_direct_issue_is_confirmed(coverage):
    assert Classification.AGREE_CONFIRMED in _classifications(
        coverage, "direct"
    )


def test_inverted_guard_is_a_real_issue(coverage):
    assert Classification.AGREE_CONFIRMED in _classifications(
        coverage, "inverted-guard"
    )


def test_guarded_call_is_silent(coverage):
    assert coverage["guarded-direct"][2] == []


def test_dead_code_is_expected_static_fp(coverage):
    assert _classifications(coverage, "dead-code") == {
        Classification.EXPECTED_STATIC_FP
    }


def test_anonymous_guard_is_expected_static_fp(coverage):
    assert Classification.EXPECTED_STATIC_FP in _classifications(
        coverage, "anonymous-guard"
    )


def test_callback_finding_is_static_only(coverage):
    assert Classification.AGREE_STATIC_ONLY in _classifications(
        coverage, "callback-modeled"
    )


def test_suppressed_finding_becomes_static_fn(oracle, coverage):
    """Strip the static report of a confirmed app: the crash the
    interpreter still observes must surface as a false negative."""
    forged, report, _ = coverage["direct"]
    records = oracle.examine(forged, replace(report, mismatches=()))
    fn = [
        r
        for r in records
        if r.classification is Classification.STATIC_FN
    ]
    assert fn
    assert all(r.kind == "API" for r in fn)
    assert all(r.level is not None for r in fn)


def test_signature_is_level_free(coverage):
    for _, _, records in coverage.values():
        for record in records:
            signature = record.signature
            assert signature == (
                record.classification.value,
                record.kind,
                record.subject,
            )
            assert all(isinstance(part, str) for part in signature)


def test_records_are_sorted_and_serializable(coverage):
    for _, _, records in coverage.values():
        keys = [
            (r.classification.value, r.kind, r.subject) for r in records
        ]
        assert keys == sorted(keys)
        for record in records:
            doc = record.to_dict()
            assert doc["app"] and doc["classification"]
