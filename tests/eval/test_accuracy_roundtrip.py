"""Ground truth <-> accuracy round trip.

Every issue and trap the generators can seed must be *countable*: its
kind maps into the precision/recall table groups, its keys survive
JSON serialization, and scoring closes the books (tp + fn == seeded
issues).  The difftest coverage apps exercise every scenario kind —
including the dead-code trap — so they double as the exhaustive
fixture here.
"""

from __future__ import annotations

import json

import pytest

from repro.core.detector import SaintDroid
from repro.difftest.strategy import ALL_KINDS, materialize, plan_apps
from repro.eval.accuracy import KIND_GROUPS, score_app, score_apps
from repro.workload.groundtruth import GroundTruth, Trait


@pytest.fixture(scope="module")
def coverage(apidb):
    plans = plan_apps(2026, len(ALL_KINDS), coverage=True)
    return [materialize(plan, apidb) for plan in plans]


@pytest.fixture(scope="module")
def scored_pairs(coverage, framework, apidb):
    tool = SaintDroid(framework, apidb)
    return [
        (tool.analyze(forged.apk), forged.truth) for forged in coverage
    ]


def test_every_trait_is_seedable(coverage):
    """The coverage apps exercise the full Trait enum — a new trait
    without a scenario would be untestable."""
    seen = set()
    for forged in coverage:
        seen.update(issue.trait for issue in forged.truth.issues)
        seen.update(trap.trait for trap in forged.truth.traps)
    assert seen == set(Trait)


def test_every_issue_kind_lands_in_the_tables(coverage):
    countable = set(KIND_GROUPS["ALL"])
    for forged in coverage:
        for issue in forged.truth.issues:
            assert issue.kind in countable
            assert issue.key[0] == issue.kind
        for trap in forged.truth.traps:
            for key in trap.fp_keys:
                assert key[0] in countable


def test_truth_json_round_trip(coverage):
    for forged in coverage:
        doc = json.loads(json.dumps(forged.truth.to_dict()))
        restored = GroundTruth.from_dict(doc)
        assert restored.issue_keys == forged.truth.issue_keys
        assert {
            (trap.trait, trap.fp_keys) for trap in restored.traps
        } == {
            (trap.trait, trap.fp_keys) for trap in forged.truth.traps
        }


def test_scoring_closes_the_books(scored_pairs):
    """Per app: tp + fn == seeded issues, for the ALL pool and for
    each per-kind group — no seeded issue can escape the tables."""
    for report, truth in scored_pairs:
        counts = score_app(report, truth, KIND_GROUPS["ALL"])
        assert counts.actual == len(truth.issue_keys)
        per_kind = sum(
            score_app(report, truth, KIND_GROUPS[name]).actual
            for name in ("API", "APC", "PRM", "SEM")
        )
        assert per_kind == len(truth.issue_keys)


def test_aggregation_matches_per_app_sum(scored_pairs):
    accuracy = score_apps("SAINTDroid", scored_pairs)
    for name, kinds in KIND_GROUPS.items():
        total = accuracy.group(name)
        tp = fp = fn = 0
        for report, truth in scored_pairs:
            counts = score_app(report, truth, kinds)
            tp += counts.tp
            fp += counts.fp
            fn += counts.fn
        assert (total.tp, total.fp, total.fn) == (tp, fp, fn)
        assert 0.0 <= total.precision <= 1.0
        assert 0.0 <= total.recall <= 1.0


def test_dead_code_trap_counts_as_false_positive(scored_pairs):
    """The dead-code trap (expected disagreement for the oracle) is
    still an accuracy FP: its key is outside the true-issue set but
    inside the countable kinds."""
    trapped = [
        (report, truth)
        for report, truth in scored_pairs
        if truth.traps_with_trait(Trait.TRAP_DEAD_CODE)
    ]
    assert trapped
    for report, truth in trapped:
        counts = score_app(report, truth, KIND_GROUPS["ALL"])
        expected = {
            key
            for trap in truth.traps_with_trait(Trait.TRAP_DEAD_CODE)
            for key in trap.fp_keys
        }
        assert expected <= set(report.keys)
        assert counts.fp >= len(expected)
