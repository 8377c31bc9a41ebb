"""E1 — Table II: accuracy of SAINTDroid vs CID vs CIDER vs Lint on
the 19 benchmark replicas.

Paper anchors asserted (section V-A prose; the combined
precision/recall/F1 of column one):

* SAINTDroid combined API+APC: precision ≈0.79, recall ≈0.93, F1 ≈0.85;
* SAINTDroid detects 40 of the 42 callback issues with zero APC false
  positives (the two misses live in anonymous inner classes);
* Lint's combined recall ≈0.19; CIDER detects only modeled-class
  callbacks; CID detects no callbacks at all;
* SAINTDroid issues 11-52% fewer false alarms than the baselines.
"""

import pytest

from .conftest import assert_committed


@pytest.fixture(scope="module")
def table(session):
    return session.result("table2.txt").data


def test_table2_accuracy(table):
    totals = table.totals
    combined = totals["SAINTDroid"]["API+APC"]
    assert 0.72 <= combined.precision <= 0.88
    assert 0.88 <= combined.recall <= 0.98
    assert 0.80 <= combined.f1 <= 0.92

    apc = totals["SAINTDroid"]["APC"]
    assert apc.tp == 40 and apc.fn == 2 and apc.fp == 0

    assert totals["Lint"]["API+APC"].recall <= 0.25
    assert totals["CIDER"]["API"].tp == 0
    assert totals["CID"]["APC"].tp == 0
    assert totals["CIDER"]["APC"].tp > 0
    assert totals["CIDER"]["APC"].recall < combined.recall

    # Fewer false alarms than every baseline with overlapping scope.
    saint_fp = combined.fp
    cid_fp = totals["CID"]["API+APC"].fp
    lint_fp = totals["Lint"]["API+APC"].fp
    assert saint_fp < cid_fp
    assert saint_fp < lint_fp
    assert 0.11 <= 1 - saint_fp / cid_fp <= 0.60


def test_saintdroid_beats_every_tool_on_f1(table):
    best = table.totals["SAINTDroid"]["API+APC"].f1
    for tool in ("CID", "CIDER", "Lint"):
        assert table.totals[tool]["API+APC"].f1 < best


def test_prm_detection_is_unique_to_saintdroid(session):
    accuracies = session.bench_run.accuracies()
    assert accuracies["SAINTDroid"].group("PRM").tp >= 3
    assert accuracies["SAINTDroid"].group("PRM").fp == 0
    for tool in ("CID", "CIDER", "Lint"):
        assert accuracies[tool].group("PRM").reported == 0


def test_committed_results_reproduce(session):
    assert_committed(session, "table2.txt")
