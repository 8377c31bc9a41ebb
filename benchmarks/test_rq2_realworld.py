"""E2 — RQ2: real-world applicability over the calibrated corpus.

Paper anchors (3,571 apps; ``rq2.txt`` is a 150-app sample — rates,
not totals, are the reproduction target; ``saintdroid rq2 --count
3571`` runs the full scale):

* 41.19% of apps harbor ≥1 API invocation mismatch (68,268 total →
  ≈19 reports per app on average);
* 20.05% of apps have callback mismatches (2,115 total);
* 12.34% of ≥23-targeting apps have a permission request mismatch;
  68.68% of ≤22-targeting apps are open to revocation;
* sampled precision (60 flagged apps): API 85%, APC 100%, PRM 100%.
"""

import pytest

from .conftest import assert_committed


@pytest.fixture(scope="module")
def summary(session):
    return session.result("rq2.txt").data


def test_rq2_population_rates(summary):
    assert 30.0 <= summary["api_apps_pct"] <= 55.0     # paper: 41.19%
    assert 12.0 <= summary["apc_apps_pct"] <= 30.0     # paper: 20.05%
    assert 5.0 <= summary["request_pct"] <= 25.0       # paper: 12.34%
    assert 50.0 <= summary["revocation_pct"] <= 85.0   # paper: 68.68%

    # Reports per app in the paper's ballpark (68,268 / 3,571 ≈ 19).
    per_app = summary["api_total"] / summary["total_apps"]
    assert 10.0 <= per_app <= 35.0


def test_rq2_sampled_precision(summary):
    assert 0.75 <= summary["sampled_precision_api"] <= 0.95  # paper: 85%
    assert summary["sampled_precision_apc"] >= 0.97          # paper: 100%
    assert summary["sampled_precision_prm"] >= 0.97          # paper: 100%


def test_rq2_single_app_analysis_cost(session):
    """The real implementation analyzes a median-size corpus app
    cleanly."""
    corpus = session.corpus
    mid = sorted(
        corpus, key=lambda e: e.forged.apk.instruction_count
    )[len(corpus) // 2]
    report = session.saintdroid().analyze(mid.forged.apk)
    assert report.metrics is not None and not report.metrics.failed


def test_committed_results_reproduce(session):
    assert_committed(session, "rq2.txt")
