"""E3 — Table III: per-app analysis time on the CIDER-Bench replicas.

Paper anchors asserted:

* SAINTDroid is the fastest tool on every app it shares with the
  baselines (2.3-11.3 s band in the paper; our cost model lands in the
  same band);
* CID fails on AFWall+, NetworkMonitor, and PassAndroid (multidex
  crashes — the dashes);
* Lint produces no result for NyaaPantsu (unbuildable);
* SAINTDroid is up to ~8.3x and on average ~4x faster than the
  baselines.
"""

import pytest

from .conftest import assert_committed


@pytest.fixture(scope="module")
def rows(session):
    return session.result("table3.txt").data


def test_table3_times(rows):
    by_app = {row["app"]: row for row in rows}

    # CID dashes: the three multidex apps.
    for label in ("AFWall+", "NetworkMonitor", "PassAndroid"):
        assert by_app[label]["CID"] is None, label
    # Lint dash: the unbuildable app.
    assert by_app["NyaaPantsu"]["Lint"] is None

    for row in rows:
        saint = row["SAINTDroid"]
        assert saint is not None
        assert 2.0 <= saint <= 16.0  # the paper's single-digit band
        for tool in ("CID", "Lint"):
            if row[tool] is not None:
                assert saint < row[tool], (row["app"], tool)


def test_average_speedup_band(rows):
    averages = {}
    for tool in ("CID", "Lint"):
        ratios = [
            row[tool] / row["SAINTDroid"]
            for row in rows
            if row[tool] is not None
        ]
        averages[tool] = sum(ratios) / len(ratios)
    # Paper: four times faster on average, up to 8.3x.
    assert 2.5 <= averages["CID"] <= 9.0
    assert 2.5 <= averages["Lint"] <= 9.0


def test_timing_protocol_three_repetitions(session):
    """The paper's RQ3 protocol: three repeated measurements, averaged.
    The modeled time is deterministic across the repetitions."""
    saintdroid = session.saintdroid()
    app = next(
        a.apk for a in session.bench_apps if a.apk.name == "Padland"
    )
    reports = [saintdroid.analyze(app) for _ in range(3)]
    seconds = [r.metrics.modeled_seconds for r in reports]
    assert max(seconds) - min(seconds) < 1e-9  # deterministic model
    average = sum(seconds) / 3
    assert average > 0


def test_committed_results_reproduce(session):
    assert_committed(session, "table3.txt")
