"""E4 — Figure 3: analysis time vs app size on real-world apps.

Paper anchors:

* SAINTDroid average ≈6.2 s/app (range 1.6-37.8) vs CID ≈29.5 s
  (4.1-78.4) and Lint ≈24.7 s (4.7-75.6);
* SAINTDroid up to ~8.3x (≈4x average) faster;
* outliers exist: small apps that load a disproportionate library
  surface take disproportionate time (top-left points).
"""

import pytest

from repro.workload.appgen import AppForge

from .conftest import assert_committed


@pytest.fixture(scope="module")
def data(session):
    return session.result("figure3.txt").data


def test_figure3_timing_summaries(data):
    tools = {s.tool: s for s in data["summaries"]}

    saint = tools["SAINTDroid"]
    assert 2.0 <= saint.average <= 10.0      # paper: 6.2 s
    assert saint.minimum >= 1.0              # paper: 1.6 s
    assert saint.maximum <= 45.0             # paper: 37.8 s
    assert saint.failed == 0

    cid = tools["CID"]
    lint = tools["Lint"]
    assert 15.0 <= cid.average <= 45.0       # paper: 29.5 s
    assert 10.0 <= lint.average <= 40.0      # paper: 24.7 s
    assert cid.average / saint.average >= 3.0
    assert lint.average / saint.average >= 2.0


def test_figure3_scatter_correlates_with_size(data):
    scatter = data["scatter"]
    assert len(scatter) >= 50
    small = [s for k, s in scatter if k < 5.0]
    large = [s for k, s in scatter if k > 30.0]
    if small and large:
        assert (sum(large) / len(large)) > (sum(small) / len(small))


def test_figure3_outlier_mechanism(session):
    """A small app with a huge framework vocabulary costs more than a
    plain app of the same size — the paper's top-left outlier."""

    def build(pool_size):
        forge = AppForge(
            "com.outlier.app", f"Outlier{pool_size}",
            min_sdk=19, target_sdk=26, seed=11,
            apidb=session.apidb,
        )
        forge._safe_pool = [
            forge.picker.safe_api(forge._rng) for _ in range(pool_size)
        ]
        forge.add_filler(kloc=2.0)
        return forge.build().apk

    saintdroid = session.saintdroid()
    plain = saintdroid.analyze(build(10))
    heavy = saintdroid.analyze(build(400))
    assert heavy.metrics.modeled_seconds > (
        1.5 * plain.metrics.modeled_seconds
    )


def test_committed_results_reproduce(session):
    assert_committed(session, "figure3.txt", "figure3_series.csv")
