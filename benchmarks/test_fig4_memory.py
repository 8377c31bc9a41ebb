"""E5 — Figure 4: peak analysis memory, SAINTDroid vs CID, on
real-world apps.

Paper anchors:

* SAINTDroid average ≈329 MB (range 119-898 MB);
* CID ≈1.3 GB — about four times SAINTDroid's footprint — because it
  loads the entire app and framework eagerly, while the CLVM loads the
  reachable slice and releases framework bodies after summarization.
"""

import pytest

from .conftest import assert_committed


@pytest.fixture(scope="module")
def data(session):
    return session.result("figure4.txt").data


def test_figure4_memory_comparison(data):
    saint = data["summary"]["SAINTDroid"]
    cid = data["summary"]["CID"]

    assert 200.0 <= saint["average_mb"] <= 550.0   # paper: 329 MB
    assert saint["min_mb"] >= 100.0                # paper: 119 MB
    assert saint["max_mb"] <= 1500.0               # paper: 898 MB
    assert 900.0 <= cid["average_mb"] <= 1800.0    # paper: ~1.3 GB
    ratio = cid["average_mb"] / saint["average_mb"]
    assert 2.0 <= ratio <= 6.0                     # paper: ~4x


def test_figure4_per_app_ordering(data):
    series = data["series"]
    pairs = zip(series["SAINTDroid"], series["CID"])
    assert all(saint < cid for saint, cid in pairs)


def test_committed_results_reproduce(session):
    assert_committed(session, "figure4.txt", "figure4_series.csv")
