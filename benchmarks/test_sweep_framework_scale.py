"""E10 — scalability sweep: tool cost vs framework size.

The paper's central claim made asymptotic: as the platform grows,
whole-framework tools pay proportionally while the lazy CLVM pays only
for what the probe app reaches.  The sweep rebuilds the framework at
four sizes (500–4000 bulk classes) and measures SAINTDroid and CID on
identical probe apps.

Expected shape (asserted):

* CID's memory grows roughly linearly with the framework;
* SAINTDroid's loaded-class count stays nearly flat;
* the CID/SAINTDroid memory ratio *widens* monotonically with scale.
"""

from .conftest import assert_committed

SIZES = (500, 1000, 2000, 4000)


def test_framework_scale_sweep(session):
    points = session.result("sweep_framework_scale.txt").data
    assert [p.bulk_classes for p in points] == list(SIZES)

    # CID memory tracks the framework size.
    cid_memory = [p.cid_memory_mb for p in points]
    assert all(b > a for a, b in zip(cid_memory, cid_memory[1:]))
    assert cid_memory[-1] / cid_memory[0] > 2.5

    # SAINTDroid's reachable slice is insensitive to platform growth.
    saint_loaded = [p.saintdroid_classes_loaded for p in points]
    assert max(saint_loaded) < 2.0 * min(saint_loaded)
    saint_memory = [p.saintdroid_memory_mb for p in points]
    assert saint_memory[-1] / saint_memory[0] < 1.8

    # So the advantage widens with scale.
    ratios = [p.memory_ratio for p in points]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 2.0 * ratios[0]


def test_committed_results_reproduce(session):
    assert_committed(session, "sweep_framework_scale.txt")
