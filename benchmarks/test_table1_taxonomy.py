"""E7 — Table I (mismatch taxonomy) and Figure 1 (mismatch regions).

These are structural artifacts; the assertions pin the taxonomy to the
paper's three rows and the region split around the app level.
"""

from repro.apk.manifest import MAX_API_LEVEL, MIN_API_LEVEL


def test_table1_taxonomy(session):
    rows = session.result("table1.txt").data
    assert [row["abbr"] for row in rows] == ["API", "APC", "PRM"]
    assert "26 dangerous permissions" in rows[2]["results_in"]


def test_figure1_regions(session):
    app_level = 23
    regions = session.result("figure1.txt").data
    backward = [d for d, r in regions.items() if r.startswith("backward")]
    forward = [d for d, r in regions.items() if r.startswith("forward")]
    assert backward == list(range(MIN_API_LEVEL, app_level))
    assert forward == list(range(app_level + 1, MAX_API_LEVEL + 1))
    assert regions[app_level] == "compatible"
