"""E6 — Table IV: the capability matrix.

The paper's point: SAINTDroid is the only tool covering every
mismatch family (including the SEM family this reproduction adds).
Capabilities are read from the live tool objects and cross-checked
against observed behaviour on the benchmark run.
"""

from repro.core.kinds import kind_families

from .conftest import assert_committed


def test_table4_capabilities(session):
    rows = session.result("table4.txt").data
    by_tool = {row["tool"]: row for row in rows}

    assert by_tool["SAINTDroid"] == {
        "tool": "SAINTDroid",
        "API": True, "APC": True, "PRM": True, "SEM": True,
    }
    assert by_tool["CID"] == {
        "tool": "CID",
        "API": True, "APC": False, "PRM": False, "SEM": False,
    }
    assert by_tool["CIDER"] == {
        "tool": "CIDER",
        "API": False, "APC": True, "PRM": False, "SEM": False,
    }
    assert by_tool["Lint"] == {
        "tool": "Lint",
        "API": True, "APC": False, "PRM": False, "SEM": False,
    }

    # Declared capabilities match observed behaviour.  (The benchmark
    # replicas seed no semantic scenarios, so SEM is asserted only in
    # the negative direction: a tool without the capability must never
    # report the family.)
    accuracies = session.bench_run.accuracies()
    for row in rows:
        for family in kind_families():
            reported = accuracies[row["tool"]].group(family).reported
            if not row[family]:
                assert reported == 0, (row["tool"], family)
    assert accuracies["SAINTDroid"].group("API").reported > 0
    assert accuracies["SAINTDroid"].group("APC").reported > 0
    assert accuracies["SAINTDroid"].group("PRM").reported > 0


def test_committed_results_reproduce(session):
    assert_committed(session, "table4.txt")
