"""Tests for the experiment runner and the table/figure renderers,
driven by a miniature two-app workload."""

import pytest

from repro.eval.figures import (
    ascii_scatter,
    figure1_regions,
    figure3_series,
    figure4_series,
)
from repro.eval.runner import ToolSet, run_tools
from repro.eval.tables import (
    render_rq2,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    rq2_summary,
    table1_taxonomy,
    table2_accuracy,
    table3_times,
    table4_capabilities,
)
from repro.workload.appgen import AppForge


@pytest.fixture(scope="module")
def toolset(framework, apidb):
    return ToolSet.default(framework, apidb)


@pytest.fixture(scope="module")
def mini_run(toolset, apidb):
    apps = []
    forge_a = AppForge(
        "com.mini.alpha", "Alpha", min_sdk=19, target_sdk=26,
        seed=1, apidb=apidb,
    )
    forge_a.add_direct_issue()
    forge_a.add_callback_issue(modeled=False)
    forge_a.add_caller_guard_trap()
    forge_a.add_filler(kloc=0.3)
    apps.append(forge_a.build())

    forge_b = AppForge(
        "com.mini.beta", "Beta", min_sdk=15, target_sdk=22,
        seed=2, apidb=apidb,
    )
    forge_b.add_permission_revocation_issue()
    forge_b.add_filler(kloc=0.2)
    apps.append(forge_b.build())
    return run_tools(apps, toolset), apps


class TestToolSet:
    def test_default_has_four_tools(self, toolset):
        assert [t.name for t in toolset.tools] == [
            "SAINTDroid", "CID", "CIDER", "Lint"
        ]

    def test_include_filter(self, framework, apidb):
        ts = ToolSet.default(framework, apidb, include=("SAINTDroid",))
        assert len(ts.tools) == 1


class TestRunner:
    def test_every_app_every_tool(self, mini_run):
        run, apps = mini_run
        assert len(run) == len(apps)
        for result in run.results:
            assert set(result.reports) == {
                "SAINTDroid", "CID", "CIDER", "Lint"
            }

    def test_accuracy_access(self, mini_run):
        run, _ = mini_run
        accuracy = run.accuracy("SAINTDroid")
        assert accuracy.group("ALL").tp >= 3
        assert accuracy.group("ALL").fn == 0

    def test_accuracies_all_tools(self, mini_run):
        run, _ = mini_run
        assert set(run.accuracies()) == {
            "SAINTDroid", "CID", "CIDER", "Lint"
        }


class TestTables:
    def test_table1_static(self):
        rows = table1_taxonomy()
        assert [r["abbr"] for r in rows] == ["API", "APC", "PRM"]
        text = render_table1()
        assert "Permission-induced" in text

    def test_table2(self, mini_run):
        run, _ = mini_run
        table = table2_accuracy(run)
        assert len(table.rows) == 2
        text = render_table2(table)
        assert "Alpha" in text and "Beta" in text
        assert "API+APC" in text

    def test_table3(self, mini_run):
        run, _ = mini_run
        rows = table3_times(run)
        assert len(rows) == 2
        text = render_table3(rows)
        assert "SAINTDroid" in text
        for row in rows:
            assert row["SAINTDroid"] is not None
            assert row["SAINTDroid"] < row["CID"]

    def test_table3_app_filter(self, mini_run):
        run, _ = mini_run
        rows = table3_times(run, apps=("Alpha",))
        assert [r["app"] for r in rows] == ["Alpha"]

    def test_table4(self, toolset):
        rows = table4_capabilities(toolset.tools)
        by_tool = {r["tool"]: r for r in rows}
        assert by_tool["SAINTDroid"] == {
            "tool": "SAINTDroid",
            "API": True, "APC": True, "PRM": True, "SEM": True,
        }
        assert not by_tool["CID"]["SEM"]
        assert not by_tool["CID"]["APC"]
        assert not by_tool["CIDER"]["API"]
        text = render_table4(rows)
        assert "SAINTDroid" in text

    def test_rq2_summary(self, mini_run):
        run, apps = mini_run
        results = [
            (result.reports["SAINTDroid"], result.truth,
             result.reports["SAINTDroid"].app == "Alpha")
            for result in run.results
        ]
        summary = rq2_summary(results)
        assert summary["total_apps"] == 2
        assert summary["api_total"] >= 1
        assert summary["revocation_apps"] == 1
        text = render_rq2(summary)
        assert "sampled precision" in text


class TestFigures:
    def test_figure1(self):
        regions = figure1_regions(23)
        assert regions[22] == "backward-mismatch-risk"
        assert regions[23] == "compatible"
        assert regions[24] == "forward-mismatch-risk"

    def test_figure3(self, mini_run):
        run, _ = mini_run
        data = figure3_series(run)
        assert len(data["scatter"]) == 2
        tools = {s.tool: s for s in data["summaries"]}
        assert tools["SAINTDroid"].average < tools["CID"].average

    def test_figure4(self, mini_run):
        run, _ = mini_run
        data = figure4_series(run)
        assert data["summary"]["SAINTDroid"]["average_mb"] < (
            data["summary"]["CID"]["average_mb"]
        )

    def test_ascii_scatter(self):
        text = ascii_scatter([(1.0, 1.0), (2.0, 4.0)], width=20, height=5)
        assert "*" in text
        assert "max 4.0" in text
        assert ascii_scatter([]) == "(no data)"
