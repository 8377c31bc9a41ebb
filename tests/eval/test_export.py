"""Tests for machine-readable result exports."""

import csv
import json

import pytest

from repro.eval.export import (
    export_accuracy_csv,
    export_memory_csv,
    export_run_json,
    export_timing_csv,
)
from repro.eval.runner import ToolSet, run_tools
from repro.workload.appgen import AppForge


@pytest.fixture(scope="module")
def small_run(framework, apidb):
    toolset = ToolSet.default(
        framework, apidb, include=("SAINTDroid", "CID")
    )
    forge = AppForge(
        "com.export.app", "ExportApp", min_sdk=19, target_sdk=26,
        seed=3, apidb=apidb,
    )
    forge.add_direct_issue()
    forge.add_filler(kloc=0.2)
    # second app: crashes CID (multidex)
    forge2 = AppForge(
        "com.export.two", "ExportTwo", min_sdk=19, target_sdk=26,
        seed=4, apidb=apidb,
    )
    forge2.add_secondary_dex_issue()
    return run_tools([forge.build(), forge2.build()], toolset)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestCsvExports:
    def test_accuracy_csv(self, small_run, tmp_path):
        path = tmp_path / "accuracy.csv"
        export_accuracy_csv(small_run, path)
        rows = read_csv(path)
        assert {row["tool"] for row in rows} == {"SAINTDroid", "CID"}
        saint_api = next(
            row for row in rows
            if row["tool"] == "SAINTDroid" and row["group"] == "API"
        )
        assert int(saint_api["tp"]) == 2
        assert float(saint_api["precision"]) == 1.0

    def test_timing_csv_marks_failures(self, small_run, tmp_path):
        path = tmp_path / "timing.csv"
        export_timing_csv(small_run, path)
        rows = read_csv(path)
        failed = [row for row in rows if row["failed"] == "1"]
        assert len(failed) == 1
        assert failed[0]["tool"] == "CID"
        assert failed[0]["seconds"] == ""
        succeeded = [row for row in rows if row["failed"] == "0"]
        assert all(float(row["seconds"]) > 0 for row in succeeded)

    def test_memory_csv_skips_failures(self, small_run, tmp_path):
        path = tmp_path / "memory.csv"
        export_memory_csv(small_run, path)
        rows = read_csv(path)
        # 2 apps x 2 tools, minus the one CID failure.
        assert len(rows) == 3
        assert all(float(row["memory_mb"]) > 0 for row in rows)


class TestJsonExport:
    def test_full_dump(self, small_run, tmp_path):
        path = tmp_path / "run.json"
        export_run_json(small_run, path)
        payload = json.loads(path.read_text())
        assert len(payload) == 2
        by_app = {entry["app"]: entry for entry in payload}
        assert by_app["ExportApp"]["tools"]["SAINTDroid"]["findings"] == {
            "API": 1
        }
        cid_two = by_app["ExportTwo"]["tools"]["CID"]
        assert cid_two["failed"] is True
        assert "multidex" in cid_two["failureReason"]
        assert cid_two["modeledSeconds"] is None


class TestSweep:
    def test_framework_scale_sweep_shape(self):
        from repro.eval.sweep import sweep_framework_scale
        points = sweep_framework_scale((200, 600), probes_per_point=1)
        assert [p.bulk_classes for p in points] == [200, 600]
        small, large = points
        assert large.cid_memory_mb > small.cid_memory_mb
        assert large.memory_ratio > small.memory_ratio
        assert small.saintdroid_seconds > 0
        assert small.time_ratio > 1.0
