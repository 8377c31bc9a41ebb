"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.apk.serialization import save_apk
from repro.cli import build_parser, main
from repro.eval import results
from repro.ir.builder import ClassBuilder

from tests.conftest import activity_class, make_apk

RESULTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


@pytest.fixture()
def listing1_path(tmp_path):
    builder = ClassBuilder("com.test.app.Screen")
    method = builder.method("render")
    method.invoke_virtual(
        "android.content.Context", "getColorStateList",
        "(int)android.content.res.ColorStateList",
    )
    method.return_void()
    builder.finish(method)
    apk = make_apk([activity_class(), builder.build()],
                   min_sdk=21, target_sdk=28)
    path = tmp_path / "app.sapk"
    save_apk(apk, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "x.sapk"])
        assert args.tool == "SAINTDroid"
        assert not args.eager


class TestCommands:
    def test_analyze_text(self, listing1_path, capsys):
        assert main(["analyze", str(listing1_path)]) == 0
        out = capsys.readouterr().out
        assert "getColorStateList" in out
        assert "API=1" in out

    def test_analyze_json(self, listing1_path, capsys):
        assert main(["analyze", str(listing1_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "SAINTDroid"
        assert payload["mismatches"][0]["kind"] == "API"
        assert payload["mismatches"][0]["missingLevels"] == [21, 22]

    def test_analyze_with_baseline(self, listing1_path, capsys):
        assert main(["analyze", str(listing1_path), "--tool", "Lint"]) == 0
        assert "Lint analysis" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        expected = (RESULTS_DIR / "table1.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_table4(self, capsys):
        assert main(["table", "4"]) == 0
        expected = (RESULTS_DIR / "table4.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_figure1(self, capsys):
        assert main(["figure", "1"]) == 0
        expected = (RESULTS_DIR / "figure1.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_apidb_query(self, capsys):
        assert main([
            "apidb", "android.app.Activity",
            "getColorStateList(int)android.content.res.ColorStateList",
        ]) == 0
        out = capsys.readouterr().out
        assert "23..29" in out

    def test_apidb_class_listing(self, capsys):
        assert main(["apidb", "android.app.Fragment"]) == 0
        out = capsys.readouterr().out
        assert "onAttach(android.content.Context)void" in out
        assert "[callback]" in out

    def test_apidb_unknown_class(self, capsys):
        assert main(["apidb", "no.such.Class"]) == 1

    def test_gen_bench_writes_files(self, tmp_path, capsys):
        assert main(["gen-bench", str(tmp_path), "--scale", "0.01"]) == 0
        sapks = list(tmp_path.glob("*.sapk"))
        truths = list(tmp_path.glob("*.truth.json"))
        assert len(sapks) == 19
        assert len(truths) == 19
        doc = json.loads(truths[0].read_text())
        assert "issues" in doc


class TestVerifyAndRepairCommands:
    @pytest.fixture()
    def buggy_path(self, tmp_path, apidb):
        from repro.workload.appgen import AppForge
        forge = AppForge(
            "com.cli.buggy", "CliBuggy", min_sdk=19, target_sdk=26,
            seed=8, apidb=apidb,
        )
        forge.add_direct_issue()
        forge.add_anonymous_guard_trap()
        path = tmp_path / "buggy.sapk"
        save_apk(forge.build().apk, path)
        return path

    def test_verify_command(self, buggy_path, capsys):
        assert main(["verify", str(buggy_path)]) == 0
        out = capsys.readouterr().out
        assert "confirmed" in out
        assert "refuted" in out

    def test_repair_command(self, buggy_path, tmp_path, capsys):
        output = tmp_path / "fixed.sapk"
        assert main([
            "repair", str(buggy_path), str(output), "--check"
        ]) == 0
        out = capsys.readouterr().out
        assert "guard-inserted" in out
        assert output.exists()
        assert "re-analysis" in out


class TestUpdateImpactCommand:
    def test_breaking_update_exit_code(self, tmp_path, capsys):
        from repro.ir import ClassBuilder
        builder = ClassBuilder("com.cli.net.Net")
        method = builder.method("fetch")
        method.invoke_virtual(
            "org.apache.http.client.HttpClient", "execute",
            "(org.apache.http.HttpRequest)org.apache.http.HttpResponse",
        )
        method.return_void()
        builder.finish(method)
        apk = make_apk([activity_class("com.cli.net"), builder.build()],
                       package="com.cli.net", min_sdk=14, target_sdk=22)
        path = tmp_path / "net.sapk"
        save_apk(apk, path)
        code = main([
            "update-impact", str(path), "--from", "22", "--to", "23",
        ])
        out = capsys.readouterr().out
        assert code == 2  # behaviour changes
        assert "BREAKS" in out

    def test_stable_update_exit_code(self, simple_apk, tmp_path, capsys):
        path = tmp_path / "stable.sapk"
        save_apk(simple_apk, path)
        code = main([
            "update-impact", str(path), "--from", "21", "--to", "26",
        ])
        assert code == 0
        assert "stable" in capsys.readouterr().out


class TestDeviceScopeOption:
    def test_devices_flag_scopes_findings(self, listing1_path, capsys):
        assert main([
            "analyze", str(listing1_path), "--devices", "23", "29",
        ]) == 0
        out = capsys.readouterr().out
        assert "API=0" in out


class TestCliErrorHandling:
    def test_missing_file(self, capsys):
        assert main(["analyze", "/no/such/file.sapk"]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_invalid_package(self, tmp_path, capsys):
        bad = tmp_path / "bad.sapk"
        bad.write_text("{not json")
        assert main(["analyze", str(bad)]) == 1
        assert "not a valid .sapk" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_an_error_not_a_traceback(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n{}\n")
        assert main([
            "difftest", "--n-apps", "2", "--no-shrink", "--no-mutation",
            "--checkpoint", str(bad),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "corrupt journal line 1" in err

    @pytest.mark.parametrize("command", [
        ["rq2", "--count", "2"],
        ["figure", "3", "--count", "2"],
        ["table", "2", "--scale", "0.1"],
    ])
    def test_corrupt_checkpoint_is_refused_before_any_app_is_built(
        self, command, tmp_path, capsys, monkeypatch
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("apps built before the journal check")

        monkeypatch.setattr(results, "generate_corpus", unreachable)
        monkeypatch.setattr(results, "build_benchmark_suite", unreachable)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n{}\n")
        assert main([*command, "--checkpoint", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "corrupt journal line 1" in err


class TestPassesCommand:
    def test_lists_every_tool(self, capsys):
        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        for tool in ("SAINTDroid", "CID", "CIDER", "Lint"):
            assert tool in out
        assert "manifest-ingest" in out
        assert "lint-build" in out

    def test_tool_filter(self, capsys):
        assert main(["passes", "--tool", "CIDER"]) == 0
        out = capsys.readouterr().out
        assert "cider-load" in out
        assert "manifest-ingest" not in out

    def test_eager_configuration_shows_the_extra_pass(self, capsys):
        assert main(["passes", "--tool", "SAINTDroid"]) == 0
        lazy_out = capsys.readouterr().out
        assert main(["passes", "--tool", "SAINTDroid", "--eager"]) == 0
        eager_out = capsys.readouterr().out
        assert "eager-load" not in lazy_out
        assert "eager-load" in eager_out


class TestPassSelectionFlags:
    def test_skip_pass_removes_findings(self, listing1_path, capsys):
        assert main([
            "analyze", str(listing1_path), "--skip-pass", "detect-api",
        ]) == 0
        assert "API=0" in capsys.readouterr().out

    def test_unknown_pass_exits_2(self, listing1_path, capsys):
        assert main([
            "analyze", str(listing1_path), "--skip-pass", "bogus",
        ]) == 2
        err = capsys.readouterr().err
        assert "available:" in err

    def test_starved_only_selection_exits_2(self, listing1_path, capsys):
        assert main([
            "analyze", str(listing1_path), "--only-pass", "detect-api",
        ]) == 2
        assert "requires" in capsys.readouterr().err


class TestAnalyzeExitCodes:
    def test_failed_analysis_exits_2(self, tmp_path, capsys):
        # Lint on an unbuildable app: the report is produced (failed,
        # no findings) and the exit code is nonzero for scripts.
        apk = make_apk([activity_class()], buildable=False)
        path = tmp_path / "unbuildable.sapk"
        save_apk(apk, path)
        assert main(["analyze", str(path), "--tool", "Lint"]) == 2
        assert "Lint" in capsys.readouterr().out

    def test_failed_analysis_json_carries_reason(self, tmp_path, capsys):
        apk = make_apk([activity_class()], buildable=False)
        path = tmp_path / "unbuildable.sapk"
        save_apk(apk, path)
        assert main([
            "analyze", str(path), "--tool", "Lint", "--json",
        ]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is True
        assert payload["failureReason"]
