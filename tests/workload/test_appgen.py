"""Integration tests for the app forge: every scenario must produce
exactly the detector behaviour it promises, for every tool."""

import pytest

from repro.baselines import Cid, Cider, Lint
from repro.core import SaintDroid
from repro.workload.appgen import AppForge
from repro.workload.groundtruth import Trait


@pytest.fixture(scope="module")
def tools(framework, apidb):
    return {
        "SAINTDroid": SaintDroid(framework, apidb),
        "CID": Cid(framework, apidb),
        "CIDER": Cider(framework, apidb),
        "Lint": Lint(framework, apidb),
    }


def forge(apidb, seed=5, min_sdk=19, target_sdk=26):
    return AppForge(
        "com.scenario.app", "ScenarioApp",
        min_sdk=min_sdk, target_sdk=target_sdk,
        seed=seed, apidb=apidb,
    )


def reported(tool, forged, kind=None):
    report = tool.analyze(forged.apk)
    keys = report.keys
    if kind is not None:
        keys = {k for k in keys if k[0] == kind}
    return keys


class TestDirectIssue:
    def test_all_api_tools_detect(self, tools, apidb):
        f = forge(apidb)
        issue = f.add_direct_issue()
        forged = f.build()
        for name in ("SAINTDroid", "CID", "Lint"):
            assert issue.key in reported(tools[name], forged), name
        assert issue.key not in reported(tools["CIDER"], forged)


class TestGuardedDirect:
    def test_nobody_reports(self, tools, apidb):
        f = forge(apidb)
        f.add_guarded_direct()
        forged = f.build()
        for name, tool in tools.items():
            assert reported(tool, forged) == frozenset(), name


class TestCallerGuardTrap:
    def test_only_context_insensitive_tools_fooled(self, tools, apidb):
        f = forge(apidb)
        trap = f.add_caller_guard_trap()
        forged = f.build()
        assert reported(tools["SAINTDroid"], forged) == frozenset()
        assert trap.fp_keys[0] in reported(tools["CID"], forged)
        assert trap.fp_keys[0] in reported(tools["Lint"], forged)


class TestAnonymousGuardTrap:
    def test_saintdroid_false_positive(self, tools, apidb):
        f = forge(apidb)
        trap = f.add_anonymous_guard_trap()
        forged = f.build()
        assert trap.fp_keys[0] in reported(tools["SAINTDroid"], forged)

    def test_ablation_fixes_it(self, framework, apidb):
        fixed = SaintDroid(
            framework, apidb, propagate_guards_into_anonymous=True
        )
        f = forge(apidb)
        trap = f.add_anonymous_guard_trap()
        forged = f.build()
        assert trap.fp_keys[0] not in reported(fixed, forged)


class TestInheritedIssue:
    def test_only_saintdroid_resolves_hierarchy(self, tools, apidb):
        f = forge(apidb)
        issue = f.add_inherited_issue()
        forged = f.build()
        assert issue.key in reported(tools["SAINTDroid"], forged)
        assert issue.key not in reported(tools["CID"], forged)
        assert issue.key not in reported(tools["Lint"], forged)


class TestLibraryIssue:
    def test_lint_source_scope_misses(self, tools, apidb):
        f = forge(apidb)
        issue = f.add_library_issue()
        forged = f.build()
        assert issue.key in reported(tools["SAINTDroid"], forged)
        assert issue.key in reported(tools["CID"], forged)
        assert issue.key not in reported(tools["Lint"], forged)


class TestSecondaryDexIssue:
    def test_only_saintdroid_reaches_late_bound_code(
        self, tools, apidb
    ):
        f = forge(apidb)
        issue = f.add_secondary_dex_issue()
        forged = f.build()
        assert issue.key in reported(tools["SAINTDroid"], forged)
        cid_report = tools["CID"].analyze(forged.apk)
        assert cid_report.metrics.failed  # multidex crash
        assert issue.key not in reported(tools["Lint"], forged)


class TestExternalDynamicIssue:
    def test_nobody_can_see_outside_the_apk(self, tools, apidb):
        f = forge(apidb)
        issue = f.add_external_dynamic_issue()
        forged = f.build()
        for name, tool in tools.items():
            assert issue.key not in reported(tool, forged), name


class TestForwardRemovedIssue:
    def test_api_tools_detect_removal(self, tools, apidb):
        f = forge(apidb, min_sdk=14, target_sdk=22)
        issue = f.add_forward_removed_issue()
        forged = f.build()
        assert issue.key in reported(tools["SAINTDroid"], forged)
        assert issue.key in reported(tools["CID"], forged)


class TestCallbackScenarios:
    def test_modeled_callback_detected_by_both(self, tools, apidb):
        f = forge(apidb)
        issue = f.add_callback_issue(modeled=True)
        forged = f.build()
        assert issue.key in reported(tools["SAINTDroid"], forged)
        assert issue.key in reported(tools["CIDER"], forged)

    def test_unmodeled_callback_only_saintdroid(self, tools, apidb):
        f = forge(apidb)
        issue = f.add_callback_issue(modeled=False)
        forged = f.build()
        assert issue.key in reported(tools["SAINTDroid"], forged)
        assert issue.key not in reported(tools["CIDER"], forged)

    def test_anonymous_callback_missed_by_all(self, tools, apidb):
        f = forge(apidb)
        issue = f.add_callback_issue(modeled=False, anonymous=True)
        forged = f.build()
        assert issue.trait is Trait.CALLBACK_ANONYMOUS
        assert issue.key not in reported(tools["SAINTDroid"], forged)
        assert issue.key not in reported(tools["CIDER"], forged)


class TestPermissionScenarios:
    def test_request_issue_only_saintdroid(self, tools, apidb):
        f = forge(apidb)
        issues = f.add_permission_request_issue()
        forged = f.build()
        for issue in issues:
            assert issue.key in reported(tools["SAINTDroid"], forged)
            assert issue.key not in reported(tools["CID"], forged)

    def test_deep_request_issue(self, tools, apidb):
        f = forge(apidb)
        issues = f.add_permission_request_issue(deep=True)
        forged = f.build()
        for issue in issues:
            assert issue.trait is Trait.PERMISSION_DEEP
            assert issue.key in reported(tools["SAINTDroid"], forged)

    def test_revocation_issue(self, tools, apidb):
        f = forge(apidb, min_sdk=14, target_sdk=22)
        issues = f.add_permission_revocation_issue()
        forged = f.build()
        for issue in issues:
            assert issue.key in reported(tools["SAINTDroid"], forged)

    def test_protocol_prevents_request_issue(self, tools, apidb):
        f = forge(apidb)
        f.implement_permission_protocol()
        with pytest.raises(ValueError):
            f.add_permission_request_issue()

    def test_request_requires_modern_target(self, apidb):
        f = forge(apidb, min_sdk=14, target_sdk=22)
        with pytest.raises(ValueError):
            f.add_permission_request_issue()

    def test_revocation_requires_legacy_target(self, apidb):
        f = forge(apidb)
        with pytest.raises(ValueError):
            f.add_permission_revocation_issue()


class TestForgeMechanics:
    def test_deterministic_for_seed(self, apidb):
        def build():
            f = forge(apidb, seed=99)
            f.add_direct_issue()
            f.add_callback_issue(modeled=False)
            f.add_filler(kloc=0.5)
            return f.build()

        first, second = build(), build()
        assert first.apk == second.apk
        assert first.truth.issue_keys == second.truth.issue_keys

    def test_filler_size_approximate(self, apidb):
        f = forge(apidb)
        f.add_filler(kloc=2.0)
        forged = f.build()
        assert 1_500 <= forged.apk.instruction_count <= 3_500

    def test_clean_app_reports_nothing(self, tools, apidb):
        f = forge(apidb)
        f.add_filler(kloc=1.0)
        forged = f.build()
        assert reported(tools["SAINTDroid"], forged) == frozenset()


class TestHelperGuardTrap:
    def test_saintdroid_sees_through_the_helper(self, tools, apidb):
        f = forge(apidb)
        trap = f.add_helper_guard_trap()
        forged = f.build()
        assert trap.fp_keys[0] not in reported(tools["SAINTDroid"], forged)
        # Per-method tools cannot connect the helper's result to the
        # SDK check inside it.
        assert trap.fp_keys[0] in reported(tools["CID"], forged)
        assert trap.fp_keys[0] in reported(tools["Lint"], forged)
