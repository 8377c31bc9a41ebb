"""Property-based end-to-end tests: detector invariants over randomly
forged apps."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SaintDroid
from repro.workload.appgen import AppForge
from repro.workload.groundtruth import Trait

#: Traits SAINTDroid is expected to detect (everything except code that
#: lives outside the APK and overrides hidden in anonymous classes).
DETECTABLE = {
    Trait.DIRECT,
    Trait.INHERITED,
    Trait.LIBRARY,
    Trait.SECONDARY_DEX,
    Trait.FORWARD_REMOVED,
    Trait.CALLBACK_MODELED,
    Trait.CALLBACK_UNMODELED,
    Trait.PERMISSION_REQUEST,
    Trait.PERMISSION_REVOCATION,
    Trait.PERMISSION_DEEP,
}


@pytest.fixture(scope="module")
def detector(framework, apidb):
    return SaintDroid(framework, apidb)


scenario_lists = st.lists(
    st.sampled_from(
        ["direct", "guarded", "caller_trap", "helper_trap", "inherited",
         "library", "secondary", "forward", "cb_modeled", "cb_unmodeled",
         "permission"]
    ),
    min_size=1,
    max_size=6,
)


def apply_scenario(forge, name):
    try:
        if name == "direct":
            forge.add_direct_issue()
        elif name == "guarded":
            forge.add_guarded_direct()
        elif name == "caller_trap":
            forge.add_caller_guard_trap()
        elif name == "helper_trap":
            forge.add_helper_guard_trap()
        elif name == "inherited":
            forge.add_inherited_issue()
        elif name == "library":
            forge.add_library_issue()
        elif name == "secondary":
            forge.add_secondary_dex_issue()
        elif name == "forward":
            forge.add_forward_removed_issue()
        elif name == "cb_modeled":
            forge.add_callback_issue(modeled=True)
        elif name == "cb_unmodeled":
            forge.add_callback_issue(modeled=False)
        elif name == "permission":
            if forge.target_sdk >= 23:
                forge.add_permission_request_issue()
            else:
                forge.add_permission_revocation_issue()
    except LookupError:
        pass  # no API fits this app's SDK window; skip the scenario


class TestDetectorInvariants:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**20),
        min_sdk=st.integers(8, 21),
        target_delta=st.integers(1, 8),
        scenarios=scenario_lists,
    )
    def test_detects_all_detectable_and_only_expected_extras(
        self, detector, apidb, seed, min_sdk, target_delta,
        scenarios,
    ):
        target = min(29, min_sdk + target_delta + 1)
        forge = AppForge(
            "com.prop.hunt", "PropHunt",
            min_sdk=min_sdk, target_sdk=target,
            seed=seed, apidb=apidb,
        )
        for scenario in scenarios:
            apply_scenario(forge, scenario)
        forged = forge.build()
        report = detector.analyze(forged.apk)
        found = report.keys

        # Completeness: every detectable seeded issue is reported.
        for issue in forged.truth.issues:
            if issue.trait in DETECTABLE:
                assert issue.key in found, issue.description

        # Soundness-modulo-known-blind-spot: every report is either a
        # seeded issue or an expected false alarm of a seeded trap.
        expected_fps = {
            key for trap in forged.truth.traps for key in trap.fp_keys
        }
        for key in found:
            assert key in forged.truth.issue_keys or key in expected_fps

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**20), kloc=st.floats(0.1, 1.5))
    def test_clean_apps_are_clean(self, detector, apidb, seed, kloc):
        forge = AppForge(
            "com.prop.clean", "PropClean",
            min_sdk=16, target_sdk=26,
            seed=seed, apidb=apidb,
        )
        forge.add_filler(kloc=kloc)
        forge.add_guarded_direct()
        report = detector.analyze(forge.build().apk)
        assert report.mismatches == []

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**20))
    def test_analysis_is_deterministic(self, detector, apidb, seed):
        forge = AppForge(
            "com.prop.det", "PropDet",
            min_sdk=18, target_sdk=27,
            seed=seed, apidb=apidb,
        )
        forge.add_direct_issue()
        forge.add_callback_issue(modeled=False)
        apk = forge.build().apk
        assert detector.analyze(apk).keys == detector.analyze(apk).keys
