#!/usr/bin/env python3
"""The full triage pipeline: detect → dynamically verify → repair.

Implements the workflow the paper sketches as future work (sections VI
and VIII): the conservative static detector casts a wide net, the
dynamic verifier executes the app on concrete device profiles to
confirm or refute each finding, and the repair synthesizer rewrites
the package so the confirmed crashes can no longer happen.

Run with::

    python examples/verify_and_repair.py
"""

from repro import SaintDroid
from repro.core import build_api_database
from repro.dynamic import DynamicVerifier, DeviceProfile, Interpreter
from repro.framework import FrameworkRepository
from repro.framework.permissions import DANGEROUS_PERMISSIONS
from repro.repair import RepairEngine
from repro.workload.appgen import ApiPicker, AppForge


def build_buggy_app(apidb, picker):
    """An app with two real crashes, one benign pattern that static
    analysis flags anyway, and one unfixable callback issue."""
    forge = AppForge(
        "com.demo.buggy", "BuggyApp",
        min_sdk=19, target_sdk=26, seed=404,
        apidb=apidb, picker=picker,
    )
    forge.add_direct_issue()              # real crash #1
    forge.add_permission_request_issue()  # real crash #2
    forge.add_anonymous_guard_trap()      # safe, but statically flagged
    forge.add_callback_issue(modeled=False)  # real, but not code-fixable
    forge.add_filler(kloc=0.5)
    return forge.build().apk


def main() -> None:
    framework = FrameworkRepository()
    apidb = build_api_database(framework)
    picker = ApiPicker.of(apidb)
    apk = build_buggy_app(apidb, picker)

    # 1. static detection ------------------------------------------------
    detector = SaintDroid(framework, apidb)
    report = detector.analyze(apk)
    print(f"static analysis: {len(report.mismatches)} finding(s)")
    for mismatch in report.mismatches:
        print(f"  - {mismatch.describe()}")

    # 2. dynamic verification ---------------------------------------------
    verifier = DynamicVerifier(apk, apidb)
    verification = verifier.verify_all(report)
    print(
        f"\ndynamic verification: {len(verification.confirmed)} confirmed, "
        f"{len(verification.refuted)} refuted (static false alarm), "
        f"{len(verification.static_only)} not dynamically observable"
    )
    for item in verification.verified:
        print(f"  [{item.verdict.value}] {item.mismatch.kind.value} "
              f"@ {item.mismatch.location}")

    # 3. repair the surviving findings ---------------------------------------
    engine = RepairEngine(apidb)
    result = engine.repair(apk, verification.surviving_mismatches())
    print(f"\nrepair: {len(result.code_changes)} code change(s), "
          f"{len(result.advisories)} advisory(ies)")
    for action in result.actions:
        print(f"  [{action.kind.value}] {action.description}")

    # 4. prove it: re-analyze and re-execute ------------------------------------
    residual = detector.analyze(result.repaired).mismatches
    print(f"\nre-analysis of the repaired app: {len(residual)} finding(s)")
    for mismatch in residual:
        print(f"  - (advisory remains) {mismatch.describe()}")

    post_verifier = DynamicVerifier(result.repaired, apidb)
    crash_free = True
    for level in (19, 21, 23, 26, 29):
        device = DeviceProfile(
            api_level=level,
            granted_permissions=frozenset(DANGEROUS_PERMISSIONS),
        )
        crashes = post_verifier.observed_crashes(device)
        if crashes:
            crash_free = False
            print(f"  API {level}: {len(crashes)} crash(es) remain!")
    if crash_free:
        print("re-execution on API 19/21/23/26/29: no crashes — the "
              "repaired app is safe on every supported level.")


if __name__ == "__main__":
    main()
