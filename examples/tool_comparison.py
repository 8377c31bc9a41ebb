#!/usr/bin/env python3
"""Side-by-side tool comparison on one deliberately tricky app.

Forges a single app containing the five mechanisms that separate the
tools in the paper's Table II, runs SAINTDroid, CID, CIDER, and Lint
over it, and explains each delta:

* a guard in the *caller* protecting an API call in a *callee*
  (context-insensitive tools false-alarm);
* an API inherited through an app subclass (first-level tools miss);
* an issue inside a bundled third-party library (Lint's source scope
  misses);
* a callback on a class outside CIDER's four hand-built models;
* a dangerous-permission use without the runtime request protocol
  (only SAINTDroid models permissions at all).

Run with::

    python examples/tool_comparison.py
"""

from repro import Cid, Cider, Lint, SaintDroid
from repro.core import build_api_database
from repro.framework import FrameworkRepository
from repro.workload.appgen import ApiPicker, AppForge

EXPLANATIONS = {
    "trap-caller-guard": (
        "guarded at the call site in the caller — safe; flagged only "
        "by tools without inter-procedural guard tracking"
    ),
    "inherited": (
        "API reached through an app subclass receiver — invisible to "
        "tools that never resolve the framework hierarchy"
    ),
    "library": (
        "issue inside a bundled library — outside Lint's source scope"
    ),
    "callback-unmodeled": (
        "callback on a class missing from CIDER's four PI-graph models"
    ),
    "permission-request": (
        "dangerous-permission use without onRequestPermissionsResult — "
        "only SAINTDroid analyzes the runtime permission system"
    ),
}


def main() -> None:
    framework = FrameworkRepository()
    apidb = build_api_database(framework)
    picker = ApiPicker.of(apidb)

    forge = AppForge(
        "com.demo.tricky", "TrickyApp",
        min_sdk=19, target_sdk=26, seed=2022,
        apidb=apidb, picker=picker,
    )
    trap = forge.add_caller_guard_trap()
    inherited = forge.add_inherited_issue()
    library = forge.add_library_issue()
    callback = forge.add_callback_issue(modeled=False)
    permission = forge.add_permission_request_issue()[0]
    forge.add_filler(kloc=1.0)
    forged = forge.build()

    tools = [
        SaintDroid(framework, apidb),
        Cid(framework, apidb),
        Cider(framework, apidb),
        Lint(framework, apidb),
    ]

    findings = {}
    for tool in tools:
        report = tool.analyze(forged.apk)
        findings[tool.name] = report.keys
        kinds = report.by_kind()
        print(f"{tool.name:<12} reported {sum(kinds.values())} findings: "
              f"{kinds}")

    rows = [
        ("caller-guard trap (non-issue)", trap.fp_keys[0],
         EXPLANATIONS["trap-caller-guard"]),
        ("inherited API issue", inherited.key, EXPLANATIONS["inherited"]),
        ("library issue", library.key, EXPLANATIONS["library"]),
        ("unmodeled callback issue", callback.key,
         EXPLANATIONS["callback-unmodeled"]),
        ("permission request issue", permission.key,
         EXPLANATIONS["permission-request"]),
    ]

    print()
    header = f"{'scenario':<32}" + "".join(
        f"{name:<12}" for name in findings
    )
    print(header)
    print("-" * len(header))
    for label, key, _ in rows:
        cells = "".join(
            f"{'flags' if key in keys else '—':<12}"
            for keys in findings.values()
        )
        print(f"{label:<32}{cells}")

    print("\nwhy the tools disagree:")
    for label, _, why in rows:
        print(f"  * {label}: {why}")

    saint = findings["SAINTDroid"]
    assert inherited.key in saint
    assert library.key in saint
    assert callback.key in saint
    assert permission.key in saint
    assert trap.fp_keys[0] not in saint
    print("\nOK: SAINTDroid detects all four seeded issues and does not "
          "trip on the guard trap.")


if __name__ == "__main__":
    main()
