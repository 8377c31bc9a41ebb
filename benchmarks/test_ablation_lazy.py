"""E8 — ablations for the design choices DESIGN.md calls out.

1. **Lazy vs eager loading** (the CLVM contribution, paper section VI):
   eager closed-world loading finds the same mismatches but pays the
   whole-framework memory cost — the quantitative argument for the
   class-loader-based analysis.
2. **Anonymous-class guard propagation** (the paper's stated future
   work): enabling it removes SAINTDroid's residual false alarms on
   the trap workload without losing any true positive.
"""

import pytest

from repro.core import SaintDroid
from repro.workload.appgen import AppForge

from .conftest import write_result


@pytest.fixture(scope="module")
def ablation_app(toolset):
    forge = AppForge(
        "com.ablation.app", "AblationApp",
        min_sdk=19, target_sdk=26, seed=77,
        apidb=toolset.apidb,
    )
    for _ in range(3):
        forge.add_direct_issue()
    forge.add_inherited_issue()
    forge.add_callback_issue(modeled=False)
    for _ in range(4):
        forge.add_anonymous_guard_trap()
    forge.add_caller_guard_trap()
    forge.add_filler(kloc=6.0)
    return forge.build()


def test_lazy_vs_eager_loading(benchmark, toolset, ablation_app):
    lazy = SaintDroid(toolset.framework, toolset.apidb)
    eager = SaintDroid(
        toolset.framework, toolset.apidb, lazy_loading=False
    )

    lazy_report = benchmark(lazy.analyze, ablation_app.apk)
    eager_report = eager.analyze(ablation_app.apk)

    # Same findings — laziness sacrifices nothing.
    assert lazy_report.keys == eager_report.keys

    # But the eager run holds the entire framework resident.
    lazy_mb = lazy_report.metrics.modeled_memory_mb
    eager_mb = eager_report.metrics.modeled_memory_mb
    assert eager_mb > 2.0 * lazy_mb

    write_result(
        "ablation_lazy.txt",
        "\n".join(
            [
                "Ablation: lazy (CLVM) vs eager (closed-world) loading",
                f"  findings identical: "
                f"{lazy_report.keys == eager_report.keys}",
                f"  lazy memory:  {lazy_mb:.0f} MB "
                f"({lazy_report.metrics.stats.framework_classes_loaded} "
                f"framework classes)",
                f"  eager memory: {eager_mb:.0f} MB "
                f"({eager_report.metrics.stats.framework_classes_loaded} "
                f"framework classes)",
                f"  eager/lazy ratio: {eager_mb / lazy_mb:.1f}x",
            ]
        ),
    )


def test_anonymous_guard_ablation(benchmark, toolset, ablation_app):
    default = SaintDroid(toolset.framework, toolset.apidb)
    fixed = SaintDroid(
        toolset.framework, toolset.apidb,
        propagate_guards_into_anonymous=True,
    )

    default_report = default.analyze(ablation_app.apk)
    fixed_report = benchmark(fixed.analyze, ablation_app.apk)

    truth = ablation_app.truth
    trap_keys = {key for trap in truth.traps for key in trap.fp_keys}

    default_fps = default_report.keys - truth.issue_keys
    fixed_fps = fixed_report.keys - truth.issue_keys

    # The default tool trips on every anonymous trap; the ablation
    # clears them without losing a single true positive.
    assert len(default_fps & trap_keys) == 4
    assert len(fixed_fps & trap_keys) == 0
    assert (truth.issue_keys & default_report.keys) == (
        truth.issue_keys & fixed_report.keys
    )

    write_result(
        "ablation_anonymous.txt",
        "\n".join(
            [
                "Ablation: guard propagation into anonymous classes",
                f"  seeded anonymous traps:     4",
                f"  false alarms (default):     "
                f"{len(default_fps & trap_keys)}",
                f"  false alarms (ablation):    "
                f"{len(fixed_fps & trap_keys)}",
                f"  true positives unchanged:   "
                f"{len(truth.issue_keys & fixed_report.keys)}",
            ]
        ),
    )
