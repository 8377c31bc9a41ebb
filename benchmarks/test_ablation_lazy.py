"""E8 — ablations for the design choices DESIGN.md calls out.

1. **Lazy vs eager loading** (the CLVM contribution, paper section VI):
   eager closed-world loading finds the same mismatches but pays the
   whole-framework memory cost — the quantitative argument for the
   class-loader-based analysis.
2. **Anonymous-class guard propagation** (the paper's stated future
   work): enabling it removes SAINTDroid's residual false alarms on
   the trap workload without losing any true positive.
"""


def test_lazy_vs_eager_loading(session):
    data = session.result("ablation_lazy.txt").data
    lazy_report, eager_report = data["lazy"], data["eager"]

    # Same findings — laziness sacrifices nothing.
    assert lazy_report.keys == eager_report.keys

    # But the eager run holds the entire framework resident.
    lazy_mb = lazy_report.metrics.modeled_memory_mb
    eager_mb = eager_report.metrics.modeled_memory_mb
    assert eager_mb > 2.0 * lazy_mb


def test_anonymous_guard_ablation(session):
    data = session.result("ablation_anonymous.txt").data
    default_report, fixed_report = data["default"], data["fixed"]

    truth = data["truth"]
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
