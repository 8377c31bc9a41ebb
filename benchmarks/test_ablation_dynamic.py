"""E9 — the static+dynamic pipeline (paper sections VI and VIII).

The paper proposes dynamic verification of static findings and a
repair synthesizer as future work; both are implemented here.  The
tests check them on the CIDER-Bench replicas:

* dynamic verification refutes the anonymous-guard false alarms and
  confirms the true crashes, lifting the API-kind precision of the
  combined pipeline to 1.0 without losing recall;
* the repair synthesizer eliminates every repairable finding — the
  repaired apps re-analyze clean except for callback advisories.
"""

from repro.repair.engine import RepairEngine

from .conftest import assert_committed


def test_dynamic_verification_reaches_full_api_precision(session):
    verified_scores = session.result("ablation_dynamic.txt").data

    static_fp = sum(r["static_fp"] for r in verified_scores)
    combined_fp = sum(r["combined_fp"] for r in verified_scores)
    static_tp = sum(r["static_tp"] for r in verified_scores)
    combined_tp = sum(r["combined_tp"] for r in verified_scores)

    assert static_fp > 0          # static alone has the §VI false alarms
    assert combined_fp == 0       # …all dynamically refuted
    assert combined_tp == static_tp  # …with zero lost true positives


def test_repair_eliminates_every_repairable_finding(session):
    detector = session.saintdroid()
    engine = RepairEngine(session.apidb)
    target = next(
        a for a in session.bench_apps if a.apk.name == "Kolab notes"
    )
    report = next(
        r for r in session.bench_run.results if r.app == "Kolab notes"
    ).reports["SAINTDroid"]

    result = engine.repair(target.apk, report.mismatches)
    residual = detector.analyze(result.repaired).mismatches
    # Everything except callback advisories (and the anonymous-guard
    # blind-spot findings, which repair *also* guards — making them
    # disappear) is gone.
    assert all(m.kind.value in ("APC",) for m in residual)


def test_committed_results_reproduce(session):
    assert_committed(session, "ablation_dynamic.txt")
