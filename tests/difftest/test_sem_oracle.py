"""SEM scenarios under the differential oracle.

The acceptance bar for the new kind: the coverage plans now include
``semantic`` and ``semantic-guarded`` apps, the oracle agrees with the
static detector on both (zero disagreements), and a seeded semantic
issue can never hide — stripping it from the report surfaces a
``STATIC_FN`` with kind ``SEM``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.difftest.campaign import CampaignConfig, run_campaign
from repro.difftest.oracle import Classification, DISAGREEMENTS
from repro.difftest.strategy import ALL_KINDS, materialize, plan_apps

SEM_KINDS = ("semantic", "semantic-guarded")


def test_coverage_includes_sem_kinds():
    assert set(SEM_KINDS) <= set(ALL_KINDS)


@pytest.fixture(scope="module")
def coverage(tool, oracle, apidb):
    """kind -> (forged app, static report, oracle records)."""
    out = {}
    for plan in plan_apps(2026, len(ALL_KINDS), coverage=True):
        kind = plan.scenarios[0].kind
        if kind not in SEM_KINDS:
            continue
        forged = materialize(plan, apidb)
        report = tool.analyze(forged.apk)
        out[kind] = (forged, report, oracle.examine(forged, report))
    return out


def test_both_sem_kinds_materialize(coverage):
    assert set(coverage) == set(SEM_KINDS)


def test_sem_coverage_never_disagrees(coverage):
    for kind, (_, _, records) in coverage.items():
        bad = [r for r in records if r.classification in DISAGREEMENTS]
        assert not bad, f"{kind}: {bad}"


def test_semantic_issue_is_confirmed(coverage):
    _, report, records = coverage["semantic"]
    assert any(m.kind.value == "SEM" for m in report.mismatches)
    assert Classification.AGREE_CONFIRMED in {
        r.classification for r in records
    }


def test_guarded_semantic_is_silent(coverage):
    _, report, records = coverage["semantic-guarded"]
    assert not any(m.kind.value == "SEM" for m in report.mismatches)
    assert not any(
        r.classification in DISAGREEMENTS for r in records
    )


def test_suppressed_sem_finding_becomes_static_fn(oracle, coverage):
    """Zero-static-FN acceptance: drop the SEM finding and the
    interpreter-observed behavior change must convict the detector."""
    forged, report, _ = coverage["semantic"]
    kept = tuple(
        m for m in report.mismatches if m.kind.value != "SEM"
    )
    records = oracle.examine(forged, replace(report, mismatches=kept))
    fn = [
        r for r in records
        if r.classification is Classification.STATIC_FN
    ]
    assert fn
    assert all(r.kind == "SEM" for r in fn)
    assert all(r.level is not None for r in fn)


@pytest.mark.slow
def test_short_campaign_with_sem_kinds(framework, apidb):
    """A coverage-prefixed campaign (one app per scenario kind,
    including both SEM kinds) completes without a disagreement."""
    result = run_campaign(
        CampaignConfig(
            seed=2026,
            n_apps=len(ALL_KINDS),
            coverage=True,
            mutation=False,
            shrink=True,
        ),
        framework=framework,
        apidb=apidb,
    )
    assert result.ok, result.disagreements
    assert result.apps_examined == len(ALL_KINDS)
    kinds = {plan.scenarios[0].kind for plan in result.plans}
    assert set(SEM_KINDS) <= kinds
