"""Agreement-matrix properties (``saintdroid compare``).

Two layers: pure-function properties on hand-built joins (no analysis
at all), and the same invariants re-checked on a real seeded campaign
— label-completeness over the kind registry, agreement symmetry with
an exact-1.0 diagonal, and per-kind counts that sum to corpus totals.
"""

from __future__ import annotations

import pytest

from repro.core.kinds import family_of, registered_kinds
from repro.eval.compare import (
    AppJoin,
    CompareConfig,
    agreement_matrix,
    blind_spots,
    build_report,
    canonical_json,
    ordered_kind_values,
    pairwise_confusion,
    per_kind_matrix,
    run_compare,
    scenario_stats,
)

CONFIGS = ("A", "B", "C")


def _join(app, truth, reported):
    return AppJoin(
        app=app,
        truth_keys=frozenset(truth),
        reported={name: frozenset(keys) for name, keys in reported.items()},
        failed={name: False for name in reported},
    )


@pytest.fixture()
def joins():
    """Three apps with asymmetric tool behaviour: B misses one API
    issue, C reports a false positive and misses everything real."""
    k = lambda kind, n: (kind, "loc", f"subject-{n}")  # noqa: E731
    return [
        _join(
            "app-0",
            truth=[k("API", 0), k("APC", 1)],
            reported={
                "A": [k("API", 0), k("APC", 1)],
                "B": [k("API", 0)],
                "C": [k("API", 99)],
            },
        ),
        _join(
            "app-1",
            truth=[k("API", 2)],
            reported={
                "A": [k("API", 2)],
                "B": [k("API", 2)],
                "C": [],
            },
        ),
        _join(
            "app-2",
            truth=[],
            reported={"A": [], "B": [], "C": []},
        ),
    ]


class TestHandBuiltFixtures:
    def test_per_kind_matrix_is_label_complete(self, joins):
        matrix = per_kind_matrix(joins, CONFIGS)
        expected = set(ordered_kind_values())
        assert expected == {
            spec.value for spec in registered_kinds()
        }
        for name in CONFIGS:
            assert set(matrix[name]) == expected

    def test_per_kind_counts(self, joins):
        matrix = per_kind_matrix(joins, CONFIGS)
        api_a = matrix["A"]["API"]
        assert (api_a.tp, api_a.fp, api_a.fn) == (2, 0, 0)
        api_c = matrix["C"]["API"]
        assert (api_c.tp, api_c.fp, api_c.fn) == (0, 1, 2)
        apc_b = matrix["B"]["APC"]
        assert (apc_b.tp, apc_b.fp, apc_b.fn) == (0, 0, 1)

    def test_per_kind_counts_sum_to_corpus_totals(self, joins):
        matrix = per_kind_matrix(joins, CONFIGS)
        seeded = sum(len(j.truth_keys) for j in joins)
        for name in CONFIGS:
            reported = sum(len(j.reported[name]) for j in joins)
            assert (
                sum(c.actual for c in matrix[name].values()) == seeded
            )
            assert (
                sum(c.reported for c in matrix[name].values())
                == reported
            )

    def test_agreement_symmetric_with_unit_diagonal(self, joins):
        matrix = agreement_matrix(joins, CONFIGS)
        for a in CONFIGS:
            assert matrix[a][a] == 1.0
            for b in CONFIGS:
                assert matrix[a][b] == matrix[b][a]
                assert 0.0 <= matrix[a][b] <= 1.0

    def test_agreement_values(self, joins):
        matrix = agreement_matrix(joins, CONFIGS)
        # A∩B = {API0, API2}, A∪B = {API0, APC1, API2} → 2/3.
        assert matrix["A"]["B"] == round(2 / 3, 6)
        # C shares nothing with A: 0/4.
        assert matrix["A"]["C"] == 0.0

    def test_all_empty_reports_agree_vacuously(self):
        joins = [_join("app-0", truth=[], reported={"A": [], "B": []})]
        matrix = agreement_matrix(joins, ("A", "B"))
        assert matrix["A"]["B"] == 1.0

    def test_pairwise_confusion_mirrors(self, joins):
        matrix = pairwise_confusion(joins, CONFIGS)
        for a in CONFIGS:
            for b in CONFIGS:
                for kind, cell in matrix[a][b].items():
                    mirror = matrix[b][a][kind]
                    assert cell["both"] == mirror["both"]
                    assert cell["onlyA"] == mirror["onlyB"]
                    assert cell["neither"] == mirror["neither"]

    def test_pairwise_confusion_counts(self, joins):
        cell = pairwise_confusion(joins, CONFIGS)["A"]["C"]["API"]
        # A and C never report the same API key; C's FP is its own.
        assert cell == {
            "both": 0, "onlyA": 2, "onlyB": 1, "neither": 0,
        }
        apc = pairwise_confusion(joins, CONFIGS)["B"]["C"]["APC"]
        # The APC truth key escapes both B and C.
        assert apc["neither"] == 1

    def test_failed_config_counts_as_empty(self):
        k = ("API", "loc", "subject")
        join = AppJoin(
            app="app-0",
            truth_keys=frozenset([k]),
            reported={"A": frozenset([k]), "B": frozenset()},
            failed={"A": False, "B": True},
        )
        matrix = per_kind_matrix([join], ("A", "B"))
        assert matrix["B"]["API"].fn == 1
        assert matrix["B"]["API"].tp == 0

    def test_blind_spots_require_universal_miss(self):
        from repro.difftest.strategy import ScenarioTrace

        k = ("API", "loc", "s")
        traces = [[ScenarioTrace("scenario-x", (k,), ())]]
        joins = [
            _join("app-0", truth=[k], reported={"A": [k], "B": []})
        ]
        stats = scenario_stats(traces, joins, ("A", "B"))
        assert blind_spots(stats) == []  # A found it
        joins = [_join("app-0", truth=[k], reported={"A": [], "B": []})]
        stats = scenario_stats(traces, joins, ("A", "B"))
        spots = blind_spots(stats)
        assert [s["scenario"] for s in spots] == ["scenario-x"]
        assert spots[0]["seededIssues"] == 1


class TestSeededCampaign:
    """The same invariants on real campaign output."""

    @pytest.fixture(scope="class")
    def campaign(self, framework, apidb):
        config = CompareConfig(
            seed=424, n_apps=12, configs=("SAINTDroid", "CID", "Lint")
        )
        return run_compare(config, substrate=(framework, apidb))

    def test_label_complete(self, campaign):
        report = campaign.report
        expected = list(ordered_kind_values())
        assert report["kinds"] == expected
        for name in report["campaign"]["configurations"]:
            assert list(report["perKind"][name]) == expected

    def test_counts_sum_to_corpus_totals(self, campaign):
        report = campaign.report
        seeded = report["corpus"]["seededIssues"]
        by_kind = report["corpus"]["seededIssuesByKind"]
        assert sum(by_kind.values()) == seeded
        for name in report["campaign"]["configurations"]:
            assert (
                sum(
                    cell["tp"] + cell["fn"]
                    for cell in report["perKind"][name].values()
                )
                == seeded
            )

    def test_agreement_matrix_properties(self, campaign):
        matrix = campaign.report["agreement"]
        configs = campaign.report["campaign"]["configurations"]
        for a in configs:
            assert matrix[a][a] == 1.0
            for b in configs:
                assert matrix[a][b] == matrix[b][a]

    def test_scenario_found_counts_bounded_by_issues(self, campaign):
        for row in campaign.report["perScenario"].values():
            for found in row["found"].values():
                assert 0 <= found <= row["issues"]

    def test_capability_families_consistent(self, campaign):
        capabilities = campaign.report["capabilities"]
        families = set(capabilities["families"])
        for name, observed in capabilities["observed"].items():
            assert set(observed) <= families
        for kind in campaign.report["kinds"]:
            assert family_of(kind) in families

    def test_report_is_canonical_json_stable(self, campaign):
        joins_doc = canonical_json(campaign.report)
        rebuilt = canonical_json(campaign.report)
        assert joins_doc == rebuilt


@pytest.mark.slow
class TestFullRoster:
    """Issue-mandated scale: a 50-app campaign across every
    registered configuration (CI's compare job runs this)."""

    @pytest.fixture(scope="class")
    def campaign(self, framework, apidb):
        return run_compare(
            CompareConfig(seed=2026, n_apps=50),
            substrate=(framework, apidb),
        )

    def test_capability_crosscheck_passes(self, campaign):
        assert campaign.ok, campaign.report["capabilities"][
            "mismatches"
        ]

    def test_matrix_invariants_at_scale(self, campaign):
        report = campaign.report
        seeded = report["corpus"]["seededIssues"]
        configs = report["campaign"]["configurations"]
        assert len(configs) == 6
        for name in configs:
            assert (
                sum(
                    cell["tp"] + cell["fn"]
                    for cell in report["perKind"][name].values()
                )
                == seeded
            )
        matrix = report["agreement"]
        for a in configs:
            assert matrix[a][a] == 1.0
            for b in configs:
                assert matrix[a][b] == matrix[b][a]

    def test_ablations_agree_with_baseline_on_unablated_corpus(
        self, campaign
    ):
        # Eager loading must never change findings; the anonymous-
        # guard ablation only changes guarded-anonymous scenarios.
        matrix = campaign.report["agreement"]
        assert matrix["SAINTDroid"]["SAINTDroid-eager"] == 1.0
