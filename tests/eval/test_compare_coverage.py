"""Kind-coverage gate: the agreement study must be able to *seed*
every registered mismatch kind, or it is structurally blind to it.

``scenario_kind_coverage`` materializes the corpus generator's
coverage prefix and maps each kind to the scenario kinds that seed it;
``missing_scenario_kinds`` is the gate.  A newly registered kind with
no scenario builder must fail the campaign with an actionable message
(pointing at ``scenario_builders`` / ``workload/appgen.py``), not
silently produce a zero column.
"""

from __future__ import annotations

import pytest

from repro.core.kinds import (
    MismatchKindSpec,
    api_shaped_key,
    register_kind,
    registered_kinds,
    unregister_kind,
)
from repro.eval.compare import (
    CompareConfig,
    CompareError,
    missing_scenario_kinds,
    run_compare,
    scenario_kind_coverage,
)


@pytest.fixture(scope="module")
def coverage(apidb):
    return scenario_kind_coverage(apidb)


class TestCoverage:
    def test_every_registered_kind_is_seedable(self, coverage):
        registered = {spec.value for spec in registered_kinds()}
        assert registered <= set(coverage), (
            "kinds with no seeding scenario: "
            f"{registered - set(coverage)}"
        )
        assert missing_scenario_kinds(coverage) == ()

    def test_sem_reachable_from_compare_corpus(self, coverage):
        # The registry-contributed scenarios count: SEM rides in via
        # core/sem.py's scenario_builders, not a hand-listed builder.
        assert "SEM" in coverage
        assert set(coverage["SEM"]) & {"semantic", "semantic-guarded"}

    def test_each_kind_names_its_seeding_scenarios(self, coverage):
        for kind, scenarios in coverage.items():
            assert scenarios, kind


class TestGate:
    @pytest.fixture()
    def orphan_kind(self):
        """A registered kind no scenario builder can seed."""
        register_kind(
            MismatchKindSpec(
                value="ORF",
                family="ORF",
                is_permission=False,
                key_fn=api_shaped_key,
                describe_fn=lambda m: "[ORF]",
            ),
            attr="ORPHAN_TEST_ONLY",
        )
        try:
            yield "ORF"
        finally:
            unregister_kind("ORF")

    def test_orphan_kind_is_reported(self, orphan_kind, coverage):
        assert missing_scenario_kinds(coverage) == (orphan_kind,)

    def test_campaign_fails_actionably(
        self, orphan_kind, framework, apidb
    ):
        with pytest.raises(CompareError) as excinfo:
            run_compare(
                CompareConfig(
                    seed=3, n_apps=2, configs=("SAINTDroid",)
                ),
                substrate=(framework, apidb),
            )
        message = str(excinfo.value)
        assert "'ORF'" in message
        assert "scenario_builders" in message
        assert "workload/appgen.py" in message
