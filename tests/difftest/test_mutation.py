"""Mutation testing of the detector: the catalog, the patch/restore
contract, and (slow) the full 100% kill requirement."""

from __future__ import annotations

import pytest

from repro.analysis.intervals import ApiInterval
from repro.core.apidb import ApiDatabase
from repro.difftest.mutation import (
    MUTANT_CATALOG,
    Mutant,
    apply_mutant,
    run_mutation_pass,
)
from repro.difftest.strategy import ALL_KINDS, plan_apps
from repro.ir.instructions import CmpOp


def test_catalog_is_large_enough():
    assert len(MUTANT_CATALOG) >= 10
    names = [mutant.name for mutant in MUTANT_CATALOG]
    assert len(names) == len(set(names))
    assert all(mutant.description for mutant in MUTANT_CATALOG)


def test_apply_mutant_restores_originals():
    pristine_refine = vars(ApiInterval)["refine"]
    pristine_missing = vars(ApiDatabase)["missing_levels"]
    for mutant in MUTANT_CATALOG:
        with apply_mutant(mutant):
            pass
    assert vars(ApiInterval)["refine"] is pristine_refine
    assert vars(ApiDatabase)["missing_levels"] is pristine_missing


def test_apply_mutant_changes_behavior_then_reverts():
    interval = ApiInterval.of(20, 28)
    original = interval.refine(CmpOp.LT, 24)
    mutant = next(
        m for m in MUTANT_CATALOG if m.name == "refine-lt-off-by-one"
    )
    with apply_mutant(mutant):
        mutated = interval.refine(CmpOp.LT, 24)
    assert original.hi == 23
    assert mutated.hi == 24
    assert interval.refine(CmpOp.LT, 24) == original


def test_survivors_are_listed_by_name(tool, apidb):
    noop = Mutant("noop-mutant", "changes nothing, must survive", list)
    plans = plan_apps(2026, 2, coverage=True)
    result = run_mutation_pass(
        plans, tool, apidb, catalog=(noop,)
    )
    assert result.killed == 0
    assert result.survivors == ("noop-mutant",)
    assert result.score == "0/1"
    doc = result.to_dict()
    assert doc["survivors"] == ["noop-mutant"]
    assert doc["outcomes"][0]["killed"] is False


@pytest.mark.slow
def test_full_catalog_is_killed(tool, apidb):
    plans = plan_apps(2026, len(ALL_KINDS), coverage=True)
    result = run_mutation_pass(plans, tool, apidb)
    assert result.total == len(MUTANT_CATALOG)
    assert result.survivors == (), (
        f"surviving mutants: {result.survivors}"
    )
    assert result.score == f"{len(MUTANT_CATALOG)}/{len(MUTANT_CATALOG)}"
    for outcome in result.outcomes:
        assert outcome.killed_by
        assert outcome.evidence is not None
