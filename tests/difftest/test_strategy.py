"""Strategy layer: deterministic plans, deterministic materialization."""

from __future__ import annotations

import json

from repro.difftest.strategy import (
    ALL_KINDS,
    AppPlan,
    PERMISSION_KINDS,
    materialize,
    plan_apps,
)


def _fingerprint(forged):
    """Everything that matters for reproducibility, hashable."""
    apk = forged.apk
    return (
        tuple(
            (clazz.name, tuple(m.signature for m in clazz.methods))
            for clazz in apk.all_classes
        ),
        apk.instruction_count,
        json.dumps(forged.truth.to_dict(), sort_keys=True),
    )


def test_plan_apps_is_deterministic():
    assert plan_apps(99, 12) == plan_apps(99, 12)


def test_different_seeds_differ():
    assert plan_apps(1, 12) != plan_apps(2, 12)


def test_coverage_prefix_spans_every_kind():
    plans = plan_apps(2026, len(ALL_KINDS), coverage=True)
    covered = {spec.kind for plan in plans for spec in plan.scenarios}
    assert covered == set(ALL_KINDS)


def test_random_apps_are_well_formed():
    for plan in plan_apps(5, 10, coverage=False):
        assert 1 <= len(plan.scenarios) <= 6
        assert plan.min_sdk <= plan.target_sdk
        permission_kinds = [
            s for s in plan.scenarios if s.kind in PERMISSION_KINDS
        ]
        assert len(permission_kinds) <= 1


def test_plan_json_round_trip():
    for plan in plan_apps(11, 6):
        payload = json.loads(json.dumps(plan.to_dict()))
        assert AppPlan.from_dict(payload) == plan


def test_without_drops_exactly_one_scenario():
    plan = plan_apps(3, len(ALL_KINDS) + 4, coverage=True)[-1]
    assert len(plan.scenarios) >= 2
    reduced = plan.without(0)
    assert len(reduced.scenarios) == len(plan.scenarios) - 1
    assert reduced.scenarios == plan.scenarios[1:]


def test_materialize_is_deterministic(apidb):
    plans = plan_apps(42, 6)
    first = [_fingerprint(materialize(p, apidb)) for p in plans]
    second = [_fingerprint(materialize(p, apidb)) for p in plans]
    assert first == second


def test_filler_only_adds_code(apidb):
    from dataclasses import replace

    plan = plan_apps(8, 1, coverage=True)[0]
    lean = materialize(replace(plan, filler_kloc=0.0), apidb)
    fat = materialize(replace(plan, filler_kloc=1.0), apidb)
    assert fat.apk.instruction_count > lean.apk.instruction_count
    assert json.dumps(lean.truth.to_dict(), sort_keys=True) == json.dumps(
        fat.truth.to_dict(), sort_keys=True
    )
