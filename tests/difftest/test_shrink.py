"""Shrinking acceptance: a seeded interval-logic bug in the detector
is caught by the campaign apps and reduced to a minimal repro
automatically."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.difftest.mutation import MUTANT_CATALOG, apply_mutant
from repro.difftest.oracle import DISAGREEMENTS
from repro.difftest.shrink import (
    build_apk_reproducer,
    build_reproducer,
    shrink_apk,
    shrink_plan,
    signature_digest,
    write_regression_file,
)
from repro.difftest.strategy import (
    ALL_KINDS,
    ScenarioSpec,
    materialize,
    plan_apps,
)


def _mutant(name):
    return next(m for m in MUTANT_CATALOG if m.name == name)


@pytest.fixture(scope="module")
def fat_plan():
    """A legacy-guard app padded with unrelated scenarios + filler."""
    base = plan_apps(2026, len(ALL_KINDS), coverage=True)
    legacy = next(
        p for p in base if p.scenarios[0].kind == "legacy-guard"
    )
    padding = (
        ScenarioSpec("direct", 101),
        ScenarioSpec("library", 102),
        ScenarioSpec("guarded-direct", 103),
        ScenarioSpec("inherited", 104),
    )
    return replace(
        legacy,
        scenarios=legacy.scenarios + padding,
        filler_kloc=0.5,
    )


def test_interval_mutant_shrinks_to_minimal_plan(
    tool, oracle, apidb, framework, fat_plan, tmp_path
):
    with apply_mutant(_mutant("refine-lt-off-by-one")):
        forged = materialize(fat_plan, apidb)
        records = oracle.examine(forged, tool.analyze(forged.apk))
        found = [
            r for r in records if r.classification in DISAGREEMENTS
        ]
        assert found, "the seeded interval bug went unnoticed"
        signature = found[0].signature
        reproduces = build_reproducer(
            tool, oracle, apidb, signature
        )
        assert reproduces(fat_plan)
        shrunk, evaluations = shrink_plan(fat_plan, reproduces)
        assert reproduces(shrunk)

    # Automatic reduction to <= 3 scenarios (here: exactly the guard).
    assert len(shrunk.scenarios) <= 3
    assert shrunk.filler_kloc == 0.0
    assert {s.kind for s in shrunk.scenarios} == {"legacy-guard"}
    assert evaluations >= len(fat_plan.scenarios)

    # The emitted regression file passes against the fixed detector.
    path = write_regression_file(tmp_path, shrunk, signature)
    assert path.name == (
        f"test_regression_{signature_digest(signature)}.py"
    )
    namespace: dict = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    regression = next(
        value
        for name, value in namespace.items()
        if name.startswith("test_no_regression_")
    )
    regression(framework, apidb)


def test_apk_level_reduction(tool, oracle, apidb, fat_plan):
    with apply_mutant(_mutant("refine-lt-off-by-one")):
        forged = materialize(fat_plan, apidb)
        records = oracle.examine(forged, tool.analyze(forged.apk))
        signature = next(
            r.signature
            for r in records
            if r.classification in DISAGREEMENTS
        )
        reproduces = build_apk_reproducer(
            tool, oracle, forged.truth, signature
        )
        assert reproduces(forged.apk)
        reduced, stats = shrink_apk(forged.apk, reproduces)
        assert reproduces(reduced)

    before = sum(len(d.classes) for d in forged.apk.dex_files)
    after = sum(len(d.classes) for d in reduced.dex_files)
    assert after < before
    assert stats["classes_removed"] == before - after
    assert stats["evaluations"] > 0


def test_regression_filename_is_stable():
    signature = ("static-fp", "API", "android.x.C.m()void")
    assert signature_digest(signature) == signature_digest(signature)
