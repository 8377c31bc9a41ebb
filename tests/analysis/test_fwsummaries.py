"""Tests for whole-framework pre-summaries (the CLVM boundary table)."""

from __future__ import annotations

import pytest

from repro.analysis.fwsummaries import (
    FrameworkSummaryTable,
    cached_table,
    summary_table,
)
from repro.framework.repository import FrameworkRepository
from repro.ir.types import MethodRef

LEVEL = 25


@pytest.fixture(scope="module")
def table(framework) -> FrameworkSummaryTable:
    return FrameworkSummaryTable(framework)


class TestBuild:
    def test_every_image_class_is_summarized(self, framework, table):
        summaries = table.level_summaries(LEVEL)
        assert set(summaries) == set(framework.class_names(LEVEL))
        assert table.stats.levels_built == 1
        assert table.stats.build_seconds > 0.0

    def test_levels_are_memoized(self, table):
        first = table.level_summaries(LEVEL)
        again = table.level_summaries(LEVEL)
        assert first is again
        assert table.stats.levels_built == 1

    def test_effects_are_well_formed(self, table):
        kinds = {"loadclass", "new", "call", "dispatch"}
        seen_kinds = set()
        for summary in table.level_summaries(LEVEL).values():
            for kind, target, container in summary.effects:
                assert kind in kinds
                assert isinstance(container, MethodRef)
                seen_kinds.add(kind)
        # The generated framework always contains plain calls and
        # virtual dispatch sites (enforcement + callback dispatchers).
        assert "call" in seen_kinds
        assert "dispatch" in seen_kinds

    def test_class_summary_counts_match_the_image(
        self, framework, table
    ):
        image = framework.load_image(LEVEL)
        for name, clazz in image.items():
            summary = table.level_summaries(LEVEL)[name]
            assert summary.instruction_count == clazz.instruction_count

    def test_build_warms_the_repository(self, spec):
        """The table is built from the repository's own image, so a
        later whole-image load of the level is served from cache."""
        cold = FrameworkRepository(spec)
        FrameworkSummaryTable(cold).level_summaries(LEVEL)
        hits = cold.cache_stats.image_hits
        cold.load_image(LEVEL)
        assert cold.cache_stats.image_hits == hits + 1


class TestPersistence:
    def test_store_and_load_roundtrip(self, framework, tmp_path):
        writer = FrameworkSummaryTable(framework, store_dir=tmp_path)
        built = writer.level_summaries(LEVEL)
        assert writer.stats.levels_built == 1
        stored = list((tmp_path / "summaries").glob("*.summ"))
        assert len(stored) == 1

        reader = FrameworkSummaryTable(framework, store_dir=tmp_path)
        loaded = reader.level_summaries(LEVEL)
        assert reader.stats.levels_built == 0
        assert reader.stats.levels_loaded == 1
        assert set(loaded) == set(built)
        probe = next(iter(built))
        assert loaded[probe] == built[probe]

    def test_corrupt_store_is_a_miss_not_an_error(
        self, framework, tmp_path
    ):
        writer = FrameworkSummaryTable(framework, store_dir=tmp_path)
        writer.level_summaries(LEVEL)
        stored = next((tmp_path / "summaries").glob("*.summ"))
        blob = bytearray(stored.read_bytes())
        blob[40] ^= 0xFF
        stored.write_bytes(bytes(blob))

        reader = FrameworkSummaryTable(framework, store_dir=tmp_path)
        table = reader.level_summaries(LEVEL)
        assert reader.stats.levels_loaded == 0
        assert reader.stats.levels_built == 1
        assert table

    def test_truncated_store_is_a_miss(self, framework, tmp_path):
        writer = FrameworkSummaryTable(framework, store_dir=tmp_path)
        writer.level_summaries(LEVEL)
        stored = next((tmp_path / "summaries").glob("*.summ"))
        stored.write_bytes(stored.read_bytes()[:16])
        reader = FrameworkSummaryTable(framework, store_dir=tmp_path)
        assert reader.level_summaries(LEVEL)
        assert reader.stats.levels_built == 1


class TestRegistry:
    def test_summary_table_is_shared_per_spec(self, framework):
        first = summary_table(framework)
        again = summary_table(framework)
        assert first is again
        assert cached_table(framework.spec) is first

    def test_distinct_spec_distinct_table(self):
        other = FrameworkRepository()
        table = summary_table(other)
        assert cached_table(other.spec) is table

    def test_store_dir_late_binding(self, framework, tmp_path):
        table = summary_table(framework)
        if table.store_dir is None:
            summary_table(framework, store_dir=tmp_path)
            assert table.store_dir == tmp_path
