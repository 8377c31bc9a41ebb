"""Tests for whole-framework pre-summaries (the CLVM boundary table)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
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


_CORPUS = """
from repro.core.arm import build_api_database
from repro.framework.repository import FrameworkRepository
from repro.workload.corpus import CorpusConfig, generate_corpus

framework = FrameworkRepository()
apidb = build_api_database(framework)
apps = [
    member.forged
    for member in generate_corpus(
        CorpusConfig(count=6, kloc_median=1.5, kloc_max=4.0, seed=5),
        apidb,
    )
]
levels = sorted({forged.apk.manifest.effective_max_sdk for forged in apps})
"""

_WRITE_TABLE = _CORPUS + """
import sys
from repro.analysis.fwsummaries import summary_table
from repro.eval.runner import ToolSet, run_tools

# A lazy pass first: it hashes the method refs of every framework
# method it explores, and the table below shares those refs.
run_tools(apps, ToolSet.default(framework, apidb, include=("SAINTDroid",)))
table = summary_table(framework, store_dir=sys.argv[1])
for level in levels:
    table.level_summaries(level)
assert table.stats.levels_built == len(levels)
"""

_LOAD_AND_COMPARE = _CORPUS + """
import json
import sys
from repro.analysis.fwsummaries import FrameworkSummaryTable, summary_table
from repro.eval.runner import ToolSet, run_tools

# Registered with the store first, so the summarized run below loads
# every level from disk instead of building it.
stored = summary_table(framework, store_dir=sys.argv[1])
fresh = FrameworkSummaryTable(FrameworkRepository(framework.spec))
equal = True
for level in levels:
    loaded = stored.level_summaries(level)
    built = fresh.level_summaries(level)
    # Set equality hashes every effect's method refs: a ref carrying
    # the writer's hash would not be found among the fresh ones.
    equal = equal and loaded == built and {
        effect for summary in loaded.values() for effect in summary.effects
    } == {
        effect for summary in built.values() for effect in summary.effects
    }
tools = ("SAINTDroid",)
lazy = run_tools(apps, ToolSet.default(framework, apidb, include=tools))
summarized = run_tools(
    apps, ToolSet.default(framework, apidb, include=tools, summaries=True)
)
print(json.dumps({
    "levels": len(levels),
    "loaded": stored.stats.levels_loaded,
    "built": stored.stats.levels_built,
    "tables_equal": equal,
    "findings": sum(
        len(report.mismatches)
        for result in lazy.results
        for report in result.reports.values()
    ),
    "findings_equal": (
        summarized.findings_fingerprint() == lazy.findings_fingerprint()
    ),
}))
"""


def _run_under_hash_seed(seed: int, script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestAcrossHashSeeds:
    def test_stored_table_loads_under_another_seed(self, tmp_path):
        """Summary effects hold method refs that the CLVM looks up in
        dicts and sets; a stored table must not carry hashes that only
        the writer's hash seed can find."""
        _run_under_hash_seed(1, _WRITE_TABLE, str(tmp_path))
        out = json.loads(
            _run_under_hash_seed(2, _LOAD_AND_COMPARE, str(tmp_path))
            .strip()
            .splitlines()[-1]
        )
        assert out["loaded"] == out["levels"] > 0
        assert out["built"] == 0
        assert out["tables_equal"]
        assert out["findings"] > 0
        assert out["findings_equal"]


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
