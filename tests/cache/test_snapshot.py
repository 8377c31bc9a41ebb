"""Tests for framework snapshots: write-once, corruption-as-miss."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.cache import (
    ensure_snapshot,
    fingerprint_spec,
    load_or_build_substrate,
    load_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.core.arm import build_api_database
from repro.framework.catalog import build_spec
from repro.framework.repository import FrameworkRepository


def _small_substrate():
    spec = build_spec(bulk_classes=40, seed=7)
    framework = FrameworkRepository(spec)
    return spec, framework, build_api_database(framework)


class TestRoundTrip:
    def test_load_returns_equivalent_substrate(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        key = fingerprint_spec(spec)
        path = write_snapshot(tmp_path, key, framework, apidb)
        loaded = load_snapshot(path, key=key)
        assert loaded is not None
        loaded_framework, loaded_db = loaded
        assert sorted(loaded_framework.spec.class_names) == sorted(
            spec.class_names
        )
        # The mined database resolves the same classes.
        for name in list(spec.class_names)[:10]:
            assert (name in loaded_db) == (name in apidb)

    def test_snapshot_carries_warm_class_cache(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        # Materialize a few classes so the cache has content.
        for name in list(spec.class_names)[:5]:
            framework.load_class_cached(name, 26)
        assert framework.export_class_cache()
        key = fingerprint_spec(spec)
        path = write_snapshot(tmp_path, key, framework, apidb)
        loaded_framework, _ = load_snapshot(path, key=key)
        assert (
            loaded_framework.export_class_cache().keys()
            == framework.export_class_cache().keys()
        )

    def test_ensure_snapshot_writes_once(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        first = ensure_snapshot(tmp_path, framework, apidb)
        stamp = first.stat().st_mtime_ns
        second = ensure_snapshot(tmp_path, framework, apidb)
        assert first == second
        assert second.stat().st_mtime_ns == stamp


class TestDefectsAreMisses:
    def test_missing_file(self, tmp_path):
        assert load_snapshot(tmp_path / "nope.snapshot") is None

    def test_truncated_file(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        key = fingerprint_spec(spec)
        path = write_snapshot(tmp_path, key, framework, apidb)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert load_snapshot(path, key=key) is None

    def test_bit_flip_fails_checksum(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        key = fingerprint_spec(spec)
        path = write_snapshot(tmp_path, key, framework, apidb)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert load_snapshot(path, key=key) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        path = write_snapshot(tmp_path, "some-key", framework, apidb)
        assert load_snapshot(path, key="other-key") is None
        # Without a key constraint, the embedded key is trusted.
        assert load_snapshot(path) is not None

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.snapshot"
        path.write_bytes(b"short")
        assert load_snapshot(path) is None


class TestLoadOrBuild:
    def test_builds_then_snapshots_then_loads(self, tmp_path):
        spec = build_spec(bulk_classes=40, seed=8)
        fw1, db1, source1 = load_or_build_substrate(tmp_path, spec)
        assert source1 == "built"
        assert snapshot_path(tmp_path, fingerprint_spec(spec)).exists()
        # Same spec object again: in-process memory wins.
        fw2, db2, source2 = load_or_build_substrate(tmp_path, spec)
        assert source2 == "memory"
        assert db2 is db1
        # A fresh-but-equal spec (new process in spirit) hits the disk
        # snapshot.
        fresh = build_spec(bulk_classes=40, seed=8)
        fw3, db3, source3 = load_or_build_substrate(tmp_path, fresh)
        assert source3 == "snapshot"

    def test_no_cache_dir_always_builds(self):
        spec = build_spec(bulk_classes=30, seed=9)
        _, _, source = load_or_build_substrate(None, spec)
        assert source == "built"


_WRITE_SNAPSHOT = """
import sys
from repro.cache import fingerprint_spec, write_snapshot
from repro.core.arm import build_api_database
from repro.framework.catalog import build_spec
from repro.framework.repository import FrameworkRepository

spec = build_spec()
framework = FrameworkRepository(spec)
apidb = build_api_database(framework)
write_snapshot(sys.argv[1], fingerprint_spec(spec), framework, apidb)
"""

_LOAD_AND_COMPARE = """
import json
import sys
from repro.cache import fingerprint_spec, load_snapshot, snapshot_path
from repro.core.arm import build_api_database
from repro.eval.runner import ToolSet, run_tools
from repro.framework.catalog import build_spec
from repro.framework.repository import FrameworkRepository
from repro.workload.corpus import CorpusConfig, generate_corpus

spec = build_spec()
framework = FrameworkRepository(spec)
apidb = build_api_database(framework)
key = fingerprint_spec(spec)
loaded = load_snapshot(snapshot_path(sys.argv[1], key), key=key)
apps = [
    member.forged
    for member in generate_corpus(
        CorpusConfig(count=6, kloc_median=1.5, kloc_max=4.0, seed=5),
        apidb,
    )
]
tools = ("SAINTDroid",)
fresh = run_tools(apps, ToolSet.default(framework, apidb, include=tools))
restored = run_tools(apps, ToolSet.default(*loaded, include=tools))
permission = sum(
    mismatch.kind.is_permission
    for result in fresh.results
    for report in result.reports.values()
    for mismatch in report.mismatches
)
print(json.dumps({
    "loaded": loaded is not None,
    "permission_findings": permission,
    "equal": fresh.findings_fingerprint() == restored.findings_fingerprint(),
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
    def test_snapshot_written_under_one_seed_loads_under_another(
        self, tmp_path
    ):
        """Method refs key the database's tables; a snapshot must not
        carry hashes that only the writer's hash seed can find."""
        _run_under_hash_seed(1, _WRITE_SNAPSHOT, str(tmp_path))
        out = json.loads(
            _run_under_hash_seed(2, _LOAD_AND_COMPARE, str(tmp_path))
            .strip()
            .splitlines()[-1]
        )
        assert out["loaded"]
        assert out["permission_findings"] > 0
        assert out["equal"]
