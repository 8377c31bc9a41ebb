"""Tests for the corpus-wide content-addressed class-artifact store.

The store's contract: lookups key on class *content* (plus framework
and config digests), disk corruption is a miss never an error, staged
artifacts publish only on an explicit end-of-pipeline commit, and the
directory's shared manifest keeps class artifacts inside the same LRU
byte budget as every other store.
"""

from __future__ import annotations

import pickle

from repro.cache.classes import (
    CLASS_ARTIFACT_VERSION,
    ClassArtifact,
    ClassStore,
    class_store,
    registered_stores,
    reset_class_stores,
)
from repro.analysis.clvm import ClassLoaderVM
from repro.cache import classes
from repro.cache.manifest import shared_manifest
from repro.core.aum import entry_points
from repro.ir import ClassBuilder

from tests.conftest import activity_class, make_apk


def make_class(name="MainActivity", calls=("getSystemService",)):
    builder = ClassBuilder(
        f"com.test.app.{name}", super_name="android.app.Activity"
    )
    method = builder.method("run")
    for call in calls:
        method.invoke_virtual("android.content.Context", call)
    method.return_void()
    builder.finish(method)
    return builder.build()


def make_store(tmp_path, *, fw="fw-digest", cfg="cfg-digest", **kwargs):
    return ClassStore(
        tmp_path, framework_fingerprint=fw, config_fingerprint=cfg, **kwargs
    )


def artifact_for(clazz):
    return ClassArtifact(
        effects=tuple(
            (("invoke", "virtual", ("android.app.Activity", "x", "()void")),)
            for _ in clazz.methods
        ),
        helpers={("isAtLeastN", "()boolean"): frozenset({24, 25})},
    )


def publish(store, clazz, artifact=None):
    """Stage and commit one artifact the way a pipeline run does."""
    key = store.key_for(clazz)
    store.begin_app()
    store.stage(key, artifact or artifact_for(clazz))
    store.commit_app()
    return key


class TestKeying:
    def test_identical_content_shares_a_key(self, tmp_path):
        store = make_store(tmp_path)
        a, b = make_class(), make_class()
        assert a is not b
        assert store.key_for(a) == store.key_for(b)

    def test_body_change_changes_key(self, tmp_path):
        store = make_store(tmp_path)
        assert store.key_for(make_class()) != store.key_for(
            make_class(calls=("getSystemService", "checkPermission"))
        )

    def test_framework_digest_partitions_the_store(self, tmp_path):
        clazz = make_class()
        published = make_store(tmp_path)
        publish(published, clazz)
        other_fw = make_store(tmp_path, fw="fw-digest-v2")
        assert other_fw.get(other_fw.key_for(clazz)) is None
        assert other_fw.stats.misses == 1

    def test_config_digest_partitions_the_store(self, tmp_path):
        clazz = make_class()
        publish(make_store(tmp_path), clazz)
        other_cfg = make_store(tmp_path, cfg="cfg-digest-v2")
        assert other_cfg.get(other_cfg.key_for(clazz)) is None


class TestDigestOncePerLookup:
    def test_vm_digests_each_class_once(self, framework, monkeypatch):
        """The explorer derives a class's key once and reuses it for
        the lookup and, on a miss, for staging the artifact."""
        digested: list[str] = []
        real = classes.fingerprint_clazz

        def spy(clazz):
            digested.append(clazz.name)
            return real(clazz)

        monkeypatch.setattr(classes, "fingerprint_clazz", spy)
        store = ClassStore(
            None, framework_fingerprint="fw", config_fingerprint="cfg"
        )
        apk = make_apk([activity_class(), make_class("Helper")])
        # First app: both classes miss; second app: both hit.
        for expected in ((0, 2), (2, 2)):
            digested.clear()
            store.begin_app()
            vm = ClassLoaderVM(apk, framework, 23, class_store=store)
            vm.explore(entry_points(apk))
            store.commit_app()
            assert (store.stats.hits, store.stats.misses) == expected
            assert sorted(digested) == sorted(vm.dedup_keys)
            assert len(digested) == 2


class TestRoundTrip:
    def test_memory_hit_after_commit(self, tmp_path):
        store = make_store(tmp_path)
        clazz = make_class()
        assert store.get(store.key_for(clazz)) is None
        publish(store, clazz)
        artifact = store.get(store.key_for(clazz))
        assert isinstance(artifact, ClassArtifact)
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_disk_round_trip_across_instances(self, tmp_path):
        clazz = make_class()
        first = make_store(tmp_path)
        publish(first, clazz)
        assert first.stats.stores == 1

        fresh = make_store(tmp_path)
        loaded = fresh.get(fresh.key_for(clazz))
        assert loaded is not None
        assert loaded.helpers == artifact_for(clazz).helpers
        assert fresh.stats.hits == 1

    def test_memory_only_store_never_touches_disk(self, tmp_path):
        store = ClassStore(
            None, framework_fingerprint="fw", config_fingerprint="cfg"
        )
        clazz = make_class()
        publish(store, clazz)
        assert store.get(store.key_for(clazz)) is not None
        assert not list(tmp_path.iterdir())

    def test_guard_rows_accumulate_on_cached_artifact(self, tmp_path):
        store = make_store(tmp_path)
        clazz = make_class()
        key = publish(store, clazz)

        store.begin_app()
        row_key = ("run()void", 16, 30, "helpers-digest")
        rows = ((("android.app.Activity", "x", "()void"), 21, 30),)
        store.record_guard_rows(key, row_key, rows)
        store.commit_app()

        fresh = make_store(tmp_path)
        assert fresh.get(fresh.key_for(clazz)).guard_rows[row_key] == rows


class TestCorruption:
    def _entry_path(self, store, clazz):
        return store._entry_path(store.key_for(clazz))

    def test_flipped_bytes_are_a_miss_and_dropped(self, tmp_path):
        clazz = make_class()
        publish(make_store(tmp_path), clazz)
        fresh = make_store(tmp_path)
        path = self._entry_path(fresh, clazz)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        assert fresh.get(fresh.key_for(clazz)) is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        assert not path.exists()

    def test_truncated_entry_is_a_miss(self, tmp_path):
        clazz = make_class()
        publish(make_store(tmp_path), clazz)
        fresh = make_store(tmp_path)
        path = self._entry_path(fresh, clazz)
        path.write_bytes(path.read_bytes()[:10])
        assert fresh.get(fresh.key_for(clazz)) is None
        assert fresh.stats.corrupt == 1

    def test_artifact_version_bump_orphans_old_entries(self, tmp_path):
        import hashlib

        clazz = make_class()
        store = make_store(tmp_path)
        key = publish(store, clazz)
        path = store._entry_path(key)
        payload = pickle.dumps(
            (CLASS_ARTIFACT_VERSION + 1, artifact_for(clazz))
        )
        path.write_bytes(hashlib.sha256(payload).digest() + payload)

        fresh = make_store(tmp_path)
        assert fresh.get(fresh.key_for(clazz)) is None
        assert fresh.stats.corrupt == 1


class TestStagingDiscipline:
    def test_staged_without_commit_never_publishes(self, tmp_path):
        store = make_store(tmp_path)
        clazz = make_class()
        store.begin_app()
        store.stage(store.key_for(clazz), artifact_for(clazz))
        # Pipeline aborts (fault/timeout/crash): the next app's
        # begin_app discards the stage instead of committing it.
        store.begin_app()
        store.commit_app()
        assert store.stats.discarded == 1
        assert store.get(store.key_for(clazz)) is None
        fresh = make_store(tmp_path)
        assert fresh.get(fresh.key_for(clazz)) is None

    def test_guard_rows_for_unpublished_artifact_are_dropped(
        self, tmp_path
    ):
        store = make_store(tmp_path)
        clazz = make_class()
        key = store.key_for(clazz)
        store.begin_app()
        store.record_guard_rows(key, ("sig", 16, 30, "d"), ())
        store.commit_app()  # no artifact staged or cached for the key
        assert store.get(store.key_for(clazz)) is None


class TestEviction:
    def test_lru_bound_holds_for_class_artifacts(self, tmp_path):
        store = make_store(tmp_path, max_bytes=2_000)
        for index in range(20):
            publish(store, make_class(name=f"Bulk{index}"))
        assert store.stats.evicted > 0
        manifest = shared_manifest(tmp_path)
        assert manifest.total_bytes <= 2_000
        on_disk = list((tmp_path / "classes").rglob("*.cls"))
        assert len(on_disk) == len(manifest.entries)

    def test_adopt_untracked_brings_strays_under_the_budget(
        self, tmp_path
    ):
        store = make_store(tmp_path)
        clazz = make_class()
        key = publish(store, clazz)
        # Simulate a concurrent worker whose manifest save lost the
        # race: the entry file exists but the manifest forgot it.
        store._manifest.forget(store._relative(store._entry_path(key)))
        assert store.adopt_untracked() == 1
        assert store.adopt_untracked() == 0  # idempotent


class TestRegistry:
    def test_registry_shares_instances_per_scope(self, tmp_path):
        reset_class_stores()
        try:
            a = class_store(
                tmp_path, framework_fingerprint="f", config_fingerprint="c"
            )
            b = class_store(
                tmp_path, framework_fingerprint="f", config_fingerprint="c"
            )
            assert a is b
            c = class_store(
                tmp_path, framework_fingerprint="f2", config_fingerprint="c"
            )
            assert c is not a
            assert set(registered_stores()) == {a, c}
        finally:
            reset_class_stores()
        assert registered_stores() == ()
