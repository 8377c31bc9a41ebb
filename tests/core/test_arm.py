"""Tests for ARM — database mining.

The central property: mining framework *images* (code) and mining the
declarative spec produce the same database.  Verified on a compact
framework so the image path stays fast.
"""

import pytest

from repro.core.arm import close_permissions, mine_images, mine_spec
from repro.framework.catalog import curated_histories
from repro.framework.repository import FrameworkRepository
from repro.framework.spec import FrameworkSpec
from repro.ir.types import MethodRef


@pytest.fixture(scope="module")
def curated_spec():
    spec = FrameworkSpec(curated_histories())
    spec.validate()
    return spec


@pytest.fixture(scope="module")
def spec_db(curated_spec):
    return mine_spec(curated_spec)


@pytest.fixture(scope="module")
def image_db(curated_spec):
    return mine_images(FrameworkRepository(curated_spec))


class TestMiningEquivalence:
    def test_same_classes(self, spec_db, image_db):
        assert set(spec_db.class_names) == set(image_db.class_names)

    def test_same_method_levels(self, spec_db, image_db):
        for name in spec_db.class_names:
            spec_entry = spec_db.clazz(name)
            image_entry = image_db.clazz(name)
            assert set(spec_entry.methods) == set(image_entry.methods), name
            for signature, method in spec_entry.methods.items():
                assert (
                    method.levels
                    == image_entry.methods[signature].levels
                ), f"{name}.{signature}"

    def test_same_callbacks(self, spec_db, image_db):
        for name in spec_db.class_names:
            for signature, method in spec_db.clazz(name).methods.items():
                other = image_db.clazz(name).methods[signature]
                assert method.callback == other.callback, (
                    f"{name}.{signature}"
                )

    def test_same_direct_permissions(self, spec_db, image_db):
        camera_open = MethodRef(
            "android.hardware.Camera", "open", "()android.hardware.Camera"
        )
        assert spec_db.permission_map.permissions_for(
            camera_open, deep=False
        ) == image_db.permission_map.permissions_for(camera_open, deep=False)

    def test_same_transitive_permissions(self, spec_db, image_db):
        geocode = MethodRef(
            "android.location.Geocoder",
            "getFromLocation",
            "(double,double,int)java.util.List",
        )
        assert spec_db.permissions_for(geocode) == image_db.permissions_for(
            geocode
        )
        assert "android.permission.ACCESS_FINE_LOCATION" in (
            spec_db.permissions_for(geocode)
        )


class TestClosePermissions:
    def test_linear_chain(self):
        a, b, c = (MethodRef("android.x.C", n) for n in "abc")
        closed = close_permissions(
            direct={c: frozenset({"P"})},
            edges={a: frozenset({b}), b: frozenset({c})},
        )
        assert closed[a] == frozenset({"P"})
        assert closed[b] == frozenset({"P"})
        assert closed[c] == frozenset({"P"})

    def test_cycle_terminates(self):
        a, b = (MethodRef("android.x.C", n) for n in "ab")
        closed = close_permissions(
            direct={a: frozenset({"P"})},
            edges={a: frozenset({b}), b: frozenset({a})},
        )
        assert closed[a] == frozenset({"P"})
        assert closed[b] == frozenset({"P"})

    def test_union_of_branches(self):
        a, b, c = (MethodRef("android.x.C", n) for n in "abc")
        closed = close_permissions(
            direct={b: frozenset({"P"}), c: frozenset({"Q"})},
            edges={a: frozenset({b, c})},
        )
        assert closed[a] == frozenset({"P", "Q"})

    def test_unmapped_methods_absent(self):
        a, b = (MethodRef("android.x.C", n) for n in "ab")
        closed = close_permissions(
            direct={}, edges={a: frozenset({b})}
        )
        assert closed == {}


class TestDefaultDatabase:
    def test_cached(self, framework):
        from repro.core.arm import build_api_database
        assert build_api_database(framework) is build_api_database(framework)

    def test_stale_entry_under_reused_id_is_not_returned(
        self, monkeypatch, spec_db
    ):
        """A collected spec's address can be reused by a new spec; the
        entry it left behind must not be handed to the newcomer."""
        from repro.core import arm

        fresh = FrameworkSpec(curated_histories())
        departed = FrameworkSpec(curated_histories())
        monkeypatch.setitem(
            arm._DEFAULT_CACHE, id(fresh), (departed, spec_db)
        )
        assert arm.cached_database(fresh) is None
        built = arm.build_api_database(FrameworkRepository(fresh))
        assert built is not spec_db
        assert arm.cached_database(fresh) is built
