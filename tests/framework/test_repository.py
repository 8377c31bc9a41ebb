"""Tests for the versioned framework repository."""

import pytest

from repro.baselines.cid import Cid
from repro.framework import repository as repository_module
from repro.framework.generator import materialize_image
from repro.framework.repository import FrameworkRepository

from tests.conftest import activity_class, make_apk


class TestFrameworkRepository:
    def test_lazy_class_lookup(self, framework):
        clazz = framework.load_class("android.app.Activity", 23)
        assert clazz is not None
        assert clazz.name == "android.app.Activity"

    def test_lookup_is_cached(self, framework):
        first = framework.load_class("android.view.View", 21)
        second = framework.load_class("android.view.View", 21)
        assert first is second

    def test_absent_class_is_none_and_cached(self, framework):
        assert framework.load_class("android.app.Fragment", 10) is None
        assert framework.load_class("android.app.Fragment", 10) is None

    def test_level_bounds_enforced(self, framework):
        with pytest.raises(ValueError):
            framework.load_class("android.app.Activity", 1)
        with pytest.raises(ValueError):
            framework.load_class("android.app.Activity", 30)
        with pytest.raises(ValueError):
            framework.load_image(0)

    def test_owns_vs_defines(self, framework):
        assert framework.owns("android.future.Unknown")
        assert not framework.defines("android.future.Unknown")
        assert framework.defines("android.app.Activity")
        assert not framework.owns("com.example.app.Main")

    def test_image_has_every_alive_class(self, framework):
        image = framework.load_image(23)
        assert set(image) == set(framework.class_names(23))

    def test_image_grows_with_level_mostly(self, framework):
        # Platform growth dominates removals across the modeled range.
        assert framework.image_class_count(29) > framework.image_class_count(5)

    def test_image_instruction_count_positive(self, framework):
        assert framework.image_instruction_count(23) > 10_000

    def test_default_spec_used_when_none_given(self):
        repo = FrameworkRepository()
        assert repo.defines("android.app.Activity")


class TestOneClassStore:
    def test_image_shares_objects_with_lazy_lookups(self, spec):
        framework = FrameworkRepository(spec)
        lazy = framework.load_class("android.app.Activity", 23)
        image = framework.load_image(23)
        assert image["android.app.Activity"] is lazy
        for name in list(image)[:50]:
            assert image[name] is framework.load_class(name, 23)

    def test_image_reuses_cached_classes(self, spec):
        framework = FrameworkRepository(spec)
        assert framework.warm_level(21) == framework.image_class_count(21)
        assert framework.warm_level(21) == 0
        assert framework.cache_stats.image_misses == 1
        assert framework.cache_stats.image_hits == 1

    def test_instruction_count_equals_materialized_image(self, spec):
        framework = FrameworkRepository(spec)
        image = materialize_image(spec, 23)
        assert framework.image_instruction_count(23) == sum(
            clazz.instruction_count for clazz in image.values()
        )


class TestCidSizesTheImageWithoutBuildingIt:
    def test_cid_materializes_no_framework_class(
        self, spec, apidb, monkeypatch
    ):
        framework = FrameworkRepository(spec)
        calls = []
        real = repository_module.materialize_class

        def counting(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(repository_module, "materialize_class", counting)
        apk = make_apk([activity_class()], min_sdk=21, target_sdk=27)
        report = Cid(framework, apidb).analyze(apk)
        assert not report.metrics.failed
        assert report.metrics.memory_units > framework.image_instruction_count(
            27
        )
        assert calls == []
