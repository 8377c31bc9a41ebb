"""Eager (closed-world) load accounting: :meth:`ClassLoaderVM.load_everything`
counts the framework image from the spec instead of building it, and
must charge exactly what loading every app class and then every image
class one by one charges.

The oracle below is that class-by-class load: it materializes the
image straight from the spec (bypassing the repository's cache) and
feeds each class to the VM's load hook after the app's classes, so a
framework class whose name an app class already took is skipped.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.clvm import ClassLoaderVM, LoadStats
from repro.apk import Apk, DexFile
from repro.framework import FrameworkRepository
from repro.framework.generator import materialize_image
from repro.ir import ClassBuilder
from repro.workload.corpus import CorpusConfig, generate_corpus

from tests.conftest import activity_class, make_apk


def oracle_stats(apk: Apk, framework: FrameworkRepository, level: int):
    vm = ClassLoaderVM(apk, framework, level)
    vm.stats.retain_framework_bodies = True
    for clazz in apk.all_classes:
        vm._on_class_loaded(clazz)
    for clazz in materialize_image(framework.spec, level).values():
        vm._on_class_loaded(clazz)
    return vm.stats


def eager_stats(apk: Apk, framework: FrameworkRepository, level: int):
    vm = ClassLoaderVM(apk, framework, level)
    vm.load_everything()
    return vm.stats


def assert_matches_oracle(apk, framework, level) -> LoadStats:
    stats = eager_stats(apk, framework, level)
    assert dataclasses.asdict(stats) == dataclasses.asdict(
        oracle_stats(apk, framework, level)
    )
    return stats


def bundled(name: str, *, body_calls: int = 2):
    """An app class named ``name`` with a body of its own size, so an
    app copy never happens to match the framework copy's units."""
    builder = ClassBuilder(name)
    method = builder.method("helper")
    for _ in range(body_calls):
        method.invoke_static("com.test.app.MainActivity", "onCreate")
    builder.finish(method)
    return builder.build()


def introduced_after(spec, level: int) -> str:
    """A framework class the spec introduces after ``level``."""
    return next(
        name
        for name in spec.class_names
        if spec.clazz(name).introduced > level
        and spec.clazz(name).removed is None
    )


@pytest.fixture(scope="module")
def corpus_app(apidb):
    config = CorpusConfig(count=1, seed=64, kloc_median=0.5, kloc_max=4.0)
    (member,) = generate_corpus(config, apidb)
    return member.forged.apk


class TestAgainstOracle:
    @pytest.mark.parametrize("level", [2, 23, 29])
    def test_unshadowed_corpus_app(self, framework, corpus_app, level):
        stats = assert_matches_oracle(corpus_app, framework, level)
        assert stats.framework_classes_loaded == (
            framework.image_class_count(level)
        )

    @pytest.mark.parametrize("level", [2, 23, 29])
    def test_app_shadowing_a_defined_class(self, framework, level):
        apk = make_apk([activity_class(), bundled("android.app.Activity")])
        stats = assert_matches_oracle(apk, framework, level)
        assert stats.framework_classes_loaded == (
            framework.image_class_count(level) - 1
        )

    def test_framework_name_the_level_does_not_define(self, framework, spec):
        late = introduced_after(spec, 23)
        apk = make_apk([activity_class(), bundled(late)])
        at_23 = assert_matches_oracle(apk, framework, 23)
        assert at_23.framework_classes_loaded == (
            framework.image_class_count(23)
        )
        at_29 = assert_matches_oracle(apk, framework, 29)
        assert at_29.framework_classes_loaded == (
            framework.image_class_count(29) - 1
        )

    def test_framework_name_no_level_defines(self, framework):
        apk = make_apk([activity_class(), bundled("android.zz.Unknown")])
        assert_matches_oracle(apk, framework, 29)

    @pytest.mark.parametrize(
        "name", ["com.test.app.Util", "android.widget.Toast"]
    )
    def test_name_in_primary_and_secondary_dex(self, framework, name):
        apk = Apk(
            manifest=make_apk([activity_class()]).manifest,
            dex_files=(
                DexFile(
                    "classes.dex", (activity_class(), bundled(name))
                ),
                DexFile(
                    "classes2.dex",
                    (bundled(name, body_calls=5),),
                    secondary=True,
                ),
            ),
            strict=False,
        )
        assert_matches_oracle(apk, framework, 29)


class TestNothingMaterialized:
    def test_unshadowed_app_builds_no_framework_class(
        self, spec, corpus_app
    ):
        framework = FrameworkRepository(spec)
        before = (
            len(framework.export_class_cache()),
            framework.cache_stats.class_misses,
            framework.cache_stats.class_hits,
        )
        for level in (2, 23, 29):
            eager_stats(corpus_app, framework, level)
        assert (
            len(framework.export_class_cache()),
            framework.cache_stats.class_misses,
            framework.cache_stats.class_hits,
        ) == before

    def test_shadowing_app_looks_up_only_shadowed_classes(self, spec):
        framework = FrameworkRepository(spec)
        apk = make_apk([activity_class(), bundled("android.app.Activity")])
        eager_stats(apk, framework, 29)
        assert list(framework.export_class_cache()) == [
            (29, "android.app.Activity")
        ]
