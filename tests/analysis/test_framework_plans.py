"""Framework apply plans: replaying a framework method's cached plan
must be indistinguishable from applying its effects live.

A plan is built by the first app that analyzes a framework method and
replayed by every later app over the same framework repository, so
each test runs the same app sequence twice — once with plans, once
with every app forced onto the live path (as if it bundled a
framework-namespace class) — and compares everything exploration
leaves behind: class-load order, every ``LoadStats`` field, ordered
call-graph edges, methods and unresolved dynamic classes, plus the
repository's class-cache counters.
"""

from __future__ import annotations

import dataclasses
from itertools import islice

import pytest

from repro.analysis.clvm import ClassLoaderVM
from repro.apk import Apk, DexFile
from repro.cache.classes import ClassStore
from repro.core.aum import entry_points
from repro.framework import FrameworkRepository
from repro.ir import ClassBuilder
from repro.ir.instructions import InvokeKind
from repro.ir.types import MethodRef
from repro.workload.corpus import CorpusConfig, generate_corpus

from tests.conftest import activity_class, make_apk

LEVELS = (29, 23)

#: Exploration options; ``dedup`` gives the sequence one class store,
#: so its explorers also reuse the repository's recorded walks.
OPTIONS = (
    {},
    {"follow_framework": False},
    {"max_framework_depth": 3},
    {"dedup": True},
)


#: Framework classes whose bodies call each other and dispatch into
#: app callbacks (``MainActivity.onCreate`` overrides an Activity one).
ALLOCATED = (
    "android.app.Activity",
    "android.widget.Toast",
    "android.os.storage.Manager1473",
)


def allocating_app() -> Apk:
    """An app that allocates framework classes: their bodies are
    analyzed at depth 0, so plans matter even without following
    framework calls."""
    builder = ClassBuilder("com.test.app.Allocator")
    method = builder.method("run")
    for register, name in enumerate(ALLOCATED):
        method.new_instance(register, name)
    builder.finish(method)
    return make_apk([activity_class(), builder.build()])


@pytest.fixture(scope="module")
def corpus(apidb):
    config = CorpusConfig(count=4, seed=64, kloc_median=0.5, kloc_max=4.0)
    generated = [
        member.forged.apk for member in generate_corpus(config, apidb)
    ]
    return [allocating_app(), *generated]


def shadowing(apk: Apk) -> Apk:
    """``apk`` plus an app class named like a framework class."""
    builder = ClassBuilder("android.app.Activity")
    method = builder.method("onCreate", "(android.os.Bundle)void")
    method.invoke_virtual("android.widget.Toast", "show")
    builder.finish(method)
    extra = DexFile("classes9.dex", (builder.build(),))
    return Apk(
        manifest=apk.manifest,
        dex_files=apk.dex_files + (extra,),
        label=apk.label,
    )


def internals(result) -> tuple:
    return (
        list(result.loaded_classes),
        dataclasses.asdict(result.stats),
        [
            (caller, list(sites))
            for caller, sites in result.callgraph.edges.items()
        ],
        list(result.callgraph.methods),
        result.unresolved_dynamic_classes,
    )


def run_sequence(apps, spec, level, *, live, dedup=False, **options):
    """Explore ``apps`` in order over one fresh repository; ``live``
    keeps every app off the plan path."""
    framework = FrameworkRepository(spec)
    if dedup:
        options["class_store"] = ClassStore(
            None, framework_fingerprint="fw", config_fingerprint="cfg"
        )
    runs = []
    for apk in apps:
        if dedup:
            options["class_store"].begin_app()
        vm = ClassLoaderVM(apk, framework, level, **options)
        if live:
            vm._framework_shadows = True
        runs.append(internals(vm.explore(entry_points(apk))))
        if dedup:
            options["class_store"].commit_app()
    return runs, framework


def planned_methods(framework, level) -> int:
    return sum(
        "_fw_plan" in method.__dict__
        for (class_level, _), clazz in framework.export_class_cache().items()
        if clazz is not None and class_level == level
        for method in clazz.methods
    )


@pytest.mark.parametrize(
    "options", OPTIONS, ids=("default", "no-follow", "depth-3", "dedup")
)
@pytest.mark.parametrize("level", LEVELS)
def test_plan_replay_matches_live_path(corpus, spec, level, options):
    # The second pass replays every plan the first pass built, with
    # fresh per-app dispatch memos, so recorded walks are re-resolved.
    apps = corpus + corpus
    planned, plan_framework = run_sequence(
        apps, spec, level, live=False, **options
    )
    live, live_framework = run_sequence(
        apps, spec, level, live=True, **options
    )
    assert planned_methods(plan_framework, level) > 0
    assert planned_methods(live_framework, level) == 0
    for index, (got, want) in enumerate(zip(planned, live)):
        assert got == want, apps[index].label
    assert (
        plan_framework.cache_stats.as_dict()
        == live_framework.cache_stats.as_dict()
    )


def test_shadowing_app_ignores_cached_plans(corpus, spec):
    shadow = shadowing(corpus[0])
    vm = ClassLoaderVM(shadow, FrameworkRepository(spec), 29)
    assert vm._framework_shadows
    apps = corpus + [shadow] + corpus
    planned, _ = run_sequence(apps, spec, 29, live=False)
    live, _ = run_sequence(apps, spec, 29, live=True)
    assert planned == live


def test_replay_respects_framework_depth_cap(spec, apidb):
    """A framework call cut off by the depth cap adds no app-override
    edges, whether the caller's effects are applied live or replayed
    from a plan (lazy or class-store VM)."""
    # This app bundles an override (Hook49.onInsertManager5) of a
    # callback that android.os.storage.Manager1473 dispatches only
    # beyond the default depth cap at level 29.
    config = CorpusConfig(count=30, seed=128)
    apk = next(islice(generate_corpus(config, apidb), 7, None)).forged.apk
    framework = FrameworkRepository(spec)

    def edges(**options):
        vm = ClassLoaderVM(apk, framework, 29, **options)
        result = vm.explore(entry_points(apk))
        return [
            (caller, list(sites))
            for caller, sites in result.callgraph.edges.items()
        ]

    lazy = edges()
    store = ClassStore(
        None, framework_fingerprint="fw", config_fingerprint="cfg"
    )
    assert edges(class_store=store) == lazy
    assert edges() == lazy


def inherited_callee(framework, level) -> MethodRef:
    """A framework method ref whose class inherits, not declares, it."""
    for name in framework.class_names(level):
        clazz = framework.load_class(name, level)
        parent = (
            framework.load_class(clazz.super_name, level)
            if clazz.super_name
            else None
        )
        if parent is None:
            continue
        for method in parent.methods:
            if not clazz.declares(method.signature):
                return MethodRef(name, method.name, method.descriptor)
    raise AssertionError("no inherited framework method")


@pytest.mark.parametrize("kind", list(InvokeKind), ids=lambda k: k.name)
def test_recorded_walk_is_what_resolution_resolved(spec, corpus, kind):
    framework = FrameworkRepository(spec)
    callee = inherited_callee(FrameworkRepository(spec), 23)
    vm = ClassLoaderVM(corpus[0], framework, 23)
    resolved_names: list[str] = []
    real = vm.resolver.resolve

    def spy(name):
        if name not in resolved_names:
            resolved_names.append(name)
        return real(name)

    vm.resolver.resolve = spy
    resolved = vm._resolve_dispatch_ref(kind, callee)
    assert framework.dispatch_walks(23)[(kind, callee)] == (
        resolved, tuple(resolved_names)
    )
    if kind not in (InvokeKind.STATIC, InvokeKind.DIRECT):
        assert len(resolved_names) > 1
