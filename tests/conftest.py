"""Shared fixtures.

Everything expensive (framework spec, API database, picker) is
session-scoped: the default framework is immutable, so every test can
share one instance.
"""

from __future__ import annotations

import pytest

from repro.apk import Apk, Component, ComponentKind, DexFile, Manifest
from repro.core import build_api_database
from repro.framework import FrameworkRepository, default_spec
from repro.ir import ClassBuilder
from repro.workload.appgen import ApiPicker


@pytest.fixture(scope="session")
def spec():
    return default_spec()


@pytest.fixture(scope="session")
def framework(spec):
    return FrameworkRepository(spec)


@pytest.fixture(scope="session")
def apidb(framework):
    return build_api_database(framework)


@pytest.fixture(scope="session")
def picker(apidb):
    return ApiPicker.of(apidb)


def make_apk(
    classes,
    *,
    package="com.test.app",
    label="TestApp",
    min_sdk=21,
    target_sdk=26,
    max_sdk=None,
    permissions=(),
    secondary_classes=(),
    buildable=True,
):
    """Assemble a small APK around pre-built classes."""
    manifest = Manifest(
        package=package,
        min_sdk=min_sdk,
        target_sdk=target_sdk,
        max_sdk=max_sdk,
        permissions=tuple(permissions),
        components=(
            Component(f"{package}.MainActivity", ComponentKind.ACTIVITY),
        ),
        buildable=buildable,
    )
    dex_files = [DexFile("classes.dex", tuple(classes))]
    if secondary_classes:
        dex_files.append(
            DexFile("classes2.dex", tuple(secondary_classes), secondary=True)
        )
    return Apk(manifest=manifest, dex_files=tuple(dex_files), label=label)


def activity_class(
    package="com.test.app", name="MainActivity", extra_methods=()
):
    """A minimal activity class for APK assembly."""
    builder = ClassBuilder(
        f"{package}.{name}", super_name="android.app.Activity"
    )
    method = builder.method("onCreate", "(android.os.Bundle)void")
    method.invoke_super(
        "android.app.Activity", "onCreate", "(android.os.Bundle)void"
    )
    method.return_void()
    builder.finish(method)
    for finished in extra_methods:
        builder.add(finished)
    return builder.build()


@pytest.fixture()
def simple_apk():
    return make_apk([activity_class()])
