"""Tests for framework image materialization."""

from functools import partial

import pytest

from repro.apk.manifest import MAX_API_LEVEL, MIN_API_LEVEL
from repro.framework.catalog import build_spec, default_spec
from repro.framework.generator import (
    DISPATCH_PREFIX,
    ENFORCEMENT_METHOD,
    image_counts,
    materialize_class,
    materialize_image,
)
from repro.ir.instructions import ConstString, Invoke


class TestMaterializeClass:
    def test_absent_class_returns_none(self, spec):
        assert materialize_class(spec, "android.app.Fragment", 10) is None
        assert materialize_class(spec, "no.such.Class", 23) is None

    def test_present_class_has_framework_origin(self, spec):
        clazz = materialize_class(spec, "android.app.Activity", 23)
        assert clazz is not None
        assert clazz.origin == "framework"
        assert clazz.super_name == "android.content.ContextWrapper"

    def test_methods_filtered_by_level(self, spec):
        at_22 = materialize_class(spec, "android.content.Context", 22)
        at_23 = materialize_class(spec, "android.content.Context", 23)
        signature = (
            "getColorStateList(int)android.content.res.ColorStateList"
        )
        assert not at_22.declares(signature)
        assert at_23.declares(signature)

    def test_callbacks_have_empty_bodies(self, spec):
        activity = materialize_class(spec, "android.app.Activity", 23)
        on_create = activity.method("onCreate(android.os.Bundle)void")
        assert len(on_create.body) == 1  # bare return: a default hook

    def test_regular_methods_have_padding(self, spec):
        context = materialize_class(spec, "android.content.Context", 23)
        method = context.method(
            "getSystemService(java.lang.String)java.lang.Object"
        )
        assert len(method.body) > 2

    def test_dispatcher_invokes_callbacks(self, spec):
        activity = materialize_class(spec, "android.app.Activity", 23)
        dispatchers = [
            m for m in activity.methods
            if m.name.startswith(DISPATCH_PREFIX)
        ]
        assert len(dispatchers) == 1
        targets = {
            i.method.name
            for i in dispatchers[0].body.instructions
            if isinstance(i, Invoke)
        }
        assert "onCreate" in targets
        assert "onRequestPermissionsResult" in targets

    def test_permission_enforcement_idiom(self, spec):
        camera = materialize_class(spec, "android.hardware.Camera", 23)
        method = camera.method("open()android.hardware.Camera")
        instructions = method.body.instructions
        enforcement_calls = [
            i for i in instructions
            if isinstance(i, Invoke) and i.method == ENFORCEMENT_METHOD
        ]
        assert len(enforcement_calls) == 1
        strings = [
            i.value for i in instructions if isinstance(i, ConstString)
        ]
        assert "android.permission.CAMERA" in strings

    def test_call_edges_filtered_by_level(self, spec):
        geocoder = materialize_class(spec, "android.location.Geocoder", 23)
        method = geocoder.method(
            "getFromLocation(double,double,int)java.util.List"
        )
        targets = {
            i.method.class_name
            for i in method.body.instructions
            if isinstance(i, Invoke)
        }
        assert "android.location.LocationManager" in targets

    def test_value_returning_method_returns(self, spec):
        context = materialize_class(spec, "android.content.Context", 23)
        method = context.method("checkSelfPermission(java.lang.String)int")
        assert method.body.terminates


class TestMaterializeImage:
    def test_image_respects_level(self, spec):
        image_22 = materialize_image(spec, 22)
        image_23 = materialize_image(spec, 23)
        assert "org.apache.http.client.HttpClient" in image_22
        assert "org.apache.http.client.HttpClient" not in image_23

    def test_image_classes_are_self_consistent(self, spec):
        image = materialize_image(spec, 21)
        for clazz in list(image.values())[:50]:
            for method in clazz.methods:
                assert method.body is None or method.body.terminates


#: The default framework, and the smallest one the bulk sweep
#: (``eval/sweep.py``) builds.
SPECS = pytest.mark.parametrize(
    "make_spec",
    [default_spec, partial(build_spec, bulk_classes=500, seed=11)],
    ids=["default", "sweep-500"],
)


class TestImageInstructionCounts:
    """The one-pass table must equal the materialized image exactly at
    every level: CID's and the eager ablation's modeled framework units
    are read from it."""

    @SPECS
    def test_equals_materialized_image(self, make_spec):
        spec = make_spec()
        table = image_counts(spec)
        for level in range(MIN_API_LEVEL, MAX_API_LEVEL + 1):
            assert table[level].instructions == sum(
                clazz.instruction_count
                for clazz in materialize_image(spec, level).values()
            ), level

    def test_table_covers_every_modeled_level(self, spec):
        assert sorted(image_counts(spec)) == list(
            range(MIN_API_LEVEL, MAX_API_LEVEL + 1)
        )


class TestImageClassCounts:
    """The same table's class counts: the eager ablation's and CID's
    per-class overhead are read from it."""

    @SPECS
    def test_equals_alive_classes_and_materialized_image(self, make_spec):
        spec = make_spec()
        table = image_counts(spec)
        for level in range(MIN_API_LEVEL, MAX_API_LEVEL + 1):
            assert table[level].classes == len(spec.class_names_at(level))
            assert table[level].classes == len(
                materialize_image(spec, level)
            ), level


class TestImageCountsGolden:
    """The default framework's image sizes, pinned: method padding is a
    CRC of the signature, so these hold in every interpreter.  A change
    here changes every whole-framework cost the model charges."""

    def test_default_spec_image_counts(self, spec):
        table = image_counts(spec)
        assert {level: tuple(table[level]) for level in (2, 23, 29)} == {
            2: (673, 13141),
            23: (1706, 105938),
            29: (2033, 159028),
        }
