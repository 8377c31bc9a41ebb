"""Unit tests for framework revision histories."""

import pytest

from repro.framework.spec import ClassHistory, FrameworkSpec, MethodHistory
from repro.ir.types import MethodRef


class TestMethodHistory:
    def test_exists_within_lifetime(self):
        history = MethodHistory("m", introduced=11, removed=23)
        assert not history.exists_at(10)
        assert history.exists_at(11)
        assert history.exists_at(22)
        assert not history.exists_at(23)

    def test_never_removed(self):
        history = MethodHistory("m", introduced=5)
        assert history.exists_at(29)
        assert history.lifetime == (5, 29)

    def test_lifetime_with_removal(self):
        history = MethodHistory("m", introduced=5, removed=9)
        assert history.lifetime == (5, 8)

    def test_removed_must_follow_introduced(self):
        with pytest.raises(ValueError):
            MethodHistory("m", introduced=10, removed=10)

    def test_introduced_bounds(self):
        with pytest.raises(ValueError):
            MethodHistory("m", introduced=1)

    def test_signature(self):
        assert MethodHistory("m", "(int)void").signature == "m(int)void"


class TestClassHistory:
    def test_methods_at_filters_by_level(self):
        history = ClassHistory(
            "android.x.C",
            methods=(
                MethodHistory("old", introduced=2),
                MethodHistory("new", introduced=23),
            ),
        )
        assert {m.name for m in history.methods_at(22)} == {"old"}
        assert {m.name for m in history.methods_at(23)} == {"old", "new"}

    def test_absent_class_has_no_methods(self):
        history = ClassHistory(
            "android.x.C", introduced=11,
            methods=(MethodHistory("m", introduced=11),),
        )
        assert history.methods_at(10) == ()

    def test_method_cannot_predate_class(self):
        with pytest.raises(ValueError):
            ClassHistory(
                "android.x.C", introduced=11,
                methods=(MethodHistory("m", introduced=5),),
            )

    def test_duplicate_method_histories_rejected(self):
        with pytest.raises(ValueError):
            ClassHistory(
                "android.x.C",
                methods=(MethodHistory("m"), MethodHistory("m")),
            )


def tiny_spec():
    return FrameworkSpec(
        (
            ClassHistory("java.lang.Object", super_name=None),
            ClassHistory(
                "android.x.Base",
                methods=(
                    MethodHistory("shared", introduced=2),
                    MethodHistory("later", introduced=21),
                ),
            ),
            ClassHistory(
                "android.x.Child",
                super_name="android.x.Base",
                introduced=5,
                methods=(MethodHistory("own", introduced=5),),
            ),
        )
    )


class TestFrameworkSpec:
    def test_method_exists_with_inheritance(self):
        spec = tiny_spec()
        assert spec.method_exists("android.x.Child", "own()void", 5)
        assert spec.method_exists("android.x.Child", "shared()void", 5)
        assert not spec.method_exists("android.x.Child", "later()void", 20)
        assert spec.method_exists("android.x.Child", "later()void", 21)

    def test_method_exists_respects_class_lifetime(self):
        spec = tiny_spec()
        assert not spec.method_exists("android.x.Child", "own()void", 4)

    def test_find_method_walks_ancestors(self):
        spec = tiny_spec()
        found = spec.find_method("android.x.Child", "shared()void")
        assert found is not None and found.name == "shared"
        assert spec.find_method("android.x.Child", "nope()void") is None

    def test_supertype_chain(self):
        spec = tiny_spec()
        assert spec.supertype_chain("android.x.Child") == (
            "android.x.Base", "java.lang.Object",
        )

    def test_class_names_at(self):
        spec = tiny_spec()
        assert "android.x.Child" not in spec.class_names_at(4)
        assert "android.x.Child" in spec.class_names_at(5)

    def test_duplicate_class_rejected(self):
        with pytest.raises(ValueError):
            FrameworkSpec(
                (ClassHistory("android.x.A"), ClassHistory("android.x.A"))
            )

    @pytest.mark.parametrize(
        "history",
        (
            ClassHistory("android.x.A", super_name="com.app.Base"),
            ClassHistory("android.x.A", interfaces=("com.app.Listener",)),
        ),
        ids=("super", "interface"),
    )
    def test_supertype_outside_framework_namespace_rejected(self, history):
        with pytest.raises(ValueError, match="outside the framework"):
            FrameworkSpec((history,))

    def test_validate_rejects_unknown_super(self):
        spec = FrameworkSpec(
            (ClassHistory("android.x.A", super_name="android.x.Missing"),)
        )
        with pytest.raises(ValueError, match="unknown super"):
            spec.validate()

    def test_validate_rejects_super_introduced_later(self):
        spec = FrameworkSpec(
            (
                ClassHistory("android.x.Late", introduced=21),
                ClassHistory(
                    "android.x.A", super_name="android.x.Late", introduced=2
                ),
            )
        )
        with pytest.raises(ValueError, match="introduced later"):
            spec.validate()

    def test_validate_rejects_dangling_call_target(self):
        spec = FrameworkSpec(
            (
                ClassHistory(
                    "android.x.A",
                    methods=(
                        MethodHistory(
                            "m",
                            calls=(MethodRef("android.x.Gone", "g"),),
                        ),
                    ),
                ),
            )
        )
        with pytest.raises(ValueError, match="not in spec"):
            spec.validate()
