"""The guard fast path: a body that cannot refine its entry interval
answers from a memoized profile, and must yield exactly the rows the
guard dataflow yields for it.

Each test compares :func:`guard_at_invocations` against the dataflow
(:func:`_dataflow_invocations`) row for row — same invoke objects, same
order, same intervals.
"""

from __future__ import annotations

import pytest

from repro.analysis import guards
from repro.analysis.guards import _dataflow_invocations, guard_at_invocations
from repro.analysis.intervals import ApiInterval
from repro.analysis.summaries import collect_version_helpers
from repro.ir.builder import MethodBuilder
from repro.ir.instructions import CmpOp
from repro.ir.method import Method, MethodBody, MethodFlags
from repro.ir.types import MethodRef, SDK_INT_FIELD
from repro.workload.corpus import CorpusConfig, generate_corpus

APP = ApiInterval.of(14, 29)
HELPER = ("com.app.Util", "isAtLeastO", "()boolean")
SUMMARIES = {HELPER: frozenset(range(26, 30))}


def mb(name="m"):
    return MethodBuilder(MethodRef("com.app.Foo", name))


def rows(method, entry=APP, summaries=None):
    return [
        (id(invoke), invoke, interval)
        for invoke, interval in guard_at_invocations(
            method, entry, summaries
        )
    ]


def dataflow_rows(method, entry=APP, summaries=None):
    return [
        (id(invoke), invoke, interval)
        for invoke, interval in _dataflow_invocations(
            method, entry, summaries
        )
    ]


def assert_matches_dataflow(method, entry=APP, summaries=None):
    got = rows(method, entry, summaries)
    assert got == dataflow_rows(method, entry, summaries)
    return [(invoke.method.class_name, interval) for _, invoke, interval in got]


@pytest.fixture
def no_cfg(monkeypatch):
    """Fail any CFG construction (branch-free bodies need none)."""

    def refuse(method):
        raise AssertionError(f"built a CFG for {method.ref}")

    monkeypatch.setattr(guards, "build_cfg", refuse)


class TestBranchFree:
    def test_straight_line(self, no_cfg):
        b = mb()
        b.invoke_virtual("a.A", "x")
        b.const_int(0, 3)
        b.invoke_static("b.B", "y")
        b.invoke_virtual("c.C", "z")
        method = b.build()
        got = rows(method)
        assert [(i.method.class_name, iv) for _, i, iv in got] == [
            ("a.A", APP), ("b.B", APP), ("c.C", APP)
        ]

    def test_straight_line_matches_dataflow(self):
        b = mb()
        b.invoke_virtual("a.A", "x")
        b.invoke_static("b.B", "y")
        assert_matches_dataflow(b.build())

    def test_dead_code_after_return(self, no_cfg):
        b = mb()
        b.invoke_virtual("a.A", "x")
        b.return_void()
        b.invoke_virtual("dead.D", "x")
        assert [i.method.class_name for _, i, _ in rows(b.build())] == [
            "a.A"
        ]

    @pytest.mark.parametrize("terminator", ("return", "throw"))
    def test_dead_code_matches_dataflow(self, terminator):
        b = mb()
        b.const_null(0)
        b.invoke_virtual("a.A", "x")
        if terminator == "return":
            b.return_value(0)
        else:
            b.throw(0)
        b.invoke_virtual("dead.D", "x")
        assert assert_matches_dataflow(b.build()) == [("a.A", APP)]

    def test_profile_is_memoized_on_the_body(self):
        method = mb().invoke_virtual("a.A", "x").build()
        rows(method)
        first = method.body.__dict__["_reachable_invocations"]
        rows(method)
        assert method.body.__dict__["_reachable_invocations"] is first
        assert method.body.__dict__["_sdk_profile"] == (
            False, (("a.A", "x", "()void"),)
        )


class TestBranches:
    def test_goto_loop_without_sdk_read(self):
        b = mb()
        b.const_int(0, 1)
        b.label("top")
        b.invoke_virtual("a.A", "x")
        b.if_cmpz(CmpOp.NE, 0, "top")
        b.invoke_virtual("b.B", "y")
        b.goto("top")
        b.invoke_virtual("dead.D", "z")
        assert assert_matches_dataflow(b.build()) == [
            ("a.A", APP), ("b.B", APP)
        ]

    def test_unreachable_block_between_gotos(self):
        b = mb()
        b.goto("end")
        b.invoke_virtual("dead.D", "z")
        b.label("end")
        b.invoke_virtual("a.A", "x")
        assert assert_matches_dataflow(b.build()) == [("a.A", APP)]

    def test_constant_comparison_does_not_refine(self):
        b = mb()
        b.const_int(0, 23)
        b.const_int(1, 21)
        b.if_cmp(CmpOp.LT, 0, 1, "skip")
        b.invoke_virtual("a.A", "x")
        b.label("skip")
        b.invoke_virtual("b.B", "y")
        assert assert_matches_dataflow(b.build()) == [
            ("a.A", APP), ("b.B", APP)
        ]


class TestRefiningBodies:
    def test_sdk_int_load(self):
        method = mb().guarded_call(23, "android.widget.Toast", "show").build()
        assert assert_matches_dataflow(method) == [
            ("android.widget.Toast", ApiInterval.of(23, 29))
        ]

    def test_sdk_int_field_get(self):
        b = mb()
        b.field_get(0, SDK_INT_FIELD)
        b.const_int(1, 23)
        b.if_cmp(CmpOp.LT, 0, 1, "skip")
        b.invoke_virtual("android.widget.Toast", "show")
        b.label("skip")
        assert assert_matches_dataflow(b.build()) == [
            ("android.widget.Toast", ApiInterval.of(23, 29))
        ]

    def _helper_guarded(self):
        b = mb()
        b.invoke_static(*HELPER)
        b.move_result(0)
        b.if_cmpz(CmpOp.EQ, 0, "skip")
        b.invoke_virtual("android.widget.Toast", "show")
        b.label("skip")
        return b.build()

    def test_helper_in_summaries(self):
        assert assert_matches_dataflow(
            self._helper_guarded(), summaries=SUMMARIES
        ) == [
            ("com.app.Util", APP),
            ("android.widget.Toast", ApiInterval.of(26, 29)),
        ]

    def test_helper_missing_from_summaries(self):
        method = self._helper_guarded()
        other = {("com.app.Util", "isAtLeastP", "()boolean"): frozenset()}
        for summaries in (None, {}, other):
            assert assert_matches_dataflow(
                method, summaries=summaries
            ) == [("com.app.Util", APP), ("android.widget.Toast", APP)]

    def test_same_body_under_both_paths(self):
        # The profile is per body, the helper check per call: one body
        # answers from the fast path for one summary table and from
        # the dataflow for another.
        method = self._helper_guarded()
        unrefined = rows(method)
        refined = rows(method, summaries=SUMMARIES)
        assert [iv for *_, iv in unrefined] == [APP, APP]
        assert [iv for *_, iv in refined][1] == ApiInterval.of(26, 29)


class TestNoCode:
    def test_empty_body(self):
        method = Method(
            ref=MethodRef("com.app.Foo", "m"),
            body=MethodBody(instructions=(), labels={}),
        )
        assert rows(method) == dataflow_rows(method) == []

    def test_abstract_body(self):
        method = Method(
            ref=MethodRef("com.app.Foo", "m"),
            flags=MethodFlags.ABSTRACT,
            body=None,
        )
        assert rows(method) == []


def test_corpus_methods_match_dataflow(apidb):
    config = CorpusConfig(count=4, seed=11, kloc_median=0.5, kloc_max=4.0)
    compared = 0
    for member in generate_corpus(config, apidb):
        apk = member.forged.apk
        lo, hi = apk.manifest.supported_range
        entry = ApiInterval.of(lo, hi)
        methods = [
            method
            for clazz in apk.all_classes
            for method in clazz.methods
            if method.has_code
        ]
        summaries = collect_version_helpers(methods)
        for method in methods:
            for table in (None, summaries):
                assert rows(method, entry, table) == dataflow_rows(
                    method, entry, table
                ), method.ref
                compared += 1
    assert compared > 100
