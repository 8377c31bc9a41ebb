"""Materialize concrete framework classes from the declarative spec.

For a given API level the generator produces real IR classes with real
method bodies.  Three body shapes matter to the analyses:

* **regular methods** carry deterministic padding, the call edges the
  spec declares (filtered to callees alive at the level), and — when
  the spec assigns permissions — the canonical enforcement idiom
  ``const-string vP, "<permission>"`` followed by an invoke of
  ``Context.enforceCallingOrSelfPermission``.  ARM's image miner
  rediscovers permission requirements from that idiom via reaching
  definitions, not from the spec;
* **callbacks** have empty (bare-return) bodies: they are default
  hooks apps override.  Every class also gets a synthetic
  ``_dispatch…`` method invoking each of its callbacks, so callbacks
  are discoverable purely from framework code — the property that lets
  SAINTDroid avoid CIDER's hand-built callback models;
* **removed/not-yet-introduced methods** simply do not exist in the
  image for that level.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

from ..apk.manifest import MAX_API_LEVEL, MIN_API_LEVEL
from ..ir.clazz import Clazz
from ..ir.instructions import (
    ConstInt,
    ConstString,
    Invoke,
    InvokeKind,
    Return,
    ReturnVoid,
)
from ..ir.method import Method, MethodBody, MethodFlags
from ..ir.types import ClassName, MethodRef
from .spec import ClassHistory, FrameworkSpec, MethodHistory

__all__ = [
    "ENFORCEMENT_METHOD",
    "DISPATCH_PREFIX",
    "SEMANTICS_PREFIX",
    "semantic_tag",
    "parse_semantic_tag",
    "materialize_class",
    "materialize_image",
    "ImageCount",
    "image_counts",
]

#: The framework-internal permission enforcement sink.
ENFORCEMENT_METHOD = MethodRef(
    "android.content.Context",
    "enforceCallingOrSelfPermission",
    "(java.lang.String,java.lang.String)void",
)

#: Prefix of synthetic framework dispatcher methods (not public API).
DISPATCH_PREFIX = "_dispatch$"

#: Prefix of synthetic per-class semantic manifest methods.  Like the
#: dispatchers, these exist so ARM's image miner can rediscover
#: declarative facts — here the behavior-only deltas — purely from
#: framework code: the manifest body is a sequence of ``const-string``
#: tags, one per delta of the class's methods alive at the level.
SEMANTICS_PREFIX = "_semantics$"


def semantic_tag(method: MethodHistory, delta) -> str:
    """The manifest encoding of one delta of one method."""
    return (
        f"{method.name}{method.descriptor}"
        f"|{delta.level}|{delta.change}|{delta.detail}"
    )


def parse_semantic_tag(tag: str) -> tuple[str, int, str, str] | None:
    """Decode a manifest tag into ``(signature, level, change,
    detail)``; ``None`` for strings that are not manifest tags."""
    parts = tag.split("|", 3)
    if len(parts) != 4 or "(" not in parts[0]:
        return None
    try:
        level = int(parts[1])
    except ValueError:
        return None
    return (parts[0], level, parts[2], parts[3])


def _padding_amount(ref: MethodRef) -> int:
    """Per-method padding size (4..11 instructions), a pure function of
    the method's signature: a CRC, not ``hash()``, so every interpreter
    builds the same framework whatever its hash seed."""
    signature = f"{ref.class_name}.{ref.name}{ref.descriptor}"
    return 4 + (zlib.crc32(signature.encode()) & 7)


# Generated bodies are branch-free, so each is assembled as one tuple
# and sealed without a builder or label resolution.  Instructions are
# frozen values, so bodies share them: every padding run is a prefix
# of one tuple of ``const`` loads, and the return tails are shared.
_PADDING_RUN = tuple(ConstInt(dest=i % 4, value=i) for i in range(11))
_PADDING = {n: _PADDING_RUN[:n] for n in range(4, 12)}
_VOID_TAIL = (ReturnVoid(),)
_VALUE_TAIL = (ConstInt(10, 0), Return(10))


def _method(
    ref: MethodRef,
    instructions: tuple,
    flags: MethodFlags = MethodFlags.NONE,
) -> Method:
    return Method(ref=ref, flags=flags, body=MethodBody(instructions, {}))


def _regular_method(
    ref: MethodRef,
    history: MethodHistory,
    spec: FrameworkSpec,
    level: int,
) -> Method:
    """A non-callback framework method at ``level``."""
    body = _PADDING[_padding_amount(ref)]
    for permission in history.permissions:
        body += (
            ConstString(8, permission),
            ConstString(9, f"{ref.name} requires {permission}"),
            Invoke(InvokeKind.VIRTUAL, ENFORCEMENT_METHOD, (8, 9)),
        )
    for callee in history.calls:
        target = spec.find_method(
            callee.class_name, callee.name + callee.descriptor
        )
        if target is not None and target.exists_at(level):
            body += (Invoke(InvokeKind.VIRTUAL, callee, ()),)
    tail = _VALUE_TAIL if ref.return_type != "void" else _VOID_TAIL
    return _method(ref, body + tail)


def _dispatch_method(
    class_name: ClassName, callbacks: list[MethodHistory], index: int
) -> Method:
    """Synthetic dispatcher invoking the class's callbacks virtually."""
    ref = MethodRef(class_name, f"{DISPATCH_PREFIX}{index}", "()void")
    body = tuple(
        Invoke(
            InvokeKind.VIRTUAL,
            MethodRef(class_name, callback.name, callback.descriptor),
            (),
        )
        for callback in callbacks
    )
    return _method(ref, body + _VOID_TAIL, MethodFlags.SYNTHETIC)


def _semantics_method(
    class_name: ClassName, carriers: list[MethodHistory], index: int
) -> Method:
    """Synthetic manifest listing the class's semantic deltas.

    The body is inert — const-string tags and a bare return, no
    invokes — so it cannot perturb call-edge mining, summaries, or
    exploration of framework bodies."""
    ref = MethodRef(class_name, f"{SEMANTICS_PREFIX}{index}", "()void")
    body = tuple(
        ConstString(0, semantic_tag(method, delta))
        for method in carriers
        for delta in method.semantics
    )
    return _method(ref, body + _VOID_TAIL, MethodFlags.SYNTHETIC)


def materialize_class(
    spec: FrameworkSpec, name: ClassName, level: int
):
    """Build the IR class for ``name`` at ``level``.

    Returns ``None`` when the class does not exist at that level.
    """
    history = spec.clazz(name)
    if history is None or not history.exists_at(level):
        return None
    return _materialize(history, spec, level)


def _materialize(
    history: ClassHistory, spec: FrameworkSpec, level: int
) -> Clazz:
    methods: list[Method] = []
    callbacks: list[MethodHistory] = []
    carriers: list[MethodHistory] = []
    for method_history in history.methods_at(level):
        ref = MethodRef(
            history.name, method_history.name, method_history.descriptor
        )
        if method_history.callback:
            callbacks.append(method_history)
            methods.append(_method(ref, _VOID_TAIL))
        else:
            methods.append(
                _regular_method(ref, method_history, spec, level)
            )
        if method_history.semantics:
            carriers.append(method_history)
    if callbacks:
        methods.append(_dispatch_method(history.name, callbacks, 0))
    if carriers:
        methods.append(_semantics_method(history.name, carriers, 0))
    return Clazz(
        name=history.name,
        super_name=history.super_name,
        interfaces=history.interfaces,
        methods=tuple(methods),
        origin="framework",
    )


class ImageCount(NamedTuple):
    """Size of the materialized framework image at one level."""

    classes: int
    instructions: int


def image_counts(spec: FrameworkSpec) -> dict[int, ImageCount]:
    """Class count and total ``instruction_count`` of the materialized
    image at every modeled level, in one pass over the spec and
    without building any class.

    A class counts at every level it is alive.  Instructions count
    exactly what :func:`_materialize` emits.  A regular body is
    its padding, three instructions per enforced permission and the
    return (two instructions when it returns a value) at every level
    the method is alive, plus one invoke per declared callee at every
    level both the method and the callee are alive.  A callback is a
    bare return.  Per class, the dispatcher is one invoke per live
    callback plus its return and the semantics manifest one tag per
    live delta plus its return, both taken from running per-level
    counts.  A parity test holds the table to the materialized image
    at every level.
    """
    end = MAX_API_LEVEL + 1

    def span(diff: list[int], lo: int, hi: int, amount: int) -> None:
        # Difference array: ``amount`` at every level in [lo, hi).
        diff[lo] += amount
        diff[hi] -= amount

    classes = [0] * (end + 1)
    fixed = [0] * (end + 1)
    synthetic = [0] * (end + 1)
    for name in spec.class_names:
        history = spec.clazz(name)
        class_lo = max(history.introduced, MIN_API_LEVEL)
        class_hi = end if history.removed is None else min(
            history.removed, end
        )
        if class_lo >= class_hi:
            continue
        span(classes, class_lo, class_hi, 1)
        callbacks = [0] * (end + 1)
        deltas = [0] * (end + 1)
        for method in history.methods:
            lo = max(class_lo, method.introduced)
            hi = class_hi if method.removed is None else min(
                class_hi, method.removed
            )
            if lo >= hi:
                continue
            if method.semantics:
                span(deltas, lo, hi, len(method.semantics))
            if method.callback:
                span(fixed, lo, hi, 1)
                span(callbacks, lo, hi, 1)
                continue
            ref = MethodRef(history.name, method.name, method.descriptor)
            span(
                fixed,
                lo,
                hi,
                _padding_amount(ref)
                + 3 * len(method.permissions)
                + (2 if ref.return_type != "void" else 1),
            )
            for callee in method.calls:
                target = spec.find_method(
                    callee.class_name, callee.name + callee.descriptor
                )
                if target is None:
                    continue
                callee_lo = max(lo, target.introduced)
                callee_hi = hi if target.removed is None else min(
                    hi, target.removed
                )
                if callee_lo < callee_hi:
                    span(fixed, callee_lo, callee_hi, 1)
        live_callbacks = live_deltas = 0
        for level in range(class_lo, class_hi):
            live_callbacks += callbacks[level]
            live_deltas += deltas[level]
            if live_callbacks:
                synthetic[level] += live_callbacks + 1
            if live_deltas:
                synthetic[level] += live_deltas + 1
    table: dict[int, ImageCount] = {}
    live_classes = running = 0
    for level in range(MIN_API_LEVEL, end):
        live_classes += classes[level]
        running += fixed[level]
        table[level] = ImageCount(live_classes, running + synthetic[level])
    return table


def materialize_image(spec: FrameworkSpec, level: int):
    """Eagerly build every class alive at ``level``.

    This is what whole-framework tools (CID) effectively do before any
    per-app analysis; its cost is the scalability foil of the paper.
    """
    image = {}
    for name in spec.class_names_at(level):
        clazz = materialize_class(spec, name, level)
        if clazz is not None:
            image[name] = clazz
    return image
