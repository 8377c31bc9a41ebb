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

from ..apk.manifest import MAX_API_LEVEL, MIN_API_LEVEL
from ..ir.builder import ClassBuilder, MethodBuilder
from ..ir.instructions import InvokeKind
from ..ir.method import Method, MethodFlags
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
    "image_instruction_counts",
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
    """Deterministic per-method padding size (4..11 instructions)."""
    return 4 + (hash((ref.class_name, ref.name, ref.descriptor)) & 7)


def _emit_regular_body(
    builder: MethodBuilder,
    history: MethodHistory,
    spec: FrameworkSpec,
    level: int,
) -> None:
    """Body of a non-callback framework method at ``level``."""
    for i in range(_padding_amount(builder.ref)):
        builder.const_int(dest=i % 4, value=i)
    for permission in history.permissions:
        builder.const_string(8, permission)
        builder.const_string(9, f"{builder.ref.name} requires {permission}")
        builder.invoke_ref(InvokeKind.VIRTUAL, ENFORCEMENT_METHOD, args=(8, 9))
    for callee in history.calls:
        target = spec.find_method(
            callee.class_name, callee.name + callee.descriptor
        )
        if target is not None and target.exists_at(level):
            builder.invoke_ref(InvokeKind.VIRTUAL, callee, args=())
    if builder.ref.return_type != "void":
        builder.const_int(10, 0)
        builder.return_value(10)
    else:
        builder.return_void()


def _dispatch_method(
    class_name: ClassName, callbacks: list[MethodHistory], index: int
) -> Method:
    """Synthetic dispatcher invoking the class's callbacks virtually."""
    ref = MethodRef(class_name, f"{DISPATCH_PREFIX}{index}", "()void")
    builder = MethodBuilder(ref, flags=MethodFlags.SYNTHETIC)
    for callback in callbacks:
        builder.invoke_virtual(
            class_name, callback.name, callback.descriptor, args=()
        )
    builder.return_void()
    return builder.build()


def _semantics_method(
    class_name: ClassName, carriers: list[MethodHistory], index: int
) -> Method:
    """Synthetic manifest listing the class's semantic deltas.

    The body is inert — const-string tags and a bare return, no
    invokes — so it cannot perturb call-edge mining, summaries, or
    exploration of framework bodies."""
    ref = MethodRef(class_name, f"{SEMANTICS_PREFIX}{index}", "()void")
    builder = MethodBuilder(ref, flags=MethodFlags.SYNTHETIC)
    for method in carriers:
        for delta in method.semantics:
            builder.const_string(0, semantic_tag(method, delta))
    builder.return_void()
    return builder.build()


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
):
    builder = ClassBuilder(
        name=history.name,
        super_name=history.super_name,
        interfaces=history.interfaces,
        origin="framework",
    )
    callbacks: list[MethodHistory] = []
    carriers: list[MethodHistory] = []
    for method_history in history.methods_at(level):
        ref = MethodRef(
            history.name, method_history.name, method_history.descriptor
        )
        method_builder = MethodBuilder(ref)
        if method_history.callback:
            callbacks.append(method_history)
            method_builder.return_void()
        else:
            _emit_regular_body(method_builder, method_history, spec, level)
        if method_history.semantics:
            carriers.append(method_history)
        builder.add(method_builder.build())
    if callbacks:
        builder.add(_dispatch_method(history.name, callbacks, 0))
    if carriers:
        builder.add(_semantics_method(history.name, carriers, 0))
    return builder.build()


def image_instruction_counts(spec: FrameworkSpec) -> dict[int, int]:
    """Total ``instruction_count`` of the materialized image at every
    modeled level, in one pass over the spec and without building any
    class.

    Counts exactly what :func:`_materialize` emits.  A regular body is
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
    table: dict[int, int] = {}
    running = 0
    for level in range(MIN_API_LEVEL, end):
        running += fixed[level]
        table[level] = running + synthetic[level]
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
