"""Fluent builders for IR classes and method bodies.

The workload generators and framework generator assemble thousands of
methods; the builder keeps that assembly readable::

    b = MethodBuilder(MethodRef("com.app.Main", "onCreate",
                                "(android.os.Bundle)void"))
    b.sdk_int(0)
    b.const_int(1, 23)
    b.if_cmp(CmpOp.LT, 0, 1, "skip")
    b.invoke_virtual("android.content.Context", "getColorStateList",
                     "(int)android.content.res.ColorStateList", args=(2,))
    b.label("skip")
    b.return_void()
    method = b.build()

Convenience helpers (:meth:`MethodBuilder.guarded_call`) emit the full
``SDK_INT`` guard idiom in one call, since that is the single most
common shape in compatibility workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .clazz import Clazz, JAVA_LANG_OBJECT
from .instructions import (
    BinOp,
    CmpOp,
    ConstInt,
    ConstNull,
    ConstString,
    FieldGet,
    Goto,
    IfCmp,
    IfCmpZero,
    Instruction,
    Invoke,
    InvokeKind,
    Move,
    MoveResult,
    NewInstance,
    Nop,
    Return,
    ReturnVoid,
    SdkIntLoad,
    Throw,
)
from .method import Method, MethodBody, MethodFlags
from .types import ClassName, FieldRef, MethodRef

__all__ = ["MethodBuilder", "ClassBuilder"]


@dataclass
class MethodBuilder:
    """Accumulates instructions and labels, then seals a :class:`Method`."""

    ref: MethodRef
    flags: MethodFlags = MethodFlags.NONE
    _instructions: list[Instruction] = field(default_factory=list)
    _labels: dict[str, int] = field(default_factory=dict)
    _label_counter: int = 0

    # -- label management -------------------------------------------

    def label(self, name: str) -> "MethodBuilder":
        """Bind ``name`` to the next emitted instruction."""
        if name in self._labels:
            raise ValueError(f"label {name!r} already defined")
        self._labels[name] = len(self._instructions)
        return self

    def fresh_label(self, hint: str = "L") -> str:
        """Return a label name not yet used in this body."""
        while True:
            candidate = f"{hint}{self._label_counter}"
            self._label_counter += 1
            if candidate not in self._labels:
                return candidate

    # -- raw emission -----------------------------------------------

    def emit(self, instruction: Instruction) -> "MethodBuilder":
        self._instructions.append(instruction)
        return self

    # -- constants / moves ------------------------------------------

    def const_int(self, dest: int, value: int) -> "MethodBuilder":
        return self.emit(ConstInt(dest, value))

    def const_string(self, dest: int, value: str) -> "MethodBuilder":
        return self.emit(ConstString(dest, value))

    def const_null(self, dest: int) -> "MethodBuilder":
        return self.emit(ConstNull(dest))

    def sdk_int(self, dest: int) -> "MethodBuilder":
        return self.emit(SdkIntLoad(dest))

    def move(self, dest: int, src: int) -> "MethodBuilder":
        return self.emit(Move(dest, src))

    def binop(self, dest: int, op: str, lhs: int, rhs: int) -> "MethodBuilder":
        return self.emit(BinOp(dest, op, lhs, rhs))

    # -- control flow -----------------------------------------------

    def if_cmp(
        self, op: CmpOp, lhs: int, rhs: int, target: str
    ) -> "MethodBuilder":
        return self.emit(IfCmp(op, lhs, rhs, target))

    def if_cmpz(self, op: CmpOp, lhs: int, target: str) -> "MethodBuilder":
        return self.emit(IfCmpZero(op, lhs, target))

    def goto(self, target: str) -> "MethodBuilder":
        return self.emit(Goto(target))

    def nop(self) -> "MethodBuilder":
        return self.emit(Nop())

    # -- calls / allocation -----------------------------------------

    def invoke(
        self,
        kind: InvokeKind,
        class_name: ClassName,
        name: str,
        descriptor: str = "()void",
        args: tuple[int, ...] = (),
    ) -> "MethodBuilder":
        ref = MethodRef(class_name, name, descriptor)
        return self.emit(Invoke(kind, ref, args))

    def invoke_virtual(
        self,
        class_name: ClassName,
        name: str,
        descriptor: str = "()void",
        args: tuple[int, ...] = (),
    ) -> "MethodBuilder":
        return self.invoke(InvokeKind.VIRTUAL, class_name, name, descriptor, args)

    def invoke_static(
        self,
        class_name: ClassName,
        name: str,
        descriptor: str = "()void",
        args: tuple[int, ...] = (),
    ) -> "MethodBuilder":
        return self.invoke(InvokeKind.STATIC, class_name, name, descriptor, args)

    def invoke_direct(
        self,
        class_name: ClassName,
        name: str,
        descriptor: str = "()void",
        args: tuple[int, ...] = (),
    ) -> "MethodBuilder":
        return self.invoke(InvokeKind.DIRECT, class_name, name, descriptor, args)

    def invoke_super(
        self,
        class_name: ClassName,
        name: str,
        descriptor: str = "()void",
        args: tuple[int, ...] = (),
    ) -> "MethodBuilder":
        return self.invoke(InvokeKind.SUPER, class_name, name, descriptor, args)

    def invoke_ref(
        self, kind: InvokeKind, ref: MethodRef, args: tuple[int, ...] = ()
    ) -> "MethodBuilder":
        return self.emit(Invoke(kind, ref, args))

    def move_result(self, dest: int) -> "MethodBuilder":
        return self.emit(MoveResult(dest))

    def new_instance(self, dest: int, class_name: ClassName) -> "MethodBuilder":
        return self.emit(NewInstance(dest, class_name))

    def field_get(self, dest: int, fieldref: FieldRef) -> "MethodBuilder":
        return self.emit(FieldGet(dest, fieldref))

    # -- terminators ------------------------------------------------

    def return_void(self) -> "MethodBuilder":
        return self.emit(ReturnVoid())

    def return_value(self, src: int) -> "MethodBuilder":
        return self.emit(Return(src))

    def throw(self, src: int) -> "MethodBuilder":
        return self.emit(Throw(src))

    # -- idioms -----------------------------------------------------

    def guarded_call(
        self,
        min_level: int,
        class_name: ClassName,
        name: str,
        descriptor: str = "()void",
        args: tuple[int, ...] = (),
        sdk_reg: int = 14,
        const_reg: int = 15,
    ) -> "MethodBuilder":
        """Emit ``if (SDK_INT >= min_level) { call(...) }``.

        This is the canonical defensive idiom from the paper's
        Listing 1 (``if (Build.VERSION.SDK_INT >= 23) { … }``).
        """
        skip = self.fresh_label("guard_end_")
        self.sdk_int(sdk_reg)
        self.const_int(const_reg, min_level)
        self.if_cmp(CmpOp.LT, sdk_reg, const_reg, skip)
        self.invoke_virtual(class_name, name, descriptor, args)
        self.label(skip)
        return self

    def guarded_call_max(
        self,
        max_level: int,
        class_name: ClassName,
        name: str,
        descriptor: str = "()void",
        args: tuple[int, ...] = (),
        sdk_reg: int = 14,
        const_reg: int = 15,
    ) -> "MethodBuilder":
        """Emit ``if (SDK_INT <= max_level) { call(...) }`` — the
        defensive idiom against forward-compatibility (removed APIs)."""
        skip = self.fresh_label("guard_end_")
        self.sdk_int(sdk_reg)
        self.const_int(const_reg, max_level)
        self.if_cmp(CmpOp.GT, sdk_reg, const_reg, skip)
        self.invoke_virtual(class_name, name, descriptor, args)
        self.label(skip)
        return self

    # -- sealing ----------------------------------------------------

    def build(self) -> Method:
        """Seal and return the method, ensuring it terminates."""
        instructions = list(self._instructions)
        if not instructions or instructions[-1].falls_through:
            instructions.append(ReturnVoid())
        body = MethodBody(tuple(instructions), dict(self._labels))
        for instr in instructions:
            for target in instr.branch_targets:
                body.resolve(target)  # raises on dangling labels
        return Method(ref=self.ref, flags=self.flags, body=body)


@dataclass
class ClassBuilder:
    """Accumulates methods, then seals a :class:`Clazz`."""

    name: ClassName
    super_name: ClassName | None = JAVA_LANG_OBJECT
    interfaces: tuple[ClassName, ...] = ()
    is_abstract: bool = False
    origin: str = "app"
    _methods: list[Method] = field(default_factory=list)

    def add(self, method: Method) -> "ClassBuilder":
        if method.class_name != self.name:
            raise ValueError(
                f"method {method.ref} does not belong to {self.name}"
            )
        self._methods.append(method)
        return self

    def method(
        self,
        name: str,
        descriptor: str = "()void",
        flags: MethodFlags = MethodFlags.NONE,
    ) -> MethodBuilder:
        """Start building a method owned by this class.

        The returned builder must be finished via :meth:`finish`.
        """
        return MethodBuilder(MethodRef(self.name, name, descriptor), flags)

    def finish(self, builder: MethodBuilder) -> "ClassBuilder":
        return self.add(builder.build())

    def empty_method(
        self,
        name: str,
        descriptor: str = "()void",
        flags: MethodFlags = MethodFlags.NONE,
    ) -> "ClassBuilder":
        """Add a method whose body is a bare ``return-void``."""
        return self.finish(self.method(name, descriptor, flags))

    def build(self) -> Clazz:
        return Clazz(
            name=self.name,
            super_name=self.super_name,
            interfaces=self.interfaces,
            methods=tuple(self._methods),
            is_abstract=self.is_abstract,
            origin=self.origin,
        )
