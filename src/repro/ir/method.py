"""Methods and method bodies.

A :class:`MethodBody` is a flat instruction list plus a label table
mapping symbolic branch targets to instruction indices.  Bodies are
sealed once constructed; analyses treat them as immutable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from .instructions import (
    Instruction,
    Invoke,
    TERMINATORS,
)
from .types import ClassName, MethodRef

__all__ = ["MethodFlags", "MethodBody", "Method"]


class MethodFlags(enum.Flag):
    """Access/definition flags relevant to the analyses."""

    NONE = 0
    STATIC = enum.auto()
    ABSTRACT = enum.auto()
    NATIVE = enum.auto()
    CONSTRUCTOR = enum.auto()
    SYNTHETIC = enum.auto()


@dataclass(frozen=True)
class MethodBody:
    """Sealed instruction sequence with resolved labels."""

    instructions: tuple[Instruction, ...]
    labels: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label, index in self.labels.items():
            if not 0 <= index <= len(self.instructions):
                raise ValueError(
                    f"label {label!r} points outside the body "
                    f"({index} not in [0, {len(self.instructions)}])"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def resolve(self, label: str) -> int:
        """Return the instruction index a label refers to."""
        try:
            return self.labels[label]
        except KeyError:
            raise KeyError(f"undefined label {label!r}") from None

    def successors(self, index: int) -> tuple[int, ...]:
        """Instruction-level successor indices of ``index``."""
        instr = self.instructions[index]
        out: list[int] = []
        if instr.falls_through and index + 1 < len(self.instructions):
            out.append(index + 1)
        for label in instr.branch_targets:
            out.append(self.resolve(label))
        return tuple(out)

    @property
    def invocations(self) -> tuple[Invoke, ...]:
        """All invoke instructions in program order (computed once —
        the scan is hot in exploration and guard-context hashing)."""
        cached = self.__dict__.get("_invocations")
        if cached is None:
            cached = tuple(
                i for i in self.instructions if isinstance(i, Invoke)
            )
            object.__setattr__(self, "_invocations", cached)
        return cached

    @property
    def terminates(self) -> bool:
        """True when the final instruction cannot fall off the end."""
        if not self.instructions:
            return False
        last = self.instructions[-1]
        return isinstance(last, TERMINATORS) or not last.falls_through


_EMPTY_BODY = MethodBody(instructions=(), labels={})

#: Flags under which a method may not carry code.
_CODELESS = MethodFlags.ABSTRACT | MethodFlags.NATIVE


@dataclass(frozen=True)
class Method:
    """A method definition: reference identity, flags, and a body.

    ``body`` is ``None`` for abstract and native methods.  The
    containing class is carried inside :attr:`ref` so a ``Method`` is
    self-describing when it travels through worklists.
    """

    ref: MethodRef
    flags: MethodFlags = MethodFlags.NONE
    body: MethodBody | None = _EMPTY_BODY

    def __post_init__(self) -> None:
        # Most methods carry no flags: skip the enum arithmetic.
        if self.flags is MethodFlags.NONE:
            return
        codeless = self.flags & _CODELESS
        if codeless and self.body is not None and len(self.body):
            raise ValueError(
                f"{self.ref}: abstract/native methods cannot carry code"
            )

    @property
    def class_name(self) -> ClassName:
        return self.ref.class_name

    @property
    def name(self) -> str:
        return self.ref.name

    @property
    def descriptor(self) -> str:
        return self.ref.descriptor

    @property
    def signature(self) -> str:
        return self.ref.signature

    @property
    def is_static(self) -> bool:
        return bool(self.flags & MethodFlags.STATIC)

    @property
    def is_abstract(self) -> bool:
        return bool(self.flags & MethodFlags.ABSTRACT)

    @property
    def has_code(self) -> bool:
        return self.body is not None and len(self.body) > 0

    @property
    def invocations(self) -> tuple[Invoke, ...]:
        if self.body is None:
            return ()
        return self.body.invocations

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return str(self.ref)
