"""Instruction set of the register-based IR.

The set mirrors the Dalvik instruction *categories* that matter to
SAINTDroid's analyses:

* constants and moves (``const``, ``move``) feed the reaching-definition
  analysis used to resolve reflective class names and guard operands;
* ``sget Build.VERSION.SDK_INT`` is modeled as a first-class
  :class:`SdkIntLoad` so guard extraction does not need to pattern-match
  field access chains;
* conditional branches (``if-cmp``/``if-cmpz``) carry comparison
  operators, which the guard analysis refines into API-level intervals;
* invocations carry a :class:`~repro.ir.types.MethodRef` and argument
  registers, driving call-graph construction and CLVM class loading.

Targets of branches are symbolic labels (strings); a
:class:`~repro.ir.method.MethodBody` resolves them to instruction
indices when sealed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .types import ClassName, FieldRef, MethodRef

__all__ = [
    "CmpOp",
    "InvokeKind",
    "Instruction",
    "ConstInt",
    "ConstString",
    "ConstNull",
    "SdkIntLoad",
    "Move",
    "BinOp",
    "IfCmp",
    "IfCmpZero",
    "Goto",
    "Invoke",
    "MoveResult",
    "NewInstance",
    "FieldGet",
    "FieldPut",
    "ReturnVoid",
    "Return",
    "Throw",
    "Nop",
    "BRANCHING",
    "TERMINATORS",
]


class CmpOp(enum.Enum):
    """Comparison operators available to ``if-*`` instructions."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def negate(self) -> "CmpOp":
        return _NEGATIONS[self]

    def swap(self) -> "CmpOp":
        """Operator obtained when the two operands are exchanged."""
        return _SWAPS[self]

    def evaluate(self, lhs: int, rhs: int) -> bool:
        return _EVALUATORS[self](lhs, rhs)


_NEGATIONS = {
    CmpOp.EQ: CmpOp.NE,
    CmpOp.NE: CmpOp.EQ,
    CmpOp.LT: CmpOp.GE,
    CmpOp.GE: CmpOp.LT,
    CmpOp.GT: CmpOp.LE,
    CmpOp.LE: CmpOp.GT,
}

_SWAPS = {
    CmpOp.EQ: CmpOp.EQ,
    CmpOp.NE: CmpOp.NE,
    CmpOp.LT: CmpOp.GT,
    CmpOp.GT: CmpOp.LT,
    CmpOp.LE: CmpOp.GE,
    CmpOp.GE: CmpOp.LE,
}

_EVALUATORS = {
    CmpOp.EQ: lambda a, b: a == b,
    CmpOp.NE: lambda a, b: a != b,
    CmpOp.LT: lambda a, b: a < b,
    CmpOp.LE: lambda a, b: a <= b,
    CmpOp.GT: lambda a, b: a > b,
    CmpOp.GE: lambda a, b: a >= b,
}


class InvokeKind(enum.Enum):
    """Dalvik invocation kinds; all are treated monomorphically except
    VIRTUAL/INTERFACE, which the call-graph layer resolves against the
    class hierarchy."""

    VIRTUAL = "invoke-virtual"
    DIRECT = "invoke-direct"
    STATIC = "invoke-static"
    SUPER = "invoke-super"
    INTERFACE = "invoke-interface"


@dataclass(frozen=True, slots=True)
class Instruction:
    """Base class for all instructions (purely structural)."""

    @property
    def branch_targets(self) -> tuple[str, ...]:
        return ()

    @property
    def falls_through(self) -> bool:
        """True when control may continue to the next instruction."""
        return True


@dataclass(frozen=True, slots=True)
class ConstInt(Instruction):
    """``const vA, #imm`` — load an integer constant."""

    dest: int
    value: int


@dataclass(frozen=True, slots=True)
class ConstString(Instruction):
    """``const-string vA, "…"`` — load a string constant.

    String constants reaching reflective-load call sites name the
    classes pulled in by late binding (paper section III-A).
    """

    dest: int
    value: str


@dataclass(frozen=True, slots=True)
class ConstNull(Instruction):
    """``const vA, null``."""

    dest: int


@dataclass(frozen=True, slots=True)
class SdkIntLoad(Instruction):
    """``sget vA, Build.VERSION.SDK_INT`` — read the device API level."""

    dest: int


@dataclass(frozen=True, slots=True)
class Move(Instruction):
    """``move vA, vB``."""

    dest: int
    src: int


@dataclass(frozen=True, slots=True)
class BinOp(Instruction):
    """``binop vA, vB, vC`` for arithmetic the analyses treat opaquely."""

    dest: int
    op: str
    lhs: int
    rhs: int


@dataclass(frozen=True, slots=True)
class IfCmp(Instruction):
    """``if-<op> vA, vB, :label`` — branch when ``vA <op> vB``."""

    op: CmpOp
    lhs: int
    rhs: int
    target: str

    @property
    def branch_targets(self) -> tuple[str, ...]:
        return (self.target,)


@dataclass(frozen=True, slots=True)
class IfCmpZero(Instruction):
    """``if-<op>z vA, :label`` — branch when ``vA <op> 0``."""

    op: CmpOp
    lhs: int
    target: str

    @property
    def branch_targets(self) -> tuple[str, ...]:
        return (self.target,)


@dataclass(frozen=True, slots=True)
class Goto(Instruction):
    """``goto :label`` — unconditional branch."""

    target: str

    @property
    def branch_targets(self) -> tuple[str, ...]:
        return (self.target,)

    @property
    def falls_through(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class Invoke(Instruction):
    """``invoke-<kind> {vA..}, Class.method(descriptor)``."""

    kind: InvokeKind
    method: MethodRef
    args: tuple[int, ...] = field(default=())


@dataclass(frozen=True, slots=True)
class MoveResult(Instruction):
    """``move-result vA`` — capture the result of the previous invoke."""

    dest: int


@dataclass(frozen=True, slots=True)
class NewInstance(Instruction):
    """``new-instance vA, Class`` — allocation; loads the class."""

    dest: int
    class_name: ClassName


@dataclass(frozen=True, slots=True)
class FieldGet(Instruction):
    """``iget/sget vA, Class.field``."""

    dest: int
    fieldref: FieldRef


@dataclass(frozen=True, slots=True)
class FieldPut(Instruction):
    """``iput/sput vA, Class.field``."""

    src: int
    fieldref: FieldRef


@dataclass(frozen=True, slots=True)
class ReturnVoid(Instruction):
    """``return-void``."""

    @property
    def falls_through(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class Return(Instruction):
    """``return vA``."""

    src: int

    @property
    def falls_through(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class Throw(Instruction):
    """``throw vA``."""

    src: int

    @property
    def falls_through(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class Nop(Instruction):
    """``nop``."""


#: Instruction types that introduce control-flow edges beyond
#: fall-through.
BRANCHING = (IfCmp, IfCmpZero, Goto)

#: Instruction types that terminate a path.
TERMINATORS = (ReturnVoid, Return, Throw)
