"""SDK_INT guard analysis.

A path-sensitive forward analysis computing, for every instruction, the
interval of device API levels under which it can execute.  Register
facts track which registers hold ``Build.VERSION.SDK_INT`` and which
hold integer constants, so that ``if-cmp`` branches comparing the two
refine the interval along each out-edge — precisely the
``GET_GUARD`` step of the paper's Algorithm 2.

The analysis is the precision backbone of SAINTDroid: an API call
reachable only under ``[23, 29]`` is *not* a mismatch for an app with
``minSdkVersion 21``, whereas the same call unguarded is.  In the
pass pipeline it is consumed by the ``guard-propagation`` pass (the
inter-procedural worklist over the explored call graph) and, in
weakened intra-method form, by the first-level baseline scan passes
(``cid-scan``, ``lint-source-scan``) — see
:mod:`repro.pipeline.passes` and :mod:`repro.baselines.passes`.

The dataflow runs only for a body that can narrow its entry interval:
one that reads SDK_INT (an ``SdkIntLoad`` or a ``FieldGet`` of
``SDK_INT_FIELD``) or invokes a helper named in the predicate
summaries.  Every other body answers :func:`guard_at_invocations`
from a per-body profile memoized on the :class:`MethodBody` — every
invoke in a reachable block, in block order, under the entry interval
— which is exactly what the dataflow would yield for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..ir.instructions import (
    BinOp,
    CmpOp,
    ConstInt,
    ConstNull,
    ConstString,
    FieldGet,
    IfCmp,
    IfCmpZero,
    Instruction,
    Invoke,
    Move,
    MoveResult,
    NewInstance,
    SdkIntLoad,
)
from ..ir.method import Method, MethodBody
from ..ir.types import SDK_INT_FIELD
from ..apk.manifest import MIN_API_LEVEL
from .cfg import build_cfg
from .dataflow import Analysis, BlockStates, solve_forward
from .intervals import (
    ApiInterval,
    interval_mask,
    levels_mask,
    mask_to_interval,
)

__all__ = ["ValueKind", "RegValue", "GuardState", "GuardAnalysis",
           "analyze_guards", "guard_at_invocations",
           "guard_at_allocations"]


class ValueKind(enum.Enum):
    SDK_INT = "sdk_int"
    CONST = "const"
    #: The boolean result of a summarized version-check helper: the
    #: register holds 1 exactly on the levels in ``levels``.
    PREDICATE = "predicate"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class RegValue:
    kind: ValueKind
    constant: int | None = None
    levels: frozenset[int] | None = None

    @staticmethod
    def sdk_int() -> "RegValue":
        return _SDK

    @staticmethod
    def const(value: int) -> "RegValue":
        return RegValue(ValueKind.CONST, value)

    @staticmethod
    def predicate(levels: frozenset[int]) -> "RegValue":
        return RegValue(ValueKind.PREDICATE, levels=levels)

    @staticmethod
    def unknown() -> "RegValue":
        return _UNKNOWN


_SDK = RegValue(ValueKind.SDK_INT)
_UNKNOWN = RegValue(ValueKind.UNKNOWN)


@dataclass(frozen=True)
class GuardState:
    """Register valuation plus the path condition on SDK_INT.

    ``registers`` maps register number → :class:`RegValue`; absent
    registers are unknown.  ``interval`` is the set of device levels
    under which control can reach the current program point.
    """

    registers: tuple[tuple[int, RegValue], ...]
    interval: ApiInterval
    #: Set after an invoke of a summarized version helper; the next
    #: move-result captures it (any other instruction discards it).
    pending_predicate: frozenset[int] | None = None

    def reg(self, register: int) -> RegValue:
        for number, value in self.registers:
            if number == register:
                return value
        return _UNKNOWN

    def with_reg(self, register: int, value: RegValue) -> "GuardState":
        table = dict(self.registers)
        if value.kind is ValueKind.UNKNOWN:
            table.pop(register, None)
        else:
            table[register] = value
        return GuardState(tuple(sorted(table.items())), self.interval)

    def with_interval(self, interval: ApiInterval) -> "GuardState":
        return GuardState(
            self.registers, interval, self.pending_predicate
        )

    def with_pending(
        self, levels: frozenset[int] | None
    ) -> "GuardState":
        return GuardState(self.registers, self.interval, levels)


class GuardAnalysis(Analysis[GuardState | None]):
    """The dataflow instantiation; ``None`` is the unreachable bottom."""

    def __init__(
        self,
        entry_interval: ApiInterval,
        predicate_summaries: dict[tuple, frozenset[int]] | None = None,
    ) -> None:
        """``predicate_summaries`` maps
        ``(class_name, method_name, descriptor)`` of version-check
        helpers to the device levels at which they return true (see
        :mod:`repro.analysis.summaries`)."""
        self._entry_interval = entry_interval
        self._summaries = predicate_summaries or {}

    def initial_state(self) -> GuardState:
        return GuardState((), self._entry_interval)

    def bottom(self) -> None:
        return None

    def join(
        self, left: GuardState | None, right: GuardState | None
    ) -> GuardState | None:
        if left is None:
            return right
        if right is None:
            return left
        table: dict[int, RegValue] = {}
        right_regs = dict(right.registers)
        for number, value in left.registers:
            if right_regs.get(number) == value:
                table[number] = value
        pending = (
            left.pending_predicate
            if left.pending_predicate == right.pending_predicate
            else None
        )
        return GuardState(
            tuple(sorted(table.items())),
            left.interval.join(right.interval),
            pending,
        )

    def equal(
        self, left: GuardState | None, right: GuardState | None
    ) -> bool:
        return left == right

    def transfer(
        self, state: GuardState | None, instruction: Instruction
    ) -> GuardState | None:
        if state is None:
            return None
        if isinstance(instruction, Invoke):
            key = (
                instruction.method.class_name,
                instruction.method.name,
                instruction.method.descriptor,
            )
            return state.with_pending(self._summaries.get(key))
        if isinstance(instruction, MoveResult):
            pending = state.pending_predicate
            state = state.with_pending(None)
            if pending is not None:
                return state.with_reg(
                    instruction.dest, RegValue.predicate(pending)
                )
            return state.with_reg(instruction.dest, RegValue.unknown())
        # Any other instruction discards a pending helper result.
        if state.pending_predicate is not None:
            state = state.with_pending(None)
        if isinstance(instruction, SdkIntLoad):
            return state.with_reg(instruction.dest, RegValue.sdk_int())
        if isinstance(instruction, ConstInt):
            return state.with_reg(
                instruction.dest, RegValue.const(instruction.value)
            )
        if isinstance(instruction, Move):
            return state.with_reg(
                instruction.dest, state.reg(instruction.src)
            )
        if isinstance(instruction, FieldGet):
            if instruction.fieldref == SDK_INT_FIELD:
                return state.with_reg(instruction.dest, RegValue.sdk_int())
            return state.with_reg(instruction.dest, RegValue.unknown())
        if isinstance(
            instruction,
            (ConstString, ConstNull, NewInstance),
        ):
            return state.with_reg(instruction.dest, RegValue.unknown())
        if isinstance(instruction, BinOp):
            return state.with_reg(instruction.dest, RegValue.unknown())
        return state

    def transfer_edge(
        self,
        state: GuardState | None,
        instruction: Instruction,
        taken: bool,
    ) -> GuardState | None:
        if state is None:
            return None
        comparison = self._sdk_comparison(state, instruction)
        if comparison is not None:
            op, constant = comparison
            effective = op if taken else op.negate()
            refined = state.interval.refine(effective, constant)
            if refined.is_empty:
                return None  # unreachable for every device level
            return state.with_interval(refined)

        predicate = self._predicate_comparison(state, instruction)
        if predicate is None:
            return state
        op, constant, levels = predicate
        effective = op if taken else op.negate()
        # The register holds 1 exactly on ``levels``; keep the device
        # levels whose concrete value satisfies the comparison, over-
        # approximated to the convex hull (intervals cannot hold gaps).
        # The comparison only sees 0 or 1, so two evaluations decide
        # every level; the per-level work collapses to bitmask ops.
        interval = state.interval
        true_ok = effective.evaluate(1, constant)
        false_ok = effective.evaluate(0, constant)
        if interval.lo >= MIN_API_LEVEL:
            window = interval_mask(interval)
            inside = levels_mask(levels)
            satisfying_mask = (window & inside if true_ok else 0) | (
                window & ~inside if false_ok else 0
            )
            if not satisfying_mask:
                return None
            return state.with_interval(mask_to_interval(satisfying_mask))
        # Out-of-range entry interval (custom --devices): per-level
        # fallback with identical semantics.
        satisfying = [
            level
            for level in interval
            if (true_ok if level in levels else false_ok)
        ]
        if not satisfying:
            return None
        refined = interval.meet(
            ApiInterval.of(min(satisfying), max(satisfying))
        )
        if refined.is_empty:
            return None
        return state.with_interval(refined)

    @staticmethod
    def _sdk_comparison(
        state: GuardState, instruction: Instruction
    ) -> tuple[CmpOp, int] | None:
        """Decode ``SDK_INT <op> const`` from a branch, if present."""
        if isinstance(instruction, IfCmp):
            lhs = state.reg(instruction.lhs)
            rhs = state.reg(instruction.rhs)
            if (
                lhs.kind is ValueKind.SDK_INT
                and rhs.kind is ValueKind.CONST
            ):
                return instruction.op, rhs.constant
            if (
                lhs.kind is ValueKind.CONST
                and rhs.kind is ValueKind.SDK_INT
            ):
                return instruction.op.swap(), lhs.constant
            return None
        if isinstance(instruction, IfCmpZero):
            lhs = state.reg(instruction.lhs)
            if lhs.kind is ValueKind.SDK_INT:
                return instruction.op, 0
        return None

    @staticmethod
    def _predicate_comparison(
        state: GuardState, instruction: Instruction
    ) -> tuple[CmpOp, int, frozenset[int]] | None:
        """Decode ``helper_result <op> const`` from a branch."""
        if isinstance(instruction, IfCmpZero):
            lhs = state.reg(instruction.lhs)
            if lhs.kind is ValueKind.PREDICATE:
                return instruction.op, 0, lhs.levels
            return None
        if isinstance(instruction, IfCmp):
            lhs = state.reg(instruction.lhs)
            rhs = state.reg(instruction.rhs)
            if (
                lhs.kind is ValueKind.PREDICATE
                and rhs.kind is ValueKind.CONST
            ):
                return instruction.op, rhs.constant, lhs.levels
            if (
                lhs.kind is ValueKind.CONST
                and rhs.kind is ValueKind.PREDICATE
            ):
                return instruction.op.swap(), lhs.constant, rhs.levels
        return None


def analyze_guards(
    method: Method,
    entry_interval: ApiInterval,
    predicate_summaries: dict[tuple, frozenset[int]] | None = None,
) -> BlockStates[GuardState | None]:
    """Solve the guard analysis for one method."""
    cfg = build_cfg(method)
    return solve_forward(
        GuardAnalysis(entry_interval, predicate_summaries), cfg
    )


def _sdk_profile(
    body: MethodBody,
) -> tuple[bool, tuple[tuple[str, str, str], ...]]:
    """Whether ``body`` reads SDK_INT, and the distinct
    ``(class_name, name, descriptor)`` keys it invokes (computed once
    per body, like :attr:`MethodBody.invocations`)."""
    cached = body.__dict__.get("_sdk_profile")
    if cached is None:
        reads_sdk_int = any(
            isinstance(instruction, SdkIntLoad)
            or (
                isinstance(instruction, FieldGet)
                and instruction.fieldref == SDK_INT_FIELD
            )
            for instruction in body.instructions
        )
        keys = tuple(
            dict.fromkeys(
                (
                    invoke.method.class_name,
                    invoke.method.name,
                    invoke.method.descriptor,
                )
                for invoke in body.invocations
            )
        )
        cached = (reads_sdk_int, keys)
        object.__setattr__(body, "_sdk_profile", cached)
    return cached


def _reachable_invocations(method: Method) -> tuple[Invoke, ...]:
    """Every invoke in a CFG-reachable block of ``method``'s body, in
    block order (memoized on the body).  A branch-free body reaches
    exactly the prefix up to its first instruction that does not fall
    through, so only bodies with branches build a CFG."""
    body = method.body
    cached = body.__dict__.get("_reachable_invocations")
    if cached is not None:
        return cached
    instructions = body.instructions
    if any(instruction.branch_targets for instruction in instructions):
        cfg = build_cfg(method)
        reachable = set(cfg.reverse_postorder())
        cached = tuple(
            instruction
            for block in cfg.blocks
            if block.index in reachable
            for instruction in block.instructions
            if isinstance(instruction, Invoke)
        )
    else:
        prefix: list[Invoke] = []
        for instruction in instructions:
            if isinstance(instruction, Invoke):
                prefix.append(instruction)
            if not instruction.falls_through:
                break
        cached = tuple(prefix)
    object.__setattr__(body, "_reachable_invocations", cached)
    return cached


def guard_at_invocations(
    method: Method,
    entry_interval: ApiInterval,
    predicate_summaries: dict[tuple, frozenset[int]] | None = None,
):
    """Yield ``(invoke_instruction, interval)`` for every invocation in
    ``method``, where ``interval`` is the guard-refined set of device
    levels under which the call can execute.  Unreachable calls
    (empty interval / dead blocks) are skipped.

    A body that reads no SDK_INT and invokes no summarized helper
    cannot refine ``entry_interval``; its rows come from the memoized
    reachable invokes without running the dataflow.
    """
    body = method.body
    if body is None:
        return iter(())
    reads_sdk_int, keys = _sdk_profile(body)
    if not reads_sdk_int and not (
        predicate_summaries
        and any(key in predicate_summaries for key in keys)
    ):
        return (
            (invoke, entry_interval)
            for invoke in _reachable_invocations(method)
        )
    return _dataflow_invocations(
        method, entry_interval, predicate_summaries
    )


def _dataflow_invocations(
    method: Method,
    entry_interval: ApiInterval,
    predicate_summaries: dict[tuple, frozenset[int]] | None,
):
    """:func:`guard_at_invocations` by running the guard dataflow."""
    states = analyze_guards(method, entry_interval, predicate_summaries)
    for block in states.cfg.blocks:
        if states.entry_states.get(block.index) is None:
            continue
        for _, state, instruction in states.instruction_states(block.index):
            if state is None:
                break
            if isinstance(instruction, Invoke):
                yield instruction, state.interval


def guard_at_allocations(
    method: Method,
    entry_interval: ApiInterval,
    predicate_summaries: dict[tuple, frozenset[int]] | None = None,
):
    """Yield ``(new_instance_instruction, interval)`` for every
    allocation in ``method`` with its guard-refined interval.  Used to
    attribute guard context to anonymous inner classes created under a
    version check."""
    states = analyze_guards(method, entry_interval, predicate_summaries)
    for block in states.cfg.blocks:
        if states.entry_states.get(block.index) is None:
            continue
        for _, state, instruction in states.instruction_states(block.index):
            if state is None:
                break
            if isinstance(instruction, NewInstance):
                yield instruction, state.interval
