"""API-level interval domain.

The abstract values of the guard analysis: closed integer intervals
over device API levels, with a distinguished empty interval for
unreachable configurations.  ``refine`` implements the effect of a
``SDK_INT <op> c`` comparison along the taken/fall-through edge, the
operation at the heart of Algorithm 2's ``GET_GUARD``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apk.manifest import MAX_API_LEVEL, MIN_API_LEVEL
from ..ir.instructions import CmpOp

__all__ = [
    "ApiInterval",
    "FULL_RANGE",
    "EMPTY",
    "levels_mask",
    "interval_mask",
    "mask_to_interval",
]


@dataclass(frozen=True, slots=True)
class ApiInterval:
    """Closed interval ``[lo, hi]``; ``lo > hi`` encodes the empty set."""

    lo: int
    hi: int
    #: Cached hash — intervals key guard contexts and usage merges by
    #: the million; intervals are interned, so each distinct value
    #: hashes its ``(lo, hi)`` pair once per process.
    _hash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.lo, self.hi))
            object.__setattr__(self, "_hash", value)
        return value

    # -- constructors -------------------------------------------------

    @staticmethod
    def full() -> "ApiInterval":
        return FULL_RANGE

    @staticmethod
    def of(lo: int, hi: int) -> "ApiInterval":
        return _intern(lo, hi)

    @staticmethod
    def at_least(level: int) -> "ApiInterval":
        return _intern(level, MAX_API_LEVEL)

    @staticmethod
    def at_most(level: int) -> "ApiInterval":
        return _intern(MIN_API_LEVEL, level)

    @staticmethod
    def single(level: int) -> "ApiInterval":
        return _intern(level, level)

    @staticmethod
    def empty() -> "ApiInterval":
        return EMPTY

    # -- predicates ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def __contains__(self, level: int) -> bool:
        return self.lo <= level <= self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def __len__(self) -> int:
        return 0 if self.is_empty else self.hi - self.lo + 1

    def covers(self, other: "ApiInterval") -> bool:
        if other.is_empty:
            return True
        return self.lo <= other.lo and other.hi <= self.hi

    # -- lattice operations ---------------------------------------------

    def meet(self, other: "ApiInterval") -> "ApiInterval":
        """Intersection."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return EMPTY if lo > hi else _intern(lo, hi)

    def join(self, other: "ApiInterval") -> "ApiInterval":
        """Convex hull (the sound over-approximation of union)."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return _intern(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- guard refinement -------------------------------------------------

    def refine(self, op: CmpOp, constant: int) -> "ApiInterval":
        """Constrain by ``SDK_INT <op> constant``.

        ``NE`` punches a hole an interval cannot represent, so it
        over-approximates to ``self`` unless the constant sits at an
        endpoint (then the endpoint is shaved off) — a sound choice.
        """
        if self.is_empty:
            return self
        if op is CmpOp.LT:
            return self.meet(ApiInterval.at_most(constant - 1))
        if op is CmpOp.LE:
            return self.meet(ApiInterval.at_most(constant))
        if op is CmpOp.GT:
            return self.meet(ApiInterval.at_least(constant + 1))
        if op is CmpOp.GE:
            return self.meet(ApiInterval.at_least(constant))
        if op is CmpOp.EQ:
            return self.meet(ApiInterval.single(constant))
        if op is CmpOp.NE:
            if constant == self.lo == self.hi:
                return EMPTY
            if constant == self.lo:
                return _intern(self.lo + 1, self.hi)
            if constant == self.hi:
                return _intern(self.lo, self.hi - 1)
            return self
        raise ValueError(f"unknown comparison {op!r}")

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        if self.is_empty:
            return "[]"
        return f"[{self.lo}, {self.hi}]"


#: Interning table: the guard analysis creates the same few dozen
#: intervals millions of times across a corpus, and context
#: memoization keys on ``(method, interval)`` tuples — shared instances
#: make those hashes/comparisons cheap and cut allocation churn.
#: Equality still holds for uninterned instances (``__eq__`` compares
#: ``lo``/``hi``), so interning is a pure optimization.
_INTERNED: dict[tuple[int, int], "ApiInterval"] = {}


def _intern(lo: int, hi: int) -> "ApiInterval":
    key = (lo, hi)
    cached = _INTERNED.get(key)
    if cached is None:
        cached = _INTERNED[key] = ApiInterval(lo, hi)
    return cached


#: The full modeled device-level range.
FULL_RANGE = _intern(MIN_API_LEVEL, MAX_API_LEVEL)

#: The canonical empty interval.
EMPTY = _intern(MAX_API_LEVEL + 1, MIN_API_LEVEL - 1)


# -- bitset level sets ---------------------------------------------------
#
# The guard analysis's hottest set operation is predicate refinement:
# "which levels in this path interval satisfy `helper_result <op> c`?"
# Materializing the interval as a Python list and testing each level
# against a frozenset allocates per branch edge, millions of times over
# a corpus.  A level set is instead packed into an int bitmask (bit 0 =
# ``MIN_API_LEVEL``), where intersection/union/complement are single
# C-speed integer ops and the convex hull falls out of ``bit_length``.
# Masks only represent levels at or above ``MIN_API_LEVEL``; callers
# with out-of-range intervals (possible via ``--devices``) must keep to
# the per-level fallback.

_LEVEL_MASKS: dict[frozenset, int] = {}
_INTERVAL_MASKS: dict[tuple[int, int], int] = {}


def levels_mask(levels: frozenset) -> int:
    """Bitmask of a version-helper level set, memoized per frozenset —
    the same few helper summaries recur across every branch edge of a
    corpus.  Levels below ``MIN_API_LEVEL`` are dropped (they cannot
    appear in any in-range path interval)."""
    cached = _LEVEL_MASKS.get(levels)
    if cached is None:
        cached = 0
        for level in levels:
            if level >= MIN_API_LEVEL:
                cached |= 1 << (level - MIN_API_LEVEL)
        _LEVEL_MASKS[levels] = cached
    return cached


def interval_mask(interval: ApiInterval) -> int:
    """Bitmask of every level in ``interval`` (which must start at or
    above ``MIN_API_LEVEL``)."""
    key = (interval.lo, interval.hi)
    cached = _INTERVAL_MASKS.get(key)
    if cached is None:
        if interval.is_empty:
            cached = 0
        else:
            width = interval.hi - interval.lo + 1
            cached = ((1 << width) - 1) << (interval.lo - MIN_API_LEVEL)
        _INTERVAL_MASKS[key] = cached
    return cached


def mask_to_interval(mask: int) -> ApiInterval:
    """Convex hull of a level bitmask (lowest to highest set bit)."""
    if not mask:
        return EMPTY
    lo = MIN_API_LEVEL + ((mask & -mask).bit_length() - 1)
    hi = MIN_API_LEVEL + (mask.bit_length() - 1)
    return _intern(lo, hi)
