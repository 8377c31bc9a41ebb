"""Declarative Android framework (ADF) revision history.

The framework is described once as a set of *histories*: every class
and method carries the API level that introduced it and (optionally)
the level that removed it.  The generator materializes a concrete
framework *image* — real IR classes with real method bodies — for any
API level, and the repository serves those images to the analyses.

This mirrors what the paper's ARM component mines out of the real
Android revision history (levels 2 through 29): which methods and
callbacks exist at each level, and which permissions each API call
requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apk.manifest import MAX_API_LEVEL, MIN_API_LEVEL
from ..ir.types import ClassName, MethodRef, is_framework_class

__all__ = [
    "SEMANTIC_CHANGES",
    "SemanticDelta",
    "MethodHistory",
    "ClassHistory",
    "FrameworkSpec",
]

#: The modeled classes of behavior-only API change (Pan et al.):
#: the method's return contract changes, it starts throwing a new
#: exception, or a default it relies on changes.
SEMANTIC_CHANGES = ("return-contract", "new-exception", "default-change")


@dataclass(frozen=True)
class SemanticDelta:
    """One behavior-only change in a method's history.

    ``level`` is the first API level exhibiting the *new* behavior;
    every earlier level of the method's lifetime exhibits the old one.
    The signature is unchanged — exactly the class of incompatibility
    signature-based detectors cannot see.
    """

    level: int
    change: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.change not in SEMANTIC_CHANGES:
            raise ValueError(
                f"unknown semantic change kind {self.change!r}"
            )
        if not MIN_API_LEVEL <= self.level <= MAX_API_LEVEL:
            raise ValueError(
                f"semantic delta level {self.level} out of range"
            )


@dataclass(frozen=True)
class MethodHistory:
    """Lifecycle of one framework method.

    ``introduced`` is the first API level at which the method exists;
    ``removed`` is the first level at which it no longer exists
    (``None`` = still present at the newest modeled level).

    ``callback`` marks methods the framework invokes *into* the app
    (e.g. ``Activity.onCreate``); the generator emits a framework-side
    dispatcher for each so that mining framework images rediscovers
    callback-ness from code rather than trusting this flag.

    ``permissions`` are enforced by the method itself; ``calls`` are
    deeper framework methods its body invokes — these chains are what
    let SAINTDroid find facts "deeper into the ADF code" that
    first-level-only tools miss.

    ``semantics`` are the method's behavior-only changes
    (:class:`SemanticDelta`): the signature stays put while the
    observable behavior splits at the delta level.
    """

    name: str
    descriptor: str = "()void"
    introduced: int = MIN_API_LEVEL
    removed: int | None = None
    callback: bool = False
    permissions: tuple[str, ...] = ()
    calls: tuple[MethodRef, ...] = ()
    semantics: tuple[SemanticDelta, ...] = ()

    def __post_init__(self) -> None:
        if not MIN_API_LEVEL <= self.introduced <= MAX_API_LEVEL + 1:
            raise ValueError(
                f"{self.name}: introduced level {self.introduced} out of range"
            )
        if self.removed is not None and self.removed <= self.introduced:
            raise ValueError(
                f"{self.name}: removed level {self.removed} must follow "
                f"introduced level {self.introduced}"
            )
        for delta in self.semantics:
            if delta.level <= self.introduced:
                raise ValueError(
                    f"{self.name}: semantic delta at level {delta.level} "
                    f"is not after the introduction ({self.introduced})"
                )
            if self.removed is not None and delta.level >= self.removed:
                raise ValueError(
                    f"{self.name}: semantic delta at level {delta.level} "
                    f"is past the removal ({self.removed})"
                )

    @property
    def signature(self) -> str:
        return f"{self.name}{self.descriptor}"

    def exists_at(self, level: int) -> bool:
        """True when the method is part of the API at ``level``."""
        if level < self.introduced:
            return False
        if self.removed is not None and level >= self.removed:
            return False
        return True

    @property
    def lifetime(self) -> tuple[int, int]:
        """Inclusive ``[introduced, last]`` level range."""
        last = (
            MAX_API_LEVEL if self.removed is None else self.removed - 1
        )
        return (self.introduced, last)


@dataclass(frozen=True)
class ClassHistory:
    """Lifecycle of one framework class and its methods."""

    name: ClassName
    super_name: ClassName | None = "java.lang.Object"
    introduced: int = MIN_API_LEVEL
    removed: int | None = None
    methods: tuple[MethodHistory, ...] = ()
    interfaces: tuple[ClassName, ...] = ()

    _by_signature: dict[str, MethodHistory] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.removed is not None and self.removed <= self.introduced:
            raise ValueError(
                f"{self.name}: removed level must follow introduced level"
            )
        table: dict[str, MethodHistory] = {}
        for history in self.methods:
            if history.signature in table:
                raise ValueError(
                    f"{self.name}: duplicate method history "
                    f"{history.signature}"
                )
            if history.introduced < self.introduced:
                raise ValueError(
                    f"{self.name}.{history.name}: method predates its class"
                )
            table[history.signature] = history
        object.__setattr__(self, "_by_signature", table)

    def exists_at(self, level: int) -> bool:
        if level < self.introduced:
            return False
        if self.removed is not None and level >= self.removed:
            return False
        return True

    def method(self, signature: str) -> MethodHistory | None:
        return self._by_signature.get(signature)

    def methods_at(self, level: int) -> tuple[MethodHistory, ...]:
        """Method histories alive at ``level`` (empty if class absent)."""
        if not self.exists_at(level):
            return ()
        return tuple(m for m in self.methods if m.exists_at(level))


class FrameworkSpec:
    """The complete declarative framework: class histories by name."""

    def __init__(self, classes: tuple[ClassHistory, ...]) -> None:
        self._classes: dict[ClassName, ClassHistory] = {}
        for history in classes:
            if history.name in self._classes:
                raise ValueError(f"duplicate class history {history.name}")
            # Framework dispatch must never reach an app-definable
            # name: apps that shadow no framework class then all
            # resolve framework callees alike, which is what lets the
            # CLVM share framework apply plans between them.
            for supertype in (history.super_name, *history.interfaces):
                if supertype is not None and not is_framework_class(
                    supertype
                ):
                    raise ValueError(
                        f"{history.name}: supertype {supertype} is outside "
                        "the framework namespace"
                    )
            self._classes[history.name] = history

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, name: ClassName) -> bool:
        return name in self._classes

    def clazz(self, name: ClassName) -> ClassHistory | None:
        return self._classes.get(name)

    @property
    def class_names(self) -> tuple[ClassName, ...]:
        return tuple(self._classes)

    def class_names_at(self, level: int) -> tuple[ClassName, ...]:
        return tuple(
            name
            for name, history in self._classes.items()
            if history.exists_at(level)
        )

    def method_exists(
        self, name: ClassName, signature: str, level: int
    ) -> bool:
        """Does ``name.signature`` exist at ``level`` (including
        inherited declarations up the framework hierarchy)?"""
        history = self._classes.get(name)
        while history is not None and history.exists_at(level):
            found = history.method(signature)
            if found is not None and found.exists_at(level):
                return True
            if history.super_name is None:
                return False
            history = self._classes.get(history.super_name)
        return False

    def find_method(
        self, name: ClassName, signature: str
    ) -> MethodHistory | None:
        """Resolve ``signature`` against ``name`` and its ancestors,
        ignoring levels (used for lifetime queries)."""
        history = self._classes.get(name)
        while history is not None:
            found = history.method(signature)
            if found is not None:
                return found
            if history.super_name is None:
                return None
            history = self._classes.get(history.super_name)
        return None

    def supertype_chain(self, name: ClassName) -> tuple[ClassName, ...]:
        """Framework ancestors of ``name``, nearest first."""
        chain: list[ClassName] = []
        history = self._classes.get(name)
        while history is not None and history.super_name is not None:
            chain.append(history.super_name)
            history = self._classes.get(history.super_name)
        return tuple(chain)

    def validate(self) -> None:
        """Cross-class consistency checks.

        * super classes must exist in the spec (``java.lang.Object`` is
          implicit) and must be alive whenever the subclass is alive;
        * every ``calls`` target must resolve to some history.
        """
        for history in self._classes.values():
            sup = history.super_name
            if sup is not None and sup != "java.lang.Object":
                parent = self._classes.get(sup)
                if parent is None:
                    raise ValueError(
                        f"{history.name}: unknown super class {sup}"
                    )
                if parent.introduced > history.introduced:
                    raise ValueError(
                        f"{history.name}: super {sup} introduced later"
                    )
            for method in history.methods:
                for callee in method.calls:
                    target = self.find_method(
                        callee.class_name, callee.name + callee.descriptor
                    )
                    if target is None:
                        raise ValueError(
                            f"{history.name}.{method.name}: call target "
                            f"{callee} not in spec"
                        )
