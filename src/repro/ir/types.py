"""Core reference types for the register-based IR.

The IR models the parts of Dalvik bytecode that SAINTDroid's analyses
consume: fully-qualified class names, method references with simple
textual descriptors, and field references.  Names follow Java binary
naming with dots (``android.app.Activity``) rather than the slash/L-form
used by dex files; the serialization layer is free to render either.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "ClassName",
    "MethodRef",
    "FieldRef",
    "is_anonymous_class",
    "outer_class",
    "package_of",
    "simple_name",
    "ANDROID_PACKAGES",
    "is_framework_class",
]

# Package prefixes owned by the Android Development Framework (ADF).
# Anything in these namespaces is resolved against the framework
# repository rather than the application dex files.
ANDROID_PACKAGES: tuple[str, ...] = (
    "android.",
    "java.",
    "javax.",
    "dalvik.",
    "org.apache.http.",
    "org.json.",
    "org.xml.",
    "org.w3c.",
)

# A fully-qualified class name; kept as a plain ``str`` alias so the IR
# stays lightweight, with helpers below for the structure we care about.
ClassName = str

_ANON_RE = re.compile(r"\$\d+$")


@lru_cache(maxsize=65536)
def is_anonymous_class(name: ClassName) -> bool:
    """Return True for names of anonymous inner classes (``Foo$1``).

    SAINTDroid's published limitation (paper section VI) is that
    dynamically-generated classes corresponding to anonymous inner class
    declarations are invisible to its guard collection; the detector uses
    this predicate to model that blind spot.
    """
    return bool(_ANON_RE.search(name))


def outer_class(name: ClassName) -> ClassName:
    """Return the enclosing class of an inner class name, or ``name``."""
    if "$" not in name:
        return name
    return name.split("$", 1)[0]


def package_of(name: ClassName) -> str:
    """Return the package portion of a class name ('' for default)."""
    head, _, _ = name.rpartition(".")
    return head


def simple_name(name: ClassName) -> str:
    """Return the unqualified class name."""
    _, _, tail = name.rpartition(".")
    return tail


@lru_cache(maxsize=65536)
def is_framework_class(name: ClassName) -> bool:
    """Return True when ``name`` belongs to the ADF namespace."""
    return name.startswith(ANDROID_PACKAGES)


@dataclass(frozen=True, slots=True)
class MethodRef:
    """A reference to a method: owning class, name, and descriptor.

    The descriptor is a human-readable signature such as
    ``(android.content.Context)void``; it participates in equality so
    that overloads are distinct, exactly as dex method_ids are.
    """

    class_name: ClassName
    name: str
    descriptor: str = "()void"
    #: Lazily cached hash — refs are hashed millions of times as dict
    #: keys (worklists, callgraphs, dispatch memos), and the generated
    #: dataclass hash re-tuples three strings on every lookup.
    _hash: int | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _str: str | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _is_fw: bool | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.class_name, self.name, self.descriptor))
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        # Pickle the three defining fields only: the memoized hash
        # follows the writer's hash seed, and a ref carrying it into a
        # process with another seed would miss every dict and set.
        return (MethodRef, (self.class_name, self.name, self.descriptor))

    def __post_init__(self) -> None:
        if not self.class_name:
            raise ValueError("MethodRef requires a class name")
        if not self.name:
            raise ValueError("MethodRef requires a method name")
        if not self.descriptor.startswith("("):
            raise ValueError(
                f"descriptor must start with '(': {self.descriptor!r}"
            )

    @property
    def signature(self) -> str:
        """Class-independent signature used for override matching."""
        return f"{self.name}{self.descriptor}"

    @property
    def is_framework(self) -> bool:
        value = self._is_fw
        if value is None:
            value = is_framework_class(self.class_name)
            object.__setattr__(self, "_is_fw", value)
        return value

    @property
    def arity(self) -> int:
        """Number of declared parameters (excluding the receiver)."""
        params = self.descriptor[1 : self.descriptor.rindex(")")]
        if not params.strip():
            return 0
        return params.count(",") + 1

    @property
    def return_type(self) -> str:
        return self.descriptor[self.descriptor.rindex(")") + 1 :]

    def __str__(self) -> str:
        # Cached: report ordering sorts usages by the rendered form,
        # once per usage per app, over refs interned across the corpus.
        value = self._str
        if value is None:
            value = f"{self.class_name}.{self.name}{self.descriptor}"
            object.__setattr__(self, "_str", value)
        return value


@dataclass(frozen=True, slots=True)
class FieldRef:
    """A reference to a field: owning class, name, and type."""

    class_name: ClassName
    name: str
    type_name: str = "int"

    def __post_init__(self) -> None:
        if not self.class_name or not self.name:
            raise ValueError("FieldRef requires class and field names")

    @property
    def is_framework(self) -> bool:
        return is_framework_class(self.class_name)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.class_name}.{self.name}:{self.type_name}"


#: The field read by apps to discover the device API level at runtime.
SDK_INT_FIELD = FieldRef("android.os.Build$VERSION", "SDK_INT", "int")
