"""Application package (APK analogue).

An :class:`Apk` bundles a manifest with one or more dex files and is
the unit of analysis for every detector in this repository.  Class
lookup spans all dex files, mirroring a multidex application.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..ir.clazz import Clazz
from ..ir.types import ClassName
from .dexfile import DexFile
from .diagnostics import DiagnosticCode, IngestDiagnostic
from .manifest import Manifest

__all__ = ["Apk"]

#: Rough ratio converting IR instructions to "lines of Dex code" so
#: that reported app sizes land in the paper's 10.4-294.4 KLOC band.
INSTRUCTIONS_PER_LINE = 1.0


@dataclass(frozen=True)
class Apk:
    """A complete application package."""

    manifest: Manifest
    dex_files: tuple[DexFile, ...]
    #: Display name (benchmark apps carry the paper's app names).
    label: str = ""
    #: ``strict=False`` repairs structural defects (no dex files, a
    #: secondary dex in primary position, cross-dex duplicate classes)
    #: instead of raising; every repair lands in :attr:`diagnostics`
    #: along with the child dex files' and manifest's own diagnostics.
    strict: bool = field(default=True, compare=False, repr=False)
    diagnostics: tuple[IngestDiagnostic, ...] = field(
        default=(), init=False, compare=False, repr=False
    )

    _by_name: dict[ClassName, Clazz] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        found: list[IngestDiagnostic] = list(self.manifest.diagnostics)
        for dex in self.dex_files:
            found.extend(dex.diagnostics)
        if not self.dex_files:
            if self.strict:
                raise ValueError("an APK requires at least one dex file")
            found.append(
                IngestDiagnostic(
                    DiagnosticCode.NO_DEX_FILES,
                    "package carried no dex files; synthesized an "
                    "empty primary dex",
                )
            )
            object.__setattr__(
                self, "dex_files", (DexFile("classes.dex"),)
            )
        if self.dex_files[0].secondary:
            if self.strict:
                raise ValueError(
                    "the first dex file must be the primary dex"
                )
            found.append(
                IngestDiagnostic(
                    DiagnosticCode.PRIMARY_MARKED_SECONDARY,
                    f"{self.dex_files[0].name} was marked secondary; "
                    f"promoted to primary",
                )
            )
            promoted = dataclasses.replace(
                self.dex_files[0], secondary=False
            )
            object.__setattr__(
                self, "dex_files", (promoted,) + self.dex_files[1:]
            )
        table: dict[ClassName, Clazz] = {}
        rebuilt: list[DexFile] = []
        rebuild_needed = False
        for dex in self.dex_files:
            kept: list[Clazz] = []
            for clazz in dex.classes:
                if clazz.name in table:
                    if self.strict:
                        raise ValueError(
                            f"{self.name}: class {clazz.name} defined "
                            f"in multiple dex files"
                        )
                    found.append(
                        IngestDiagnostic(
                            DiagnosticCode.CROSS_DEX_DUPLICATE,
                            f"{dex.name}: class {clazz.name} already "
                            f"defined in an earlier dex file "
                            f"(kept first definition)",
                        )
                    )
                    rebuild_needed = True
                    continue
                table[clazz.name] = clazz
                kept.append(clazz)
            rebuilt.append(
                dataclasses.replace(dex, classes=tuple(kept))
                if len(kept) != len(dex.classes)
                else dex
            )
        if rebuild_needed:
            object.__setattr__(self, "dex_files", tuple(rebuilt))
        if found:
            object.__setattr__(self, "diagnostics", tuple(found))
        object.__setattr__(self, "_by_name", table)

    # -- identity ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.label or self.manifest.package

    # -- class access -------------------------------------------------

    def lookup(self, class_name: ClassName) -> Clazz | None:
        """Find a class in any dex file (primary or secondary)."""
        return self._by_name.get(class_name)

    def lookup_primary(self, class_name: ClassName) -> Clazz | None:
        """Find a class reachable at install time only."""
        for dex in self.dex_files:
            if not dex.secondary:
                found = dex.lookup(class_name)
                if found is not None:
                    return found
        return None

    def __contains__(self, class_name: ClassName) -> bool:
        return class_name in self._by_name

    @property
    def secondary_dex_files(self) -> tuple[DexFile, ...]:
        return tuple(d for d in self.dex_files if d.secondary)

    @property
    def all_classes(self) -> tuple[Clazz, ...]:
        return tuple(
            clazz for dex in self.dex_files for clazz in dex.classes
        )

    @property
    def class_names(self) -> tuple[ClassName, ...]:
        return tuple(self._by_name)

    # -- size metrics --------------------------------------------------

    @property
    def method_count(self) -> int:
        return sum(dex.method_count for dex in self.dex_files)

    @property
    def instruction_count(self) -> int:
        return sum(dex.instruction_count for dex in self.dex_files)

    @property
    def dex_kloc(self) -> float:
        """App size in thousands of lines of Dex code (Figure 3 x-axis)."""
        return self.instruction_count * INSTRUCTIONS_PER_LINE / 1000.0

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        lo, hi = self.manifest.supported_range
        return (
            f"Apk({self.name}, sdk {lo}..{hi} target "
            f"{self.manifest.target_sdk}, {len(self._by_name)} classes)"
        )
