"""Greedy shrinking of a disagreeing app to a minimal repro.

Works on two granularities, coarse to fine:

1. **plan level** — delete scenarios (and the filler block) from the
   :class:`~repro.difftest.strategy.AppPlan` while the disagreement
   signature persists.  Per-scenario RNG reseeding in ``materialize``
   guarantees surviving scenarios rebuild identically, so each
   deletion probes exactly one hypothesis.
2. **APK level** — on the materialized app, delete whole classes, then
   whole methods, then individual ``if`` instructions (guard clauses),
   re-checking the signature after every deletion.  This phase refines
   the diagnosis (how few instructions still disagree); the regression
   file is written from the plan, which is reproducible data.

The output of a shrink is a pytest-ready regression file under
``tests/difftest/corpus/`` asserting the signature never reappears.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from ..apk.package import Apk
from ..ir.instructions import IfCmp, IfCmpZero
from ..ir.method import Method, MethodBody
from ..workload.appgen import ForgedApp
from .strategy import AppPlan

__all__ = [
    "ShrinkResult",
    "shrink_plan",
    "shrink_apk",
    "write_regression_file",
]


@dataclass
class ShrinkResult:
    """Outcome of a full shrink: the minimal plan plus reduction
    statistics from the APK-level phase."""

    plan: AppPlan
    signature: tuple[str, str, str]
    evaluations: int = 0
    classes_removed: int = 0
    methods_removed: int = 0
    guards_removed: int = 0

    def to_dict(self) -> dict:
        return {
            "signature": list(self.signature),
            "plan": self.plan.to_dict(),
            "evaluations": self.evaluations,
            "classesRemoved": self.classes_removed,
            "methodsRemoved": self.methods_removed,
            "guardsRemoved": self.guards_removed,
        }


def shrink_plan(
    plan: AppPlan,
    reproduces: Callable[[AppPlan], bool],
) -> tuple[AppPlan, int]:
    """Greedily delete filler and scenarios while ``reproduces`` holds.

    Returns the reduced plan and the number of predicate evaluations.
    ``reproduces(plan)`` must already be True on entry.
    """
    evaluations = 0
    if plan.filler_kloc > 0:
        candidate = replace(plan, filler_kloc=0.0)
        evaluations += 1
        if reproduces(candidate):
            plan = candidate
    changed = True
    while changed:
        changed = False
        for position in range(len(plan.scenarios)):
            candidate = plan.without(position)
            evaluations += 1
            if reproduces(candidate):
                plan = candidate
                changed = True
                break
    return plan, evaluations


# ---------------------------------------------------------------------------
# APK-level reduction
# ---------------------------------------------------------------------------


def _without_instruction(method: Method, index: int) -> Method:
    """``method`` minus the instruction at ``index``, labels remapped."""
    body = method.body
    instructions = (
        body.instructions[:index] + body.instructions[index + 1:]
    )
    labels = {
        name: (target - 1 if target > index else target)
        for name, target in body.labels.items()
    }
    return replace(
        method, body=MethodBody(instructions, labels)
    )


def _rebuild(apk: Apk, dex_index: int, classes: tuple) -> Apk | None:
    """``apk`` with one dex file's class list replaced; empty
    secondary dex files are dropped, an empty primary aborts."""
    dex_files = list(apk.dex_files)
    if not classes:
        if dex_index == 0:
            return None  # a package cannot lose its primary dex
        del dex_files[dex_index]
    else:
        dex_files[dex_index] = replace(
            dex_files[dex_index], classes=classes
        )
    return replace(apk, dex_files=tuple(dex_files))


def shrink_apk(
    apk: Apk,
    reproduces: Callable[[Apk], bool],
) -> tuple[Apk, dict[str, int]]:
    """Delete classes, methods, then guard instructions greedily.

    ``reproduces(apk)`` must already be True on entry.  Returns the
    reduced package and counters of what was removed.
    """
    stats = {
        "evaluations": 0,
        "classes_removed": 0,
        "methods_removed": 0,
        "guards_removed": 0,
    }

    def attempt(candidate: Apk | None) -> Apk | None:
        if candidate is None:
            return None
        stats["evaluations"] += 1
        return candidate if reproduces(candidate) else None

    # Phase 1: whole classes.
    changed = True
    while changed:
        changed = False
        for dex_index, dex in enumerate(apk.dex_files):
            for class_index in range(len(dex.classes)):
                kept = (
                    dex.classes[:class_index]
                    + dex.classes[class_index + 1:]
                )
                reduced = attempt(_rebuild(apk, dex_index, kept))
                if reduced is not None:
                    apk = reduced
                    stats["classes_removed"] += 1
                    changed = True
                    break
            if changed:
                break

    # Phase 2: whole methods.
    changed = True
    while changed:
        changed = False
        for dex_index, dex in enumerate(apk.dex_files):
            for class_index, clazz in enumerate(dex.classes):
                for method_index in range(len(clazz.methods)):
                    methods = (
                        clazz.methods[:method_index]
                        + clazz.methods[method_index + 1:]
                    )
                    kept = (
                        dex.classes[:class_index]
                        + (replace(clazz, methods=methods),)
                        + dex.classes[class_index + 1:]
                    )
                    reduced = attempt(_rebuild(apk, dex_index, kept))
                    if reduced is not None:
                        apk = reduced
                        stats["methods_removed"] += 1
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break

    # Phase 3: individual guard instructions.
    changed = True
    while changed:
        changed = False
        for dex_index, dex in enumerate(apk.dex_files):
            for class_index, clazz in enumerate(dex.classes):
                for method_index, method in enumerate(clazz.methods):
                    if method.body is None:
                        continue
                    for instr_index, instruction in enumerate(
                        method.body.instructions
                    ):
                        if not isinstance(
                            instruction, (IfCmp, IfCmpZero)
                        ):
                            continue
                        slimmed = _without_instruction(
                            method, instr_index
                        )
                        methods = (
                            clazz.methods[:method_index]
                            + (slimmed,)
                            + clazz.methods[method_index + 1:]
                        )
                        kept = (
                            dex.classes[:class_index]
                            + (replace(clazz, methods=methods),)
                            + dex.classes[class_index + 1:]
                        )
                        reduced = attempt(
                            _rebuild(apk, dex_index, kept)
                        )
                        if reduced is not None:
                            apk = reduced
                            stats["guards_removed"] += 1
                            changed = True
                            break
                    if changed:
                        break
                if changed:
                    break
            if changed:
                break

    return apk, stats


# ---------------------------------------------------------------------------
# Regression-file emission
# ---------------------------------------------------------------------------

_REGRESSION_TEMPLATE = '''\
"""Difftest regression (auto-generated by repro.difftest.shrink).

Shrunk repro for the disagreement signature:

    {signature!r}

The embedded plan rebuilds the minimal app deterministically; the
test fails if the detector ever disagrees with the dynamic oracle on
it again.  Regenerate with ``saintdroid difftest --shrink``.
"""

import json

from repro.core.detector import SaintDroid
from repro.difftest.oracle import DifferentialOracle
from repro.difftest.strategy import AppPlan, materialize

PLAN = json.loads("""
{plan_json}
""")

SIGNATURE = {signature!r}


def test_no_regression_{digest}(framework, apidb):
    plan = AppPlan.from_dict(PLAN)
    forged = materialize(plan, apidb)
    tool = SaintDroid(framework, apidb)
    report = tool.analyze(forged.apk)
    records = DifferentialOracle(apidb).examine(forged, report)
    assert SIGNATURE not in [r.signature for r in records]
'''


def signature_digest(signature: tuple[str, str, str]) -> str:
    """Short stable digest naming one disagreement signature."""
    blob = json.dumps(list(signature)).encode()
    return hashlib.sha1(blob).hexdigest()[:10]


def write_regression_file(
    directory: str | Path,
    plan: AppPlan,
    signature: tuple[str, str, str],
) -> Path:
    """Write the pytest regression file for a shrunk disagreement.

    The filename is derived from the signature digest, so re-running a
    campaign overwrites the same repro instead of accumulating
    duplicates.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digest = signature_digest(signature)
    path = directory / f"test_regression_{digest}.py"
    content = _REGRESSION_TEMPLATE.format(
        signature=tuple(signature),
        plan_json=json.dumps(plan.to_dict(), indent=2, sort_keys=True),
        digest=digest,
    )
    path.write_text(content)
    return path


def build_reproducer(
    tool,
    oracle,
    apidb,
    signature: tuple[str, str, str],
) -> Callable[[AppPlan], bool]:
    """The plan-level predicate: materialize, analyze, examine, and
    check whether the signature is still present.  Analysis failures
    reproduce exactly the ``analysis-failure`` signature."""
    from .strategy import materialize

    def reproduces(plan: AppPlan) -> bool:
        forged = materialize(plan, apidb)
        try:
            report = tool.analyze(forged.apk)
        except Exception:
            return signature[0] == "analysis-failure"
        records = oracle.examine(forged, report)
        return any(r.signature == signature for r in records)

    return reproduces


def build_apk_reproducer(
    tool,
    oracle,
    truth,
    signature: tuple[str, str, str],
) -> Callable[[Apk], bool]:
    """The APK-level predicate used by :func:`shrink_apk`."""

    def reproduces(apk: Apk) -> bool:
        try:
            report = tool.analyze(apk)
        except Exception:
            return signature[0] == "analysis-failure"
        forged = ForgedApp(apk=apk, truth=truth)
        records = oracle.examine(forged, report)
        return any(r.signature == signature for r in records)

    return reproduces
