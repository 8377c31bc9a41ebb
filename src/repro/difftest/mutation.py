"""Mutation testing *of the detectors*: how strong is the oracle?

A differential harness is only as good as the detector bugs it can
catch.  This module keeps a catalog of semantic mutants — each a
realistic, minimal bug in the AMD/guard logic (off-by-one interval
bounds, dropped guard edges, ignored refinements, skipped permission
stages) — applies them one at a time, and checks that the fuzz
harness's coverage apps produce at least one *new* disagreement under
each.  A mutant nobody notices is a hole in the oracle; the kill
score is the harness's strength measure, reported in CI.

Patching rules (the interpreter must stay trustworthy while the
static side is broken):

* only static-analysis entry points are patched — never
  ``ApiDatabase.exists`` / ``_callable_levels`` / ``permissions_for``,
  which the interpreter shares;
* functions imported *by name* into the pass pipeline
  (``annotate_permissions``) are patched in both namespaces;
* originals are restored from ``__dict__`` so ``staticmethod``
  descriptors survive the round-trip.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from ..analysis.guards import GuardAnalysis
from ..analysis.intervals import ApiInterval, EMPTY
from ..core.amd import AndroidMismatchDetector
from ..core.apidb import ApiDatabase
from ..ir.instructions import CmpOp
from .oracle import DISAGREEMENTS, DifferentialOracle
from .strategy import AppPlan, materialize

__all__ = [
    "Mutant",
    "MutationOutcome",
    "MutationResult",
    "MUTANT_CATALOG",
    "apply_mutant",
    "run_mutation_pass",
]


@dataclass(frozen=True)
class Mutant:
    """One catalogued detector bug.

    ``build`` returns ``(owner, attribute, replacement)`` patches;
    originals are captured and restored by :func:`apply_mutant`.
    """

    name: str
    description: str
    build: Callable[[], list[tuple[object, str, object]]]


@contextmanager
def apply_mutant(mutant: Mutant):
    """Apply ``mutant``'s patches for the duration of the block."""
    patches = mutant.build()
    saved = [
        (owner, attribute, vars(owner)[attribute])
        for owner, attribute, _ in patches
    ]
    try:
        for owner, attribute, replacement in patches:
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original in saved:
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------

_ORIGINAL_REFINE = ApiInterval.refine
_ORIGINAL_TRANSFER = GuardAnalysis.transfer_edge


def _refine_mutant(
    bad_op: CmpOp, substitute: Callable[[ApiInterval, int], ApiInterval]
):
    def mutated(self, op, constant):
        if op is bad_op:
            return substitute(self, constant)
        return _ORIGINAL_REFINE(self, op, constant)

    return [(ApiInterval, "refine", mutated)]


def _transfer_never_negates():
    def mutated(self, state, instruction, taken):
        return _ORIGINAL_TRANSFER(self, state, instruction, True)

    return [(GuardAnalysis, "transfer_edge", mutated)]


def _transfer_ignores_guards():
    def mutated(self, state, instruction, taken):
        return state

    return [(GuardAnalysis, "transfer_edge", mutated)]


def _missing_levels_empty():
    def mutated(self, class_name, signature, interval):
        return EMPTY

    return [(ApiDatabase, "missing_levels", mutated)]


def _scope_shaved():
    from ..core.aum import AumModel

    original = vars(AumModel)["app_interval"]

    def mutated(self):
        interval = original.fget(self)
        if interval.is_empty or interval.lo >= interval.hi:
            return interval
        return ApiInterval.of(interval.lo + 1, interval.hi)

    return [(AumModel, "app_interval", property(mutated))]


def _protocol_always_implemented():
    def mutated(self, model):
        return True

    return [
        (
            AndroidMismatchDetector,
            "_implements_runtime_permissions",
            mutated,
        )
    ]


def _deep_permissions_ignored():
    from ..core import aum
    from ..framework.permissions import is_dangerous
    from ..pipeline import passes

    def mutated(model, apidb):
        for usage in model.usages:
            permissions = apidb.permissions_for(usage.api, deep=False)
            dangerous = frozenset(
                p for p in permissions if is_dangerous(p)
            )
            if dangerous:
                model.permission_uses.append(
                    aum.PermissionUse(
                        caller=usage.caller,
                        api=usage.api,
                        permissions=dangerous,
                        interval=usage.interval,
                    )
                )

    return [
        (aum, "annotate_permissions", mutated),
        (passes, "annotate_permissions", mutated),
    ]


def _helper_summaries_ignored():
    from ..core import aum

    def mutated(*args, **kwargs):
        return {}

    return [(aum, "collect_version_helpers", mutated)]


#: The catalogued mutants.  Each is killable by at least one coverage
#: scenario kind (noted per entry); ``tests/difftest/test_mutation.py``
#: asserts the full pass scores 100%.
MUTANT_CATALOG: tuple[Mutant, ...] = (
    Mutant(
        "refine-lt-off-by-one",
        "SDK_INT < c refines to [.., c] instead of [.., c-1] "
        "(killed by legacy-guard)",
        lambda: _refine_mutant(
            CmpOp.LT, lambda iv, c: _ORIGINAL_REFINE(iv, CmpOp.LE, c)
        ),
    ),
    Mutant(
        "refine-le-off-by-one",
        "SDK_INT <= c refines to [.., c+1] instead of [.., c] "
        "(killed by max-guard)",
        lambda: _refine_mutant(
            CmpOp.LE, lambda iv, c: _ORIGINAL_REFINE(iv, CmpOp.LE, c + 1)
        ),
    ),
    Mutant(
        "refine-gt-off-by-one",
        "SDK_INT > c refines to [c, ..] instead of [c+1, ..] "
        "(killed by gt-guard)",
        lambda: _refine_mutant(
            CmpOp.GT, lambda iv, c: _ORIGINAL_REFINE(iv, CmpOp.GE, c)
        ),
    ),
    Mutant(
        "refine-ge-off-by-one",
        "SDK_INT >= c refines to [c-1, ..] instead of [c, ..] "
        "(killed by guarded-direct)",
        lambda: _refine_mutant(
            CmpOp.GE, lambda iv, c: _ORIGINAL_REFINE(iv, CmpOp.GE, c - 1)
        ),
    ),
    Mutant(
        "refine-eq-ignored",
        "SDK_INT == c refinement dropped entirely "
        "(killed by eq-guard)",
        lambda: _refine_mutant(CmpOp.EQ, lambda iv, c: iv),
    ),
    Mutant(
        "refine-ne-ignored",
        "SDK_INT != c endpoint shaving dropped "
        "(killed by ne-guard)",
        lambda: _refine_mutant(CmpOp.NE, lambda iv, c: iv),
    ),
    Mutant(
        "guard-negation-dropped",
        "fall-through edges refine with the taken-branch comparison "
        "(killed by guarded-direct)",
        _transfer_never_negates,
    ),
    Mutant(
        "guard-edges-ignored",
        "branch edges never refine the interval state "
        "(killed by guarded-direct)",
        _transfer_ignores_guards,
    ),
    Mutant(
        "missing-levels-empty",
        "ApiDatabase.missing_levels always reports nothing missing "
        "(killed by direct)",
        _missing_levels_empty,
    ),
    Mutant(
        "detection-scope-shaved",
        "analysis scope starts at minSdk+1, silently excusing the "
        "lowest supported level (killed by direct)",
        _scope_shaved,
    ),
    Mutant(
        "protocol-always-implemented",
        "every app is believed to implement the runtime permission "
        "protocol (killed by permission-request)",
        _protocol_always_implemented,
    ),
    Mutant(
        "deep-permissions-ignored",
        "permission annotation only sees direct requirements, not "
        "transitive ones (killed by permission-request-deep)",
        _deep_permissions_ignored,
    ),
    Mutant(
        "helper-summaries-ignored",
        "version-check helper methods are never summarized "
        "(killed by helper-guard)",
        _helper_summaries_ignored,
    ),
)


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MutationOutcome:
    """One mutant's fate under the harness."""

    name: str
    description: str
    killed: bool
    killed_by: str = ""
    evidence: tuple[str, str, str] | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "killed": self.killed,
            "killedBy": self.killed_by,
            "evidence": list(self.evidence) if self.evidence else None,
        }


@dataclass
class MutationResult:
    """Kill score over the whole catalog."""

    outcomes: list[MutationOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def killed(self) -> int:
        return sum(1 for o in self.outcomes if o.killed)

    @property
    def survivors(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.outcomes if not o.killed)

    @property
    def score(self) -> str:
        return f"{self.killed}/{self.total}"

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "killed": self.killed,
            "score": self.score,
            "survivors": list(self.survivors),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def run_mutation_pass(
    plans: list[AppPlan],
    tool,
    apidb,
    *,
    catalog: tuple[Mutant, ...] = MUTANT_CATALOG,
) -> MutationResult:
    """Score the harness against every catalogued mutant.

    ``plans`` are materialized once; each mutant is applied while the
    same apps are re-analyzed and re-examined.  A mutant is killed by
    the first app whose examination yields a disagreement signature
    absent from that app's unmutated baseline (baselining keeps a
    pre-existing disagreement from inflating the score).
    """
    oracle = DifferentialOracle(apidb)
    apps = [materialize(plan, apidb) for plan in plans]

    baselines: list[frozenset] = []
    for forged in apps:
        records = oracle.examine(forged, tool.analyze(forged.apk))
        baselines.append(
            frozenset(
                r.signature
                for r in records
                if r.classification in DISAGREEMENTS
            )
        )

    result = MutationResult()
    for mutant in catalog:
        killed = False
        killed_by = ""
        evidence: tuple[str, str, str] | None = None
        with apply_mutant(mutant):
            for forged, baseline in zip(apps, baselines):
                try:
                    report = tool.analyze(forged.apk)
                    records = oracle.examine(forged, report)
                except Exception:
                    killed = True
                    killed_by = forged.apk.name
                    evidence = ("analysis-failure", "error", mutant.name)
                    break
                fresh = [
                    r
                    for r in records
                    if r.classification in DISAGREEMENTS
                    and r.signature not in baseline
                ]
                if fresh:
                    killed = True
                    killed_by = forged.apk.name
                    evidence = fresh[0].signature
                    break
        result.outcomes.append(
            MutationOutcome(
                name=mutant.name,
                description=mutant.description,
                killed=killed,
                killed_by=killed_by,
                evidence=evidence,
            )
        )
    return result
