"""Strategy layer: seed-driven planning of random well-formed apps.

A fuzz campaign never builds apps directly — it builds
:class:`AppPlan` values first.  A plan is plain data (JSON
round-trippable), and :func:`materialize` turns it into a real
:class:`~repro.workload.appgen.ForgedApp` *deterministically*: the
forge RNG is reseeded per scenario from ``(plan seed, scenario
nonce)``, so deleting one scenario from a plan never shifts the API
choices of the scenarios that remain.  That stability is what makes
greedy shrinking (``difftest.shrink``) converge instead of chasing a
moving target.

Beyond the forge's own scenario catalog, this module contributes guard
shapes the hand-seeded corpus never exercises — inverted guards,
equality guards, upper-bound guards, nested guards, and dead data
branches — chosen so each off-by-one or dropped-edge mutant in
``difftest.mutation`` has at least one scenario that exposes it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..apk.manifest import MAX_API_LEVEL
from ..core.apidb import ApiDatabase, ApiEntry
from ..core.kinds import scenario_contributions
from ..ir.builder import ClassBuilder
from ..ir.instructions import CmpOp
from ..ir.types import MethodRef
from ..workload.appgen import AppForge, ForgedApp
from ..workload.groundtruth import SeededIssue, SeededTrap, Trait

__all__ = [
    "ScenarioSpec",
    "AppPlan",
    "ScenarioTrace",
    "ALL_KINDS",
    "PERMISSION_KINDS",
    "plan_apps",
    "materialize",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One planned scenario: a kind plus a reseeding nonce."""

    kind: str
    nonce: int

    def to_dict(self) -> dict:
        return {"kind": self.kind, "nonce": self.nonce}

    @staticmethod
    def from_dict(doc: dict) -> "ScenarioSpec":
        return ScenarioSpec(kind=doc["kind"], nonce=doc["nonce"])


@dataclass(frozen=True)
class AppPlan:
    """A recipe for one app, reproducible from data alone."""

    index: int
    package: str
    label: str
    min_sdk: int
    target_sdk: int
    seed: int
    scenarios: tuple[ScenarioSpec, ...]
    filler_kloc: float = 0.0

    def without(self, position: int) -> "AppPlan":
        """The same plan minus the scenario at ``position``."""
        kept = tuple(
            spec
            for i, spec in enumerate(self.scenarios)
            if i != position
        )
        return replace(self, scenarios=kept)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "package": self.package,
            "label": self.label,
            "minSdk": self.min_sdk,
            "targetSdk": self.target_sdk,
            "seed": self.seed,
            "fillerKloc": self.filler_kloc,
            "scenarios": [spec.to_dict() for spec in self.scenarios],
        }

    @staticmethod
    def from_dict(doc: dict) -> "AppPlan":
        return AppPlan(
            index=doc["index"],
            package=doc["package"],
            label=doc["label"],
            min_sdk=doc["minSdk"],
            target_sdk=doc["targetSdk"],
            seed=doc["seed"],
            filler_kloc=doc.get("fillerKloc", 0.0),
            scenarios=tuple(
                ScenarioSpec.from_dict(s) for s in doc["scenarios"]
            ),
        )


@dataclass(frozen=True)
class ScenarioTrace:
    """What one planned scenario actually seeded during materialize.

    The agreement-study harness (``eval.compare``) joins per-tool
    findings back to the *scenario* that seeded them; this record is
    the join key: the ground-truth issue keys and trap FP keys the
    builder appended, or ``skipped=True`` when the builder refused the
    configuration (no fitting API, permission-posture conflict)."""

    kind: str
    issue_keys: tuple[tuple, ...]
    trap_keys: tuple[tuple, ...]
    skipped: bool = False


# ---------------------------------------------------------------------------
# Custom guard-shape scenarios (beyond the forge catalog)
# ---------------------------------------------------------------------------


def _issue_key(forge: AppForge, caller: MethodRef, api: ApiEntry) -> tuple:
    return (
        "API",
        forge.label,
        caller,
        (api.class_name, api.name, api.descriptor),
    )


def _single_method_class(
    forge: AppForge, stem: str
) -> tuple[ClassBuilder, str]:
    name = forge.next_name(stem)
    return ClassBuilder(name), name


def _legacy_guard(forge: AppForge) -> None:
    """``if (SDK_INT < last+1) { removedApi() }`` via an inverted
    jump — the fall-through edge refines with ``LT``, the shape that
    exposes an off-by-one in ``refine(LT, c)``."""
    api = forge.picker.removed_api(forge.rng, forge.min_sdk)
    last = api.lifetime[1]
    builder, name = _single_method_class(forge, "LegacyPath")
    method = builder.method("render")
    skip = method.fresh_label("skip_")
    method.sdk_int(0)
    method.const_int(1, last + 1)
    method.if_cmp(CmpOp.GE, 0, 1, skip)
    method.invoke_virtual(api.class_name, api.name, api.descriptor)
    method.label(skip)
    method.return_void()
    builder.finish(method)
    forge.add_class(builder.build())
    caller = MethodRef(name, "render", "()void")
    forge.truth.traps.append(
        SeededTrap(
            fp_keys=(_issue_key(forge, caller, api),),
            trait=Trait.TRAP_GUARDED_DIRECT,
            description=(
                f"{name}.render calls removed {api.ref} only below "
                f"level {last + 1} (inverted-jump lower guard)"
            ),
        )
    )


def _max_guard(forge: AppForge) -> None:
    """``if (SDK_INT <= last) { removedApi() }`` — the canonical
    forward-compat guard; its fall-through refines with ``LE``."""
    api = forge.picker.removed_api(forge.rng, forge.min_sdk)
    builder, name = _single_method_class(forge, "MaxGuard")
    method = builder.method("render")
    method.guarded_call_max(
        api.lifetime[1], api.class_name, api.name, api.descriptor
    )
    method.return_void()
    builder.finish(method)
    forge.add_class(builder.build())
    caller = MethodRef(name, "render", "()void")
    forge.truth.traps.append(
        SeededTrap(
            fp_keys=(_issue_key(forge, caller, api),),
            trait=Trait.TRAP_GUARDED_DIRECT,
            description=(
                f"{name}.render calls removed {api.ref} guarded at "
                f"or below level {api.lifetime[1]}"
            ),
        )
    )


def _gt_guard(forge: AppForge) -> None:
    """``if (SDK_INT > intro-1) { newApi() }`` — fall-through refines
    with ``GT``, exposing an off-by-one in ``refine(GT, c)``."""
    api = forge.picker.new_api(
        forge.rng, forge.min_sdk + 1, MAX_API_LEVEL
    )
    intro = api.lifetime[0]
    builder, name = _single_method_class(forge, "GtGuard")
    method = builder.method("render")
    skip = method.fresh_label("skip_")
    method.sdk_int(0)
    method.const_int(1, intro - 1)
    method.if_cmp(CmpOp.LE, 0, 1, skip)
    method.invoke_virtual(api.class_name, api.name, api.descriptor)
    method.label(skip)
    method.return_void()
    builder.finish(method)
    forge.add_class(builder.build())
    caller = MethodRef(name, "render", "()void")
    forge.truth.traps.append(
        SeededTrap(
            fp_keys=(_issue_key(forge, caller, api),),
            trait=Trait.TRAP_GUARDED_DIRECT,
            description=(
                f"{name}.render calls {api.ref} guarded strictly "
                f"above level {intro - 1}"
            ),
        )
    )


def _eq_guard(forge: AppForge) -> None:
    """``if (SDK_INT == intro) { newApi() }`` — fall-through refines
    with ``EQ``; a detector that ignores equality refinement reports
    every level below the introduction."""
    api = forge.picker.new_api(
        forge.rng, forge.min_sdk + 1, MAX_API_LEVEL
    )
    intro = api.lifetime[0]
    builder, name = _single_method_class(forge, "EqGuard")
    method = builder.method("render")
    skip = method.fresh_label("skip_")
    method.sdk_int(0)
    method.const_int(1, intro)
    method.if_cmp(CmpOp.NE, 0, 1, skip)
    method.invoke_virtual(api.class_name, api.name, api.descriptor)
    method.label(skip)
    method.return_void()
    builder.finish(method)
    forge.add_class(builder.build())
    caller = MethodRef(name, "render", "()void")
    forge.truth.traps.append(
        SeededTrap(
            fp_keys=(_issue_key(forge, caller, api),),
            trait=Trait.TRAP_GUARDED_DIRECT,
            description=(
                f"{name}.render calls {api.ref} only when SDK_INT "
                f"equals {intro}"
            ),
        )
    )


def _ne_guard(forge: AppForge) -> None:
    """``if (SDK_INT != minSdk) { newApi() }`` where the API appears
    exactly at ``minSdk+1`` — the one shape where ``NE`` refinement
    (endpoint shaving) changes the verdict.  Raises ``LookupError``
    when no API is introduced exactly there; the planner treats that
    as a skip."""
    api = forge.picker.new_api(
        forge.rng, forge.min_sdk + 1, forge.min_sdk + 1
    )
    builder, name = _single_method_class(forge, "NeGuard")
    method = builder.method("render")
    skip = method.fresh_label("skip_")
    method.sdk_int(0)
    method.const_int(1, forge.min_sdk)
    method.if_cmp(CmpOp.EQ, 0, 1, skip)
    method.invoke_virtual(api.class_name, api.name, api.descriptor)
    method.label(skip)
    method.return_void()
    builder.finish(method)
    forge.add_class(builder.build())
    caller = MethodRef(name, "render", "()void")
    forge.truth.traps.append(
        SeededTrap(
            fp_keys=(_issue_key(forge, caller, api),),
            trait=Trait.TRAP_GUARDED_DIRECT,
            description=(
                f"{name}.render skips {api.ref} exactly on level "
                f"{forge.min_sdk} (NE endpoint guard)"
            ),
        )
    )


def _nested_guard(forge: AppForge) -> None:
    """Two nested lower-bound guards protecting two APIs — the join
    at the inner merge point must keep the outer refinement."""
    outer = forge.picker.new_api(
        forge.rng, forge.min_sdk + 1, MAX_API_LEVEL
    )
    inner = forge.picker.new_api(
        forge.rng, outer.lifetime[0], MAX_API_LEVEL
    )
    builder, name = _single_method_class(forge, "NestedGuard")
    method = builder.method("render")
    end_outer = method.fresh_label("end_outer_")
    end_inner = method.fresh_label("end_inner_")
    method.sdk_int(0)
    method.const_int(1, outer.lifetime[0])
    method.if_cmp(CmpOp.LT, 0, 1, end_outer)
    method.sdk_int(2)
    method.const_int(3, inner.lifetime[0])
    method.if_cmp(CmpOp.LT, 2, 3, end_inner)
    method.invoke_virtual(inner.class_name, inner.name, inner.descriptor)
    method.label(end_inner)
    method.invoke_virtual(outer.class_name, outer.name, outer.descriptor)
    method.label(end_outer)
    method.return_void()
    builder.finish(method)
    forge.add_class(builder.build())
    caller = MethodRef(name, "render", "()void")
    forge.truth.traps.append(
        SeededTrap(
            fp_keys=(
                _issue_key(forge, caller, inner),
                _issue_key(forge, caller, outer),
            ),
            trait=Trait.TRAP_GUARDED_DIRECT,
            description=(
                f"{name}.render nests a level-{inner.lifetime[0]} "
                f"guard inside a level-{outer.lifetime[0]} guard"
            ),
        )
    )


def _inverted_guard(forge: AppForge) -> None:
    """``if (SDK_INT < intro) { newApi() }`` — the guard protects the
    *wrong* branch, so this is a true issue every detector should
    report and the interpreter confirms below the introduction."""
    api = forge.picker.new_api(
        forge.rng, forge.min_sdk + 1, MAX_API_LEVEL
    )
    intro = api.lifetime[0]
    builder, name = _single_method_class(forge, "InvertedGuard")
    method = builder.method("render")
    skip = method.fresh_label("skip_")
    method.sdk_int(0)
    method.const_int(1, intro)
    method.if_cmp(CmpOp.GE, 0, 1, skip)
    method.invoke_virtual(api.class_name, api.name, api.descriptor)
    method.label(skip)
    method.return_void()
    builder.finish(method)
    forge.add_class(builder.build())
    caller = MethodRef(name, "render", "()void")
    forge.truth.issues.append(
        SeededIssue(
            key=_issue_key(forge, caller, api),
            kind="API",
            trait=Trait.DIRECT,
            description=(
                f"{name}.render calls {api.ref} on the levels *below* "
                f"{intro} — the guard is inverted"
            ),
        )
    )


def _dead_code(forge: AppForge) -> None:
    """A newer-API call behind a constant-false data branch —
    statically reachable (data guards are not constant-folded),
    dynamically dead.  An expected static false alarm by design."""
    api = forge.picker.new_api(
        forge.rng, forge.min_sdk + 1, MAX_API_LEVEL
    )
    builder, name = _single_method_class(forge, "DeadPath")
    method = builder.method("render")
    skip = method.fresh_label("skip_")
    method.const_int(0, 1)
    method.if_cmpz(CmpOp.NE, 0, skip)
    method.invoke_virtual(api.class_name, api.name, api.descriptor)
    method.label(skip)
    method.return_void()
    builder.finish(method)
    forge.add_class(builder.build())
    caller = MethodRef(name, "render", "()void")
    forge.truth.traps.append(
        SeededTrap(
            fp_keys=(_issue_key(forge, caller, api),),
            trait=Trait.TRAP_DEAD_CODE,
            description=(
                f"{name}.render calls {api.ref} behind a constant-"
                f"false data branch (dynamically dead)"
            ),
        )
    )


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

_BUILDERS = {
    # forge-native scenarios
    "direct": lambda f: f.add_direct_issue(),
    "guarded-direct": lambda f: f.add_guarded_direct(),
    "caller-guard": lambda f: f.add_caller_guard_trap(),
    "helper-guard": lambda f: f.add_helper_guard_trap(),
    "anonymous-guard": lambda f: f.add_anonymous_guard_trap(),
    "inherited": lambda f: f.add_inherited_issue(),
    "library": lambda f: f.add_library_issue(),
    "secondary-dex": lambda f: f.add_secondary_dex_issue(),
    "external-dynamic": lambda f: f.add_external_dynamic_issue(),
    "forward-removed": lambda f: f.add_forward_removed_issue(),
    "callback-modeled": lambda f: f.add_callback_issue(modeled=True),
    "callback-unmodeled": lambda f: f.add_callback_issue(modeled=False),
    "callback-anonymous": lambda f: f.add_callback_issue(
        modeled=False, anonymous=True
    ),
    "permission-request": lambda f: f.add_permission_request_issue(),
    "permission-request-deep": lambda f: f.add_permission_request_issue(
        deep=True
    ),
    "permission-revocation": lambda f: f.add_permission_revocation_issue(),
    "permission-protocol": lambda f: f.implement_permission_protocol(),
    # difftest-specific guard shapes
    "legacy-guard": _legacy_guard,
    "max-guard": _max_guard,
    "gt-guard": _gt_guard,
    "eq-guard": _eq_guard,
    "ne-guard": _ne_guard,
    "nested-guard": _nested_guard,
    "inverted-guard": _inverted_guard,
    "dead-code": _dead_code,
}

# Registry-contributed scenarios: each registered mismatch kind may
# ship builders of its own (SEM does).  Appended after the static
# table in kind-registration order, which — like the table order — is
# part of the planning determinism contract.
for _scenario_name, _scenario_builder in scenario_contributions():
    _BUILDERS.setdefault(_scenario_name, _scenario_builder)

#: Stable kind order — planning iterates this, so the order is part of
#: the determinism contract.
ALL_KINDS: tuple[str, ...] = tuple(_BUILDERS)

#: Kinds that constrain or consume the app's permission posture; a
#: plan carries at most one of these.
PERMISSION_KINDS = frozenset(
    {
        "permission-request",
        "permission-request-deep",
        "permission-revocation",
        "permission-protocol",
    }
)

#: Kinds requiring a pre-23 target (install-time permission model).
_LEGACY_TARGET_KINDS = frozenset({"permission-revocation"})

#: Kinds requiring a post-23 target (runtime permission model).
_RUNTIME_TARGET_KINDS = frozenset(
    {"permission-request", "permission-request-deep"}
)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

#: Per-app seed stride, matching the corpus generator's idiom.
_APP_SEED_STRIDE = 1_000_003
#: Per-scenario reseed mixing primes (see :func:`materialize`).
_SCENARIO_PRIME = 7919
_NONCE_PRIME = 104_729
_FILLER_NONCE = 999_983


def plan_apps(
    seed: int, n_apps: int, *, coverage: bool = True
) -> list[AppPlan]:
    """Plan ``n_apps`` apps deterministically from ``seed``.

    With ``coverage=True`` (the default) the first ``len(ALL_KINDS)``
    plans are single-scenario coverage apps — one per kind, at fixed
    SDK bounds — so every scenario kind appears in every campaign
    regardless of ``n_apps``; the remainder are random mixes.
    """
    rng = random.Random(seed)
    plans: list[AppPlan] = []

    def _plan(index: int, min_sdk: int, target_sdk: int,
              kinds: list[str], filler: float) -> AppPlan:
        return AppPlan(
            index=index,
            package=f"com.difftest.app{index:04d}",
            label=f"DiffApp{index:04d}",
            min_sdk=min_sdk,
            target_sdk=target_sdk,
            seed=seed * _APP_SEED_STRIDE + index,
            scenarios=tuple(
                ScenarioSpec(kind=kind, nonce=i)
                for i, kind in enumerate(kinds)
            ),
            filler_kloc=filler,
        )

    if coverage:
        for kind in ALL_KINDS:
            if len(plans) >= n_apps:
                break
            target = 22 if kind in _LEGACY_TARGET_KINDS else 26
            plans.append(_plan(len(plans), 22, target, [kind], 0.0))

    while len(plans) < n_apps:
        min_sdk = rng.randint(16, 26)
        target_sdk = rng.randint(max(min_sdk, 21), MAX_API_LEVEL)
        allowed = [
            kind
            for kind in ALL_KINDS
            if not (
                (kind in _LEGACY_TARGET_KINDS and target_sdk >= 23)
                or (kind in _RUNTIME_TARGET_KINDS and target_sdk < 23)
            )
        ]
        n_scenarios = rng.randint(2, 6)
        kinds: list[str] = []
        for _ in range(n_scenarios):
            kind = rng.choice(allowed)
            if kind in PERMISSION_KINDS:
                if any(k in PERMISSION_KINDS for k in kinds):
                    continue
            kinds.append(kind)
        filler = rng.choice([0.0, 0.0, 0.5, 1.0, 2.0])
        plans.append(
            _plan(len(plans), min_sdk, target_sdk, kinds, filler)
        )
    return plans


def materialize(
    plan: AppPlan,
    apidb: ApiDatabase | None = None,
    *,
    trace: list[ScenarioTrace] | None = None,
) -> ForgedApp:
    """Build the app a plan describes.

    Scenario builders may refuse a configuration (``LookupError`` when
    the API catalog has no fitting entry, ``ValueError`` when the
    app's permission posture conflicts); refused scenarios are skipped
    silently — the plan remains valid, just smaller.  Each scenario
    runs under its own RNG stream derived from ``(plan.seed,
    spec.nonce)`` so materializing ``plan.without(i)`` reproduces the
    surviving scenarios byte-for-byte.

    ``trace``, when given, receives one :class:`ScenarioTrace` per
    planned scenario recording exactly which ground-truth issue keys
    and trap FP keys that scenario seeded — the attribution the
    agreement study uses to score tools *per scenario kind* without
    re-deriving builder semantics.
    """
    forge = AppForge(
        plan.package,
        plan.label,
        min_sdk=plan.min_sdk,
        target_sdk=plan.target_sdk,
        seed=plan.seed,
        apidb=apidb,
    )
    forge.preseed_pools()
    for spec in plan.scenarios:
        forge.rng.seed(
            plan.seed * _SCENARIO_PRIME + spec.nonce * _NONCE_PRIME
        )
        issues_before = len(forge.truth.issues)
        traps_before = len(forge.truth.traps)
        try:
            _BUILDERS[spec.kind](forge)
        except (LookupError, ValueError):
            if trace is not None:
                trace.append(
                    ScenarioTrace(
                        kind=spec.kind,
                        issue_keys=(),
                        trap_keys=(),
                        skipped=True,
                    )
                )
            continue
        if trace is not None:
            trace.append(
                ScenarioTrace(
                    kind=spec.kind,
                    issue_keys=tuple(
                        issue.key
                        for issue in forge.truth.issues[issues_before:]
                    ),
                    trap_keys=tuple(
                        key
                        for trap in forge.truth.traps[traps_before:]
                        for key in trap.fp_keys
                    ),
                )
            )
    if plan.filler_kloc > 0:
        forge.rng.seed(
            plan.seed * _SCENARIO_PRIME + _FILLER_NONCE * _NONCE_PRIME
        )
        forge.add_filler(plan.filler_kloc)
    return forge.build()
