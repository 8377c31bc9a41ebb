"""The mismatch-kind registry.

Historically the four mismatch kinds were an enum whose semantics were
baked into five layers: key/describe branches in ``core.mismatch``,
capability frozensets on every detector, probe logic in
``dynamic.verifier``, crash sweeps in ``difftest.oracle``, and kind
groupings in ``eval.accuracy``.  Adding a kind meant editing all of
them.

This module makes "what kinds exist" data.  A
:class:`MismatchKindSpec` carries everything a kind-agnostic layer
needs:

* identity (``value``), grouping ``family`` (capability-table column),
  and the permission/subject shape constraints;
* the key and describe rules consumed by ``Mismatch``;
* the dynamic-verification policy (:class:`VerifyPolicy`) the verifier
  executes — or ``None`` for kinds with no observable crash;
* the oracle's crash-direction sweep (:class:`CrashSweep`), registered
  separately because several kinds can share one sweep;
* difftest scenario builders, so the strategy layer's kind catalog
  extends itself when a kind registers.

The :class:`MismatchKind` facade keeps the enum's calling conventions
(``MismatchKind("API")``, ``MismatchKind.API_INVOCATION``, iteration,
``.value``/``.name``/``.is_permission``) so existing call sites are
untouched; the members are now registered singletons rather than enum
members.  Specs pickle by value and resolve back to the registered
singleton, so ``mismatch.kind is MismatchKind.API_INVOCATION`` holds
across process pools and pickled cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "MismatchKindSpec",
    "VerifyPolicy",
    "CrashSweep",
    "MismatchKind",
    "register_kind",
    "unregister_kind",
    "register_crash_sweep",
    "registered_kinds",
    "registered_sweeps",
    "kind_families",
    "family_of",
    "kind_groups",
    "scenario_contributions",
    "api_shaped_key",
    "callback_shaped_key",
    "permission_shaped_key",
]


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyPolicy:
    """How the dynamic verifier probes one kind's findings.

    ``crash_kind`` is the :class:`~repro.dynamic.interpreter.CrashKind`
    *value* (a string, so this module needs no dynamic-layer import).
    ``withhold_permission=True`` probes on a device granting every
    dangerous permission except the mismatch's own (the permission
    kinds); ``False`` grants everything so unrelated denials cannot
    mask the probe.  ``min_level`` skips probe levels below it (the
    runtime-permission model starts at 23).  ``matches`` decides
    whether an observed crash is the predicted one.
    """

    crash_kind: str
    matches: Callable[[object, object], bool]
    withhold_permission: bool = False
    min_level: int = 0


@dataclass(frozen=True)
class CrashSweep:
    """One crash-direction sweep of the differential oracle.

    The oracle materializes a device per level in
    ``[max(lo, min_level), hi]`` with either every dangerous permission
    granted (``grant_all=True``) or none, collects crashes of
    ``crash_kind``, and demands each be explained by some static
    finding (``explains(mismatch, crash)``).  Unexplained crashes
    become static-FN records labeled ``record_kind``.
    ``honor_permission_hook`` suppresses the sweep for apps
    implementing the runtime-permission result hook (denial handled by
    protocol is user choice, not a miss).
    """

    crash_kind: str
    explains: Callable[[object, object], bool]
    record_kind: str
    grant_all: bool = True
    min_level: int = 0
    honor_permission_hook: bool = False


# ---------------------------------------------------------------------------
# the spec
# ---------------------------------------------------------------------------


def _kind_by_value(value: str) -> "MismatchKindSpec":
    """Pickle hook: resolve a kind back to its registered singleton."""
    return MismatchKind(value)


@dataclass(frozen=True, eq=False)
class MismatchKindSpec:
    """Everything the kind-agnostic layers need to know about a kind.

    ``eq=False`` keeps identity semantics (and identity hashing) — the
    registered spec is a singleton, compared with ``is`` exactly like
    the enum members it replaces.
    """

    value: str
    family: str
    is_permission: bool
    key_fn: Callable[[object], tuple]
    describe_fn: Callable[[object], str]
    verify: VerifyPolicy | None = None
    scenario_builders: tuple[tuple[str, Callable], ...] = ()
    #: Attribute name on the :class:`MismatchKind` facade; set by
    #: :func:`register_kind`.
    attr_name: str = ""

    @property
    def name(self) -> str:
        """Enum-compatible member name."""
        return self.attr_name or self.value

    @property
    def requires_subject(self) -> bool:
        return not self.is_permission

    def __repr__(self) -> str:
        return f"<MismatchKind.{self.name}: {self.value!r}>"

    def __str__(self) -> str:
        return f"MismatchKind.{self.name}"

    def __reduce__(self):
        return (_kind_by_value, (self.value,))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, MismatchKindSpec] = {}
_ATTRS: dict[str, MismatchKindSpec] = {}
_SWEEPS: list[CrashSweep] = []

#: First-registration sequence numbers, never forgotten.  A family's
#: column position is assigned the first time any kind of that family
#: registers and survives unregister/re-register cycles (the plugin
#: and test-seam dance), so capability-table and agreement-matrix
#: column order is a function of *registration history*, not of the
#: registry dict's current insertion order.
_FAMILY_ORDER: dict[str, int] = {}
_KIND_ORDER: dict[str, int] = {}


def register_kind(spec: MismatchKindSpec, *, attr: str) -> MismatchKindSpec:
    """Register ``spec`` under facade attribute ``attr``.

    Re-registering the same value is an error (two modules claiming one
    kind is a bug, not a merge); use :func:`unregister_kind` in tests.
    """
    if spec.value in _REGISTRY:
        raise ValueError(
            f"mismatch kind {spec.value!r} is already registered"
        )
    object.__setattr__(spec, "attr_name", attr)
    _REGISTRY[spec.value] = spec
    _ATTRS[attr] = spec
    _KIND_ORDER.setdefault(spec.value, len(_KIND_ORDER))
    _FAMILY_ORDER.setdefault(spec.family, len(_FAMILY_ORDER))
    return spec


def unregister_kind(value: str) -> None:
    """Remove a registered kind — a testing seam for registry-invariant
    tests; production code never unregisters."""
    spec = _REGISTRY.pop(value, None)
    if spec is not None:
        _ATTRS.pop(spec.attr_name, None)


def register_crash_sweep(sweep: CrashSweep) -> CrashSweep:
    """Contribute one oracle crash sweep (idempotent by content)."""
    if sweep not in _SWEEPS:
        _SWEEPS.append(sweep)
    return sweep


def registered_kinds() -> tuple[MismatchKindSpec, ...]:
    """Every registered kind, in registration order."""
    return tuple(_REGISTRY.values())


def registered_sweeps() -> tuple[CrashSweep, ...]:
    """Every contributed crash sweep, in registration order."""
    return tuple(_SWEEPS)


def kind_families() -> tuple[str, ...]:
    """Distinct kind families in *first-registration* order — the
    capability matrix's columns.

    Ordered by the sequence number a family was assigned when its
    first kind registered, not by the registry dict's insertion order:
    a kind unregistered and re-registered (the plugin reload / test
    seam dance) would otherwise migrate its family column to the end,
    reshuffling every downstream capability table and agreement
    matrix between runs."""
    families = {spec.family for spec in _REGISTRY.values()}
    return tuple(sorted(families, key=_FAMILY_ORDER.__getitem__))


def family_of(value: str) -> str:
    """The capability family of kind ``value``."""
    spec = _REGISTRY.get(value)
    if spec is None:
        raise ValueError(f"{value!r} is not a registered mismatch kind")
    return spec.family


def kind_groups() -> dict[str, tuple[str, ...]]:
    """Kind groupings for accuracy reports, derived from the registry:
    one group per family, the paper's pooled ``API+APC`` headline when
    both families exist, and an everything pool."""
    groups: dict[str, tuple[str, ...]] = {}
    for spec in _REGISTRY.values():
        groups[spec.family] = groups.get(spec.family, ()) + (spec.value,)
    if "API" in groups and "APC" in groups:
        groups["API+APC"] = groups["API"] + groups["APC"]
    groups["ALL"] = tuple(spec.value for spec in _REGISTRY.values())
    return groups


def scenario_contributions() -> tuple[tuple[str, Callable], ...]:
    """Difftest scenario builders contributed by registered kinds, in
    registration order (the strategy layer appends these to its own
    catalog, so the kind order is part of the planning determinism
    contract)."""
    out: list[tuple[str, Callable]] = []
    for spec in _REGISTRY.values():
        out.extend(spec.scenario_builders)
    return tuple(out)


# ---------------------------------------------------------------------------
# the enum-compatible facade
# ---------------------------------------------------------------------------


class _KindMeta(type):
    def __call__(cls, value: str) -> MismatchKindSpec:
        spec = _REGISTRY.get(value)
        if spec is None:
            raise ValueError(f"{value!r} is not a valid MismatchKind")
        return spec

    def __iter__(cls) -> Iterator[MismatchKindSpec]:
        return iter(_REGISTRY.values())

    def __len__(cls) -> int:
        return len(_REGISTRY)

    def __getattr__(cls, name: str) -> MismatchKindSpec:
        try:
            return _ATTRS[name]
        except KeyError:
            raise AttributeError(
                f"no registered mismatch kind named {name!r}"
            ) from None

    def __instancecheck__(cls, instance: object) -> bool:
        return isinstance(instance, MismatchKindSpec)


class MismatchKind(metaclass=_KindMeta):
    """Accessor over the registered kinds, call-compatible with the
    enum it replaced: ``MismatchKind("API")`` returns the registered
    singleton (``ValueError`` for unknown values),
    ``MismatchKind.API_INVOCATION`` is attribute access, and iteration
    yields kinds in registration order."""


# ---------------------------------------------------------------------------
# key / describe building blocks (shared by base kinds and extensions)
# ---------------------------------------------------------------------------


def api_shaped_key(mismatch) -> tuple:
    """Call-site identity: (kind, app, calling method, API triple)."""
    subject = mismatch.subject
    return (
        mismatch.kind.value,
        mismatch.app,
        mismatch.location,
        (subject.class_name, subject.name, subject.descriptor),
    )


def callback_shaped_key(mismatch) -> tuple:
    """Callback identity: which app class overrides which framework
    signature."""
    subject = mismatch.subject
    location_class = (
        mismatch.location.class_name if mismatch.location else None
    )
    return (
        mismatch.kind.value,
        mismatch.app,
        location_class,
        f"{subject.name}{subject.descriptor}",
    )


def permission_shaped_key(mismatch) -> tuple:
    """Permission identity: one finding per permission per app."""
    return (mismatch.kind.value, mismatch.app, mismatch.permission)


# ---------------------------------------------------------------------------
# the base kinds (paper Table I; PRM splits in two per section II-C)
# ---------------------------------------------------------------------------


def _describe_api(m) -> str:
    return (
        f"[API] {m.location} invokes {m.subject}, "
        f"missing on device levels {m.missing_levels}"
    )


def _describe_apc(m) -> str:
    return (
        f"[APC] {m.location} overrides {m.subject}, "
        f"never invoked on device levels {m.missing_levels}"
    )


def _describe_request(m) -> str:
    return (
        f"[PRM] {m.app} uses dangerous permission "
        f"{m.permission} (via {m.location}) without the "
        f"runtime request protocol (devices {m.missing_levels})"
    )


def _describe_revocation(m) -> str:
    return (
        f"[PRM] {m.app} uses dangerous permission "
        f"{m.permission} (via {m.location}) revocable on "
        f"devices {m.missing_levels}"
    )


#: App → API: app invokes a method missing at some supported level.
API_INVOCATION = register_kind(
    MismatchKindSpec(
        value="API",
        family="API",
        is_permission=False,
        key_fn=api_shaped_key,
        describe_fn=_describe_api,
        verify=VerifyPolicy(
            crash_kind="missing-method",
            matches=lambda m, crash: (
                crash.api == m.subject and crash.location == m.location
            ),
        ),
    ),
    attr="API_INVOCATION",
)

#: API → App: app overrides a callback missing at some level.  No
#: observable crash — the failure mode is a hook silently never run —
#: so there is no verify policy (findings stay static-only).
API_CALLBACK = register_kind(
    MismatchKindSpec(
        value="APC",
        family="APC",
        is_permission=False,
        key_fn=callback_shaped_key,
        describe_fn=_describe_apc,
        verify=None,
    ),
    attr="API_CALLBACK",
)

_PERMISSION_VERIFY = VerifyPolicy(
    crash_kind="permission-denied",
    matches=lambda m, crash: crash.permission == m.permission,
    withhold_permission=True,
    min_level=23,
)

#: App targets ≥23, uses a dangerous permission, never implements the
#: runtime request protocol.
PERMISSION_REQUEST = register_kind(
    MismatchKindSpec(
        value="PRM-request",
        family="PRM",
        is_permission=True,
        key_fn=permission_shaped_key,
        describe_fn=_describe_request,
        verify=_PERMISSION_VERIFY,
    ),
    attr="PERMISSION_REQUEST",
)

#: App targets ≤22, uses a dangerous permission revocable on ≥23.
PERMISSION_REVOCATION = register_kind(
    MismatchKindSpec(
        value="PRM-revocation",
        family="PRM",
        is_permission=True,
        key_fn=permission_shaped_key,
        describe_fn=_describe_revocation,
        verify=_PERMISSION_VERIFY,
    ),
    attr="PERMISSION_REVOCATION",
)


register_crash_sweep(
    CrashSweep(
        crash_kind="missing-method",
        explains=lambda m, crash: (
            m.kind.value == "API"
            and m.subject == crash.api
            and crash.api_level in m.missing_levels
        ),
        record_kind="API",
        grant_all=True,
    )
)

register_crash_sweep(
    CrashSweep(
        crash_kind="permission-denied",
        explains=lambda m, crash: (
            m.kind.is_permission and m.permission == crash.permission
        ),
        record_kind="PRM",
        grant_all=False,
        min_level=23,
        honor_permission_hook=True,
    )
)
