"""Android permission model.

Defines the dangerous-permission set of the runtime permission system
(API level 23+) and the :class:`PermissionMap` relating framework API
methods to the permissions their execution requires — the artifact the
paper's ARM component derives from PScout, extended with transitive
mappings obtained by analyzing framework code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.types import MethodRef

__all__ = [
    "DANGEROUS_PERMISSIONS",
    "PERMISSION_GROUPS",
    "is_dangerous",
    "PermissionMap",
]

#: Permission groups of the API-23 runtime permission system.  The
#: paper (section II-C) counts 26 dangerous permissions; these are the
#: 24 level-23 permissions plus the two added at level 26.
PERMISSION_GROUPS: dict[str, tuple[str, ...]] = {
    "CALENDAR": (
        "android.permission.READ_CALENDAR",
        "android.permission.WRITE_CALENDAR",
    ),
    "CAMERA": ("android.permission.CAMERA",),
    "CONTACTS": (
        "android.permission.READ_CONTACTS",
        "android.permission.WRITE_CONTACTS",
        "android.permission.GET_ACCOUNTS",
    ),
    "LOCATION": (
        "android.permission.ACCESS_FINE_LOCATION",
        "android.permission.ACCESS_COARSE_LOCATION",
    ),
    "MICROPHONE": ("android.permission.RECORD_AUDIO",),
    "PHONE": (
        "android.permission.READ_PHONE_STATE",
        "android.permission.READ_PHONE_NUMBERS",
        "android.permission.CALL_PHONE",
        "android.permission.ANSWER_PHONE_CALLS",
        "android.permission.READ_CALL_LOG",
        "android.permission.WRITE_CALL_LOG",
        "android.permission.ADD_VOICEMAIL",
        "android.permission.USE_SIP",
        "android.permission.PROCESS_OUTGOING_CALLS",
    ),
    "SENSORS": ("android.permission.BODY_SENSORS",),
    "SMS": (
        "android.permission.SEND_SMS",
        "android.permission.RECEIVE_SMS",
        "android.permission.READ_SMS",
        "android.permission.RECEIVE_WAP_PUSH",
        "android.permission.RECEIVE_MMS",
    ),
    "STORAGE": (
        "android.permission.READ_EXTERNAL_STORAGE",
        "android.permission.WRITE_EXTERNAL_STORAGE",
    ),
}

#: Flat, ordered tuple of all dangerous permissions (26 entries).
DANGEROUS_PERMISSIONS: tuple[str, ...] = tuple(
    permission
    for group in PERMISSION_GROUPS.values()
    for permission in group
)

_DANGEROUS_SET = frozenset(DANGEROUS_PERMISSIONS)


def is_dangerous(permission: str) -> bool:
    """True for permissions the user can grant/revoke at runtime."""
    return permission in _DANGEROUS_SET


@dataclass
class PermissionMap:
    """API method → required permissions, PScout-style.

    ``direct`` records permissions enforced *inside the method itself*;
    ``transitive`` closes ``direct`` over the framework call graph, so
    an API whose implementation eventually reaches an enforcement site
    is mapped even when the enforcement is buried several calls deep —
    the depth-sensitivity SAINTDroid gains by analyzing actual ADF code.
    """

    direct: dict[MethodRef, frozenset[str]] = field(default_factory=dict)
    transitive: dict[MethodRef, frozenset[str]] = field(default_factory=dict)

    def permissions_for(
        self, method: MethodRef, *, deep: bool = True
    ) -> frozenset[str]:
        """Permissions required to execute ``method``.

        ``deep=True`` consults the transitive map (SAINTDroid's view);
        ``deep=False`` the direct map only (a first-level tool's view).
        """
        table = self.transitive if deep else self.direct
        return table.get(method, frozenset())

    def dangerous_permissions_for(
        self, method: MethodRef, *, deep: bool = True
    ) -> frozenset[str]:
        return frozenset(
            p for p in self.permissions_for(method, deep=deep)
            if is_dangerous(p)
        )

    def add_direct(self, method: MethodRef, permissions: frozenset[str]) -> None:
        if permissions:
            merged = self.direct.get(method, frozenset()) | permissions
            self.direct[method] = merged

    def __len__(self) -> int:
        return len(self.transitive)
