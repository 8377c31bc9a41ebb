"""ARM — the Android Revision Modeler (paper section III-B).

Builds the :class:`~repro.core.apidb.ApiDatabase` by mining the
framework revision history.  Two mining strategies are provided:

* :func:`mine_images` — the faithful path: materialize the framework
  *image* of every API level and recover all facts **from code**:
  method presence by enumeration, callback-ness from the framework's
  own dispatch sites, permission requirements from enforcement call
  sites via the reaching string-constants analysis, and the framework
  call graph from invoke instructions.  Nothing is read from the spec's
  declarative flags.
* :func:`mine_spec` — the fast path reading the declarative histories
  directly.  It produces an identical database (asserted by tests) in
  a fraction of the time and is the default for large benchmark runs.

Both paths finish by closing the permission map transitively over the
framework call graph, which is what maps APIs whose enforcement sits
several calls deep — facts a first-level analysis never sees.
"""

from __future__ import annotations

from collections import defaultdict

from ..apk.manifest import MAX_API_LEVEL, MIN_API_LEVEL
from ..framework.generator import (
    DISPATCH_PREFIX,
    ENFORCEMENT_METHOD,
    SEMANTICS_PREFIX,
    parse_semantic_tag,
)
from ..framework.permissions import PermissionMap
from ..framework.repository import FrameworkRepository
from ..framework.spec import FrameworkSpec, SemanticDelta
from ..ir.instructions import ConstString, Invoke
from ..ir.types import MethodRef
from ..analysis.reaching import strings_at_invocations
from .apidb import ApiClassEntry, ApiDatabase, ApiEntry

__all__ = [
    "mine_spec",
    "mine_images",
    "close_permissions",
    "build_api_database",
    "cached_database",
    "register_database",
]

_ALL_LEVELS = tuple(range(MIN_API_LEVEL, MAX_API_LEVEL + 1))


def close_permissions(
    direct: dict[MethodRef, frozenset[str]],
    edges: dict[MethodRef, frozenset[MethodRef]],
) -> dict[MethodRef, frozenset[str]]:
    """Propagate permissions backward over call edges to a fixpoint.

    A method requires every permission required by any method it may
    call (the framework call graph may contain cycles, hence the
    worklist rather than a simple topological pass).
    """
    transitive: dict[MethodRef, set[str]] = defaultdict(set)
    for method, permissions in direct.items():
        transitive[method] |= permissions

    reverse: dict[MethodRef, set[MethodRef]] = defaultdict(set)
    for caller, callees in edges.items():
        for callee in callees:
            reverse[callee].add(caller)

    worklist = list(transitive)
    while worklist:
        method = worklist.pop()
        permissions = transitive[method]
        for caller in reverse.get(method, ()):
            before = len(transitive[caller])
            transitive[caller] |= permissions
            if len(transitive[caller]) != before:
                worklist.append(caller)

    return {
        method: frozenset(permissions)
        for method, permissions in transitive.items()
        if permissions
    }


def _assemble(
    class_levels: dict[str, set[int]],
    class_supers: dict[str, str | None],
    method_levels: dict[MethodRef, set[int]],
    callbacks: set[MethodRef],
    direct_permissions: dict[MethodRef, frozenset[str]],
    call_edges: dict[MethodRef, frozenset[MethodRef]],
    semantics: dict[MethodRef, set[SemanticDelta]] | None = None,
) -> ApiDatabase:
    """Shared final assembly for both mining paths."""
    semantics = semantics or {}
    classes: dict[str, ApiClassEntry] = {}
    for name, levels in class_levels.items():
        classes[name] = ApiClassEntry(
            name=name,
            super_name=class_supers.get(name),
            levels=frozenset(levels),
        )
    for ref, levels in method_levels.items():
        deltas = tuple(sorted(
            semantics.get(ref, ()),
            key=lambda d: (d.level, d.change, d.detail),
        ))
        entry = ApiEntry(
            class_name=ref.class_name,
            name=ref.name,
            descriptor=ref.descriptor,
            levels=frozenset(levels),
            callback=ref in callbacks,
            semantic_deltas=deltas,
        )
        classes[ref.class_name].methods[entry.signature] = entry

    permission_map = PermissionMap(
        direct=dict(direct_permissions),
        transitive=close_permissions(direct_permissions, call_edges),
    )
    return ApiDatabase(classes, permission_map)


# ---------------------------------------------------------------------------
# fast path: mine the declarative histories
# ---------------------------------------------------------------------------

def mine_spec(spec: FrameworkSpec) -> ApiDatabase:
    """Build the database straight from the revision histories."""
    class_levels: dict[str, set[int]] = {}
    class_supers: dict[str, str | None] = {}
    method_levels: dict[MethodRef, set[int]] = {}
    callbacks: set[MethodRef] = set()
    direct_permissions: dict[MethodRef, frozenset[str]] = {}
    call_edges: dict[MethodRef, frozenset[MethodRef]] = {}
    semantics: dict[MethodRef, set[SemanticDelta]] = {}

    for name in spec.class_names:
        history = spec.clazz(name)
        class_supers[name] = history.super_name
        class_levels[name] = {
            level for level in _ALL_LEVELS if history.exists_at(level)
        }
        for method in history.methods:
            ref = MethodRef(name, method.name, method.descriptor)
            method_levels[ref] = {
                level for level in _ALL_LEVELS if method.exists_at(level)
            }
            if method.callback:
                callbacks.add(ref)
            if method.permissions:
                direct_permissions[ref] = frozenset(method.permissions)
            if method.calls:
                call_edges[ref] = frozenset(method.calls)
            if method.semantics:
                semantics[ref] = set(method.semantics)

    return _assemble(
        class_levels, class_supers, method_levels, callbacks,
        direct_permissions, call_edges, semantics,
    )


# ---------------------------------------------------------------------------
# faithful path: mine materialized framework images
# ---------------------------------------------------------------------------

def mine_images(
    repository: FrameworkRepository,
    levels: tuple[int, ...] = _ALL_LEVELS,
) -> ApiDatabase:
    """Build the database by analyzing framework *code* per level."""
    class_levels: dict[str, set[int]] = defaultdict(set)
    class_supers: dict[str, str | None] = {}
    method_levels: dict[MethodRef, set[int]] = defaultdict(set)
    callbacks: set[MethodRef] = set()
    direct_permissions: dict[MethodRef, set[str]] = defaultdict(set)
    call_edges: dict[MethodRef, set[MethodRef]] = defaultdict(set)
    semantics: dict[MethodRef, set[SemanticDelta]] = defaultdict(set)

    for level in levels:
        image = repository.load_image(level)
        for name, clazz in image.items():
            class_levels[name].add(level)
            class_supers[name] = clazz.super_name
            for method in clazz.methods:
                is_dispatcher = method.name.startswith(DISPATCH_PREFIX)
                is_manifest = method.name.startswith(SEMANTICS_PREFIX)
                if not (is_dispatcher or is_manifest):
                    method_levels[method.ref].add(level)
                if method.body is None:
                    continue

                # Semantic-delta discovery: decode the class's inert
                # manifest method (const-string tags only).
                if is_manifest:
                    for instruction in method.body.instructions:
                        if not isinstance(instruction, ConstString):
                            continue
                        parsed = parse_semantic_tag(instruction.value)
                        if parsed is None:
                            continue
                        signature, delta_level, change, detail = parsed
                        method_name, _, rest = signature.partition("(")
                        ref = MethodRef(name, method_name, f"({rest}")
                        semantics[ref].add(
                            SemanticDelta(delta_level, change, detail)
                        )
                    continue

                # Callback discovery: targets the framework dispatches
                # into are overridable hooks.
                if is_dispatcher:
                    for instruction in method.body.instructions:
                        if isinstance(instruction, Invoke):
                            callbacks.add(instruction.method)
                    continue

                # Permission discovery: enforcement sites with the
                # permission string recovered by dataflow.
                has_enforcement = any(
                    invoke.method == ENFORCEMENT_METHOD
                    for invoke in method.invocations
                )
                if has_enforcement:
                    for invoke, resolved in strings_at_invocations(method):
                        if invoke.method != ENFORCEMENT_METHOD:
                            continue
                        for permission in resolved.get(0, frozenset()):
                            direct_permissions[method.ref].add(permission)

                # Framework call graph for the transitive closure.
                for invoke in method.invocations:
                    if invoke.method == ENFORCEMENT_METHOD:
                        continue
                    call_edges[method.ref].add(invoke.method)

    return _assemble(
        {k: set(v) for k, v in class_levels.items()},
        class_supers,
        {k: set(v) for k, v in method_levels.items()},
        callbacks,
        {k: frozenset(v) for k, v in direct_permissions.items()},
        {k: frozenset(v) for k, v in call_edges.items()},
        {k: set(v) for k, v in semantics.items()},
    )


# ---------------------------------------------------------------------------
# cached default
# ---------------------------------------------------------------------------

#: ``id(spec)`` → ``(spec, database)``.  The entry keeps its spec
#: alive and every lookup checks ``is``, so a collected spec's address
#: reused by a new spec can never hand over the old database.
_DEFAULT_CACHE: dict[int, tuple[FrameworkSpec, ApiDatabase]] = {}


def _cached(spec: FrameworkSpec) -> ApiDatabase | None:
    entry = _DEFAULT_CACHE.get(id(spec))
    if entry is None or entry[0] is not spec:
        return None
    return entry[1]


def build_api_database(
    repository: FrameworkRepository | None = None,
    *,
    from_images: bool = False,
) -> ApiDatabase:
    """The database for ``repository`` (default framework, cached).

    ``from_images=True`` selects the faithful mining path; the default
    mines the spec, which tests assert is equivalent.
    """
    if repository is None:
        repository = FrameworkRepository()
    if from_images:
        return mine_images(repository)
    spec = repository.spec
    apidb = _cached(spec)
    if apidb is None:
        apidb = mine_spec(spec)
        register_database(spec, apidb)
    return apidb


def cached_database(spec: FrameworkSpec) -> ApiDatabase | None:
    """The already-built database for this exact spec object, if any.

    Keyed by object identity like :func:`build_api_database`'s memo:
    under the fork start method a pool worker (a respawned one too)
    inherits the parent's built database and must reuse it instead of
    re-mining.
    """
    return _cached(spec)


def register_database(spec: FrameworkSpec, apidb: ApiDatabase) -> None:
    """Adopt a database built elsewhere (e.g. loaded from a framework
    snapshot) so later :func:`build_api_database` calls over the same
    spec object are dictionary hits."""
    _DEFAULT_CACHE[id(spec)] = (spec, apidb)
