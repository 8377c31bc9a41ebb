"""Tests for the ApiPicker's selection guarantees."""

import gc
import random
import weakref

import pytest

from repro.apk.manifest import MAX_API_LEVEL
from repro.core.arm import mine_spec
from repro.framework.catalog import curated_histories
from repro.framework.permissions import is_dangerous
from repro.framework.spec import FrameworkSpec
from repro.workload.appgen import ApiPicker


@pytest.fixture()
def rng():
    return random.Random(1)


@pytest.fixture()
def picker(apidb):
    return ApiPicker.of(apidb)


class TestSafeApi:
    def test_full_lifetime_and_no_permissions(self, picker, apidb, rng):
        for _ in range(20):
            entry = picker.safe_api(rng)
            assert entry.lifetime == (2, MAX_API_LEVEL)
            assert not entry.callback
            dangerous = {
                p for p in apidb.permissions_for(entry.ref)
                if is_dangerous(p)
            }
            assert not dangerous


class TestNewApi:
    def test_introduction_window(self, picker, rng):
        for _ in range(20):
            entry = picker.new_api(rng, 21, 26)
            assert 21 <= entry.lifetime[0] <= 26
            assert entry.lifetime[1] == MAX_API_LEVEL
            assert not entry.callback

    def test_empty_window_raises(self, picker, rng):
        with pytest.raises(LookupError):
            picker.new_api(rng, 30, 40)

    def test_deterministic_under_seed(self, picker):
        a = picker.new_api(random.Random(9), 21, 26)
        b = picker.new_api(random.Random(9), 21, 26)
        assert a.ref == b.ref


class TestRemovedApi:
    def test_alive_then_removed(self, picker, rng):
        for _ in range(10):
            entry = picker.removed_api(rng, 14)
            introduced, last = entry.lifetime
            assert introduced <= 14 <= last
            assert last < MAX_API_LEVEL


class TestSubclassableNewApi:
    def test_class_predates_method(self, picker, apidb, rng):
        for _ in range(15):
            entry = picker.subclassable_new_api(rng, 19, 20, 28)
            class_entry = apidb.clazz(entry.class_name)
            assert min(class_entry.levels) <= 19
            assert 20 <= entry.lifetime[0] <= 28


class TestNewCallback:
    def test_modeled_filter(self, picker, rng):
        modeled_classes = {
            "android.app.Activity", "android.app.Fragment",
            "android.app.Service", "android.webkit.WebView",
        }
        for _ in range(10):
            entry = picker.new_callback(rng, 14, 29, modeled=True)
            assert entry.callback
            assert entry.class_name in modeled_classes

    def test_unmodeled_filter(self, picker, rng):
        modeled_classes = {
            "android.app.Activity", "android.app.Fragment",
            "android.app.Service", "android.webkit.WebView",
        }
        for _ in range(10):
            entry = picker.new_callback(rng, 14, 29, modeled=False)
            assert entry.callback
            assert entry.class_name not in modeled_classes

    def test_never_the_permission_hook(self, picker, rng):
        for _ in range(30):
            entry = picker.new_callback(rng, 20, 29)
            assert entry.name != "onRequestPermissionsResult"


class TestPermissionApi:
    def test_bounded_dangerous_set(self, picker, apidb, rng):
        for _ in range(10):
            entry, permissions = picker.permission_api(rng)
            assert 1 <= len(permissions) <= 2
            assert all(is_dangerous(p) for p in permissions)
            assert entry.lifetime == (2, MAX_API_LEVEL)

    def test_deep_has_no_direct_enforcement(self, picker, apidb, rng):
        for _ in range(10):
            entry, permissions = picker.permission_api(rng, deep=True)
            direct = {
                p
                for p in apidb.permission_map.permissions_for(
                    entry.ref, deep=False
                )
                if is_dangerous(p)
            }
            assert not direct
            assert permissions

    def test_shallow_enforces_directly(self, picker, apidb, rng):
        for _ in range(10):
            entry, _ = picker.permission_api(rng, deep=False)
            direct = {
                p
                for p in apidb.permission_map.permissions_for(
                    entry.ref, deep=False
                )
                if is_dangerous(p)
            }
            assert direct


# ---------------------------------------------------------------------------
# per-database memo
# ---------------------------------------------------------------------------


def _curated_database():
    return mine_spec(FrameworkSpec(curated_histories()))


class TestMemo:
    def test_one_picker_per_database(self, apidb):
        assert ApiPicker.of(apidb) is ApiPicker.of(apidb)

    def test_distinct_databases_get_distinct_pickers(self):
        first, second = _curated_database(), _curated_database()
        assert ApiPicker.of(first) is not ApiPicker.of(second)

    def test_entry_dies_with_its_database(self):
        database = _curated_database()
        database_ref = weakref.ref(database)
        picker_ref = weakref.ref(ApiPicker.of(database))
        assert database in ApiPicker._memo
        del database
        gc.collect()
        assert database_ref() is None
        assert picker_ref() is None


# ---------------------------------------------------------------------------
# memoized candidate lists == brute-force filter of the catalog
# ---------------------------------------------------------------------------

LEVELS = range(2, MAX_API_LEVEL + 1)
MODELED = {
    "android.app.Activity", "android.app.Fragment",
    "android.app.Service", "android.webkit.WebView",
}


def _plain(f) -> bool:
    """Permission-free, behavior-stable, non-callback, not a
    constructor or initializer."""
    return (
        not f.entry.callback
        and not f.dangerous_permissions
        and not f.entry.semantic_deltas
        and not f.entry.name.startswith("<")
    )


def _windows():
    for low in LEVELS:
        for high in sorted({low, min(low + 3, MAX_API_LEVEL), MAX_API_LEVEL}):
            yield low, high


def _semantic_triples():
    for min_sdk in LEVELS:
        targets = {min_sdk, min(min_sdk + 5, MAX_API_LEVEL), MAX_API_LEVEL}
        for target in sorted(targets):
            for max_level in sorted({target, MAX_API_LEVEL}):
                yield min_sdk, target, max_level


def _grid(apidb):
    """(method name, args, kwargs, brute-force predicate) for every
    selection method over a grid of levels and every flag state."""
    yield "safe_api", (), {}, lambda f: (
        f.introduced == 2 and f.last == MAX_API_LEVEL and _plain(f)
    )
    for low, high in _windows():
        yield "new_api", (low, high), {}, (
            lambda f, low=low, high=high: low <= f.introduced <= high
            and f.last == MAX_API_LEVEL
            and f.contiguous
            and _plain(f)
        )
    for level in LEVELS:
        yield "removed_api", (level,), {}, (
            lambda f, level=level: f.introduced <= level <= f.last
            and f.last < MAX_API_LEVEL
            and f.contiguous
            and _plain(f)
        )
        for low, high in ((level, MAX_API_LEVEL), (level + 1, level + 4)):
            yield "subclassable_new_api", (level, low, high), {}, (
                lambda f, level=level, low=low, high=high: (
                    f.class_introduced <= level
                    and low <= f.introduced <= high
                    and f.last == MAX_API_LEVEL
                    and f.contiguous
                    and _plain(f)
                )
            )
        for modeled in (None, True, False):
            yield (
                "new_callback",
                (level, MAX_API_LEVEL),
                {"modeled": modeled},
                lambda f, level=level, modeled=modeled: (
                    f.entry.callback
                    and level <= f.introduced
                    and f.last == MAX_API_LEVEL
                    and f.contiguous
                    and f.class_introduced <= 2
                    and f.entry.name != "onRequestPermissionsResult"
                    and not f.entry.semantic_deltas
                    and modeled in (None, f.entry.class_name in MODELED)
                ),
            )

    def direct(f):
        return any(
            is_dangerous(p)
            for p in apidb.permission_map.permissions_for(
                f.entry.ref, deep=False
            )
        )

    for deep in (None, True, False):
        yield "permission_api", (), {"deep": deep}, (
            lambda f, deep=deep: 1 <= len(f.dangerous_permissions) <= 2
            and f.introduced == 2
            and f.last == MAX_API_LEVEL
            and not f.entry.callback
            and not f.entry.name.startswith("<")
            and not f.entry.semantic_deltas
            and (deep is None or deep != direct(f))
        )
    for min_sdk, target, max_level in _semantic_triples():
        for single in (False, True):
            def matters(level, min_sdk=min_sdk, target=target,
                        max_level=max_level):
                if level <= target:
                    return level > min_sdk
                return level <= max_level

            yield (
                "semantic_api",
                (),
                {
                    "min_sdk": min_sdk,
                    "target_sdk": target,
                    "max_level": max_level,
                    "single_delta": single,
                },
                lambda f, min_sdk=min_sdk, single=single, matters=matters: (
                    bool(f.entry.semantic_deltas)
                    and f.introduced <= min_sdk
                    and f.last == MAX_API_LEVEL
                    and f.contiguous
                    and not f.entry.callback
                    and not f.dangerous_permissions
                    and not f.entry.name.startswith("<")
                    and any(matters(d.level) for d in f.entry.semantic_deltas)
                    and (not single or len(f.entry.semantic_deltas) == 1)
                ),
            )


class TestCandidateParity:
    """Every memoized list is the brute-force filter of ``_facts``,
    element for element and in catalog order — the property that keeps
    seeded ``rng.choice`` draws, and so every generated app, unchanged."""

    @pytest.fixture(scope="class")
    def fresh(self, apidb):
        return ApiPicker(apidb)

    def test_memoized_lists_match_a_full_scan(self, fresh, apidb):
        drawn = []
        real_choose = fresh._choose

        def spy(rng, candidates):
            drawn.append(candidates)
            return real_choose(rng, candidates)

        fresh._choose = spy
        methods = set()
        for name, args, kwargs, predicate in _grid(apidb):
            methods.add(name)
            expected = [f for f in fresh._facts if predicate(f)]
            for _ in range(2):  # the build, then the memo hit
                try:
                    getattr(fresh, name)(random.Random(0), *args, **kwargs)
                except LookupError:
                    assert not expected, (name, args, kwargs)
                assert drawn[-1] == expected, (name, args, kwargs)
            assert drawn[-1] is drawn[-2], (name, args, kwargs)
        assert methods == {
            "safe_api", "new_api", "removed_api", "subclassable_new_api",
            "new_callback", "permission_api", "semantic_api",
        }
