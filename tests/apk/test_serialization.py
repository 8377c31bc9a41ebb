"""Round-trip tests for the .sapk JSON format, including a
property-based round-trip over forged apps."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apk.serialization import (
    SerializationError,
    apk_from_dict,
    apk_to_dict,
    dumps,
    load_apk,
    loads,
    save_apk,
)
from repro.workload.appgen import AppForge

from tests.conftest import activity_class, make_apk


class TestRoundTrip:
    def test_simple_apk_round_trips(self, simple_apk):
        assert loads(dumps(simple_apk)) == simple_apk

    def test_round_trip_preserves_everything(self):
        apk = make_apk(
            [activity_class()],
            min_sdk=19,
            target_sdk=28,
            max_sdk=29,
            permissions=("android.permission.CAMERA",),
            buildable=False,
        )
        restored = loads(dumps(apk, indent=2))
        assert restored == apk
        assert restored.manifest.max_sdk == 29
        assert restored.manifest.buildable is False

    def test_file_round_trip(self, tmp_path, simple_apk):
        path = tmp_path / "app.sapk"
        save_apk(simple_apk, path)
        assert load_apk(path) == simple_apk

    def test_dict_round_trip(self, simple_apk):
        assert apk_from_dict(apk_to_dict(simple_apk)) == simple_apk


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            loads("{not json")

    def test_wrong_format_version(self, simple_apk):
        doc = apk_to_dict(simple_apk)
        doc["format"] = 999
        with pytest.raises(SerializationError, match="version"):
            apk_from_dict(doc)

    def test_missing_manifest(self, simple_apk):
        doc = apk_to_dict(simple_apk)
        del doc["manifest"]
        with pytest.raises(SerializationError):
            apk_from_dict(doc)

    def test_malformed_instruction(self, simple_apk):
        doc = apk_to_dict(simple_apk)
        doc["dexFiles"][0]["classes"][0]["methods"][0]["code"] = [["zz"]]
        with pytest.raises(SerializationError):
            apk_from_dict(doc)


class TestPropertyRoundTrip:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**16),
        min_sdk=st.integers(10, 21),
        direct=st.integers(0, 2),
        callbacks=st.integers(0, 2),
    )
    def test_forged_apps_round_trip(self, apidb_session,
                                    seed, min_sdk, direct, callbacks):
        forge = AppForge(
            "com.prop.app",
            "PropApp",
            min_sdk=min_sdk,
            target_sdk=26,
            seed=seed,
            apidb=apidb_session,
        )
        for _ in range(direct):
            forge.add_direct_issue()
        for _ in range(callbacks):
            forge.add_callback_issue(modeled=False)
        forge.add_secondary_dex_issue()
        forge.add_filler(kloc=0.3)
        apk = forge.build().apk
        assert loads(dumps(apk)) == apk

    @pytest.fixture(scope="class")
    def apidb_session(self, apidb):
        return apidb
