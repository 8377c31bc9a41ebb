"""Serve-suite fixtures.

The session substrate (``framework``/``apidb`` from the root
conftest) is passed straight into :class:`AnalysisService`, so the
daemon tests never pay a second substrate build — forked workers
inherit the session's objects as copy-on-write pages exactly like
production fork pools do.
"""

from __future__ import annotations

import pytest

from repro.apk.serialization import apk_to_dict
from repro.serve import AnalysisService, ServeConfig

from tests.conftest import activity_class, make_apk


def serve_apk(tag: str, **kwargs):
    """A small distinct package per ``tag`` (distinct fingerprints)."""
    package = f"com.serve.{tag}"
    return make_apk(
        [activity_class(package=package)], package=package, **kwargs
    )


def serve_apk_doc(tag: str, **kwargs) -> dict:
    return apk_to_dict(serve_apk(tag, **kwargs))


@pytest.fixture()
def substrate(framework, apidb):
    return (framework, apidb)


@pytest.fixture()
def make_service(spec, substrate, tmp_path):
    """Factory for started in-process daemons; drains leftovers."""
    services: list[AnalysisService] = []

    def _make(**overrides) -> AnalysisService:
        defaults = dict(
            workers=2,
            include=("SAINTDroid",),
            timeout_s=10.0,
            max_retries=2,
            retry_backoff_s=0.0,
            journal=str(tmp_path / f"wal{len(services)}.jsonl"),
        )
        defaults.update(overrides)
        config = ServeConfig(**defaults)
        service = AnalysisService(config, spec, substrate=substrate)
        services.append(service)
        return service.start()

    yield _make
    for service in services:
        service.drain(timeout_s=30.0)
