"""Shared fixtures for the benchmarks.

The paper-anchor tests assert on the data of :mod:`repro.eval.results`
(the one producer of every committed result) through one session, so
the benchmark suite and the corpus sample are analyzed once.  Each
anchor file also checks, with :func:`assert_committed`, that the text
of the results it anchors equals the committed file byte for byte —
the same text ``python -m repro reproduce`` writes.  The ``BENCH_*``
harnesses publish their measurements under ``RESULTS_DIR``.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from repro.eval.results import Session

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def session() -> Session:
    return Session()


def assert_committed(session: Session, *names: str) -> None:
    """Each named result's text equals ``results/<name>`` byte for
    byte; a mismatch fails with a unified diff per stale file."""
    diffs = []
    for name in names:
        produced = session.result(name).text
        committed = (RESULTS_DIR / name).read_bytes()
        if produced.encode() != committed:
            diffs.append(
                "".join(
                    difflib.unified_diff(
                        committed.decode().splitlines(keepends=True),
                        produced.splitlines(keepends=True),
                        f"committed/{name}",
                        f"produced/{name}",
                    )
                )
            )
    assert not diffs, "\n".join(diffs)
