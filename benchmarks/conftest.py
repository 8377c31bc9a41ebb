"""Shared fixtures for the benchmarks.

The paper-anchor tests assert on the data of :mod:`repro.eval.results`
(the one producer of every committed result) through one session, so
the benchmark suite and the corpus sample are analyzed once.  The
``BENCH_*`` harnesses publish their measurements under ``RESULTS_DIR``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.eval.results import Session

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def session() -> Session:
    return Session()
