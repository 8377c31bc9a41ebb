"""Crash/resume equivalence for agreement campaigns.

A compare campaign journals each configuration's completed results to
its own JSONL checkpoint.  Killing the campaign mid-run (simulated by
truncating one journal mid-stream and deleting another entirely —
the on-disk state an actual ``kill -9`` leaves behind, including a
torn final record) and re-running against the same checkpoint
directory must reproduce the canonical report and the blind-spot
artifact byte for byte.  Worker-death injection from ``eval.faults``
covers the in-flight crash path on top of the on-disk one.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.eval.compare import (
    CompareConfig,
    blind_spot_document,
    canonical_json,
    run_compare,
)
from repro.eval.faults import FaultKind, FaultPlan, InjectedFault

CONFIGS = ("SAINTDroid", "CID")
SEED = 515
N_APPS = 10


@pytest.fixture(scope="module")
def baseline(framework, apidb):
    """The uninterrupted campaign every resumed run must match."""
    result = run_compare(
        CompareConfig(seed=SEED, n_apps=N_APPS, configs=CONFIGS),
        substrate=(framework, apidb),
    )
    return (
        canonical_json(result.report),
        canonical_json(blind_spot_document(result.report)),
    )


def _campaign(tmp_path, framework, apidb, **overrides):
    config = CompareConfig(
        seed=SEED,
        n_apps=N_APPS,
        configs=CONFIGS,
        checkpoint_dir=str(tmp_path / "ckpt"),
        **overrides,
    )
    return run_compare(config, substrate=(framework, apidb))


def _kill(checkpoint_dir: Path) -> None:
    """Leave the directory as a mid-campaign SIGKILL would: the first
    configuration's journal cut mid-stream with a torn final record,
    the second configuration never started."""
    first = checkpoint_dir / f"compare-{CONFIGS[0]}.jsonl"
    lines = first.read_text().splitlines(keepends=True)
    assert len(lines) == 1 + N_APPS  # header + one record per app
    first.write_text("".join(lines[:5]) + lines[5][: len(lines[5]) // 2])
    (checkpoint_dir / f"compare-{CONFIGS[1]}.jsonl").unlink()


def test_kill_and_resume_is_byte_identical(
    tmp_path, baseline, framework, apidb
):
    full = _campaign(tmp_path, framework, apidb)
    assert canonical_json(full.report) == baseline[0]

    _kill(tmp_path / "ckpt")
    resumed = _campaign(tmp_path, framework, apidb)

    # Only the journaled prefix was restored; the rest re-analyzed.
    assert resumed.runs[CONFIGS[0]].resumed_indices == (0, 1, 2, 3)
    assert resumed.runs[CONFIGS[1]].resumed_indices == ()
    assert canonical_json(resumed.report) == baseline[0]
    assert (
        canonical_json(blind_spot_document(resumed.report))
        == baseline[1]
    )


def test_resume_crosses_schedulers(
    tmp_path, baseline, framework, apidb
):
    """A serial campaign's journal resumes under ``--jobs 2`` — the
    checkpoint format carries no scheduler state."""
    _campaign(tmp_path, framework, apidb)
    _kill(tmp_path / "ckpt")
    resumed = _campaign(tmp_path, framework, apidb, jobs=2)
    assert resumed.runs[CONFIGS[0]].resumed_indices == (0, 1, 2, 3)
    assert canonical_json(resumed.report) == baseline[0]


def test_worker_death_recovery_matches_baseline(
    baseline, framework, apidb
):
    """An in-flight worker death on a retrying pool changes nothing:
    the app is re-dispatched and the campaign's matrices are byte-
    identical to the fault-free run."""
    plan = FaultPlan(
        faults={
            3: InjectedFault(FaultKind.WORKER_DEATH, fail_attempts=1)
        }
    )
    result = run_compare(
        CompareConfig(
            seed=SEED,
            n_apps=N_APPS,
            configs=CONFIGS,
            jobs=2,
            max_retries=1,
            fault_plan=plan,
        ),
        substrate=(framework, apidb),
    )
    assert canonical_json(result.report) == baseline[0]

