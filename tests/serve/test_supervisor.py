"""The resident worker pool as the daemon runs it: dispatch, death,
hangs, respawn."""

from __future__ import annotations

import os
import pickle
import signal
import time

import pytest

from repro.core.errors import ErrorKind
from repro.eval.faults import FaultKind, FaultPlan, InjectedFault
from repro.eval.parallel import PoolBackend
from repro.eval.runner import ToolSet, analyze_app

from tests.conftest import activity_class, make_apk
from repro.workload.appgen import ForgedApp
from repro.workload.groundtruth import GroundTruth


def _forged(tag: str) -> ForgedApp:
    package = f"com.sup.{tag}"
    apk = make_apk(
        [activity_class(package=package)], package=package
    )
    return ForgedApp(apk=apk, truth=GroundTruth(app=apk.name))


@pytest.fixture()
def pool(framework, apidb):
    sup = PoolBackend(
        ToolSet.default(framework, apidb, include=("SAINTDroid",)),
        workers=2,
        timeout_s=10.0,
        hang_timeout_s=20.0,
    )
    sup.start()
    yield sup
    sup.close()


class TestDispatch:
    def test_round_results_match_in_process_analysis(
        self, pool, framework, apidb
    ):
        entries = [(i, _forged(f"d{i}"), 0) for i in range(4)]
        out = pool.run_round(entries, 0)
        assert len(out) == 4
        toolset = ToolSet.default(
            framework, apidb, include=("SAINTDroid",)
        )
        by_seq = {entry[0]: result for entry, result in out}
        for seq, forged, _attempt in entries:
            expected = analyze_app(toolset, forged)
            assert (
                by_seq[seq].fingerprint() == expected.fingerprint()
            )

    def test_pool_survives_consecutive_rounds(self, pool):
        for round_no in range(3):
            entries = [(round_no * 10, _forged(f"r{round_no}"), 0)]
            out = pool.run_round(entries, round_no)
            assert out[0][1].error is None
        assert pool.restarts == 0
        assert pool.liveness()["alive"] == 2


class TestWorkerDeath:
    def test_killed_worker_is_synthesized_and_respawned(
        self, pool
    ):
        plan = FaultPlan(
            faults={
                1: InjectedFault(
                    FaultKind.WORKER_DEATH, fail_attempts=1
                )
            }
        )
        pool.fault_plan = plan
        entries = [(i, _forged(f"k{i}"), 0) for i in range(3)]
        out = pool.run_round(entries, 0)
        assert len(out) == 3
        by_seq = {entry[0]: result for entry, result in out}
        lost = by_seq[1]
        assert lost.error is not None
        assert lost.error.kind is ErrorKind.WORKER_LOST
        assert lost.error.retryable
        # The other entries were unharmed.
        assert by_seq[0].error is None
        assert by_seq[2].error is None
        assert pool.restarts >= 1
        liveness = pool.liveness()
        assert liveness["alive"] == liveness["workers"] == 2
        # The slot is genuinely usable again (retry attempt 1: the
        # transient fault is spent, the app recovers).
        pool.fault_plan = None
        retry = pool.run_round([(1, _forged("k1"), 1)], 1)
        assert retry[0][1].error is None

    def test_externally_killed_worker(self, pool):
        victim = pool.liveness()["pids"][0]
        os.kill(victim, signal.SIGKILL)
        out = pool.run_round([(7, _forged("ext"), 0)], 0)
        # Either the dead slot was respawned before dispatch (clean
        # result) or its loss was synthesized retryably; both keep
        # the daemon alive and the pool full.
        assert len(out) == 1
        result = out[0][1]
        assert result.error is None or result.error.retryable
        liveness = pool.liveness()
        assert liveness["alive"] == 2


class TestHungWorker:
    def test_wedged_worker_is_killed_and_replaced(
        self, framework, apidb
    ):
        sup = PoolBackend(
            ToolSet.default(framework, apidb, include=("SAINTDroid",)),
            workers=1,
            timeout_s=None,  # no in-worker deadline: force the
            hang_timeout_s=0.5,  # parent-side backstop to fire
        )
        sup.start()
        try:
            plan = FaultPlan(
                faults={
                    0: InjectedFault(
                        FaultKind.HANG, fail_attempts=1, hang_s=30.0
                    )
                }
            )
            sup.fault_plan = plan
            out = sup.run_round([(0, _forged("hang"), 0)], 0)
            result = out[0][1]
            assert result.error is not None
            assert result.error.kind is ErrorKind.WORKER_LOST
            assert sup.restarts == 1
            assert sup.liveness()["alive"] == 1
        finally:
            sup.close()

    def test_hang_fires_with_a_large_app_queued(
        self, framework, apidb
    ):
        """The parent sends a task only to an idle worker.  An app
        larger than the socket buffers, queued behind a wedged worker,
        must not block the parent's send(): the hang deadline still
        fires and the large app runs on the respawned slot."""
        package = "com.sup.big"
        # Few classes with long names: large to pickle, quick to
        # analyze within the short hang deadline.
        big_apk = make_apk(
            [
                activity_class(package=package, name=f"C{i}" + "x" * 4000)
                for i in range(300)
            ],
            package=package,
        )
        big = ForgedApp(apk=big_apk, truth=GroundTruth(app=big_apk.name))
        assert len(pickle.dumps(big)) > 1 << 20
        sup = PoolBackend(
            ToolSet.default(framework, apidb, include=("SAINTDroid",)),
            workers=1,
            timeout_s=None,
            hang_timeout_s=0.5,
        )
        # No pending apps at start: every task ships its app, as in
        # the daemon.
        sup.start()
        try:
            sup.fault_plan = FaultPlan(
                faults={
                    0: InjectedFault(
                        FaultKind.HANG, fail_attempts=1, hang_s=60.0
                    )
                }
            )
            started = time.monotonic()
            out = sup.run_round([(0, _forged("hang"), 0), (1, big, 0)], 0)
            elapsed = time.monotonic() - started
            by_seq = {entry[0]: result for entry, result in out}
            assert by_seq[0].error is not None
            assert by_seq[0].error.kind is ErrorKind.WORKER_LOST
            assert by_seq[1].error is None
            assert elapsed < 15.0
        finally:
            sup.close()


class TestClose:
    def test_close_is_idempotent_and_clears_the_pool(
        self, framework, apidb
    ):
        sup = PoolBackend(
            ToolSet.default(framework, apidb, include=("SAINTDroid",)),
            workers=2,
        )
        sup.start()
        pids = [p for p in sup.liveness()["pids"] if p]
        sup.close()
        sup.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
