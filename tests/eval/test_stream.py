"""The orchestration engine (:func:`run_stream`), the batch runs it
drives (:func:`run_corpus`), and the full-jitter backoff, unit-tested
with stub sources/backends.

Stub entries reuse the engine's ``(index, forged, attempt)`` shape
with plain :class:`AppResult` values — no analysis, no processes — so
these pin the *scheduling* contract: every taken entry gets exactly
one terminal deliver, retryable failures re-enter with jittered
delays, and the loop ends only when the source is closed AND drained.
"""

from __future__ import annotations

import random

from repro.core.errors import AnalysisError, AnalysisPhase, ErrorKind
from repro.eval.orchestration import (
    CorpusBackend,
    JobSource,
    run_corpus,
    run_stream,
)
from repro.eval.runner import BACKOFF_CAP_FACTOR, _full_jitter_backoff
from repro.eval.runner import AppResult, _bounded_backoff
from repro.workload.groundtruth import GroundTruth


def _result(app: str, *, fail_kind: ErrorKind | None = None) -> AppResult:
    error = None
    if fail_kind is not None:
        error = AnalysisError(
            kind=fail_kind,
            phase=AnalysisPhase.TOOL,
            message="stub failure",
            retryable=fail_kind
            in (ErrorKind.TIMEOUT, ErrorKind.WORKER_LOST),
            attempts=1,
        )
    return AppResult(
        app=app, truth=GroundTruth(app=app), kloc=1.0, error=error
    )


class _ListSource(JobSource):
    """Feeds a fixed batch of entries, then reports closed."""

    def __init__(self, count: int) -> None:
        self.fresh = [(i, f"app-{i}", 0) for i in range(count)]
        self.delivered: list[tuple[int, int, AppResult]] = []

    def take(self, limit, timeout_s):
        if not self.fresh:
            return None
        out, self.fresh = self.fresh[:limit], self.fresh[limit:]
        return out

    def deliver(self, entry, result):
        self.delivered.append((entry[0], entry[2], result))


class _StubBackend(CorpusBackend):
    """Scripted per-index outcomes: ``fail_until[i]`` attempts fail
    retryably, then the entry succeeds."""

    def __init__(
        self,
        fail_until: dict[int, int] | None = None,
        permanent: frozenset[int] = frozenset(),
    ) -> None:
        self.fail_until = fail_until or {}
        self.permanent = permanent
        self.prepared = 0
        self.dispatched: list[tuple[int, int]] = []
        #: The ``(index, attempt)`` entries of each ``run_round`` call.
        self.rounds: list[list[tuple[int, int]]] = []

    @property
    def spec(self):  # pragma: no cover — unused by run_stream
        return None

    @property
    def tool_names(self):
        return ("stub",)

    def prepare(self, pending=()):
        self.prepared += 1

    def run_round(self, pending):
        self.rounds.append([(index, attempt) for index, _, attempt in pending])
        out = []
        for entry in pending:
            index, app, attempt = entry
            self.dispatched.append((index, attempt))
            if index in self.permanent:
                out.append((entry, _result(app, fail_kind=ErrorKind.CRASH)))
            elif attempt < self.fail_until.get(index, 0):
                out.append(
                    (entry, _result(app, fail_kind=ErrorKind.TIMEOUT))
                )
            else:
                out.append((entry, _result(app)))
        return out

    def finish(self):
        return {}

    def close(self):
        pass


class TestRunStream:
    def test_every_entry_delivered_exactly_once(self):
        source = _ListSource(9)
        stats = run_stream(source, _StubBackend(), batch_limit=4)
        assert stats["analyzed"] == 9
        assert stats["quarantined"] == 0
        assert sorted(i for i, _a, _r in source.delivered) == list(range(9))

    def test_retryable_failures_recover_within_budget(self):
        source = _ListSource(4)
        backend = _StubBackend(fail_until={2: 2})
        stats = run_stream(
            source, backend, max_retries=2, poll_s=0.01
        )
        assert stats["retried"] == 2
        assert stats["quarantined"] == 0
        by_index = {i: r for i, _a, r in source.delivered}
        assert by_index[2].error is None
        # The recovered entry was dispatched on attempts 0, 1, 2.
        assert [a for i, a in backend.dispatched if i == 2] == [0, 1, 2]

    def test_budget_exhaustion_quarantines_terminally(self):
        source = _ListSource(3)
        stats = run_stream(
            source,
            _StubBackend(fail_until={1: 99}),
            max_retries=2,
            poll_s=0.01,
        )
        assert stats["quarantined"] == 1
        delivered = {i: r for i, _a, r in source.delivered}
        assert len(source.delivered) == 3  # exactly one deliver each
        assert delivered[1].error is not None

    def test_non_retryable_failure_skips_the_retry_window(self):
        source = _ListSource(2)
        backend = _StubBackend(permanent=frozenset({0}))
        stats = run_stream(source, backend, max_retries=3)
        assert stats["retried"] == 0
        assert stats["quarantined"] == 1
        assert all(a == 0 for _i, a in backend.dispatched)

    def test_prepare_runs_once_on_first_batch(self):
        backend = _StubBackend()
        run_stream(_ListSource(6), backend, batch_limit=2)
        assert backend.prepared == 1

    def test_empty_closed_source_terminates_immediately(self):
        source = _ListSource(0)
        stats = run_stream(source, _StubBackend())
        assert stats["analyzed"] == 0


class TestRunCorpus:
    """A batch run is a stream over a closed source.  The ledger reads
    ``eval.retries`` as the number of ``run_round`` calls after the
    first, so the dispatch count is part of the contract."""

    @staticmethod
    def _apps(count: int) -> list[str]:
        return [f"app-{i}" for i in range(count)]

    def test_fault_free_corpus_dispatches_once(self):
        backend = _StubBackend()
        out = run_corpus(self._apps(7), backend)
        assert backend.rounds == [[(i, 0) for i in range(7)]]
        assert backend.prepared == 1
        assert [r.app for r in out.results] == self._apps(7)

    def test_each_retry_wave_is_one_dispatch_in_index_order(self):
        # Failures are yielded out of index order; each wave must still
        # go back out together, sorted by index.
        backend = _ReversedStubBackend(fail_until={5: 2, 1: 1, 3: 2})
        out = run_corpus(self._apps(6), backend, max_retries=2)
        assert backend.rounds == [
            [(i, 0) for i in range(6)],
            [(1, 1), (3, 1), (5, 1)],
            [(3, 2), (5, 2)],
        ]
        assert all(r.ok for r in out.results)
        assert [r.app for r in out.results] == self._apps(6)


class _ReversedStubBackend(_StubBackend):
    """Yields each batch's results in reverse dispatch order, as a pool
    may."""

    def run_round(self, pending):
        return list(reversed(super().run_round(pending)))


class TestFullJitterBackoff:
    def test_within_the_bounded_envelope(self):
        rng = random.Random(7)
        for attempt in range(1, 40):
            delay = _full_jitter_backoff(0.5, attempt, rng)
            assert 0.0 <= delay <= _bounded_backoff(0.5, attempt)
            assert delay <= 0.5 * BACKOFF_CAP_FACTOR

    def test_samples_the_full_interval(self):
        # AWS full jitter: uniform over [0, ceiling] — distinct draws
        # must actually differ (the whole point is decorrelation).
        rng = random.Random(11)
        draws = {
            round(_full_jitter_backoff(1.0, 3, rng), 6)
            for _ in range(16)
        }
        assert len(draws) > 1
        assert max(draws) <= _bounded_backoff(1.0, 3)

    def test_deterministic_under_a_seeded_rng(self):
        assert _full_jitter_backoff(
            1.0, 2, random.Random(42)
        ) == _full_jitter_backoff(1.0, 2, random.Random(42))

    def test_zero_base_is_immediate(self):
        assert _full_jitter_backoff(0.0, 5) == 0.0
