"""Deterministic fault injection for chaos-testing corpus runs.

You cannot trust a fault-tolerance layer you have never watched
survive a fault.  This module breaks corpus runs *on purpose*: a
seed-driven :class:`FaultPlan` maps chosen corpus indices to
:class:`InjectedFault` values, and the runner/parallel engines trigger
them at analysis time — in the exact code paths real failures take.

Fault kinds mirror the operational taxonomy
(:mod:`repro.core.errors`):

* ``crash``   — the analyzer raises (→ ``ErrorKind.CRASH``,
  non-retryable, quarantined on first failure);
* ``corrupt`` — the package is rejected as malformed
  (→ ``ErrorKind.PARSE``, non-retryable);
* ``hang``    — the analysis sleeps past its deadline
  (→ ``ErrorKind.TIMEOUT``, retryable);
* ``worker-death`` — the worker process exits abruptly
  (→ ``ErrorKind.WORKER_LOST``, retryable).  In pool workers this is
  a real ``os._exit`` (the parent sees the worker die and respawns
  its slot); in serial runs it is simulated with a raised
  :class:`~repro.core.errors.WorkerLostError`.

``fail_attempts`` makes a fault *transient*: it fires only while the
0-based attempt number is below the threshold, so a retrying engine
recovers the app.  ``fail_attempts=None`` is permanent — the app must
end up quarantined.  Everything is derived from the seed, so a chaos
run is exactly reproducible.
"""

from __future__ import annotations

import enum
import os
import random
import time
from dataclasses import dataclass, field

from ..core.errors import WorkerLostError

__all__ = [
    "FaultKind",
    "ANALYSIS_FAULT_KINDS",
    "STREAM_FAULT_KINDS",
    "InjectedFault",
    "FaultPlan",
    "CorruptApkError",
    "InjectedCrashError",
]


class CorruptApkError(Exception):
    """Injected stand-in for a package too malformed to ingest
    (classified as ``ErrorKind.PARSE``)."""


class InjectedCrashError(RuntimeError):
    """Injected stand-in for an analyzer bug
    (classified as ``ErrorKind.CRASH``)."""


class FaultKind(enum.Enum):
    CRASH = "crash"
    HANG = "hang"
    CORRUPT = "corrupt"
    WORKER_DEATH = "worker-death"
    # Daemon-relevant kinds (serve mode).  These fire in the *job
    # stream* — the queue/journal/drain machinery — not inside an
    # app's analysis, so the analysis-path trigger() treats them as
    # no-ops and ``expected_quarantine`` never counts them (a healthy
    # daemon absorbs them without losing the job).
    SLOW_CONSUMER = "slow-consumer"
    PARTIAL_WRITE = "partial-write"
    DRAIN_SIGTERM = "drain-sigterm"


#: Kinds that fire inside an app's analysis (worker side).
ANALYSIS_FAULT_KINDS = (
    FaultKind.CRASH,
    FaultKind.HANG,
    FaultKind.CORRUPT,
    FaultKind.WORKER_DEATH,
)

#: Kinds that fire in the daemon's job stream instead: the dispatcher
#: stalls before consuming the job (``slow-consumer``), or the job's
#: write-ahead journal record is torn mid-write (``partial-write``).
#: ``drain-sigterm`` is a whole-run fault: a second SIGTERM arrives
#: while the daemon is already draining.
STREAM_FAULT_KINDS = (
    FaultKind.SLOW_CONSUMER,
    FaultKind.PARTIAL_WRITE,
    FaultKind.DRAIN_SIGTERM,
)


@dataclass(frozen=True)
class InjectedFault:
    """One planned fault on one corpus index."""

    kind: FaultKind
    #: Fires while ``attempt < fail_attempts``; ``None`` = always
    #: (permanent).  ``fail_attempts=1`` fails the first attempt only
    #: — a retrying engine recovers the app.
    fail_attempts: int | None = 1
    #: How long an injected hang sleeps.  Pair with a per-app
    #: ``timeout_s`` below this to turn the hang into a timeout; a
    #: hang is deliberately bounded so a run without deadlines is
    #: delayed, never wedged.
    hang_s: float = 30.0

    def fires(self, attempt: int) -> bool:
        return self.fail_attempts is None or attempt < self.fail_attempts

    def trigger(
        self, attempt: int, *, allow_process_death: bool = False
    ) -> None:
        """Inject the fault for this attempt (no-op once transient
        faults are spent)."""
        if not self.fires(attempt):
            return
        if self.kind in STREAM_FAULT_KINDS:
            # Stream faults are injected by the daemon's queue and
            # journal, never by the analysis path.
            return
        if self.kind is FaultKind.CRASH:
            raise InjectedCrashError(
                f"injected analyzer crash (attempt {attempt})"
            )
        if self.kind is FaultKind.CORRUPT:
            raise CorruptApkError(
                f"injected APK corruption (attempt {attempt})"
            )
        if self.kind is FaultKind.HANG:
            time.sleep(self.hang_s)
            return
        # FaultKind.WORKER_DEATH
        if allow_process_death:
            os._exit(1)
        raise WorkerLostError(
            f"injected worker death (attempt {attempt})"
        )


@dataclass
class FaultPlan:
    """Seed-derived mapping of corpus indices to injected faults."""

    faults: dict[int, InjectedFault] = field(default_factory=dict)
    seed: int = 0

    def fault_for(self, index: int) -> InjectedFault | None:
        return self.faults.get(index)

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.faults))

    def expected_quarantine(self, max_retries: int) -> frozenset[int]:
        """Indices that must end the run quarantined under a
        ``max_retries`` budget (assuming hangs are turned into
        timeouts by a per-app deadline): every non-retryable fault,
        plus retryable faults still firing on the final attempt."""
        out = set()
        for index, fault in self.faults.items():
            if fault.kind in STREAM_FAULT_KINDS:
                # Stream faults degrade the daemon, never the job: a
                # healthy serve loop still completes the app.
                continue
            if fault.kind in (FaultKind.CRASH, FaultKind.CORRUPT):
                if fault.fires(0):
                    out.add(index)
            elif fault.fires(max_retries):
                out.add(index)
        return frozenset(out)

    def stream_fault_for(self, index: int) -> InjectedFault | None:
        """The stream-layer fault planned for this job sequence number
        (``None`` for analysis-path faults — those ship to workers)."""
        fault = self.faults.get(index)
        if fault is not None and fault.kind in STREAM_FAULT_KINDS:
            return fault
        return None

    def analysis_fault_for(self, index: int) -> InjectedFault | None:
        """The analysis-path fault planned for this job sequence
        number (``None`` for stream-layer faults)."""
        fault = self.faults.get(index)
        if fault is not None and fault.kind in ANALYSIS_FAULT_KINDS:
            return fault
        return None

    def has_kind(self, kind: FaultKind) -> bool:
        return any(fault.kind is kind for fault in self.faults.values())

    @staticmethod
    def generate(
        corpus_size: int,
        *,
        fraction: float = 0.2,
        seed: int = 0,
        kinds: tuple[FaultKind, ...] = (
            FaultKind.CRASH,
            FaultKind.HANG,
            FaultKind.CORRUPT,
            FaultKind.WORKER_DEATH,
        ),
        permanent_hang_fraction: float = 0.25,
        hang_s: float = 30.0,
    ) -> "FaultPlan":
        """Plan faults over ``fraction`` of a ``corpus_size`` corpus.

        Crash and corrupt faults are permanent (they are non-retryable
        anyway); worker-death faults are always transient
        (``fail_attempts=1`` — one retry recovers the app, and a
        *permanent* worker killer would respawn a worker on every
        attempt until the budget is spent); hangs are transient except
        for a ``permanent_hang_fraction`` share, which must exhaust
        the retry budget and be quarantined as timeouts.
        """
        rng = random.Random(seed)
        count = min(corpus_size, round(corpus_size * fraction))
        chosen = sorted(rng.sample(range(corpus_size), count))
        faults: dict[int, InjectedFault] = {}
        for index in chosen:
            kind = rng.choice(kinds)
            if kind in (FaultKind.CRASH, FaultKind.CORRUPT):
                fault = InjectedFault(kind, fail_attempts=None)
            elif kind is FaultKind.WORKER_DEATH:
                fault = InjectedFault(kind, fail_attempts=1)
            else:
                permanent = rng.random() < permanent_hang_fraction
                fault = InjectedFault(
                    kind,
                    fail_attempts=None if permanent else 1,
                    hang_s=hang_s,
                )
            faults[index] = fault
        return FaultPlan(faults=faults, seed=seed)

    @staticmethod
    def generate_serve(
        corpus_size: int,
        *,
        fraction: float = 0.2,
        seed: int = 0,
        hang_s: float = 30.0,
        drain_sigterm: bool = False,
    ) -> "FaultPlan":
        """Plan a daemon chaos run: the classic analysis faults mixed
        with stream-layer ones.

        Stream faults (slow consumer stalls, torn journal writes) are
        always transient single-shot degradations — the job itself
        must still end terminal.  ``drain_sigterm=True`` additionally
        plants one whole-run fault: a second SIGTERM mid-drain, which
        the drain path must absorb idempotently.
        """
        rng = random.Random(seed)
        kinds = ANALYSIS_FAULT_KINDS + (
            FaultKind.SLOW_CONSUMER,
            FaultKind.PARTIAL_WRITE,
        )
        count = min(corpus_size, round(corpus_size * fraction))
        chosen = sorted(rng.sample(range(corpus_size), count))
        faults: dict[int, InjectedFault] = {}
        for index in chosen:
            kind = rng.choice(kinds)
            if kind in (FaultKind.CRASH, FaultKind.CORRUPT):
                faults[index] = InjectedFault(kind, fail_attempts=None)
            elif kind in (FaultKind.SLOW_CONSUMER, FaultKind.PARTIAL_WRITE):
                faults[index] = InjectedFault(
                    kind, fail_attempts=1, hang_s=min(hang_s, 0.2)
                )
            else:
                faults[index] = InjectedFault(
                    kind, fail_attempts=1, hang_s=hang_s
                )
        if drain_sigterm:
            # Keyed past the corpus: a whole-run fault, not a job's.
            faults[corpus_size] = InjectedFault(
                FaultKind.DRAIN_SIGTERM, fail_attempts=None
            )
        return FaultPlan(faults=faults, seed=seed)
