"""``saintdroid serve``: the resident, crash-safe analysis daemon.

The batch CLI pays substrate setup on every invocation and forgets
everything when it exits.  This package turns the same analysis
machinery into a long-lived *service*: the framework snapshot,
ApiDatabase, and (optionally) the framework summary table are loaded
once and held warm; APK-analysis jobs arrive over a small HTTP/JSON
API, flow through a bounded admission queue into the streaming
orchestration engine (:func:`repro.eval.orchestration.run_stream`),
and come back as the same fingerprint-stable
:class:`~repro.eval.runner.AppResult` records a batch run produces.

Robustness is the headline, not a footnote:

* every admitted job is **write-ahead journaled** before it is
  acknowledged, and every terminal result is journaled when it lands —
  a killed daemon (even ``kill -9``) replays exactly the in-flight
  jobs on restart, with no losses and no duplicates;
* the worker pool (:class:`repro.eval.parallel.PoolBackend`, the same
  pool batch runs use) watches heartbeats and deadlines, detects hung
  and dead workers and replaces them continuously, and
  poison jobs are quarantined after bounded retries with full-jitter
  backoff;
* **admission control** keeps the daemon answering under overload —
  full queue ⇒ 429 with ``Retry-After``, oversized APK ⇒ 413,
  malformed package ⇒ 400 — and identical APK fingerprints are
  answered in O(1) from the content-addressed result cache;
* **graceful drain** on SIGTERM: stop admitting, finish in-flight
  work, stop the workers, flush the journal.

Layers (one module each): :mod:`jobs` (the job model),
:mod:`journal` (the WAL), :mod:`queue` (admission + job source),
:mod:`service` (the daemon object), :mod:`server` (HTTP),
:mod:`client` (a tiny client).
"""

from .client import ServeClient, ServeClientError
from .jobs import Job, JobState
from .journal import ServeJournal
from .queue import (
    JobQueue,
    MalformedJobError,
    OversizedJobError,
    QueueClosedError,
    QueueFullError,
)
from .server import install_signal_handlers, start_server
from .service import AnalysisService, ServeConfig

__all__ = [
    "AnalysisService",
    "ServeConfig",
    "Job",
    "JobState",
    "JobQueue",
    "ServeJournal",
    "ServeClient",
    "ServeClientError",
    "QueueFullError",
    "QueueClosedError",
    "OversizedJobError",
    "MalformedJobError",
    "start_server",
    "install_signal_handlers",
]
