"""The daemon's HTTP surface: stdlib-only, four routes, honest
status codes.

======  ==============  =====================================================
method  path            semantics
======  ==============  =====================================================
POST    ``/jobs``       submit ``{"apk": <sapk doc>, "truth"?: ..., "id"?:
                        ...}`` — **202** queued, **200** answered terminally
                        on admission (dedup hit), **400** malformed, **413**
                        oversized, **429** + ``Retry-After`` when the queue
                        is full, **503** while draining
GET     ``/jobs/<id>``  the job document (**404** unknown); ``?wait=<s>``
                        long-polls until terminal or the deadline
GET     ``/healthz``    always **200**: queue depth, worker liveness, cache
                        hit rates, recovery counters — degradation is
                        reported, never masked
GET     ``/readyz``     **200** when the daemon can usefully accept work,
                        **503** otherwise (starting, draining, dead pool,
                        full queue)
GET     ``/statsz``     always **200**: cumulative cache counters — result-
                        cache dedup, per-worker class-artifact and guard-row
                        hit rates, on-disk footprint per store
======  ==============  =====================================================

:func:`install_signal_handlers` wires SIGTERM/SIGINT to the graceful
drain: stop admitting, finish in-flight jobs, stop the workers, flush
the journal, then stop the HTTP loop.  The handler is
once-guarded *and* the drain itself is idempotent, so a second signal
mid-drain is absorbed.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .queue import AdmissionError, QueueFullError
from .service import AnalysisService

__all__ = ["ServeHTTPServer", "start_server", "install_signal_handlers"]

_MAX_BODY_BYTES = 64 * 1024 * 1024  # absolute transport sanity bound


class ServeHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server carrying its :class:`AnalysisService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: AnalysisService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server_version = "saintdroid-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> AnalysisService:
        return self.server.service

    def log_message(self, *args) -> None:  # silence per-request noise
        pass

    def _reply(
        self, status: int, doc: dict, headers: dict | None = None
    ) -> None:
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    # -- POST /jobs ----------------------------------------------------

    def do_POST(self) -> None:
        path = urlparse(self.path).path
        if path != "/jobs":
            self._reply(404, {"error": "NotFound", "detail": path})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = 0
        if length <= 0 or length > _MAX_BODY_BYTES:
            self._reply(
                413 if length > _MAX_BODY_BYTES else 400,
                {"error": "BadRequest", "detail": "missing or huge body"},
            )
            return
        try:
            doc = json.loads(self.rfile.read(length))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._reply(
                400, {"error": "MalformedJobError", "detail": str(exc)}
            )
            return
        if not isinstance(doc, dict) or "apk" not in doc:
            self._reply(
                400,
                {
                    "error": "MalformedJobError",
                    "detail": 'body must be {"apk": <sapk document>, ...}',
                },
            )
            return
        try:
            job = self.service.submit(
                doc["apk"],
                doc.get("truth"),
                job_id=doc.get("id"),
            )
        except QueueFullError as exc:
            self._reply(
                exc.status,
                exc.to_doc(),
                {"Retry-After": f"{exc.retry_after_s:.3f}"},
            )
            return
        except AdmissionError as exc:
            self._reply(exc.status, exc.to_doc())
            return
        if job.terminal:
            self._reply(200, job.to_doc())
        else:
            self._reply(202, job.to_doc(include_result=False))

    # -- GET routes ----------------------------------------------------

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        path = parsed.path
        if path == "/healthz":
            self._reply(200, self.service.health())
            return
        if path == "/readyz":
            ok, doc = self.service.ready()
            self._reply(200 if ok else 503, doc)
            return
        if path == "/statsz":
            self._reply(200, self.service.statsz())
            return
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            query = parse_qs(parsed.query)
            wait_s = 0.0
            if "wait" in query:
                try:
                    wait_s = min(60.0, float(query["wait"][0]))
                except ValueError:
                    wait_s = 0.0
            job = (
                self.service.wait(job_id, wait_s)
                if wait_s > 0
                else self.service.job(job_id)
            )
            if job is None:
                self._reply(404, {"error": "NotFound", "detail": job_id})
            else:
                self._reply(200, job.to_doc())
            return
        self._reply(404, {"error": "NotFound", "detail": path})


def start_server(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServeHTTPServer:
    """Bind and start serving on a daemon thread; ``port=0`` picks a
    free port (``server.server_address`` has the real one)."""
    server = ServeHTTPServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever,
        name="serve-http",
        daemon=True,
        kwargs={"poll_interval": 0.1},
    )
    thread.start()
    return server


def install_signal_handlers(
    service: AnalysisService, server: ServeHTTPServer
) -> None:
    """SIGTERM/SIGINT → graceful drain, then stop the HTTP loop.

    Shutdown runs on a dedicated thread: a signal handler must return
    promptly, and ``server.shutdown()`` would deadlock if called from
    a handler executing on the serving thread.  The once-guard plus
    the service's own idempotent drain make repeated signals safe.
    """
    fired = threading.Event()

    def _shutdown(signum, frame):
        if fired.is_set():
            return  # second signal mid-drain: absorbed
        fired.set()

        def _run():
            try:
                service.drain()
            finally:
                server.shutdown()

        threading.Thread(
            target=_run, name="serve-drain", daemon=True
        ).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _shutdown)
