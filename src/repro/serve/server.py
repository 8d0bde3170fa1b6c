"""The HTTP front door: stdlib ``http.server`` over the job queue.

Explanation-as-a-service, with the same contract as the CLI::

    POST /v1/jobs               submit a batch (repro-api-request/1 body)
    GET  /v1/jobs               list job statuses
    GET  /v1/jobs/{id}          one job's status (repro-api-status/1)
    GET  /v1/jobs/{id}/result   the repro-farm-report/2 document
    GET  /v1/jobs/{id}/events   chunked stream of progress events
    GET  /v1/healthz            liveness + queue depth
    GET  /v1/metrics            Prometheus text exposition

Design constraints this module answers to:

* **No new dependencies.**  :class:`ThreadingHTTPServer` gives one
  thread per connection; the event stream is hand-rolled chunked
  transfer encoding (one JSON object per chunk, newline-terminated).
* **Byte-identical results.**  ``GET .../result`` returns exactly the
  bytes ``explain-all --json`` would write for the same batch on the
  same cache (:func:`repro.farm.report.dump_document` is the single
  serializer), so clients can diff server output against CLI output.
* **Tenancy at the edge.**  The handler resolves the tenant
  (``X-Tenant`` header), asks the :class:`~repro.serve.tenants.TenantBook`
  for admission (429 + ``Retry-After`` on an empty bucket) and shapes
  the request to the tenant's caps before it ever reaches the queue.
* **Graceful drain.**  SIGTERM/SIGINT set the queue's stop event: the
  running batch journals its in-flight families and returns, queued
  batches flip to ``DRAINED``, the listener closes.  A resubmission
  with ``resume=true`` on the same cache replays only the remainder.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .. import api
from ..farm.fleet import WorkerFleet
from ..obs import METRICS_CONTENT_TYPE, MetricsRegistry, render_metrics
from .queue import JobQueue, RetentionPolicy
from .tenants import TenantBook

__all__ = ["ServeApp", "ExplainHandler", "serve_forever"]

_MAX_BODY = 8 * 1024 * 1024
_JSON = "application/json"

#: Default long-poll length for the ``/events`` stream (seconds); each
#: expiry emits a blank-line keep-alive chunk so client disconnects
#: surface promptly instead of parking the handler thread.
DEFAULT_EVENT_POLL_S = 10.0


class ServeApp:
    """Everything the handler threads share: queue, tenants, metrics.

    ``fleet_workers`` > 0 spins up a process :class:`WorkerFleet` at
    boot that every batch executes on (warm across batches);
    ``concurrency`` sets how many batches run at once under the
    queue's fair-share scheduler; ``retention`` bounds finished-job
    memory; ``event_poll_s`` is the ``/events`` long-poll length.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        tenants: Optional[TenantBook] = None,
        metrics: Optional[MetricsRegistry] = None,
        runner=None,
        fleet_workers: int = 0,
        concurrency: int = 1,
        retention: Optional[RetentionPolicy] = None,
        event_poll_s: float = DEFAULT_EVENT_POLL_S,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.event_poll_s = max(0.05, float(event_poll_s))
        self.fleet = (
            WorkerFleet(fleet_workers, metrics=self.metrics)
            if fleet_workers > 0
            else None
        )
        self.tenants = tenants if tenants is not None else TenantBook()
        self.queue = JobQueue(
            cache_dir=cache_dir, metrics=self.metrics, runner=runner,
            tenants=self.tenants, concurrency=concurrency,
            fleet=self.fleet, retention=retention,
        )
        self.draining = threading.Event()

    def drain(self, timeout: float = 60.0) -> bool:
        self.draining.set()
        drained = self.queue.drain(timeout)
        if self.fleet is not None:
            self.fleet.close()
        return drained


class ExplainHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/*`` onto the shared :class:`ServeApp`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    #: ``TCP_NODELAY`` on every accepted socket.  Each response also
    #: leaves in one write (see :meth:`_send`), so no small segment
    #: waits behind the client's delayed ACK.
    disable_nagle_algorithm = True
    #: Quiet by default; the CLI flips this on under ``-v``.
    verbose = False

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    # -- plumbing ------------------------------------------------------

    def _send(
        self,
        code: int,
        body: bytes,
        content_type: str = _JSON,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # Status line, headers and body in one write: a head sent on
        # its own leaves the body waiting ~40 ms on the client's
        # delayed ACK.  ``end_headers`` would flush the head alone, so
        # the blank line and body join the buffered head here instead.
        self._headers_buffer.extend((b"\r\n", body))  # type: ignore[attr-defined]
        self.flush_headers()

    def _send_json(
        self,
        code: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(code, body, headers=headers)

    def _error(self, code: int, message: str, **extra: object) -> None:
        self._send_json(code, {"error": message, **extra})

    def _tenant(self) -> str:
        return self.headers.get("X-Tenant", "public").strip() or "public"

    def _read_body(self) -> Optional[bytes]:
        length = self.headers.get("Content-Length")
        try:
            size = int(length) if length is not None else 0
        except ValueError:
            self._error(400, "bad Content-Length")
            return None
        if size <= 0:
            self._error(400, "request body required")
            return None
        if size > _MAX_BODY:
            self._error(413, f"body exceeds {_MAX_BODY} bytes")
            return None
        return self.rfile.read(size)

    def _route(self) -> Tuple[str, ...]:
        path = self.path.split("?", 1)[0].rstrip("/")
        return tuple(part for part in path.split("/") if part)

    def _query(self) -> Dict[str, str]:
        if "?" not in self.path:
            return {}
        pairs = {}
        for chunk in self.path.split("?", 1)[1].split("&"):
            if "=" in chunk:
                key, value = chunk.split("=", 1)
                pairs[key] = value
        return pairs

    # -- verbs ---------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self.app.metrics.count("serve.http.requests")
        route = self._route()
        if route != ("v1", "jobs"):
            self._error(404, f"no such resource: {self.path}")
            return
        tenant = self._tenant()
        admitted, wait = self.app.tenants.admit(tenant)
        if not admitted:
            retry_after = max(1, int(wait + 0.999))
            self.app.metrics.count("serve.http.rate_limited")
            self._send_json(
                429,
                {"error": "rate limit exceeded", "tenant": tenant,
                 "retry_after_s": retry_after},
                headers={"Retry-After": str(retry_after)},
            )
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            self._error(400, f"malformed JSON body: {exc}")
            return
        if (
            isinstance(payload, dict)
            and payload.get("schema") not in (None, api.API_REQUEST_SCHEMA)
        ):
            self._error(400, f"expected schema {api.API_REQUEST_SCHEMA!r}")
            return
        try:
            request = api.ExplainRequest.from_payload(payload)
        except api.ApiError as exc:
            self._error(400, str(exc))
            return
        request = self.app.tenants.shape(tenant, request)
        try:
            job = self.app.queue.submit(request, tenant=tenant)
        except RuntimeError as exc:
            self._error(503, str(exc))
            return
        self._send_json(
            202, {"id": job.id, "state": job.state, "tenant": tenant}
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self.app.metrics.count("serve.http.requests")
        route = self._route()
        if route == ("v1", "healthz"):
            self._health()
        elif route == ("v1", "metrics"):
            self._metrics()
        elif route == ("v1", "jobs"):
            self._send_json(
                200,
                {"jobs": [status.payload() for status in self.app.queue.jobs()]},
            )
        elif len(route) == 3 and route[:2] == ("v1", "jobs"):
            self._job_status(route[2])
        elif len(route) == 4 and route[:2] == ("v1", "jobs"):
            if route[3] == "result":
                self._job_result(route[2])
            elif route[3] == "events":
                self._job_events(route[2])
            else:
                self._error(404, f"no such resource: {self.path}")
        else:
            self._error(404, f"no such resource: {self.path}")

    # -- GET handlers --------------------------------------------------

    def _health(self) -> None:
        statuses = self.app.queue.jobs()
        self._send_json(
            200,
            {
                "ok": True,
                "draining": self.app.draining.is_set(),
                "jobs": len(statuses),
                "queued": sum(1 for s in statuses if s.state == api.STATE_QUEUED),
                "running": sum(
                    1 for s in statuses if s.state == api.STATE_RUNNING
                ),
            },
        )

    def _metrics(self) -> None:
        if self.app.fleet is not None:
            self.app.fleet.observe_gauges(self.app.metrics)
        body = render_metrics(self.app.metrics).encode("utf-8")
        self._send(200, body, content_type=METRICS_CONTENT_TYPE)

    def _job_status(self, job_id: str) -> None:
        status = self.app.queue.status(job_id)
        if status is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        self._send_json(200, status.payload())

    def _job_result(self, job_id: str) -> None:
        job = self.app.queue.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        status = self.app.queue.status(job_id)
        assert status is not None
        if not status.terminal:
            self._error(409, f"job {job_id!r} is {status.state}, not finished")
            return
        if job.report is None:
            self._error(409, f"job {job_id!r} produced no report", state=job.state,
                        detail=job.error)
            return
        # The exact bytes `explain-all --json` writes for this batch.
        from ..farm.report import dump_document

        body = dump_document(dict(job.report.document)).encode("utf-8")
        self._send(200, body)

    def _job_events(self, job_id: str) -> None:
        if self.app.queue.get(job_id) is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        seq = 0
        try:
            while True:
                events = self.app.queue.events_since(
                    job_id, seq, timeout=self.app.event_poll_s
                )
                if not events:
                    status = self.app.queue.status(job_id)
                    if status is None or status.terminal:
                        break
                    # Keep-alive on poll expiry: a blank ndjson line
                    # (clients skip empty lines).  Writing is also how
                    # a vanished client surfaces -- the send raises and
                    # frees this thread instead of parking it through
                    # a drain.
                    self._chunk(b"\n")
                    continue
                for event in events:
                    self._chunk(
                        (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
                    )
                seq = events[-1]["seq"] + 1  # type: ignore[operator]
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # client went away mid-stream; nothing to finalize
        try:
            # Terminating zero-length chunk.
            self.wfile.write(b"0\r\n\r\n")
        except OSError:
            pass

    def _chunk(self, data: bytes) -> None:
        """One chunk of the ``/events`` stream, in one write."""
        self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: Event-stream handler threads may be parked in a 10s poll when
    #: the listener closes; don't block shutdown on them.
    block_on_close = False

    def __init__(self, address, handler, app: ServeApp) -> None:
        super().__init__(address, handler)
        self.app = app


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8421,
    cache_dir: Optional[str] = None,
    tenants: Optional[TenantBook] = None,
    verbose: bool = False,
    ready: Optional[threading.Event] = None,
    install_signals: bool = True,
    drain_timeout: float = 60.0,
    fleet_workers: int = 0,
    concurrency: int = 1,
    retention: Optional[RetentionPolicy] = None,
    event_poll_s: float = DEFAULT_EVENT_POLL_S,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    Returns the process exit code: 0 after a clean drain, 1 when the
    drain timed out with work still in flight.
    """
    app = ServeApp(
        cache_dir=cache_dir, tenants=tenants,
        fleet_workers=fleet_workers, concurrency=concurrency,
        retention=retention, event_poll_s=event_poll_s,
    )
    handler = type("Handler", (ExplainHandler,), {"verbose": verbose})
    server = _Server((host, port), handler, app)

    def _shutdown(signum=None, frame=None) -> None:
        # Stop accepting, then let the queue wind down off-thread so
        # the signal handler returns promptly.
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _shutdown)
        signal.signal(signal.SIGINT, _shutdown)
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    drained = app.drain(timeout=drain_timeout)
    return 0 if drained else 1
