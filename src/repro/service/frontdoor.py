"""Async HTTP front door for the tuning service: backpressure at the edge.

The paper's Figure 2 deployment faces *many* concurrent tenants; the
ROADMAP's scale-out shape is an asynchronous admission layer in front of
the thread-pooled :class:`~repro.service.server.TuningService`.  This
module is that layer, built entirely on the standard library
(``asyncio.start_server`` + a small HTTP/1.1 parser — dependencies are
frozen, so no aiohttp):

The HTTP surface is versioned under ``/v1``; an unversioned path answers
``404`` like any unknown route:

* ``POST /v1/sessions``  — submit a tuning request (JSON body); ``202``
  with the session and trace ids, ``429`` when shed;
* ``GET /v1/sessions``   — status snapshots of every session;
* ``GET /v1/sessions/{id}`` — one session's snapshot, including the
  structured ``recommendation`` (config + source provenance) once one
  exists (``404`` when unknown, ``410`` when evicted);
* ``GET /v1/metrics``    — Prometheus text exposition of the
  process-wide :class:`~repro.obs.metrics.MetricsRegistry`;
* ``GET /v1/healthz``    — queue depth, live worker count, draining
  flag, one-shot recommender readiness;
* ``POST /v1/shutdown``  — graceful drain (finish queued + in-flight
  sessions) and stop, or immediate cancel with ``{"drain": false}``.

Backpressure is two-staged, both knobs configurable:

* a **bounded priority queue** — the service's queue-depth bound is
  enforced atomically inside :meth:`TuningService.submit`; past it the
  request is shed with ``429 queue-full`` and a ``Retry-After`` hint
  rather than queueing unboundedly (OnlineTune's availability argument:
  reject early, stay predictable);
* **per-tenant token buckets** — a tenant refills at ``tenant_rate``
  submissions/second up to ``tenant_burst``; beyond that the submit is
  ``429 rate-limited`` *before* it can occupy queue space, so one noisy
  tenant cannot starve the fleet.

One trace id covers HTTP accept through deployment: the id is allocated
when the request is accepted, the ``frontdoor.request`` span joins it,
and it is handed to :meth:`TuningService.submit` so every session span
and audit record downstream shares it.  Shed counts, rate-limit counts,
queue depth and request latencies are recorded in the metrics registry
and visible at ``/v1/metrics``.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from dataclasses import fields
from typing import Callable, Dict, Optional, Tuple

from .server import QueueFullError, TuningRequest, TuningService
from ..dbsim.hardware import INSTANCES
from ..obs import get_logger, get_metrics, get_tracer

logger = get_logger(__name__)

__all__ = ["ServiceFrontDoor", "TokenBucket", "http_request"]

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 410: "Gone", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Current (canonical) API version prefix.
_API_PREFIX = "/v1"

#: Help string shared by every increment site of the bad-request counter
#: (parse-level rejects and body-shape rejects are one phenomenon).
_BAD_REQUEST_HELP = "Malformed requests rejected (framing or body shape)"


class _HttpError(Exception):
    """A parse-level failure that must still be *answered*, not dropped."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = str(message)

#: Fields a ``POST /v1/sessions`` body may carry (anything else is a 400
#: — a typoed knob silently ignored is worse than a rejected request).
_REQUEST_FIELDS = frozenset(field.name for field in fields(TuningRequest))


class TokenBucket:
    """Thread-safe token bucket: ``rate`` tokens/second, capacity ``burst``.

    ``clock`` is injectable (monotonic seconds) so tests can step time
    deterministically.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if rate <= 0.0 or burst <= 0.0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now

    def try_acquire(self, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; never blocks."""
        with self._lock:
            self._refill()
            if self._tokens >= amount:
                self._tokens -= amount
                return True
            return False

    def seconds_until(self, amount: float = 1.0) -> float:
        """Time until ``amount`` tokens will be available (``Retry-After``)."""
        with self._lock:
            self._refill()
            deficit = amount - self._tokens
            return max(0.0, deficit / self.rate)

    def idle_seconds(self) -> float:
        """Seconds since the bucket last refilled (i.e. was last touched)."""
        with self._lock:
            return max(0.0, self._clock() - self._last)


class ServiceFrontDoor:
    """HTTP/JSON admission layer over a :class:`TuningService`.

    Parameters
    ----------
    service:
        The tuning service to front.  The front door starts it (if
        needed) on :meth:`start` and shuts it down on :meth:`shutdown`.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    max_queue_depth:
        Queue-depth bound enforced atomically at submit; past it
        ``POST /v1/sessions`` sheds with ``429 queue-full``.
    tenant_rate, tenant_burst:
        Per-tenant token-bucket refill rate (submissions/second) and
        burst capacity.
    clock:
        Monotonic time source for the buckets (tests inject a fake).
    max_body_bytes:
        Request bodies above this are rejected with ``413``.
    bucket_idle_s:
        A tenant bucket untouched for this long is pruned (it would be
        full anyway — an idle tenant's recreated bucket is equivalent),
        so a fleet of millions of one-shot tenants does not grow
        ``_buckets`` without bound.
    """

    def __init__(self, service: TuningService, host: str = "127.0.0.1",
                 port: int = 0, max_queue_depth: int = 64,
                 tenant_rate: float = 8.0, tenant_burst: float = 16.0,
                 clock: Callable[[], float] = time.monotonic,
                 max_body_bytes: int = 1 << 20,
                 bucket_idle_s: float = 600.0) -> None:
        if max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")
        if bucket_idle_s <= 0.0:
            raise ValueError("bucket_idle_s must be positive")
        self.service = service
        self.host = host
        self._requested_port = int(port)
        self.max_queue_depth = int(max_queue_depth)
        self.tenant_rate = float(tenant_rate)
        self.tenant_burst = float(tenant_burst)
        self.max_body_bytes = int(max_body_bytes)
        # Never prune before a drained bucket would have fully refilled:
        # a recreated bucket starts at full burst, so pruning earlier
        # would hand a rate-limited tenant fresh tokens.
        self.bucket_idle_s = max(float(bucket_idle_s),
                                 self.tenant_burst / self.tenant_rate)
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._buckets_lock = threading.Lock()
        self._last_prune = clock()
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._shutdown_task: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def port(self) -> int:
        """The actually bound port (after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ServiceFrontDoor":
        """Bind the listener and start the backing service."""
        if self._server is not None:
            return self
        self._stopped = asyncio.Event()
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host,
            port=self._requested_port)
        logger.info("front door listening on http://%s:%d", self.host,
                    self.port)
        return self

    async def serve_forever(self) -> None:
        """Run until ``POST /v1/shutdown`` (or :meth:`shutdown`) completes."""
        await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting sessions, optionally drain, stop the server.

        With ``drain`` every queued and in-flight session finishes before
        the listener closes — submissions arriving meanwhile get ``503``.
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        if drain:
            await loop.run_in_executor(None, self.service.drain)
        await loop.run_in_executor(None, lambda: self.service.shutdown(drain))
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._stopped is not None:
            self._stopped.set()

    def run(self) -> None:
        """Blocking convenience wrapper (the ``repro-service serve`` CLI)."""
        try:
            asyncio.run(self.serve_forever())
        except KeyboardInterrupt:
            logger.info("interrupted; cancelling queued sessions")
            self.service.shutdown(drain=False, timeout=5.0)

    # -- connection handling -----------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _HttpError as error:
                    # A malformed or oversized request still deserves an
                    # answer (the docstring promises 413, not a hangup) —
                    # but the stream is no longer framed, so close after.
                    get_metrics().counter(
                        "frontdoor.bad_requests",
                        help=_BAD_REQUEST_HELP).inc()
                    writer.write(_render_response(
                        error.status, {"error": error.message}, {},
                        keep_alive=False))
                    await writer.drain()
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload, extra = self._dispatch(method, path, body)
                writer.write(_render_response(status, payload, extra,
                                              keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                asyncio.LimitOverrunError, ValueError):
            pass                      # client went away or spoke garbage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            ) -> Optional[Tuple[str, str, Dict[str, str],
                                                bytes]]:
        """One HTTP/1.1 request, or ``None`` on a clean EOF.

        Raises :class:`_HttpError` for malformed framing the caller must
        answer (400) and for oversized bodies (413) — never a silent
        connection drop on a request the client framed legally.
        """
        line = await reader.readline()
        if not line or not line.strip():
            return None
        try:
            method, path, _version = line.decode("ascii").split(None, 2)
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 64:
                raise _HttpError(400, "too many headers")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "invalid Content-Length") from None
        if length < 0:
            raise _HttpError(400, "negative Content-Length")
        if length > self.max_body_bytes:
            raise _HttpError(
                413, f"body of {length} bytes exceeds the "
                     f"{self.max_body_bytes}-byte limit")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    # -- routing -----------------------------------------------------------
    def _dispatch(self, method: str, path: str, body: bytes,
                  ) -> Tuple[int, object, Dict[str, str]]:
        """Route one request; returns ``(status, payload, extra_headers)``.

        Handlers are synchronous on purpose: the whole dispatch runs
        inside one ``frontdoor.request`` span, and an ``await`` in here
        would let another task's spans interleave on the tracer's
        per-thread stack.
        """
        tracer = get_tracer()
        metrics = get_metrics()
        trace_id = tracer.new_trace_id()
        metrics.counter("frontdoor.requests",
                        help="HTTP requests accepted").inc()
        with tracer.root_span("frontdoor.request", trace_id=trace_id,
                              method=method, path=path) as span:
            try:
                status, payload, extra = self._route(method, path, body,
                                                     trace_id)
            except Exception as error:  # noqa: BLE001 - must answer
                logger.warning("front door %s %s failed: %s: %s", method,
                               path, type(error).__name__, error)
                status, payload, extra = 500, {
                    "error": "internal",
                    "detail": f"{type(error).__name__}: {error}"}, {}
            span.set_tag("status", status)
        metrics.histogram("frontdoor.request_seconds",
                          help="HTTP request handling latency").observe(
            span.wall_s)
        return status, payload, extra

    def _route(self, method: str, path: str, body: bytes, trace_id: str | None,
               ) -> Tuple[int, object, Dict[str, str]]:
        """Strip the ``/v1`` prefix, then dispatch; anything else is 404."""
        if path == _API_PREFIX or path.startswith(_API_PREFIX + "/"):
            return self._route_bare(method, path[len(_API_PREFIX):] or "/",
                                    body, trace_id)
        return 404, {"error": f"no route for {method} {path}"}, {}

    def _route_bare(self, method: str, path: str, body: bytes,
                    trace_id: str | None,
                    ) -> Tuple[int, object, Dict[str, str]]:
        if path == "/sessions":
            if method == "POST":
                return self._post_session(body, trace_id)
            if method == "GET":
                return 200, {"sessions": self.service.sessions()}, {}
            return 405, {"error": "method not allowed"}, {}
        if path.startswith("/sessions/"):
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            session_id = path[len("/sessions/"):]
            try:
                status = self.service.status(session_id)
            except KeyError:
                return 404, {"error": f"unknown session {session_id!r}"}, {}
            if isinstance(status, dict) and status.get("expired"):
                return 410, status, {}
            return 200, status, {}
        if path == "/metrics" and method == "GET":
            return 200, get_metrics().render_prometheus(), {}
        if path == "/healthz" and method == "GET":
            oneshot = getattr(self.service, "oneshot", None)
            return 200, {
                "queue_depth": self.service.queue_depth(),
                "workers": self.service.workers,
                "workers_alive": self.service.workers_alive(),
                "draining": self._draining,
                "oneshot_ready": bool(getattr(oneshot, "ready", False)),
            }, {}
        if path == "/shutdown" and method == "POST":
            return self._post_shutdown(body)
        return 404, {"error": f"no route for {method} {path}"}, {}

    # -- handlers ----------------------------------------------------------
    def _bucket(self, tenant: str) -> TokenBucket:
        with self._buckets_lock:
            self._prune_buckets_locked()
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.tenant_rate, self.tenant_burst, clock=self._clock)
            return bucket

    def _prune_buckets_locked(self) -> None:
        """Drop buckets idle past ``bucket_idle_s`` (caller holds the lock)."""
        now = self._clock()
        if now - self._last_prune < self.bucket_idle_s:
            return
        self._last_prune = now
        idle = [tenant for tenant, bucket in self._buckets.items()
                if bucket.idle_seconds() >= self.bucket_idle_s]
        for tenant in idle:
            del self._buckets[tenant]
        if idle:
            get_metrics().counter(
                "frontdoor.buckets_pruned",
                help="Idle per-tenant token buckets dropped").inc(len(idle))

    @staticmethod
    def _bad_body(message: str) -> Tuple[int, object, Dict[str, str]]:
        """A body-shape 400, counted under the bad-request metric.

        Parse-level rejects (the connection handler) and body-shape
        rejects are the same phenomenon to an operator watching
        ``frontdoor.bad_requests``: a client sending garbage.
        """
        get_metrics().counter("frontdoor.bad_requests",
                              help=_BAD_REQUEST_HELP).inc()
        return 400, {"error": message}, {}

    def _post_session(self, body: bytes, trace_id: str | None,
                      ) -> Tuple[int, object, Dict[str, str]]:
        metrics = get_metrics()
        if self._draining:
            return 503, {"error": "draining"}, {}
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError):
            return self._bad_body("body is not valid JSON")
        if not isinstance(payload, dict):
            # Valid JSON, wrong shape ([], "x", 42, null): answer with a
            # body-shape 400 instead of letting **payload below raise
            # into a generic 500.
            return self._bad_body(
                f"body must be a JSON object, not {type(payload).__name__}")
        unknown = set(payload) - _REQUEST_FIELDS
        if unknown:
            return self._bad_body(f"unknown fields {sorted(unknown)}")
        if "workload" not in payload:
            return self._bad_body("field 'workload' is required")
        if not isinstance(payload["workload"], (str, dict)):
            return self._bad_body(
                "field 'workload' must be a workload name or a mix/spec "
                "object")
        for nested in ("train_kwargs", "current_config"):
            if nested in payload and payload[nested] is not None \
                    and not isinstance(payload[nested], dict):
                return self._bad_body(
                    f"field {nested!r} must be a JSON object")
        hardware_name = payload.pop("hardware", "CDB-A")
        if not isinstance(hardware_name, str) \
                or hardware_name not in INSTANCES:
            return self._bad_body(
                f"unknown hardware {hardware_name!r}; "
                f"options: {sorted(INSTANCES)}")
        try:
            request = TuningRequest(hardware=INSTANCES[hardware_name],
                                    **payload)
        except (TypeError, ValueError) as error:
            return self._bad_body(str(error))
        except KeyError as error:
            # WorkloadMix.from_dict raises KeyError on a malformed mix;
            # that is a client error, not an internal one.
            return self._bad_body(f"malformed workload: missing {error}")

        tenant = str(request.tenant)
        bucket = self._bucket(tenant)
        if not bucket.try_acquire():
            metrics.counter("frontdoor.rate_limited",
                            help="Submissions rejected by tenant "
                                 "token buckets").inc()
            retry = max(1, math.ceil(bucket.seconds_until()))
            return 429, {"error": "rate-limited", "tenant": tenant,
                         "retry_after_s": retry}, {"Retry-After": str(retry)}
        try:
            session_id = self.service.submit(
                request, trace_id=trace_id,
                max_queue_depth=self.max_queue_depth)
        except QueueFullError as error:
            metrics.counter("frontdoor.shed",
                            help="Submissions shed at the queue-depth "
                                 "bound").inc()
            return 429, {"error": "queue-full", "depth": error.depth,
                         "bound": error.bound}, {"Retry-After": "1"}
        except RuntimeError as error:      # service is shutting down
            return 503, {"error": str(error)}, {}
        metrics.counter("frontdoor.submitted",
                        help="Sessions accepted through the front "
                             "door").inc()
        return 202, {"session": session_id, "tenant": tenant,
                     "trace": trace_id,
                     "queue_depth": self.service.queue_depth()}, {}

    def _post_shutdown(self, body: bytes,
                       ) -> Tuple[int, object, Dict[str, str]]:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError):
            return 400, {"error": "body is not valid JSON"}, {}
        drain = bool(payload.get("drain", True)) if isinstance(payload, dict) \
            else True
        self._draining = True
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.shutdown(drain=drain))
        return 202, {"draining": drain,
                     "pending": self.service.queue_depth()}, {}


def _render_response(status: int, payload: object,
                     extra_headers: Dict[str, str],
                     keep_alive: bool) -> bytes:
    if isinstance(payload, bytes):
        body, content_type = payload, "application/octet-stream"
    elif isinstance(payload, str):
        body, content_type = payload.encode("utf-8"), \
            "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = (json.dumps(payload, sort_keys=False) + "\n").encode("utf-8")
        content_type = "application/json"
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


async def http_request(host: str, port: int, method: str, path: str,
                       body: object = None,
                       timeout: float = 30.0,
                       ) -> Tuple[int, Dict[str, str], object]:
    """Minimal stdlib HTTP client for the front door, used by the tests.

    ``perfbench`` does not use it: its load generator carries its own
    HTTP code so that a change to the service cannot change the client.

    Returns ``(status, headers, payload)`` where ``payload`` is parsed
    JSON for ``application/json`` responses and raw text otherwise.
    """
    raw = b""
    if body is not None:
        raw = json.dumps(body).encode("utf-8")
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout)
    try:
        request = (f"{method} {path} HTTP/1.1\r\n"
                   f"Host: {host}:{port}\r\n"
                   f"Content-Length: {len(raw)}\r\n"
                   f"Connection: close\r\n\r\n").encode("ascii") + raw
        writer.write(request)
        await writer.drain()
        status_line = await asyncio.wait_for(reader.readline(), timeout)
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        payload_bytes = await asyncio.wait_for(
            reader.readexactly(length), timeout) if length else b""
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    if headers.get("content-type", "").startswith("application/json"):
        return status, headers, json.loads(payload_bytes or b"null")
    return status, headers, payload_bytes.decode("utf-8", "replace")
