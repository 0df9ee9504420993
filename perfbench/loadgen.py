"""Closed-loop load generator for the tuning service's ``/v1`` API.

Standard library only, with its own HTTP client, so a change to the
program cannot change how it is driven or timed.

Lifecycle transitions are timed from the server's ``--audit`` JSONL: a
tail thread reads the file every ``POLL_S`` seconds and stamps each new
line with the time it appeared.  The trail is the operator's contract
(shard replay reads it too), and reading a file costs the server nothing,
where polling ``/v1`` fast enough to resolve a 0.1 s first config would
load the server being measured.  Each session's ``/v1`` status is then
fetched once, to check it.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

POLL_S = 0.002

#: Audit events that end a session (``session-report`` follows them).
TERMINAL_EVENTS = ("deployed", "deployment-blocked", "failed", "cancelled")
DONE_EVENT = "session-report"


# -- statistics --------------------------------------------------------------

def median(values: List[float]) -> float:
    return float(statistics.median(values))


def tail(values: List[float], beyond: int = 10) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``.  With ``n`` samples the sample of
    rank ``n - beyond`` (1-based) has ``beyond`` samples above it.  With
    ``n <= 2 * beyond`` that rank is not above the median's, and the tail
    is the median itself, so it is never under the p50.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = n - beyond
    if 2 * rank <= n:
        return median(ordered), 50.0, n
    return float(ordered[rank - 1]), 100.0 * rank / n, n


# -- audit trail -------------------------------------------------------------

def split_lines(pending: bytes, data: bytes) -> Tuple[List[dict], bytes, int]:
    """Parse whole JSONL lines out of ``pending + data``.

    Returns ``(records, remainder, undecodable)``.  A line still being
    written (no newline yet) stays in ``remainder`` for the next read; a
    whole line that is not JSON (a torn record from a killed writer) is
    counted and skipped.
    """
    buffer = pending + data
    records: List[dict] = []
    bad = 0
    *lines, remainder = buffer.split(b"\n")
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            bad += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            bad += 1
    return records, remainder, bad


class AuditTail:
    """Follow an audit JSONL file and stamp each record as it appears."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.undecodable = 0
        self._events: Dict[str, List[Tuple[str, float, dict]]] = {}
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="audit-tail",
                                        daemon=True)

    def start(self) -> "AuditTail":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        fd: Optional[int] = None
        pending = b""
        try:
            while True:
                stopping = self._stop.is_set()
                if fd is None:
                    try:
                        fd = os.open(self.path, os.O_RDONLY)
                    except FileNotFoundError:
                        fd = None
                if fd is not None:
                    while True:
                        data = os.read(fd, 1 << 20)
                        if not data:
                            break
                        stamp = time.perf_counter()
                        records, pending, bad = split_lines(pending, data)
                        self.undecodable += bad
                        if records:
                            self._add(records, stamp)
                if stopping:
                    return
                self._stop.wait(POLL_S)
        finally:
            if fd is not None:
                os.close(fd)

    def _add(self, records: List[dict], stamp: float) -> None:
        with self._cond:
            for record in records:
                session = str(record.get("session"))
                event = str(record.get("event"))
                # Keep the small fields only: a session-report is ~65 KB.
                small = {key: value for key, value in record.items()
                         if key not in ("report", "request", "config",
                                        "metrics")}
                self._events.setdefault(session, []).append(
                    (event, stamp, small))
            self._cond.notify_all()

    def events(self, session: str) -> List[Tuple[str, float, dict]]:
        with self._cond:
            return list(self._events.get(session, ()))

    def wait_done(self, session: str, timeout: float) -> bool:
        """Block until ``session`` has its ``session-report`` (or a terminal
        event followed by a one-second grace, for reports that failed to
        render); ``False`` on timeout."""
        deadline = time.perf_counter() + timeout
        with self._cond:
            while True:
                names = [event for event, _, _ in
                         self._events.get(session, ())]
                if DONE_EVENT in names:
                    return True
                terminal = [stamp for event, stamp, _ in
                            self._events.get(session, ())
                            if event in TERMINAL_EVENTS]
                now = time.perf_counter()
                if terminal and now - terminal[0] > 1.0:
                    return True
                if now >= deadline:
                    return False
                self._cond.wait(min(0.1, deadline - now))


# -- HTTP --------------------------------------------------------------------

class Client:
    """One keep-alive HTTP/1.1 connection to the front door."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def call(self, method: str, path: str,
             body: Optional[dict] = None) -> Tuple[int, object]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, OSError):
            self._conn.close()        # reconnects on the next request
            raise
        if response.getheader("Content-Type", "").startswith(
                "application/json"):
            return response.status, json.loads(raw or b"null")
        return response.status, raw.decode("utf-8", "replace")

    def close(self) -> None:
        self._conn.close()


def healthz_once(host: str, port: int) -> bool:
    """``True`` when ``GET /v1/healthz`` answers ``200``."""
    conn = http.client.HTTPConnection(host, port, timeout=5.0)
    try:
        conn.request("GET", "/v1/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


# -- closed loop -------------------------------------------------------------

class Session:
    """What the client saw of one submitted session."""

    def __init__(self, body: dict, phase: str, client: int) -> None:
        self.body = body
        self.phase = phase
        self.client = client
        self.sent = 0.0
        self.done = 0.0               # when the client was through with it
        self.submit_rtt: Optional[float] = None
        self.submit_status: Optional[int] = None
        self.id: Optional[str] = None
        self.error: Optional[str] = None
        self.finished = False
        self.status: Optional[dict] = None
        self.status_rtt: Optional[float] = None

    def to_dict(self, tail: AuditTail) -> dict:
        events = tail.events(self.id) if self.id else []
        return {
            "id": self.id, "phase": self.phase, "body": self.body,
            "client": self.client, "sent": self.sent, "done": self.done,
            "submit_rtt": self.submit_rtt,
            "submit_status": self.submit_status, "error": self.error,
            "finished": self.finished, "status": self.status,
            "status_rtt": self.status_rtt,
            "events": [{"event": event, "t": stamp, **fields}
                       for event, stamp, fields in events],
        }


class ClosedLoop:
    """``clients`` tenants, each waiting for its session before the next."""

    def __init__(self, host: str, port: int, tail: AuditTail,
                 requests: Iterator[dict], clients: int,
                 session_timeout: float) -> None:
        self.host = host
        self.port = port
        self.tail = tail
        self.clients = clients
        self.session_timeout = session_timeout
        self.sessions: List[Session] = []
        self._requests = requests
        self._lock = threading.Lock()

    def _next(self, phase: str, client: int,
              quota: Optional[int]) -> Optional[Session]:
        with self._lock:
            if quota is not None and quota <= sum(
                    1 for session in self.sessions if session.phase == phase):
                return None
            session = Session(next(self._requests), phase, client)
            self.sessions.append(session)
            return session

    def _one(self, client: Client, session: Session) -> None:
        try:
            self._submit_and_wait(client, session)
        finally:
            session.done = time.perf_counter()

    def _submit_and_wait(self, client: Client, session: Session) -> None:
        session.sent = time.perf_counter()
        try:
            code, reply = client.call("POST", "/v1/sessions", session.body)
        except (OSError, http.client.HTTPException, ValueError) as error:
            session.error = f"submit: {type(error).__name__}: {error}"
            return
        session.submit_rtt = time.perf_counter() - session.sent
        session.submit_status = code
        if code != 202 or not isinstance(reply, dict):
            session.error = f"submit refused: {code} {reply}"
            return
        session.id = str(reply["session"])
        if not self.tail.wait_done(session.id, self.session_timeout):
            session.error = "unfinished at the deadline"
            return
        session.finished = True
        started = time.perf_counter()
        try:
            code, status = client.call("GET", f"/v1/sessions/{session.id}")
        except (OSError, http.client.HTTPException, ValueError) as error:
            session.error = f"status: {type(error).__name__}: {error}"
            return
        session.status_rtt = time.perf_counter() - started
        session.status = status if isinstance(status, dict) else None
        if code != 200:
            session.error = f"status answered {code}"

    def run(self, phase: str, until: Optional[float] = None,
            sessions: Optional[int] = None) -> None:
        """Keep every client submitting until ``until`` (a ``perf_counter``
        time) has passed, or until ``sessions`` sessions of ``phase`` have
        been submitted."""
        def client_loop(index: int) -> None:
            client = Client(self.host, self.port)
            try:
                while True:
                    session = self._next(phase, index, sessions)
                    if session is None:
                        return
                    self._one(client, session)
                    if until is not None and time.perf_counter() >= until:
                        return
            finally:
                client.close()

        threads = [threading.Thread(target=client_loop, args=(index,),
                                    name=f"client-{index}", daemon=True)
                   for index in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
