"""Multiprocess session sharding with audit-replay crash recovery.

One :class:`~repro.service.server.TuningService` process caps fleet
throughput because every session's numpy work shares one GIL
(``BENCH_service.json``: ~36 sessions/s on one core).  This module is
the other half of the scale-out story: a :class:`ShardedTuningService`
that consistent-hashes sessions onto N worker *processes* keyed by
tenant id — one tenant's sessions stay ordered on one shard — while
presenting the exact surface the HTTP front door already speaks
(``submit``/``status``/``sessions``/``queue_depth``/``workers_alive``/
``drain``/``shutdown``), so the admission layer, registry, guard, audit
and metrics plumbing keep working unchanged.

Architecture::

    front door ──► ShardedTuningService (parent)
                     │  consistent-hash ring: tenant → shard
                     │  length-prefixed JSON frames over socketpairs
                     ├──► shard 0: full TuningService (own process)
                     ├──► shard 1: full TuningService (own process)
                     │      ...
                     └── supervisor thread: heartbeat + process sentinel,
                         respawn dead shards, replay the audit log

Crash recovery is *audit-replay*: the parent appends a
``shard-accepted`` event — carrying the full wire-serialized request —
to the shared JSONL audit log the moment a shard acknowledges a
submission, and every shard appends its own lifecycle events
(``queued`` … ``session-report``) to the same file (one ``O_APPEND``
write per record, so multi-process interleaving is line-atomic).  When
the supervisor respawns a dead shard it replays the log: every
``shard-accepted`` session owned by that shard with no terminal event
is resubmitted under its originally acknowledged id.  No acknowledged
submission is ever lost; at-most-once *execution* is not guaranteed (a
session mid-flight when the shard died runs again), which is the right
trade for an idempotent tuning job.

Requests must be JSON-serializable to cross the process boundary —
named workloads, explicit :class:`WorkloadSpec`\\ s and
:class:`WorkloadMix`\\ es all round-trip; ``train_kwargs`` carrying
numpy arrays do not (submit raises ``TypeError``).

Worker processes are forked, not spawned: shard factories may be
closures (the benchmarks pass lambdas with tiny tuner architectures),
and the fork happens before any session state exists in the child.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import socket
import struct
import tempfile
import threading
import time
from bisect import bisect_right
from dataclasses import asdict, fields
from hashlib import sha256
from typing import Callable, Dict, List, Optional

from .audit import AuditLog, _jsonable
from .registry import ModelRegistry
from .server import QueueFullError, SessionState, TuningRequest, TuningService
from ..dbsim.hardware import HardwareSpec
from ..dbsim.workload import WORKLOADS, WorkloadSpec
from ..obs import (
    MetricsRegistry,
    NullTracer,
    get_logger,
    get_metrics,
    get_tracer,
    set_metrics,
    set_tracer,
)
from ..reuse.mix import WorkloadMix

logger = get_logger(__name__)

__all__ = ["ConsistentHashRing", "ShardedTuningService", "request_from_wire",
           "request_to_wire"]

#: Audit events that mark a session as finished for replay purposes.
#: ``session-report`` is the definitive end-of-session record; the others
#: cover paths where report rendering failed or the session was cancelled.
_TERMINAL_EVENTS = frozenset({
    "session-report", "cancelled", "deployed", "failed",
    "deployment-blocked",
})


# -- wire protocol ---------------------------------------------------------

_HEADER = struct.Struct(">I")          # 4-byte big-endian payload length
_MAX_FRAME = 64 << 20                  # sanity bound against desync


def _send_frame(sock: socket.socket, message: Dict[str, object]) -> None:
    payload = json.dumps(message, sort_keys=False).encode("utf-8")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    while count > 0:
        chunk = sock.recv(count)
        if not chunk:
            raise ConnectionError("peer closed the shard channel")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Dict[str, object]:
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > _MAX_FRAME:
        raise ConnectionError(f"frame of {length} bytes exceeds the "
                              f"{_MAX_FRAME}-byte bound (desync?)")
    return json.loads(_recv_exact(sock, length).decode("utf-8"))


def request_to_wire(request: TuningRequest) -> Dict[str, object]:
    """Serialize a :class:`TuningRequest` for the shard channel.

    The same encoding rides in ``shard-accepted`` audit events, so a
    respawned shard can rebuild the request from the JSONL log alone.
    """
    workload = request.workload
    assert not isinstance(workload, str)   # resolved in __post_init__
    if isinstance(workload, WorkloadMix):
        workload_wire: Dict[str, object] = {"kind": "mix",
                                            "mix": workload.to_dict()}
    elif WORKLOADS.get(workload.name) == workload:
        workload_wire = {"kind": "named", "name": workload.name}
    else:
        workload_wire = {"kind": "spec", "spec": asdict(workload)}
    wire = {field.name: getattr(request, field.name)
            for field in fields(request)}
    wire.update(hardware=asdict(request.hardware), workload=workload_wire)
    return wire


def request_from_wire(wire: Dict[str, object]) -> TuningRequest:
    """Rebuild a :class:`TuningRequest` from its wire encoding."""
    data = dict(wire)
    hardware = HardwareSpec(**data.pop("hardware"))
    workload_wire = data.pop("workload")
    kind = workload_wire["kind"]
    if kind == "named":
        workload: object = workload_wire["name"]
    elif kind == "mix":
        workload = WorkloadMix.from_dict(workload_wire["mix"])
    else:
        workload = WorkloadSpec(**workload_wire["spec"])
    return TuningRequest(hardware=hardware, workload=workload, **data)


# -- placement -------------------------------------------------------------

class ConsistentHashRing:
    """Consistent-hash ring mapping string keys onto ``nodes`` shards.

    Virtual nodes (``replicas`` per shard) smooth the key distribution;
    SHA-256 keeps placement stable across processes and Python releases
    (``hash()`` is salted per process).  One tenant id always lands on
    one shard, so a tenant's sessions stay ordered within that shard's
    priority queue.
    """

    def __init__(self, nodes: int, replicas: int = 64) -> None:
        if nodes <= 0:
            raise ValueError("nodes must be positive")
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self.nodes = int(nodes)
        self.replicas = int(replicas)
        points = []
        for node in range(self.nodes):
            for replica in range(self.replicas):
                digest = sha256(f"shard{node}:{replica}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), node))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [node for _, node in points]

    def node_for(self, key: str) -> int:
        digest = sha256(str(key).encode("utf-8")).digest()
        point = int.from_bytes(digest[:8], "big")
        index = bisect_right(self._hashes, point) % len(self._hashes)
        return self._owners[index]


# -- shard child process ---------------------------------------------------

#: Builds the per-shard service; receives the shard index and an
#: :class:`AuditLog` already bound to the shared JSONL path.
ShardFactory = Callable[[int, AuditLog], TuningService]


def _shard_dispatch(service: TuningService,
                    message: Dict[str, object]) -> Dict[str, object]:
    """One request → one reply, inside the shard process."""
    op = message.get("op")
    try:
        if op == "ping":
            return {"ok": True, "result": {"pid": os.getpid()}}
        if op == "stats":
            statuses = service.sessions()
            pending = sum(1 for status in statuses
                          if status["state"] not in SessionState.TERMINAL)
            return {"ok": True, "result": {
                "pid": os.getpid(),
                "queue_depth": service.queue_depth(),
                "session_count": service.session_count(),
                "workers_alive": service.workers_alive(),
                "pending": pending,
            }}
        if op == "submit":
            request = request_from_wire(message["request"])
            try:
                session_id = service.submit(
                    request,
                    trace_id=message.get("trace"),
                    max_queue_depth=message.get("max_queue_depth"),
                    session_id=message.get("session"))
            except QueueFullError as error:
                return {"ok": False, "kind": "queue-full",
                        "depth": error.depth, "bound": error.bound}
            return {"ok": True, "result": session_id}
        if op == "status":
            try:
                status = service.status(str(message["session"]))
            except KeyError:
                return {"ok": False, "kind": "unknown-session"}
            return {"ok": True, "result": _jsonable(status)}
        if op == "sessions":
            return {"ok": True, "result": _jsonable(service.sessions())}
        if op == "shutdown":
            service.shutdown(drain=bool(message.get("drain", True)))
            return {"ok": True, "result": None}
        return {"ok": False, "kind": "error", "error": f"unknown op {op!r}"}
    except Exception as error:  # noqa: BLE001 - shard must keep answering
        return {"ok": False, "kind": "error",
                "error": f"{type(error).__name__}: {error}"}


def _shard_main(index: int, conn: socket.socket, audit_path: str,
                factory: ShardFactory) -> None:
    """Entry point of one shard process.

    The child was forked mid-flight from a threaded parent, so the first
    act is replacing every inherited global that may hold another
    thread's lock state: a fresh metrics registry and a no-op tracer
    (the parent's tracer may own a JSONL exporter handle).
    """
    set_metrics(MetricsRegistry())
    set_tracer(NullTracer())
    # Each process owns its own seq stream; the src label keeps the
    # interleaved streams distinguishable in the shared JSONL (global
    # order across shards is file position, not seq).
    audit = AuditLog(path=audit_path, source=f"shard{index}")
    service = factory(index, audit)
    service.start()
    try:
        while True:
            try:
                message = _recv_frame(conn)
            except (ConnectionError, OSError):
                break                  # parent is gone; die with it
            reply = _shard_dispatch(service, message)
            try:
                _send_frame(conn, reply)
            except (BrokenPipeError, OSError):
                break
            if message.get("op") == "shutdown":
                return                 # service already drained above
    finally:
        try:
            conn.close()
        except OSError:
            pass
        audit.close()


class _ShardHandle:
    """Parent-side state of one shard: process, channel, cached stats."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.lock = threading.RLock()  # serializes RPCs and respawns
        self.process: multiprocessing.process.BaseProcess | None = None
        self.sock: socket.socket | None = None
        self.generation = 0            # bumped on every (re)spawn
        self.stats: Dict[str, object] = {}


# -- the sharded service ---------------------------------------------------

class ShardedTuningService:
    """N worker processes behind one ``TuningService``-shaped surface.

    Parameters
    ----------
    shards:
        Worker-process count.  Tenants are consistent-hashed across them.
    workers_per_shard:
        Worker *threads* inside each shard's :class:`TuningService`.
    audit_path:
        Shared JSONL audit file (parent and every shard append to it);
        defaults to a fresh temporary file.  This file is also the crash
        -recovery source, so it must survive shard death.
    registry_dir:
        When set, shard ``i`` gets a :class:`ModelRegistry` at
        ``registry_dir/shard{i}`` (per-shard subdirectories: two
        processes must not race one registry index).  ``None`` disables
        warm starts.
    shard_factory:
        Overrides how each shard builds its service — called in the
        *child* as ``factory(index, audit)`` and must wire the given
        audit log in.  Closures are fine (shards are forked).
    session_retention:
        Passed to each shard's service (terminal-session eviction).
    heartbeat_interval, heartbeat_timeout:
        Supervisor cadence and per-heartbeat RPC timeout.
    rpc_timeout:
        Timeout for client-path RPCs (submit/status/stats).
    autostart:
        Spawn shards on the first :meth:`submit` (default), mirroring
        :class:`TuningService`.
    """

    def __init__(self, shards: int = 2, workers_per_shard: int = 2,
                 audit_path: str | os.PathLike | None = None,
                 registry_dir: str | os.PathLike | None = None,
                 shard_factory: ShardFactory | None = None,
                 session_retention: int | None = None,
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: float = 5.0,
                 rpc_timeout: float = 30.0,
                 autostart: bool = True) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        if workers_per_shard <= 0:
            raise ValueError("workers_per_shard must be positive")
        self.shards = int(shards)
        self.workers_per_shard = int(workers_per_shard)
        self.workers = self.shards * self.workers_per_shard
        if audit_path is None:
            audit_path = os.path.join(
                tempfile.mkdtemp(prefix="repro-shards-"), "audit.jsonl")
        self.audit_path = os.fspath(audit_path)
        self.registry_dir = (os.fspath(registry_dir)
                             if registry_dir is not None else None)
        self.session_retention = session_retention
        self.shard_factory = shard_factory or self._default_factory
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.rpc_timeout = float(rpc_timeout)
        self.autostart = bool(autostart)

        #: Parent-side audit handle: ``shard-accepted``/``shard-replayed``
        #: supervision events (shards append their own lifecycle events).
        self.audit = AuditLog(path=self.audit_path, source="parent")
        self._ring = ConsistentHashRing(self.shards)
        self._handles = [_ShardHandle(index) for index in range(self.shards)]
        self._meta: Dict[str, Dict[str, object]] = {}  # sid → shard/trace
        #: Routing metadata is bounded like the shards' own session
        #: tables: past the cap the oldest entries degrade to EXPIRED
        #: markers, mirroring ``TuningService._evicted`` one layer up.
        self._meta_cap = (None if session_retention is None
                          else max(64, 2 * self.shards
                                   * int(session_retention)))
        self._meta_expired: Dict[str, None] = {}  # ordered id set, capped
        self._meta_lock = threading.Lock()
        self._seq = 0
        self._started = False
        self._stopping = False
        self._supervisor: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._mp = multiprocessing.get_context("fork")

    # -- defaults ----------------------------------------------------------
    def _default_factory(self, index: int, audit: AuditLog) -> TuningService:
        registry = None
        if self.registry_dir is not None:
            shard_dir = os.path.join(self.registry_dir, f"shard{index}")
            os.makedirs(shard_dir, exist_ok=True)
            registry = ModelRegistry(shard_dir)
        return TuningService(registry=registry, audit=audit,
                             workers=self.workers_per_shard,
                             session_retention=self.session_retention)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ShardedTuningService":
        """Spawn every shard process and the supervisor (idempotent)."""
        if self._started:
            return self
        if self._stopping:
            raise RuntimeError("service has been shut down")
        self._started = True
        for handle in self._handles:
            with handle.lock:
                self._spawn_locked(handle)
        self._supervisor = threading.Thread(target=self._supervise,
                                            name="shard-supervisor",
                                            daemon=True)
        self._supervisor.start()
        return self

    def _spawn_locked(self, handle: _ShardHandle) -> None:
        """(Re)spawn one shard; caller holds ``handle.lock``."""
        parent_sock, child_sock = socket.socketpair()
        process = self._mp.Process(
            target=_shard_main,
            args=(handle.index, child_sock, self.audit_path,
                  self.shard_factory),
            name=f"tuning-shard-{handle.index}",
            daemon=False)
        process.start()
        child_sock.close()
        handle.process = process
        handle.sock = parent_sock
        handle.generation += 1
        logger.info("shard %d spawned as pid %d (generation %d)",
                    handle.index, process.pid, handle.generation)

    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> None:
        """Stop every shard; one overall ``timeout`` deadline."""
        self._stopping = True
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=max(2.0, self.heartbeat_timeout))
            self._supervisor = None
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining() -> float | None:
            return (None if deadline is None
                    else max(0.0, deadline - time.monotonic()))

        for handle in self._handles:
            with handle.lock:
                if handle.sock is None:
                    continue
                try:
                    handle.sock.settimeout(remaining())
                    _send_frame(handle.sock, {"op": "shutdown",
                                              "drain": bool(drain)})
                    _recv_frame(handle.sock)
                except (OSError, ConnectionError, socket.timeout,
                        json.JSONDecodeError):
                    pass               # joined (or killed) below
                try:
                    handle.sock.close()
                except OSError:
                    pass
                handle.sock = None
        for handle in self._handles:
            process = handle.process
            if process is None:
                continue
            process.join(remaining())
            if process.is_alive():
                process.terminate()
                process.join(1.0)
            if process.is_alive():     # pragma: no cover - last resort
                process.kill()
                process.join(1.0)
            handle.process = None
        self.audit.close()

    def __enter__(self) -> "ShardedTuningService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=not any(exc_info))

    # -- RPC plumbing ------------------------------------------------------
    def _rpc(self, handle: _ShardHandle, message: Dict[str, object],
             timeout: float) -> Dict[str, object]:
        """One framed request/reply on the shard channel (serialized)."""
        with handle.lock:
            sock = handle.sock
            if sock is None:
                raise ConnectionError(f"shard {handle.index} is down")
            try:
                sock.settimeout(timeout)
                _send_frame(sock, message)
                return _recv_frame(sock)
            except (OSError, ConnectionError, socket.timeout,
                    json.JSONDecodeError) as error:
                # The stream may be desynced mid-frame; drop the channel
                # so the supervisor (or the caller's recovery) respawns.
                try:
                    sock.close()
                except OSError:
                    pass
                handle.sock = None
                raise ConnectionError(
                    f"shard {handle.index} RPC failed: "
                    f"{type(error).__name__}: {error}") from error

    def _recover(self, handle: _ShardHandle) -> None:
        """Respawn a dead/broken shard and replay its lost sessions."""
        if self._stopping:
            return
        with handle.lock:
            if self._stopping:
                return
            process = handle.process
            if process is not None and process.is_alive() \
                    and handle.sock is not None:
                return                 # raced with another recoverer
            logger.warning("shard %d (pid %s) is down; respawning",
                           handle.index,
                           process.pid if process is not None else "?")
            if process is not None and process.is_alive():
                process.terminate()    # alive but channel broken
                process.join(2.0)
                if process.is_alive():
                    process.kill()
                    process.join(2.0)
            if handle.sock is not None:
                try:
                    handle.sock.close()
                except OSError:
                    pass
                handle.sock = None
            self._spawn_locked(handle)
            metrics = get_metrics()
            metrics.counter("service.shard_respawns",
                            help="Shard processes respawned by the "
                                 "supervisor").inc()
            metrics.counter(f"service.shard{handle.index}.respawns",
                            help="Respawns of this shard").inc()
            self._replay_locked(handle)

    def _replay_locked(self, handle: _ShardHandle) -> int:
        """Resubmit this shard's acknowledged-but-unfinished sessions.

        Replay source is the shared audit JSONL: ``shard-accepted``
        events owned by this shard whose session has no terminal event.
        Caller holds ``handle.lock`` (the RPCs below re-enter it).
        """
        try:
            events = AuditLog.read_jsonl(self.audit_path)
        except FileNotFoundError:      # pragma: no cover - nothing to do
            return 0
        accepted: Dict[str, Dict[str, object]] = {}
        finished = set()
        for event in events:
            session_id = str(event.get("session"))
            kind = event.get("event")
            if kind == "shard-accepted" and event.get("shard") == handle.index:
                accepted[session_id] = event
            elif kind in _TERMINAL_EVENTS:
                finished.add(session_id)
        replayed = 0
        for session_id, event in accepted.items():
            if session_id in finished:
                continue
            try:
                reply = self._rpc(handle, {
                    "op": "submit", "session": session_id,
                    "trace": event.get("trace"),
                    "request": event["request"],
                    "max_queue_depth": None,   # recovery must not shed
                }, self.rpc_timeout)
            except ConnectionError as error:
                logger.warning("shard %d: replay of %s failed: %s",
                               handle.index, session_id, error)
                continue
            if reply.get("ok"):
                replayed += 1
                self.audit.emit(session_id, "shard-replayed",
                                shard=handle.index,
                                trace=event.get("trace"))
            else:
                logger.warning("shard %d: replay of %s rejected: %r",
                               handle.index, session_id, reply)
        if replayed:
            get_metrics().counter(
                "service.sessions_replayed",
                help="Sessions re-enqueued by audit replay after a "
                     "shard respawn").inc(replayed)
            logger.info("shard %d: replayed %d session(s) from the "
                        "audit log", handle.index, replayed)
        return replayed

    def _supervise(self) -> None:
        """Heartbeat + process sentinel; respawns and replays on death."""
        while not self._stop_event.wait(self.heartbeat_interval):
            for handle in self._handles:
                if self._stop_event.is_set():
                    return
                process = handle.process
                if process is None or not process.is_alive() \
                        or handle.sock is None:
                    self._recover(handle)
                    continue
                try:
                    reply = self._rpc(handle, {"op": "stats"},
                                      self.heartbeat_timeout)
                except ConnectionError:
                    self._recover(handle)
                    continue
                if not reply.get("ok"):
                    continue
                stats = reply["result"]
                handle.stats = stats
                metrics = get_metrics()
                prefix = f"service.shard{handle.index}"
                metrics.gauge(f"{prefix}.queue_depth",
                              help="Sessions queued on this shard").set(
                    stats["queue_depth"])
                metrics.gauge(f"{prefix}.sessions",
                              help="Sessions held on this shard").set(
                    stats["session_count"])
                metrics.gauge(f"{prefix}.workers_alive",
                              help="Live worker threads on this "
                                   "shard").set(stats["workers_alive"])

    # -- client API (front-door compatible) --------------------------------
    def shard_for(self, tenant: str) -> int:
        """The shard index a tenant's sessions land on."""
        return self._ring.node_for(str(tenant))

    def shard_pid(self, index: int) -> Optional[int]:
        """The shard's current pid (tests and benchmarks kill it)."""
        process = self._handles[index].process
        return process.pid if process is not None else None

    def submit(self, request: TuningRequest, *,
               trace_id: str | None = None,
               max_queue_depth: int | None = None) -> str:
        """Route a request to its tenant's shard; returns the session id.

        The id is allocated here (one parent-wide sequence — shard-local
        counters would collide) and the acknowledgement is durably
        recorded as a ``shard-accepted`` audit event *after* the shard
        acks, so replay never resurrects a shed submission.

        ``max_queue_depth`` is a fleet-wide bound; each shard enforces
        its per-shard share (``ceil(bound / shards)``).
        """
        if self._stopping:
            raise RuntimeError("service is shutting down")
        if self.autostart and not self._started:
            self.start()
        tenant = str(request.tenant)
        shard = self.shard_for(tenant)
        handle = self._handles[shard]
        wire = request_to_wire(request)
        trace = (trace_id if trace_id is not None
                 else get_tracer().new_trace_id())
        with self._meta_lock:
            self._seq += 1
            session_id = f"s{self._seq:04d}"
        per_shard = (None if max_queue_depth is None
                     else max(1, math.ceil(max_queue_depth / self.shards)))
        message = {"op": "submit", "session": session_id, "trace": trace,
                   "request": wire, "max_queue_depth": per_shard}
        try:
            reply = self._rpc(handle, message, self.rpc_timeout)
        except ConnectionError:
            # One recovery attempt: the respawned shard replays its old
            # sessions first, then takes this one.
            self._recover(handle)
            reply = self._rpc(handle, message, self.rpc_timeout)
        if not reply.get("ok"):
            if reply.get("kind") == "queue-full":
                raise QueueFullError(int(reply["depth"]),
                                     int(reply["bound"]))
            raise RuntimeError(f"shard {shard} rejected the submission: "
                               f"{reply.get('error', reply)}")
        self.audit.emit(session_id, "shard-accepted", shard=shard,
                        tenant=tenant, trace=trace, request=wire)
        with self._meta_lock:
            self._meta[session_id] = {"shard": shard, "trace": trace,
                                      "tenant": tenant}
            self._prune_meta_locked()
        get_metrics().counter(
            "service.sharded_submissions",
            help="Sessions accepted by the sharded service").inc()
        return session_id

    def _prune_meta_locked(self) -> None:
        """Degrade the oldest routing entries to EXPIRED markers.

        Caller holds ``_meta_lock``.  Unbounded when ``session_retention``
        is ``None`` — matching the shards themselves, which then retain
        every session record.
        """
        if self._meta_cap is None:
            return
        while len(self._meta) > self._meta_cap:
            sid = next(iter(self._meta))
            del self._meta[sid]
            self._meta_expired[sid] = None
        marker_cap = max(1000, 4 * self._meta_cap)
        while len(self._meta_expired) > marker_cap:
            self._meta_expired.pop(next(iter(self._meta_expired)))

    def _expire_meta(self, session_id: str) -> Dict[str, object]:
        """Move an id to the expired markers; returns the EXPIRED status."""
        with self._meta_lock:
            self._meta.pop(session_id, None)
            self._meta_expired[session_id] = None
            self._prune_meta_locked()
        return {"id": session_id, "state": SessionState.EXPIRED,
                "expired": True}

    def _terminal_in_audit(self, session_id: str) -> bool:
        """Whether the shared JSONL records a terminal event for the id."""
        try:
            events = AuditLog.read_jsonl(self.audit_path)
        except FileNotFoundError:
            return False
        return any(str(event.get("session")) == session_id
                   and event.get("event") in _TERMINAL_EVENTS
                   for event in events)

    def status(self, session_id: str) -> Dict[str, object]:
        """One session's snapshot, fetched from its owning shard.

        While the shard is dead or mid-replay the session still answers —
        with a ``recovering`` placeholder — because the submission was
        acknowledged and will be replayed; a 404 here would tell the
        client its session was lost.  A session that reached a terminal
        state *before* a shard crash is deliberately not replayed, so the
        fresh shard has never heard of it: the audit log is the arbiter —
        a terminal event there turns the answer into an ``EXPIRED``
        marker (410 at the front door) instead of a forever-``SUBMITTED``
        placeholder that would spin :meth:`wait` until timeout.
        """
        with self._meta_lock:
            meta = self._meta.get(session_id)
            expired = session_id in self._meta_expired
        if meta is None:
            if expired:
                return {"id": session_id, "state": SessionState.EXPIRED,
                        "expired": True}
            raise KeyError(f"unknown session {session_id!r}")
        placeholder = {"id": session_id, "tenant": meta["tenant"],
                       "state": SessionState.SUBMITTED, "recovering": True,
                       "trace": meta["trace"]}
        handle = self._handles[meta["shard"]]
        try:
            reply = self._rpc(handle, {"op": "status",
                                       "session": session_id},
                              self.rpc_timeout)
        except ConnectionError:
            return placeholder
        if reply.get("ok"):
            result = reply["result"]
            if isinstance(result, dict) and result.get("expired"):
                # The shard evicted the record; route future polls off
                # the shard (and off _meta) entirely.
                return self._expire_meta(session_id)
            return result
        if reply.get("kind") == "unknown-session":
            if self._terminal_in_audit(session_id):
                return self._expire_meta(session_id)
            return placeholder         # respawned; replay is in flight
        raise RuntimeError(f"shard {meta['shard']} status failed: "
                           f"{reply.get('error', reply)}")

    def sessions(self) -> List[Dict[str, object]]:
        """Status snapshots across every reachable shard."""
        snapshots: List[Dict[str, object]] = []
        for handle in self._handles:
            try:
                reply = self._rpc(handle, {"op": "sessions"},
                                  self.rpc_timeout)
            except ConnectionError:
                continue
            if reply.get("ok"):
                snapshots.extend(reply["result"])
        return snapshots

    def _stats(self, handle: _ShardHandle) -> Dict[str, object]:
        try:
            reply = self._rpc(handle, {"op": "stats"}, self.rpc_timeout)
        except ConnectionError:
            return dict(handle.stats)  # last heartbeat's view
        if reply.get("ok"):
            handle.stats = reply["result"]
        return dict(handle.stats)

    def queue_depth(self) -> int:
        return sum(int(self._stats(handle).get("queue_depth", 0))
                   for handle in self._handles)

    def session_count(self) -> int:
        return sum(int(self._stats(handle).get("session_count", 0))
                   for handle in self._handles)

    def workers_alive(self) -> int:
        """Live worker threads across shards; dead shards count zero."""
        total = 0
        for handle in self._handles:
            process = handle.process
            if process is None or not process.is_alive():
                continue
            total += int(self._stats(handle).get("workers_alive", 0))
        return total

    def wait(self, session_id: str,
             timeout: float | None = None) -> Dict[str, object]:
        """Poll until the session is terminal; returns the final status.

        Unlike :meth:`TuningService.wait` this returns the status *dict*
        — the session object lives in another process.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(session_id)
            if status.get("state") in SessionState.TERMINAL:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"session {session_id} still "
                                   f"{status.get('state')} after {timeout}s")
            time.sleep(0.05)

    def drain(self, timeout: float | None = None) -> None:
        """Block until every shard reports no queued or in-flight session.

        A shard that dies mid-drain keeps the drain alive: its RPC
        failure counts as pending work until the supervisor respawns it
        and the replayed sessions finish.  One overall deadline.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            pending = 0
            unreachable = 0
            for handle in self._handles:
                try:
                    reply = self._rpc(handle, {"op": "stats"},
                                      self.rpc_timeout)
                except ConnectionError:
                    unreachable += 1
                    continue
                if reply.get("ok"):
                    pending += int(reply["result"].get("pending", 0))
                else:
                    unreachable += 1
            if pending == 0 and unreachable == 0:
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{pending} session(s) pending ({unreachable} shard(s) "
                    f"unreachable) after the overall {timeout}s drain "
                    f"deadline")
            time.sleep(0.1)
