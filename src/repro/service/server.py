"""The long-lived, multi-tenant tuning service (§2.2, Figure 2 at scale).

The paper's deployment serves *many* concurrent client tuning requests
against pools of CDB instances; this module turns the repo's single-run
pipeline into that shape.  A :class:`TuningService` owns

* a **priority job queue** of :class:`TuningRequest`\\ s and a pool of
  worker threads that drain it;
* a **model registry** (:mod:`repro.service.registry`) consulted before
  every session: a nearby pre-trained model is fine-tuned instead of
  cold-starting, reproducing the §5.3 adaptability results as a service
  feature;
* a **safety guard** (:mod:`repro.service.safety`) that canary-evaluates
  every recommendation against the tenant's live baseline before anything
  is deployed, with per-tenant rollback;
* an **audit log** (:mod:`repro.service.audit`) recording queueing,
  warm-start provenance, canary verdicts and deployments per session.

Session lifecycle::

    SUBMITTED → WARMUP → TRAINING → RECOMMENDED → DEPLOYED
                                                → FAILED

A request's ``mode`` picks the stages its session runs from one table,
:data:`MODES`; each stage is one ``TuningService._stage_<name>`` method
with its own span and phase timing.

One-shot sessions (``mode="oneshot"``, with a fitted
:class:`~repro.oneshot.OneShotRecommender` attached) pass through an
extra ``PREDICTED`` state between WARMUP and TRAINING: the corpus-trained
model's config is emitted instantly as a provisional recommendation —
audited as ``oneshot-predicted`` and guard-canaried like any candidate —
and the DDPG loop then runs as a refinement pass with a reduced budget.

Sessions are deterministic under a fixed request seed regardless of how
worker threads interleave: each session owns its private tuner, database
and RNG chain, and cross-session coupling happens only through the
registry (warm-start) and guard (baseline config), both of which the
caller sequences explicitly when determinism across sessions matters.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from .audit import AuditLog
from .recommendation import Recommendation as ServiceRecommendation
from .registry import ModelRegistry
from .safety import CanaryVerdict, SafetyGuard
from ..core.pipeline import check_train_args
from ..core.recommender import Recommendation
from ..core.results import SessionReport, Telemetry, TrainingResult, TuningResult
from ..core.tuner import CDBTune
from ..dbsim.hardware import HardwareSpec
from ..dbsim.workload import WorkloadSpec, get_workload
from ..obs import get_logger, get_metrics, get_tracer
from ..reuse.compress import CompressionResult, WorkloadCompressor
from ..reuse.history import HistoryStore
from ..reuse.mix import WorkloadMix
from ..reuse.verify import (ConfigVerifier, VerificationResult,
                            performance_score)

logger = get_logger(__name__)

__all__ = ["MODES", "QueueFullError", "SessionState", "TuningRequest",
           "TuningSession", "TuningService"]


class QueueFullError(RuntimeError):
    """:meth:`TuningService.submit` rejected by the queue-depth bound.

    The service sheds load instead of queueing unboundedly; callers (the
    async front door) translate this into HTTP 429 and the client retries
    with backoff.
    """

    def __init__(self, depth: int, bound: int) -> None:
        super().__init__(
            f"queue depth {depth} at bound {bound}; resubmit later")
        self.depth = depth
        self.bound = bound


class SessionState:
    """Lifecycle states of a tuning session.

    ``EXPIRED`` is not a lifecycle transition: it is the marker state
    :meth:`TuningService.status` reports for a terminal session whose
    record has been evicted past the retention bound (the front door
    translates it to HTTP 410).
    """

    SUBMITTED = "SUBMITTED"
    WARMUP = "WARMUP"
    PREDICTED = "PREDICTED"   # one-shot sessions only: provisional config out
    TRAINING = "TRAINING"
    RECOMMENDED = "RECOMMENDED"
    DEPLOYED = "DEPLOYED"
    FAILED = "FAILED"
    EXPIRED = "EXPIRED"

    TERMINAL = frozenset({DEPLOYED, FAILED, EXPIRED})


#: The stages each request mode runs, in order; stage ``x`` is the
#: method ``TuningService._stage_x``.  ``full`` is the paper's session
#: (§2.1.2): train, tune, then the canary before deploy (OnlineTune).
#: ``refine`` first bootstraps from the service's tuning history;
#: ``oneshot`` also predicts a config from the tuning corpus and demotes
#: the search to a reduced-budget refinement (E2ETune); ``compress``
#: tunes on a one-component compression of the workload mix and verifies
#: the best candidates on the full mix.
MODES: Dict[str, Tuple[str, ...]] = {
    "full": ("warmup", "training", "tuning", "recommend", "canary"),
    "refine": ("warmup", "history", "training", "tuning", "recommend",
               "canary"),
    "oneshot": ("warmup", "history", "oneshot", "training", "tuning",
                "recommend", "canary"),
    "compress": ("warmup", "compress", "training", "tuning", "verify",
                 "recommend", "canary"),
}

#: The state a session enters as a stage starts.  The states a stage
#: reaches by its outcome (PREDICTED, RECOMMENDED, DEPLOYED, FAILED) are
#: entered by the stage itself.
_ENTRY_STATES = {"warmup": SessionState.WARMUP,
                 "training": SessionState.TRAINING}


@dataclass
class TuningRequest:
    """One tenant's tuning job.

    ``tenant`` defaults to ``workload@hardware`` — the paper's notion of a
    tuning task (a workload on an instance type).  Higher ``priority``
    values are served first; ties go to submission order.

    ``workload`` may be a :class:`~repro.reuse.mix.WorkloadMix` (or a mix
    dict through the front door).

    ``mode`` picks the stages the session runs (:data:`MODES`):
    ``"full"`` (the default) trains and tunes, warm-started when the
    registry holds a close-enough model; ``"refine"`` also seeds warmup
    probes and the replay buffer from the service's
    :class:`~repro.reuse.history.HistoryStore`; ``"oneshot"`` does that
    and serves an instant prediction from the tuning corpus before a
    reduced-budget refinement; ``"compress"`` tunes on the workload
    compressed to one component per time slice and verifies the best
    candidates on the full workload before the canary.

    ``train_kwargs`` are passed to
    :func:`~repro.core.pipeline.offline_train`; the service sets
    ``max_steps`` itself, from ``train_steps``.
    """

    hardware: HardwareSpec
    workload: WorkloadSpec | WorkloadMix | str
    tenant: str | None = None
    priority: int = 0
    train_steps: int = 60
    tune_steps: int = 5
    current_config: Dict[str, float] | None = None
    seed: int = 0
    noise: float = 0.015
    mode: str = "full"
    train_kwargs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.workload, str):
            self.workload = get_workload(self.workload)
        elif isinstance(self.workload, dict):
            self.workload = WorkloadMix.from_dict(self.workload)
        if self.tenant is None:
            self.tenant = f"{self.workload.name}@{self.hardware.name}"
        elif not isinstance(self.tenant, str):
            raise TypeError(f"tenant must be a string, not "
                            f"{type(self.tenant).__name__}")
        self.mode = str(self.mode)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; "
                             f"expected one of {list(MODES)}")
        # Coerce numeric fields up front (requests arrive as parsed JSON
        # through the front door) so a bad value raises here, not deep in
        # the queue's heap ordering or a worker thread.
        self.priority = int(self.priority)
        self.train_steps = int(self.train_steps)
        self.tune_steps = int(self.tune_steps)
        self.seed = int(self.seed)
        self.noise = float(self.noise)
        if self.train_steps <= 0 or self.tune_steps <= 0:
            raise ValueError("train_steps and tune_steps must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.noise >= 0.0:      # NaN fails too
            raise ValueError("noise must be non-negative")
        self.train_kwargs = dict(self.train_kwargs)
        if "max_steps" in self.train_kwargs:
            raise ValueError("train_kwargs must not set max_steps; "
                             "train_steps sets it")
        check_train_args(self.train_kwargs)


class TuningSession:
    """Mutable state of one submitted request, safe for concurrent reads."""

    def __init__(self, session_id: str, request: TuningRequest) -> None:
        self.id = session_id
        self.request = request
        self._lock = threading.Lock()
        self._state = SessionState.SUBMITTED
        self.state_history: List[str] = [SessionState.SUBMITTED]
        self.done = threading.Event()
        self.error: str | None = None
        self.warm_started_from: str | None = None
        self.warm_start_distance: float | None = None
        self.train_budget: int = request.train_steps
        self.training: TrainingResult | None = None
        self.tuning: TuningResult | None = None
        self.recommendation: Recommendation | None = None
        self.service_recommendation: ServiceRecommendation | None = None
        self.provisional: ServiceRecommendation | None = None
        self.prediction_latency: float | None = None
        self.verdict: CanaryVerdict | None = None
        self.model_id: str | None = None
        self.deployed = False
        self.trace_id: str | None = None
        self.phase_seconds: Dict[str, float] = {}
        self.compression: CompressionResult | None = None
        self.verification: VerificationResult | None = None
        self.history_seeded: Dict[str, object] | None = None

    # -- state machine -----------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, state: str) -> None:
        with self._lock:
            self._state = state
            self.state_history.append(state)
        if state in SessionState.TERMINAL:
            self.done.set()

    # -- introspection -----------------------------------------------------
    def status(self) -> Dict[str, object]:
        """Point-in-time snapshot for clients polling progress."""
        with self._lock:
            state = self._state
            history = list(self.state_history)
        workload = self.request.workload
        assert not isinstance(workload, str)  # resolved in __post_init__
        snapshot: Dict[str, object] = {
            "id": self.id,
            "tenant": self.request.tenant,
            "workload": workload.name,
            "hardware": self.request.hardware.name,
            "priority": self.request.priority,
            "mode": self.request.mode,
            "state": state,
            "state_history": history,
            "warm_started_from": self.warm_started_from,
            "warm_start_distance": self.warm_start_distance,
            "train_budget": self.train_budget,
            "deployed": self.deployed,
            "model_id": self.model_id,
            "error": self.error,
            "trace": self.trace_id,
        }
        if self.training is not None:
            snapshot["train_steps_run"] = self.training.steps
            snapshot["train_crashes"] = self.training.crashes
        if self.tuning is not None:
            snapshot["best_throughput"] = self.tuning.best.throughput
            snapshot["best_latency"] = self.tuning.best.latency
            snapshot["throughput_improvement"] = (
                self.tuning.throughput_improvement)
        if self.verdict is not None:
            snapshot["canary"] = self.verdict.as_dict()
        if self.compression is not None:
            snapshot["compression"] = {
                "components_kept": self.compression.components_kept,
                "components_total": self.compression.components_total,
                "ratio": self.compression.compression_ratio,
                "error_estimate": self.compression.error_estimate,
            }
        if self.verification is not None:
            snapshot["verification"] = self.verification.to_dict()
        if self.history_seeded is not None:
            snapshot["history_bootstrap"] = dict(self.history_seeded)
        # The structured recommendation: the final one once RECOMMENDED,
        # else the provisional one-shot prediction (clients polling a
        # one-shot session see a usable config the moment it exists).
        recommendation = self.service_recommendation or self.provisional
        if recommendation is not None:
            snapshot["recommendation"] = recommendation.to_dict()
        if self.prediction_latency is not None:
            snapshot["prediction_latency_s"] = self.prediction_latency
        return snapshot

    def report(self) -> SessionReport:
        """End-to-end :class:`SessionReport` for this session.

        The report's telemetry merges the training and tuning telemetry
        blocks with the service-side phase timings (``service.*`` phases),
        all under the session's trace id.
        """
        with self._lock:
            state = self._state
            history = list(self.state_history)
        workload = self.request.workload
        assert not isinstance(workload, str)  # resolved in __post_init__
        telemetry = Telemetry(trace_id=self.trace_id)
        if self.training is not None:
            telemetry = telemetry.merge(self.training.telemetry)
        if self.tuning is not None:
            telemetry = telemetry.merge(self.tuning.telemetry)
        telemetry.trace_id = self.trace_id
        for phase, seconds in self.phase_seconds.items():
            telemetry.add_phase(f"service.{phase}", seconds)
        return SessionReport(
            session_id=self.id,
            tenant=str(self.request.tenant),
            workload=workload.name,
            hardware=self.request.hardware.name,
            state=state,
            state_history=history,
            priority=self.request.priority,
            warm_started_from=self.warm_started_from,
            warm_start_distance=self.warm_start_distance,
            train_budget=self.train_budget,
            deployed=self.deployed,
            model_id=self.model_id,
            error=self.error,
            training=self.training,
            tuning=self.tuning,
            canary=(self.verdict.as_dict()
                    if self.verdict is not None else None),
            recommendation=(
                (self.service_recommendation or self.provisional).to_dict()
                if (self.service_recommendation or self.provisional)
                is not None else None),
            telemetry=telemetry,
        )


@dataclass
class _Work:
    """What one session's stages hand on to the next ones.

    Lives only while the session runs, so the tuner it holds is freed
    when the session ends.
    """

    tuning_workload: WorkloadSpec | WorkloadMix
    train_kwargs: Dict[str, object]
    tuner: CDBTune | None = None
    baseline: Dict[str, float] | None = None
    incumbent_metrics: List[float] | None = None
    deployed_config: Dict[str, float] | None = None
    outcome: str | None = None


#: Builds the per-session tuner; override to change registry/architecture.
TunerFactory = Callable[[TuningRequest], CDBTune]


def _default_tuner_factory(request: TuningRequest) -> CDBTune:
    return CDBTune(seed=request.seed, noise=request.noise)


class TuningService:
    """Multi-tenant tuning front end: queue, workers, registry, guard.

    Parameters
    ----------
    registry:
        Model registry for warm starts; ``None`` disables them.
    guard:
        Safety guard; defaults to a fresh :class:`SafetyGuard` with the
        default SLA.
    audit:
        Audit log; defaults to in-memory only.
    history:
        Tuning-history store backing ``refine`` and ``oneshot`` sessions;
        defaults to a fresh in-memory store that accumulates every session
        this service completes.  Pre-populate it (e.g.
        :meth:`HistoryStore.from_audit` over yesterday's JSONL) to let
        the first session of the day bootstrap warm.
    workers:
        Worker-thread count — the number of sessions tuned concurrently.
    oneshot:
        A fitted :class:`~repro.oneshot.OneShotRecommender`; ``None``
        (default) disables the one-shot stage — ``mode="oneshot"``
        requests then degrade to ``refine`` behaviour with an
        ``oneshot-unavailable`` audit record.  Assignable after
        construction (``service.oneshot = ...``), e.g. once the first
        corpus has been mined.
    autostart:
        Spawn workers on the first :meth:`submit` (default).  With
        ``autostart=False`` submissions only queue until :meth:`start` —
        useful to batch a backlog and let priorities decide the order.
    session_retention:
        Keep at most this many *terminal* session records in memory; the
        oldest are evicted once the bound is exceeded (``None``, the
        default, retains everything).  A long-lived fleet deployment must
        bound this or ``_sessions`` grows without limit.  :meth:`status`
        for an evicted id returns an ``EXPIRED`` marker (HTTP 410 at the
        front door) instead of raising :class:`KeyError`.
    """

    #: Registry matches farther than this (workload-signature distance +
    #: hardware distance) cold-start instead: the same workload on resized
    #: hardware (Figures 10–11) warm-starts, a different workload family
    #: does not.
    warm_start_max_distance = 0.35
    #: Fraction of the requested ``train_steps`` a warm-started session
    #: spends fine-tuning (§5.3: fine-tuning needs far fewer iterations
    #: than cold training).
    warm_start_budget_frac = 0.5
    #: Fraction of the (possibly already warm-start-reduced) training
    #: budget a one-shot session spends on its refinement pass — the
    #: prediction replaces most of the search, E2ETune-style.
    oneshot_budget_frac = 0.5

    def __init__(self, registry: ModelRegistry | None = None,
                 guard: SafetyGuard | None = None,
                 audit: AuditLog | None = None,
                 history: HistoryStore | None = None,
                 workers: int = 2,
                 oneshot=None,
                 tuner_factory: TunerFactory | None = None,
                 autostart: bool = True,
                 session_retention: int | None = None) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if session_retention is not None and int(session_retention) < 1:
            raise ValueError("session_retention must be at least 1")
        self.registry = registry
        self.guard = guard if guard is not None else SafetyGuard()
        self.audit = audit if audit is not None else AuditLog()
        self.history = history if history is not None else HistoryStore()
        self.workers = int(workers)
        self.oneshot = oneshot
        self.tuner_factory = tuner_factory or _default_tuner_factory
        self.autostart = bool(autostart)
        self.session_retention = (None if session_retention is None
                                  else int(session_retention))

        self._cond = threading.Condition()
        self._queue: List[tuple] = []    # (-priority, seq, session)
        self._seq = 0
        self._sessions: Dict[str, TuningSession] = {}
        self._evicted: Dict[str, None] = {}   # ordered id set, capped
        self._threads: List[threading.Thread] = []
        self._stopping = False
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "TuningService":
        """Spawn the worker threads (idempotent)."""
        with self._cond:
            if self._started:
                return self
            if self._stopping:
                raise RuntimeError("service has been shut down")
            self._started = True
            for index in range(self.workers):
                thread = threading.Thread(target=self._worker_loop,
                                          name=f"tuning-worker-{index}",
                                          daemon=True)
                self._threads.append(thread)
                thread.start()
        return self

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service.

        With ``drain`` (default) queued and in-flight sessions finish
        first; otherwise queued sessions are cancelled (marked FAILED) and
        only in-flight ones run to completion.

        ``timeout`` is one overall deadline for the whole shutdown, not a
        per-thread allowance: joining each of N workers with the full
        timeout would stretch a requested bound to N × ``timeout``.
        """
        with self._cond:
            if not drain:
                while self._queue:
                    _, _, session = heapq.heappop(self._queue)
                    session.error = "cancelled at shutdown"
                    session._transition(SessionState.FAILED)
                    self._safe_audit(session, "cancelled", reason="shutdown")
            self._stopping = True
            self._cond.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            thread.join(None if deadline is None
                        else max(0.0, deadline - time.monotonic()))
        self._threads = [t for t in self._threads if t.is_alive()]

    def __enter__(self) -> "TuningService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=not any(exc_info))

    # -- client API --------------------------------------------------------
    def submit(self, request: TuningRequest, *,
               trace_id: str | None = None,
               max_queue_depth: int | None = None,
               session_id: str | None = None) -> str:
        """Queue a request; returns the session id immediately.

        When tracing is on, the session is assigned a trace id here; every
        span of the session — submission, warmup, training, canary — and
        every audit record joins it, so one trace covers the whole
        lifecycle across the submitting and worker threads.  A caller that
        already opened a trace (the HTTP front door, at accept time)
        passes its ``trace_id`` so the session joins it instead.

        ``max_queue_depth`` bounds the priority queue *atomically with the
        insert*: when the queue already holds that many waiting sessions
        the request is rejected with :class:`QueueFullError` and no
        session is created.  A separate depth check before ``submit``
        would race against concurrent submitters.

        ``session_id`` overrides the generated id — the sharded service's
        supervisor passes the originally acknowledged id when it replays
        recovered sessions into a respawned shard, so clients keep
        polling the id they were given.

        The ``queued`` audit record is written before the session enters
        the queue, so no worker can audit the session ahead of it; when
        that write fails, submit raises and nothing is queued.
        """
        tracer = get_tracer()
        with self._cond:
            if self._stopping:
                raise RuntimeError("service is shutting down")
            if max_queue_depth is not None \
                    and len(self._queue) >= max_queue_depth:
                raise QueueFullError(len(self._queue), max_queue_depth)
            if session_id is not None and (session_id in self._sessions
                                           or session_id in self._evicted):
                raise ValueError(f"duplicate session id {session_id!r}")
            self._seq += 1
            session = TuningSession(
                session_id if session_id is not None
                else f"s{self._seq:04d}", request)
            session.trace_id = (trace_id if trace_id is not None
                                else tracer.new_trace_id())
            with tracer.root_span("service.submit",
                                  trace_id=session.trace_id,
                                  session=session.id, tenant=request.tenant,
                                  priority=request.priority):
                self._audit(session, "queued", tenant=request.tenant,
                            workload=request.workload.name,
                            hardware=request.hardware.name,
                            priority=request.priority,
                            train_steps=request.train_steps,
                            signature=request.workload.signature())
            self._sessions[session.id] = session
            heapq.heappush(self._queue,
                           (-int(request.priority), self._seq, session))
            depth = len(self._queue)
            self._cond.notify()
        metrics = get_metrics()
        metrics.counter("service.sessions_submitted",
                        help="Sessions accepted by submit()").inc()
        metrics.gauge("service.queue_depth",
                      help="Sessions queued, not yet picked up").set(depth)
        if self.autostart and not self._started:
            self.start()
        return session.id

    def session(self, session_id: str) -> TuningSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"unknown session {session_id!r}") from None

    def status(self, session_id: str) -> Dict[str, object]:
        """Status snapshot; an ``EXPIRED`` marker for evicted sessions.

        A session evicted past the retention bound is *known but gone*:
        reporting it as unknown (:class:`KeyError` → 404) would tell a
        polling client its acknowledged submission was lost.  The marker
        maps to HTTP 410 at the front door.
        """
        try:
            return self.session(session_id).status()
        except KeyError:
            with self._cond:
                expired = session_id in self._evicted
            if expired:
                return {"id": session_id, "state": SessionState.EXPIRED,
                        "expired": True}
            raise

    def sessions(self) -> List[Dict[str, object]]:
        """Status snapshots of every session, in submission order.

        The session table is snapshotted under the service lock: iterating
        ``self._sessions`` directly would race against concurrent
        ``submit()`` calls mutating the dict mid-iteration
        (``RuntimeError: dictionary changed size during iteration``).
        """
        with self._cond:
            snapshot = list(self._sessions.values())
        return [session.status() for session in snapshot]

    def queue_depth(self) -> int:
        """Sessions queued and not yet picked up by a worker."""
        with self._cond:
            return len(self._queue)

    def session_count(self) -> int:
        """Sessions currently held in memory (excludes evicted ones)."""
        with self._cond:
            return len(self._sessions)

    def workers_alive(self) -> int:
        """Worker threads currently running (== ``workers`` when healthy).

        A shrinking pool means a worker died on an unhandled error; the
        front door's ``/v1/healthz`` reports this count.
        """
        with self._cond:
            threads = list(self._threads)
        return sum(1 for thread in threads if thread.is_alive())

    def wait(self, session_id: str, timeout: float | None = None) -> TuningSession:
        """Block until a session reaches a terminal state."""
        session = self.session(session_id)
        if not session.done.wait(timeout):
            raise TimeoutError(f"session {session_id} still "
                               f"{session.state} after {timeout}s")
        return session

    def drain(self, timeout: float | None = None) -> None:
        """Block until the queue is empty and no session is in flight.

        Loops until a locked snapshot shows no unfinished session, so
        sessions submitted *while* draining are waited on too (the old
        single pass over ``list(self._sessions)`` missed them).

        ``timeout`` is one overall deadline for the whole drain.  Waiting
        per-session with the full timeout let a backlog that finishes one
        session per window stretch a requested bound to N × ``timeout``
        without ever raising.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._cond:
                pending = [session for session in self._sessions.values()
                           if not session.done.is_set()]
            if not pending:
                return
            for session in pending:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if (remaining is not None and remaining <= 0) \
                        or not session.done.wait(remaining):
                    raise TimeoutError(
                        f"session {session.id} still {session.state} "
                        f"after the overall {timeout}s drain deadline")

    # -- worker side -------------------------------------------------------
    def _audit(self, session: TuningSession, event: str, **fields) -> None:
        """Audit emission carrying the session's trace id (when traced)."""
        if session.trace_id is not None:
            fields.setdefault("trace", session.trace_id)
        self.audit.emit(session.id, event, **fields)

    def _safe_audit(self, session: TuningSession, event: str,
                    **fields) -> None:
        """Audit emission that must never propagate (worker cleanup paths).

        A failing ``emit`` — disk full on the JSONL path, an
        unserializable field — outside the session guard would kill the
        worker thread permanently and strand every queued session behind
        a silently shrunken pool.
        """
        try:
            self._audit(session, event, **fields)
        except Exception as error:  # noqa: BLE001 - log, never die
            get_metrics().counter(
                "service.audit_failures",
                help="Audit emissions swallowed to keep workers alive").inc()
            logger.warning("session %s: audit %r emission failed: %s: %s",
                           session.id, event, type(error).__name__, error)

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait()
                if not self._queue:
                    return                      # stopping and drained
                _, _, session = heapq.heappop(self._queue)
                depth = len(self._queue)
            get_metrics().gauge(
                "service.queue_depth",
                help="Sessions queued, not yet picked up").set(depth)
            try:
                self._process(session)
            except Exception as error:  # noqa: BLE001 - session must terminate
                session.error = f"{type(error).__name__}: {error}"
                logger.warning("session %s failed: %s", session.id,
                               session.error)
                self._safe_audit(session, "failed", error=session.error)
                session._transition(SessionState.FAILED)
            try:
                report = session.report().to_dict()
            except Exception as error:  # noqa: BLE001 - report is best-effort
                logger.warning("session %s: report rendering failed: %s: %s",
                               session.id, type(error).__name__, error)
            else:
                self._safe_audit(session, "session-report", report=report)
            self._evict_terminal()

    def _evict_terminal(self) -> None:
        """Drop the oldest terminal sessions past the retention bound.

        Only their ids are remembered (in a capped, insertion-ordered
        set) so :meth:`status` can answer ``EXPIRED`` instead of
        pretending the session never existed.
        """
        if self.session_retention is None:
            return
        evicted = 0
        with self._cond:
            terminal = [sid for sid, session in self._sessions.items()
                        if session.done.is_set()]
            excess = len(terminal) - self.session_retention
            # A negative excess must not slice from the end: terminal[:-1]
            # would evict nearly everything while still under the bound.
            for sid in terminal[:excess] if excess > 0 else []:
                del self._sessions[sid]
                self._evicted[sid] = None
                evicted += 1
            marker_cap = max(1000, 4 * self.session_retention)
            while len(self._evicted) > marker_cap:
                self._evicted.pop(next(iter(self._evicted)))
        if evicted:
            get_metrics().counter(
                "service.sessions_evicted",
                help="Terminal sessions dropped past the retention "
                     "bound").inc(evicted)

    def _find_warm_start(self, session: TuningSession,
                         tuner: CDBTune) -> CDBTune:
        """Consult the registry; returns the tuner the session uses.

        A registered entry whose checkpoint has gone missing or corrupt
        on disk must degrade to a cold start, not fail the session: the
        load error is audited as ``warm-start-failed`` and a *fresh*
        tuner is returned with the full training budget (the failed load
        may have partially mutated the one passed in).
        """
        request = session.request
        workload = request.workload
        assert not isinstance(workload, str)  # resolved in __post_init__
        if self.registry is None:
            return tuner
        match = self.registry.find_nearest(
            workload, request.hardware,
            state_dim=tuner.agent.config.state_dim,
            action_dim=tuner.agent.config.action_dim,
            max_distance=self.warm_start_max_distance)
        if match is None:
            return tuner
        entry, distance = match
        try:
            self.registry.load_into(tuner, entry)
        except Exception as error:  # noqa: BLE001 - degrade to cold start
            logger.warning("session %s: warm start from %s failed (%s: %s); "
                           "cold-starting with full budget", session.id,
                           entry.model_id, type(error).__name__, error)
            get_metrics().counter(
                "service.warm_start_failures",
                help="Warm-start loads degraded to cold starts").inc()
            self._safe_audit(session, "warm-start-failed",
                             model=entry.model_id,
                             error=f"{type(error).__name__}: {error}")
            session.warm_started_from = None
            session.warm_start_distance = None
            session.train_budget = request.train_steps
            return self.tuner_factory(request)
        session.warm_started_from = entry.model_id
        session.warm_start_distance = distance
        session.train_budget = max(
            1, int(round(request.train_steps * self.warm_start_budget_frac)))
        self._audit(session, "warm-start", model=entry.model_id,
                    trained_on_workload=entry.workload_name,
                    trained_on_hardware=entry.hardware["name"],
                    distance=round(distance, 6),
                    budget=session.train_budget)
        return tuner

    def _process(self, session: TuningSession) -> None:
        """Run the stages of the session's mode (:data:`MODES`) in order.

        Each stage runs under its own ``service.<stage>`` span, whose wall
        time goes to the ``service.<stage>`` histogram and to
        ``phase_seconds[<stage>]``, also when the stage fails.
        """
        request = session.request
        tracer = get_tracer()
        metrics = get_metrics()
        work = _Work(tuning_workload=request.workload,
                     train_kwargs=dict(request.train_kwargs))
        # The session's spans live on this worker thread, but the trace id
        # was allocated at submit() — root_span joins that trace, so the
        # whole lifecycle renders as one tree.
        with tracer.root_span("service.session", trace_id=session.trace_id,
                              session=session.id,
                              tenant=request.tenant) as root:
            for stage in MODES[request.mode]:
                if stage in _ENTRY_STATES:
                    session._transition(_ENTRY_STATES[stage])
                span = tracer.span(f"service.{stage}")
                try:
                    with span:
                        getattr(self, f"_stage_{stage}")(session, work)
                finally:
                    metrics.histogram(f"service.{stage}").observe(
                        span.wall_s)
                    session.phase_seconds[stage] = span.wall_s
            root.set_tag("outcome", work.outcome)

    def _stage_warmup(self, session: TuningSession, work: _Work) -> None:
        """Build the tenant's tuner, consult the registry, and seed the
        tenant's baseline configuration with the guard."""
        request = session.request
        self._audit(session, "started", tenant=request.tenant)
        work.tuner = self._find_warm_start(session,
                                           self.tuner_factory(request))
        if session.warm_started_from is None:
            self._audit(session, "cold-start", budget=session.train_budget)
        baseline = dict(work.tuner.db_registry.defaults())
        if request.current_config is not None:
            baseline.update(
                work.tuner.db_registry.validate(request.current_config))
        work.baseline = baseline
        # Atomic check-and-seed: two concurrent sessions for the same
        # tenant must not both install a stack bottom.
        if self.guard.seed_baseline_if_absent(request.tenant, baseline):
            self._audit(session, "baseline-seeded", tenant=request.tenant)

    def _stage_compress(self, session: TuningSession, work: _Work) -> None:
        """Tune on the workload compressed to one component per slice.

        The full workload stays authoritative for warm-start matching,
        verification, the canary and registration.
        """
        workload = session.request.workload
        mix = (workload if isinstance(workload, WorkloadMix)
               else WorkloadMix.single(workload))
        compression = WorkloadCompressor(max_components=1).compress(mix)
        session.compression = compression
        work.tuning_workload = compression.mix
        get_metrics().counter(
            "service.compressions",
            help="Sessions tuned on a compressed mix").inc()
        self._audit(session, "compressed",
                    components_kept=compression.components_kept,
                    components_total=compression.components_total,
                    ratio=round(compression.compression_ratio, 4),
                    error_estimate=round(compression.error_estimate, 6))

    def _stage_history(self, session: TuningSession, work: _Work) -> None:
        """Seed warmup probes and the replay buffer from the history.

        Reports only what was merged into ``train_kwargs``: a caller's
        own ``warmup_seeds``/``replay_seeds`` win, and then the bootstrap
        contributed nothing.
        """
        bootstrap = self.history.bootstrap(
            session.request.workload.signature(), work.tuner.registry)
        applied = {}
        for key in ("warmup_seeds", "replay_seeds"):
            seeds = bootstrap[key]
            applied[key] = 0
            if len(seeds) and key not in work.train_kwargs:
                work.train_kwargs[key] = seeds
                applied[key] = len(seeds)
        session.history_seeded = {
            **applied, "nearest_distance": bootstrap["nearest_distance"]}
        get_metrics().counter(
            "service.history_bootstraps",
            help="Sessions bootstrapped from tuning history").inc()
        self._audit(session, "history-bootstrap", **session.history_seeded)

    def _stage_oneshot(self, session: TuningSession, work: _Work) -> None:
        """Predict a config from the tuning corpus before any search.

        The prediction is served at once as a provisional recommendation,
        canaried like any candidate and, when the canary accepts,
        provisionally deployed so the refinement starts from it.  Without
        a fitted recommender the session goes on as a ``refine`` one.
        """
        request = session.request
        workload = request.workload
        tenant = request.tenant
        if self.oneshot is None or not getattr(self.oneshot, "ready", False):
            get_metrics().counter(
                "service.oneshot_unavailable",
                help="One-shot sessions served without a fitted "
                     "recommender").inc()
            self._audit(session, "oneshot-unavailable",
                        reason=("no recommender attached"
                                if self.oneshot is None
                                else "recommender not fitted"))
            return
        database = work.tuner.make_database(request.hardware, workload)
        # The prediction input a live tenant presents: internal-metric
        # state under the incumbent config.
        observation = database.evaluate(work.baseline,
                                        trial=SafetyGuard.BASELINE_TRIAL)
        work.incumbent_metrics = [float(v) for v in observation.metrics]
        prediction = self.oneshot.predict(
            workload.signature(), request.hardware, observation.metrics,
            base_config=work.baseline)
        session.prediction_latency = prediction.latency_s
        verdict = self.guard.canary(
            database, prediction.config,
            baseline_config=self.guard.deployed_config(tenant))
        get_metrics().counter(
            "service.oneshot_predictions",
            help="Configs predicted by the one-shot recommender").inc()
        if verdict.accepted:
            # Provisional deploy: the tenant runs the predicted config
            # while refinement is still in flight, and tuning starts from
            # it.  Audited under its own event name — the terminal
            # "deployed" event would stop a SIGKILLed shard from replaying
            # a predicted-but-unrefined session.
            self.guard.deploy(tenant, prediction.config, verdict)
            self._audit(session, "oneshot-deployed", tenant=tenant)
        session.provisional = ServiceRecommendation(
            config=prediction.config, source="oneshot", trials_used=0,
            predicted_reward=prediction.predicted_score,
            verified=verdict.accepted)
        session.train_budget = max(1, int(round(
            session.train_budget * self.oneshot_budget_frac)))
        self._audit(session, "oneshot-predicted",
                    predicted_score=round(prediction.predicted_score, 6),
                    latency_s=round(prediction.latency_s, 6),
                    canary_accepted=verdict.accepted,
                    budget=session.train_budget,
                    metrics=work.incumbent_metrics,
                    config=prediction.config)
        session._transition(SessionState.PREDICTED)
        # Seed the refinement warmup with the predicted action (ahead of
        # any history seeds): the first probe the session pays for
        # measures the prediction itself.
        seeds = work.train_kwargs.get("warmup_seeds")
        row = np.asarray(prediction.action, dtype=np.float64).reshape(1, -1)
        work.train_kwargs["warmup_seeds"] = (
            np.vstack([row, seeds]) if seeds is not None and len(seeds)
            else row)

    def _stage_training(self, session: TuningSession, work: _Work) -> None:
        """Offline training: the full budget cold, a reduced one warm."""
        request = session.request
        training = work.tuner.offline_train(
            request.hardware, work.tuning_workload,
            max_steps=session.train_budget, **work.train_kwargs)
        session.training = training
        self._audit(session, "training-finished",
                    steps=training.steps, episodes=training.episodes,
                    crashes=training.crashes, converged=training.converged,
                    best_throughput=(training.best_probe.throughput
                                     if training.best_probe else None))

    def _stage_tuning(self, session: TuningSession, work: _Work) -> None:
        """The online tuning steps of §2.1.2, from the deployed config."""
        request = session.request
        work.deployed_config = self.guard.deployed_config(request.tenant)
        session.tuning = work.tuner.tune(
            request.hardware, work.tuning_workload,
            steps=request.tune_steps, initial_config=work.deployed_config)

    def _stage_verify(self, session: TuningSession, work: _Work) -> None:
        """Measure the top candidates of a compressed session on the full
        workload in one batch; the recommendation takes the winner."""
        if not session.compression.compressed:
            return
        request = session.request
        tuning = session.tuning
        candidates = [(record.knobs, performance_score(record.performance))
                      for record in tuning.records if not record.crashed]
        candidates.append((tuning.best_config,
                           performance_score(tuning.best)))
        full_db = work.tuner.make_database(request.hardware, request.workload)
        verification = ConfigVerifier(full_db).verify(candidates)
        session.verification = verification
        get_metrics().counter(
            "service.verifications",
            help="Staged full-mix verification batches run").inc()
        winner = verification.winner_performance
        self._audit(session, "verified",
                    considered=verification.considered,
                    promoted=verification.promoted,
                    verified=verification.verified,
                    winner_throughput=(winner.throughput
                                       if winner is not None else None),
                    winner_latency=(winner.latency
                                    if winner is not None else None))

    def _stage_recommend(self, session: TuningSession, work: _Work) -> None:
        """Recommend the best config, and keep the session's knowledge.

        The best config is the verified winner when verification found
        one, else the tuning run's best.  The fine-tuned model is
        registered for future warm starts whatever the canary decides —
        the model is knowledge, not a deployment — with the best config
        in its metadata for :meth:`HistoryStore.from_registry`; the
        session's evaluations join the service's history.
        """
        request = session.request
        workload = request.workload
        tuning = session.tuning
        verification = session.verification
        verified = (verification is not None
                    and verification.winner_config is not None)
        if verified:
            best_config = verification.winner_config
            best_perf = verification.winner_performance
        else:
            best_config, best_perf = tuning.best_config, tuning.best
        session.recommendation = work.tuner.recommender.from_config(
            best_config)
        # Provenance: a one-shot session whose refinement converged back
        # to the predicted config is served as "oneshot"; one the search
        # improved upon is "refined"; otherwise warm/cold says how the RL
        # session itself started.
        if session.provisional is not None:
            source = ("oneshot" if dict(session.recommendation.config)
                      == dict(session.provisional.config) else "refined")
            predicted_reward = session.provisional.predicted_reward
        else:
            source = ("warm" if session.warm_started_from is not None
                      else "cold")
            predicted_reward = None
        trials_used = session.training.steps + len(tuning.records)
        session.service_recommendation = ServiceRecommendation(
            config=dict(session.recommendation.config), source=source,
            trials_used=trials_used, predicted_reward=predicted_reward,
            verified=verified)
        session._transition(SessionState.RECOMMENDED)
        self._audit(session, "recommended", source=source,
                    trials_used=trials_used,
                    best_throughput=best_perf.throughput,
                    best_latency=best_perf.latency,
                    improvement=tuning.throughput_improvement)
        if self.registry is not None:
            registered = self.registry.register(
                work.tuner, workload, request.hardware,
                train_steps=session.training.steps,
                best_throughput=best_perf.throughput,
                best_latency=best_perf.latency,
                parent=session.warm_started_from,
                metadata={"session": session.id, "tenant": request.tenant,
                          "best_config": dict(best_config)},
                model_id=(f"{workload.name}-{request.hardware.name}-"
                          f"{session.id}"))
            session.model_id = registered.model_id
            self._audit(session, "model-registered",
                        model=registered.model_id)
        self.history.add_result(workload.signature(), tuning,
                                source=f"session:{session.id}",
                                workload=workload.name,
                                hardware=request.hardware.name,
                                metrics=work.incumbent_metrics)

    def _stage_canary(self, session: TuningSession, work: _Work) -> None:
        """The recommendation must beat the tenant's live configuration
        on a replica before it is deployed."""
        request = session.request
        tenant = request.tenant
        database = work.tuner.make_database(request.hardware,
                                            request.workload)
        verdict = self.guard.canary(database, session.recommendation.config,
                                    baseline_config=work.deployed_config)
        session.verdict = verdict
        self._audit(session, "canary", **verdict.as_dict())
        if verdict.accepted:
            self.guard.deploy(tenant, session.recommendation.config, verdict)
            session.deployed = True
            session.service_recommendation = (
                session.service_recommendation.with_verified(True))
            self._audit(session, "deployed", tenant=tenant)
            session._transition(SessionState.DEPLOYED)
            work.outcome = "deployed"
        elif session.provisional is not None and session.provisional.verified:
            # One-shot session whose refinement could not beat the
            # provisionally deployed prediction: the prediction is already
            # live and canary-verified, so the session still succeeds —
            # with the one-shot config as its outcome.
            session.service_recommendation = session.provisional
            session.recommendation = work.tuner.recommender.from_config(
                session.provisional.config)
            session.deployed = True
            get_metrics().counter(
                "service.oneshot_retained",
                help="Sessions whose refinement failed to beat the "
                     "deployed one-shot prediction").inc()
            self._audit(session, "deployment-blocked",
                        reason=verdict.reason, detail=verdict.detail,
                        retained="oneshot")
            self._audit(session, "deployed", tenant=tenant,
                        retained="oneshot")
            session._transition(SessionState.DEPLOYED)
            work.outcome = "oneshot-retained"
        else:
            session.error = f"canary rejected: {verdict.reason}"
            self._audit(session, "deployment-blocked",
                        reason=verdict.reason, detail=verdict.detail)
            session._transition(SessionState.FAILED)
            work.outcome = "blocked"

