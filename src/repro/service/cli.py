"""``repro-service``: run tuning sessions through the service from a shell.

Two modes:

* **Batch** (default): submits one session per requested workload
  against the chosen instance type, waits for them to finish, and prints
  each session's status plus the audit trail.  A persistent
  ``--registry`` directory makes repeat runs warm-start from earlier
  models.  ``--trace`` captures every session as a span tree in a JSONL
  file (render it with ``python -m repro.experiments obs-report``);
  ``--metrics-out`` writes the metrics snapshot as JSON.
* **Server** (``repro-service serve``): runs the asynchronous HTTP front
  door of :mod:`repro.service.frontdoor` — submissions arrive as
  ``POST /v1/sessions``, backpressure is enforced by the queue-depth bound
  and per-tenant token buckets, metrics are scrapeable at ``/v1/metrics``,
  and ``POST /v1/shutdown`` drains gracefully.

Examples::

    repro-service --workload sysbench-rw --steps 60
    repro-service --workload sysbench-rw --workload tpcc \
        --hardware CDB-C --registry /tmp/models --audit /tmp/audit.jsonl
    repro-service --workload sysbench-rw --steps 12 \
        --trace /tmp/trace.jsonl --metrics-out /tmp/metrics.json
    repro-service serve --port 8421 --workers 4 --max-queue-depth 64
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import List, Optional

from .audit import AuditLog
from .frontdoor import ServiceFrontDoor
from .registry import ModelRegistry
from .server import MODES, TuningRequest, TuningService
from .shard import ShardedTuningService
from ..dbsim.hardware import INSTANCES
from ..dbsim.workload import WORKLOADS
from ..nn.blas import set_blas_threads
from ..obs import (
    SpanExporter,
    Tracer,
    configure_console,
    get_logger,
    get_metrics,
    set_tracer,
)

__all__ = ["main", "serve_main"]

logger = get_logger(__name__)

#: BLAS threads per service process.  Session workers and shard processes
#: give the service its parallelism; the DDPG matrices (at most 64×266)
#: are too small to gain from more BLAS threads, which only contend for
#: the cores those workers run on.
BLAS_THREADS = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Run CDBTune tuning sessions through the multi-tenant "
                    "tuning service.")
    parser.add_argument("--workload", action="append", dest="workloads",
                        choices=sorted(WORKLOADS),
                        help="workload to tune (repeatable; default: "
                             "sysbench-rw)")
    parser.add_argument("--hardware", default="CDB-A",
                        choices=sorted(INSTANCES),
                        help="instance type (paper Table 1; default CDB-A)")
    parser.add_argument("--steps", type=int, default=60,
                        help="offline training step budget per session")
    parser.add_argument("--tune-steps", type=int, default=5,
                        help="online tuning steps (paper: 5)")
    parser.add_argument("--mode", default="full", choices=list(MODES),
                        help="stages each session runs: full trains, tunes "
                             "and canaries; refine first bootstraps from "
                             "the tuning history; oneshot also predicts a "
                             "config from the corpus before a shorter "
                             "search; compress tunes on a compressed "
                             "workload mix and verifies on the full one "
                             "(default full)")
    parser.add_argument("--oneshot-from-audit", default=None,
                        metavar="AUDIT_JSONL",
                        help="train the one-shot recommender from this "
                             "audit trail before submitting sessions")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent tuning sessions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", type=float, default=0.015,
                        help="measurement noise of the simulated instance")
    parser.add_argument("--registry", default=None,
                        help="model-registry directory (default: a "
                             "temporary directory)")
    parser.add_argument("--audit", default=None,
                        help="write the audit trail to this JSONL file")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="capture spans (and a final metrics snapshot) "
                             "to this JSONL file")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the metrics snapshot to this JSON file")
    return parser


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service serve",
        description="Serve the tuning service over the asynchronous HTTP "
                    "front door (POST /v1/sessions, "
                    "GET /v1/sessions[/{id}], GET /v1/metrics, "
                    "GET /v1/healthz, POST /v1/shutdown).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8421,
                        help="listen port (0 picks a free one; default "
                             "8421)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent tuning sessions (per shard when "
                             "--shards is set)")
    parser.add_argument("--shards", type=int, default=0,
                        help="worker *processes* to shard sessions across "
                             "(0, the default, keeps the single-process "
                             "service); tenants are consistent-hashed onto "
                             "shards with audit-replay crash recovery")
    parser.add_argument("--session-retention", type=int, default=None,
                        help="evict terminal session records past this "
                             "count (default: retain everything)")
    parser.add_argument("--max-queue-depth", type=int, default=64,
                        help="shed POST /v1/sessions with 429 past this many "
                             "queued sessions (default 64)")
    parser.add_argument("--tenant-rate", type=float, default=8.0,
                        help="per-tenant token-bucket refill, "
                             "submissions/second (default 8)")
    parser.add_argument("--tenant-burst", type=float, default=16.0,
                        help="per-tenant token-bucket capacity (default 16)")
    parser.add_argument("--registry", default=None,
                        help="model-registry directory (default: a "
                             "temporary directory)")
    parser.add_argument("--audit", default=None,
                        help="write the audit trail to this JSONL file")
    parser.add_argument("--oneshot-from-audit", default=None,
                        metavar="AUDIT_JSONL",
                        help="train the one-shot recommender from this "
                             "audit trail at startup; sessions submitted "
                             "with mode=oneshot then get an instant "
                             "predicted config before DDPG refinement")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="capture spans to this JSONL file")
    return parser


def _train_oneshot(audit_path: str):
    """Mine ``audit_path`` and train a one-shot recommender from it.

    Raises ``OSError`` / ``ValueError`` when the trail is unreadable or
    yields too few usable training examples.
    """
    from ..dbsim.mysql_knobs import mysql_registry
    from ..oneshot import OneShotRecommender
    from ..reuse import HistoryStore

    history = HistoryStore.from_audit(audit_path)
    recommender, fit = OneShotRecommender.from_history(
        history, mysql_registry())
    logger.info("one-shot recommender: %d example(s) from %s "
                "(knob loss %.4f)", fit.examples, audit_path, fit.knob_loss)
    return recommender


def _pin_blas_threads() -> Optional[int]:
    """Run this process's BLAS on :data:`BLAS_THREADS` threads.

    Forked shards inherit the setting.  Sets the ``service.blas_threads``
    gauge (``-1`` when no OpenBLAS is loaded) and returns the previous
    count, ``None`` when there is nothing to restore.
    """
    previous = set_blas_threads(BLAS_THREADS)
    get_metrics().gauge(
        "service.blas_threads",
        help="BLAS threads per service process (-1: no OpenBLAS found)",
    ).set(-1 if previous is None else BLAS_THREADS)
    return previous


def serve_main(argv: List[str] | None = None) -> int:
    """``repro-service serve``: run the HTTP front door until shutdown."""
    args = _build_serve_parser().parse_args(argv)
    configure_console()
    exporter = SpanExporter(args.trace) if args.trace else None
    previous_tracer = (set_tracer(Tracer(exporter)) if exporter is not None
                       else None)
    previous_blas = _pin_blas_threads()
    try:
        registry_dir = (args.registry
                        or tempfile.mkdtemp(prefix="repro-registry-"))
        oneshot = None
        if args.oneshot_from_audit:
            try:
                oneshot = _train_oneshot(args.oneshot_from_audit)
            except (OSError, ValueError) as error:
                logger.error("cannot train one-shot recommender: %s", error)
                return 2
        if args.shards > 0:
            service = ShardedTuningService(
                shards=args.shards, workers_per_shard=args.workers,
                audit_path=args.audit, registry_dir=registry_dir,
                session_retention=args.session_retention)
            if oneshot is not None:
                # Shards fork, so a closure over the trained recommender
                # reaches every child process intact.
                default_factory = service.shard_factory

                def factory(index, audit, _default=default_factory,
                            _oneshot=oneshot):
                    child = _default(index, audit)
                    child.oneshot = _oneshot
                    return child

                service.shard_factory = factory
                # The parent never predicts, but /v1/healthz reports
                # oneshot readiness off this attribute.
                service.oneshot = oneshot
        else:
            service = TuningService(
                registry=ModelRegistry(registry_dir),
                audit=AuditLog(path=args.audit),
                workers=args.workers,
                session_retention=args.session_retention,
                oneshot=oneshot)
        front_door = ServiceFrontDoor(service, host=args.host,
                                      port=args.port,
                                      max_queue_depth=args.max_queue_depth,
                                      tenant_rate=args.tenant_rate,
                                      tenant_burst=args.tenant_burst)
        front_door.run()
        return 0
    finally:
        if previous_blas is not None:
            set_blas_threads(previous_blas)
        if exporter is not None:
            exporter.export(get_metrics().snapshot())
            exporter.close()
            set_tracer(previous_tracer)


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    args = _build_parser().parse_args(argv)
    configure_console()
    workloads = args.workloads or ["sysbench-rw"]
    hardware = INSTANCES[args.hardware]

    exporter = SpanExporter(args.trace) if args.trace else None
    previous_tracer = (set_tracer(Tracer(exporter)) if exporter is not None
                       else None)
    previous_blas = _pin_blas_threads()
    try:
        registry_dir = (args.registry
                        or tempfile.mkdtemp(prefix="repro-registry-"))
        registry = ModelRegistry(registry_dir)
        audit = AuditLog(path=args.audit)
        oneshot = None
        if args.oneshot_from_audit:
            try:
                oneshot = _train_oneshot(args.oneshot_from_audit)
            except (OSError, ValueError) as error:
                logger.error("cannot train one-shot recommender: %s", error)
                return 2
        service = TuningService(registry=registry, audit=audit,
                                workers=args.workers, oneshot=oneshot)

        session_ids = []
        with service:
            for index, name in enumerate(workloads):
                session_ids.append(service.submit(TuningRequest(
                    hardware=hardware, workload=name, mode=args.mode,
                    train_steps=args.steps, tune_steps=args.tune_steps,
                    seed=args.seed + index, noise=args.noise)))
            for sid in session_ids:
                service.wait(sid)

        failed = 0
        for sid in session_ids:
            status = service.status(sid)
            line = (f"{status['id']}  {status['tenant']:<24} "
                    f"{status['state']:<11}")
            if "best_throughput" in status:
                line += (f" best {status['best_throughput']:9.1f} txn/s"
                         f"  ({status['throughput_improvement'] * 100:+.0f}%)")
            if status["warm_started_from"]:
                line += f"  warm-start←{status['warm_started_from']}"
            if status.get("trace"):
                line += f"  trace={status['trace']}"
            if status["error"]:
                line += f"  [{status['error']}]"
                failed += 1
            logger.info(line)
        logger.info("")
        logger.info("registry: %d model(s) in %s", len(registry),
                    registry_dir)
        logger.info("audit: %d event(s)%s", len(audit),
                    f" → {args.audit}" if args.audit else "")

        snapshot = get_metrics().snapshot()
        if exporter is not None:
            exporter.export(snapshot)
            logger.info("trace: %s", args.trace)
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
            logger.info("metrics: %s", args.metrics_out)
        return 1 if failed else 0
    finally:
        if previous_blas is not None:
            set_blas_threads(previous_blas)
        if exporter is not None:
            exporter.close()
            set_tracer(previous_tracer)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
