"""Service-layer load benchmark → ``BENCH_service.json``.

Three phases, all sized so the whole run fits in CI:

* **Stress** (in-process): ≥50 threads submit concurrently — several per
  tenant, racing the same-tenant baseline seeding — while reader threads
  hammer ``sessions()``.  This is the regression harness for the PR 7
  concurrency fixes: it asserts **zero** ``RuntimeError``\\ s from the
  snapshot path, **zero** dead workers (a shrunken pool means a worker
  died on an unhandled error) and **exactly one** seeded baseline at the
  bottom of every tenant's rollback stack.
* **Load** (over HTTP): a load generator drives hundreds of concurrent
  tenant sessions through the asyncio front door with a deliberately
  tight queue bound, retrying shed submissions with backoff.  It records
  the p50/p99 **submit→recommend latency** (accepted ``POST /v1/sessions``
  until the session is first observed RECOMMENDED or beyond), the HTTP
  submit round-trip, the **shed rate**, and the **queue-depth curve**
  sampled from ``GET /v1/metrics``.
* **Sharded** (multiprocess): a throughput-vs-shards curve over
  :class:`ShardedTuningService` worker *processes* (the single-process
  service is the 1-shard baseline), then a **recovery drill**: submit a
  batch, SIGKILL one shard with acknowledged sessions on it, and verify
  the supervisor's audit replay loses none of them.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_service_load.py --out BENCH_service.json

``--phase {core,sharded,all}`` selects phases.  ``--smoke`` shrinks all
phases and exits non-zero when any invariant breaks — shed rate above
zero at nominal load, a dead worker thread, a stress-phase
``RuntimeError``, a duplicated baseline, or **any acknowledged session
lost** after the forced shard kill (the CI guard).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import tempfile
import threading
import time
from typing import Dict, List

from repro.core.tuner import CDBTune
from repro.dbsim.hardware import CDB_A
from repro.obs import get_metrics
from repro.service import (
    AuditLog,
    SessionState,
    ShardedTuningService,
    TuningRequest,
    TuningService,
)
from repro.service.frontdoor import ServiceFrontDoor, http_request

TRAIN_KWARGS = {"probe_every": 1000, "episode_length": 2,
                "warmup_steps": 1, "stop_on_convergence": False}

#: States that mark the submit→recommend latency as complete.
_RECOMMENDED_OR_LATER = {SessionState.RECOMMENDED, SessionState.DEPLOYED,
                         SessionState.FAILED}


def tiny_tuner(request):
    """Smallest useful agent — the bench measures the service, not DDPG."""
    return CDBTune(seed=request.seed, noise=request.noise,
                   actor_hidden=(8, 8), critic_hidden=(8, 8),
                   critic_branch_width=4, batch_size=4,
                   prioritized_replay=False)


def _request_body(tenant: str, seed: int, train_steps: int) -> Dict[str, object]:
    return {"workload": "sysbench-rw", "tenant": tenant, "seed": seed,
            "noise": 0.0, "train_steps": train_steps, "tune_steps": 1,
            "train_kwargs": dict(TRAIN_KWARGS)}


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


# ---------------------------------------------------------------------------
# Phase 1: in-process stress — the concurrency-bug regression harness
# ---------------------------------------------------------------------------
def run_stress(submitters: int, tenants: int, workers: int,
               train_steps: int) -> Dict[str, object]:
    service = TuningService(registry=None, workers=workers,
                            tuner_factory=tiny_tuner, autostart=False)
    errors: List[str] = []
    stop_readers = threading.Event()
    barrier = threading.Barrier(submitters)

    def submit_one(index: int) -> None:
        try:
            barrier.wait(timeout=60)
            service.submit(TuningRequest(
                hardware=CDB_A, workload="sysbench-rw",
                tenant=f"tenant-{index % tenants}", seed=index, noise=0.0,
                train_steps=train_steps, tune_steps=1,
                train_kwargs=dict(TRAIN_KWARGS)))
        except BaseException as error:  # noqa: BLE001 - recorded, reported
            errors.append(f"submit[{index}]: {type(error).__name__}: {error}")

    def read_loop() -> None:
        try:
            while not stop_readers.is_set():
                service.sessions()
                time.sleep(0.002)   # keep hammering without starving workers
        except BaseException as error:  # noqa: BLE001 - recorded, reported
            errors.append(f"sessions(): {type(error).__name__}: {error}")

    started = time.perf_counter()
    threads = [threading.Thread(target=submit_one, args=(i,))
               for i in range(submitters)]
    readers = [threading.Thread(target=read_loop) for _ in range(4)]
    for thread in readers + threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    service.start()
    service.drain(timeout=600)
    stop_readers.set()
    for thread in readers:
        thread.join(60)
    wall_s = time.perf_counter() - started

    duplicate_baselines = 0
    misplaced_baselines = 0
    for index in range(tenants):
        history = service.guard.history(f"tenant-{index}")
        baselines = [record for record in history if record.verdict is None]
        if len(baselines) != 1:
            duplicate_baselines += 1
        if not history or history[0].verdict is not None:
            misplaced_baselines += 1
    workers_alive = service.workers_alive()
    states: Dict[str, int] = {}
    for status in service.sessions():
        states[str(status["state"])] = states.get(str(status["state"]), 0) + 1
    service.shutdown()
    return {
        "submitters": submitters,
        "tenants": tenants,
        "workers": workers,
        "wall_s": round(wall_s, 3),
        "errors": errors,
        "states": states,
        "workers_alive": workers_alive,
        "duplicate_baselines": duplicate_baselines,
        "misplaced_baselines": misplaced_baselines,
        "ok": (not errors and workers_alive == workers
               and duplicate_baselines == 0 and misplaced_baselines == 0),
    }


# ---------------------------------------------------------------------------
# Phase 2: HTTP load through the front door
# ---------------------------------------------------------------------------
async def _submit_with_retry(front_door: ServiceFrontDoor,
                             body: Dict[str, object],
                             stats: Dict[str, float],
                             retry_sleep: float) -> Dict[str, object]:
    """POST one session, retrying 429s with backoff; returns timing info."""
    attempts = 0
    first_attempt = time.perf_counter()
    while True:
        attempts += 1
        sent = time.perf_counter()
        status, _, payload = await http_request(
            "127.0.0.1", front_door.port, "POST", "/v1/sessions", body)
        now = time.perf_counter()
        stats["attempts"] = stats.get("attempts", 0) + 1
        if status == 202:
            return {"session": payload["session"],
                    "accepted_at": now,
                    "queued_for_s": now - first_attempt,
                    "http_rtt_s": now - sent,
                    "attempts": attempts}
        if status == 429:
            stats["rejected"] = stats.get("rejected", 0) + 1
            await asyncio.sleep(retry_sleep)
            continue
        raise RuntimeError(f"unexpected submit response {status}: {payload}")


async def _watch_completion(front_door: ServiceFrontDoor,
                            pending: Dict[str, float],
                            recommend_at: Dict[str, float],
                            terminal: Dict[str, str],
                            poll_s: float) -> None:
    """Poll ``GET /v1/sessions`` until every submitted session is terminal."""
    while True:
        _, _, listing = await http_request(
            "127.0.0.1", front_door.port, "GET", "/v1/sessions")
        now = time.perf_counter()
        for status in listing["sessions"]:
            session_id = str(status["id"])
            state = str(status["state"])
            if session_id not in recommend_at \
                    and state in _RECOMMENDED_OR_LATER:
                recommend_at[session_id] = now
            if state in SessionState.TERMINAL:
                terminal[session_id] = state
        if pending and all(sid in terminal for sid in pending):
            return
        await asyncio.sleep(poll_s)


async def _sample_queue_depth(front_door: ServiceFrontDoor,
                              curve: List[List[float]], started: float,
                              stop: asyncio.Event, poll_s: float) -> None:
    while not stop.is_set():
        _, _, text = await http_request(
            "127.0.0.1", front_door.port, "GET", "/v1/metrics")
        for line in text.splitlines():
            if line.startswith("service_queue_depth "):
                curve.append([round(time.perf_counter() - started, 3),
                              float(line.split()[1])])
                break
        try:
            await asyncio.wait_for(stop.wait(), poll_s)
        except asyncio.TimeoutError:
            pass


async def run_load(sessions: int, tenants: int, workers: int,
                   max_queue_depth: int, train_steps: int,
                   retry_sleep: float = 0.2,
                   poll_s: float = 0.05) -> Dict[str, object]:
    service = TuningService(registry=None, workers=workers,
                            tuner_factory=tiny_tuner)
    front_door = await ServiceFrontDoor(
        service, port=0, max_queue_depth=max_queue_depth,
        tenant_rate=1000.0, tenant_burst=float(sessions)).start()

    stats: Dict[str, float] = {}
    curve: List[List[float]] = []
    stop_sampler = asyncio.Event()
    started = time.perf_counter()
    sampler = asyncio.create_task(_sample_queue_depth(
        front_door, curve, started, stop_sampler, poll_s=0.05))

    bodies = [_request_body(f"tenant-{index % tenants}", seed=index,
                            train_steps=train_steps)
              for index in range(sessions)]
    submissions = await asyncio.gather(*[
        _submit_with_retry(front_door, body, stats, retry_sleep)
        for body in bodies])
    accepted = {sub["session"]: sub["accepted_at"] for sub in submissions}

    recommend_at: Dict[str, float] = {}
    terminal: Dict[str, str] = {}
    await _watch_completion(front_door, accepted, recommend_at, terminal,
                            poll_s)
    wall_s = time.perf_counter() - started
    stop_sampler.set()
    await sampler

    _, _, health = await http_request("127.0.0.1", front_door.port, "GET",
                                      "/v1/healthz")
    _, _, metrics_text = await http_request("127.0.0.1", front_door.port,
                                            "GET", "/v1/metrics")
    shed = rate_limited = 0.0
    for line in metrics_text.splitlines():
        if line.startswith("frontdoor_shed "):
            shed = float(line.split()[1])
        elif line.startswith("frontdoor_rate_limited "):
            rate_limited = float(line.split()[1])

    await front_door.shutdown(drain=True)

    submit_to_recommend = [recommend_at[sid] - accepted_at
                           for sid, accepted_at in accepted.items()
                           if sid in recommend_at]
    http_rtts = [sub["http_rtt_s"] for sub in submissions]
    states: Dict[str, int] = {}
    for state in terminal.values():
        states[state] = states.get(state, 0) + 1
    attempts = int(stats.get("attempts", 0))
    rejected = int(stats.get("rejected", 0))
    return {
        "sessions": sessions,
        "tenants": tenants,
        "workers": workers,
        "max_queue_depth": max_queue_depth,
        "train_steps": train_steps,
        "wall_s": round(wall_s, 3),
        "sessions_per_s": round(sessions / wall_s, 2),
        "submit_attempts": attempts,
        "shed": int(shed),
        "rate_limited": int(rate_limited),
        "shed_rate": round(rejected / attempts, 4) if attempts else 0.0,
        "http_submit_p50_ms": round(_percentile(http_rtts, 0.50) * 1e3, 3),
        "http_submit_p99_ms": round(_percentile(http_rtts, 0.99) * 1e3, 3),
        "submit_to_recommend_p50_s": round(
            _percentile(submit_to_recommend, 0.50), 3),
        "submit_to_recommend_p99_s": round(
            _percentile(submit_to_recommend, 0.99), 3),
        "states": states,
        "workers_alive": health["workers_alive"],
        "queue_depth_curve": curve,
        "queue_depth_max": max((point[1] for point in curve), default=0.0),
        "ok": (health["workers_alive"] == workers
               and len(terminal) == sessions),
    }


# ---------------------------------------------------------------------------
# Phase 3: multiprocess sharding — throughput curve and recovery drill
# ---------------------------------------------------------------------------
def _shard_factory(index: int, audit: AuditLog) -> TuningService:
    return TuningService(audit=audit, workers=1, tuner_factory=tiny_tuner)


def _shard_request(tenant: str, seed: int, train_steps: int) -> TuningRequest:
    return TuningRequest(hardware=CDB_A, workload="sysbench-rw",
                         tenant=tenant, seed=seed, noise=0.0,
                         train_steps=train_steps, tune_steps=1,
                         train_kwargs=dict(TRAIN_KWARGS))


def run_sharded_throughput(shard_counts: List[int], sessions: int,
                           tenants: int, train_steps: int,
                           ) -> List[Dict[str, object]]:
    """One arm per shard count: same batch, wall clock to drain it."""
    arms: List[Dict[str, object]] = []
    for shards in shard_counts:
        with tempfile.TemporaryDirectory(prefix="bench-shard-") as tmp:
            service = ShardedTuningService(
                shards=shards, shard_factory=_shard_factory,
                audit_path=os.path.join(tmp, "audit.jsonl"),
                heartbeat_interval=0.5)
            with service:
                started = time.perf_counter()
                for index in range(sessions):
                    service.submit(_shard_request(
                        f"tenant-{index % tenants}", seed=index,
                        train_steps=train_steps))
                service.drain(timeout=600)
                wall_s = time.perf_counter() - started
                terminal = sum(1 for status in service.sessions()
                               if status["state"] in SessionState.TERMINAL)
                workers_alive = service.workers_alive()
        arms.append({
            "shards": shards,
            "sessions": sessions,
            "tenants": tenants,
            "train_steps": train_steps,
            "wall_s": round(wall_s, 3),
            "sessions_per_s": round(sessions / wall_s, 2),
            "terminal": terminal,
            "workers_alive": workers_alive,
            "ok": terminal == sessions and workers_alive == shards,
        })
    if arms:
        base = arms[0]["sessions_per_s"] or 1.0
        for arm in arms:
            arm["speedup_vs_first"] = round(arm["sessions_per_s"] / base, 2)
    return arms


def run_shard_recovery(shards: int, sessions: int,
                       train_steps: int) -> Dict[str, object]:
    """SIGKILL one shard mid-batch; count what the replay brought back."""
    respawns_before = get_metrics().counter("service.shard_respawns").value
    with tempfile.TemporaryDirectory(prefix="bench-shard-") as tmp:
        service = ShardedTuningService(
            shards=shards, shard_factory=_shard_factory,
            audit_path=os.path.join(tmp, "audit.jsonl"),
            heartbeat_interval=0.2)
        started = time.perf_counter()
        with service:
            ids = [service.submit(_shard_request(f"tenant-{index}",
                                                 seed=index,
                                                 train_steps=train_steps))
                   for index in range(sessions)]
            victim = service.shard_for("tenant-0")
            killed_pid = service.shard_pid(victim)
            os.kill(killed_pid, signal.SIGKILL)
            service.drain(timeout=600)
            wall_s = time.perf_counter() - started
            lost = [sid for sid in ids
                    if service.status(sid)["state"]
                    not in SessionState.TERMINAL]
            respawned_pid = service.shard_pid(victim)
            events = AuditLog.read_jsonl(service.audit_path)
    acknowledged = sum(1 for event in events
                       if event["event"] == "shard-accepted")
    replayed = sum(1 for event in events
                   if event["event"] == "shard-replayed")
    reported = {event["session"] for event in events
                if event["event"] == "session-report"}
    respawns = int(get_metrics().counter("service.shard_respawns").value
                   - respawns_before)
    return {
        "shards": shards,
        "sessions": sessions,
        "killed_shard": victim,
        "killed_pid": killed_pid,
        "respawned_pid": respawned_pid,
        "wall_s": round(wall_s, 3),
        "acknowledged": acknowledged,
        "replayed": replayed,
        "reported": len(reported & set(ids)),
        "respawns": respawns,
        "lost": lost,
        "ok": (not lost and respawns >= 1 and replayed >= 1
               and respawned_pid != killed_pid
               and len(reported & set(ids)) == sessions),
    }


def run_sharded(shard_counts: List[int], sessions: int, tenants: int,
                train_steps: int, recovery_sessions: int,
                ) -> Dict[str, object]:
    print(f"sharded: throughput over {shard_counts} shards, "
          f"{sessions} sessions, {tenants} tenants ...")
    throughput = run_sharded_throughput(shard_counts, sessions, tenants,
                                        train_steps)
    for arm in throughput:
        print(f"  {arm['shards']} shard(s): {arm['wall_s']:.2f}s "
              f"({arm['sessions_per_s']:.1f} sessions/s, "
              f"{arm['speedup_vs_first']:.2f}x)")
    print(f"sharded: recovery drill — SIGKILL one of 2 shards under "
          f"{recovery_sessions} sessions ...")
    recovery = run_shard_recovery(2, recovery_sessions,
                                  train_steps=max(train_steps, 4))
    print(f"  killed shard {recovery['killed_shard']} "
          f"(pid {recovery['killed_pid']}), {recovery['respawns']} "
          f"respawn(s), {recovery['replayed']} replayed, "
          f"{len(recovery['lost'])} lost")
    return {"throughput": throughput, "recovery": recovery}


# ---------------------------------------------------------------------------
def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--phase", choices=("core", "sharded", "all"),
                        default="all",
                        help="core = stress + HTTP load; sharded = "
                             "multiprocess throughput curve + recovery "
                             "drill (default all)")
    parser.add_argument("--sessions", type=int, default=240,
                        help="HTTP load sessions (default 240)")
    parser.add_argument("--tenants", type=int, default=48)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-queue-depth", type=int, default=64,
                        help="tight on purpose, so the full run exercises "
                             "shedding (default 64)")
    parser.add_argument("--train-steps", type=int, default=2)
    parser.add_argument("--stress-submitters", type=int, default=60)
    parser.add_argument("--stress-tenants", type=int, default=12)
    parser.add_argument("--shard-counts", default="1,2,4",
                        help="comma-separated shard counts for the "
                             "throughput curve (default 1,2,4; the 1-shard "
                             "arm is the single-process baseline)")
    parser.add_argument("--shard-sessions", type=int, default=48,
                        help="sessions per throughput arm (default 48)")
    parser.add_argument("--recovery-sessions", type=int, default=8,
                        help="sessions in flight when a shard is "
                             "SIGKILLed (default 8)")
    parser.add_argument("--smoke", action="store_true",
                        help="small phases at nominal load; exit non-zero "
                             "on any shed, dead worker, RuntimeError, "
                             "duplicated baseline or lost acknowledged "
                             "session after a shard kill (the CI guard)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.sessions, args.tenants = 16, 8
        args.workers = 2
        args.max_queue_depth = 1000       # nominal load: nothing may shed
        args.stress_submitters, args.stress_tenants = 50, 10
        args.shard_counts = "1,4"
        args.shard_sessions = 16
        args.recovery_sessions = 6

    shard_counts = [int(value) for value in args.shard_counts.split(",")]
    payload = {"bench": "service_load", "smoke": bool(args.smoke),
               "phase": args.phase, "cpu_count": os.cpu_count()}
    failures = []

    if args.phase in ("core", "all"):
        print(f"stress: {args.stress_submitters} concurrent submitters over "
              f"{args.stress_tenants} tenants, {args.workers} workers ...")
        stress = run_stress(args.stress_submitters, args.stress_tenants,
                            args.workers, args.train_steps)
        print(f"stress: {stress['wall_s']:.2f}s, states {stress['states']}, "
              f"{len(stress['errors'])} errors, "
              f"{stress['workers_alive']}/{stress['workers']} workers alive, "
              f"{stress['duplicate_baselines']} duplicated baselines")

        print(f"load: {args.sessions} sessions over {args.tenants} tenants, "
              f"{args.workers} workers, queue bound "
              f"{args.max_queue_depth} ...")
        load = asyncio.run(run_load(args.sessions, args.tenants,
                                    args.workers, args.max_queue_depth,
                                    args.train_steps))
        print(f"load: {load['wall_s']:.2f}s "
              f"({load['sessions_per_s']:.1f} sessions/s), "
              f"submit→recommend p50 "
              f"{load['submit_to_recommend_p50_s']:.2f}s "
              f"p99 {load['submit_to_recommend_p99_s']:.2f}s, "
              f"shed rate {load['shed_rate']:.1%} "
              f"({load['shed']} shed / {load['submit_attempts']} attempts), "
              f"peak queue depth {load['queue_depth_max']:.0f}")
        payload["stress"] = stress
        payload["load"] = load

        if stress["errors"]:
            failures.append(f"stress errors: {stress['errors'][:3]}")
        if stress["workers_alive"] != stress["workers"]:
            failures.append("stress killed a worker thread")
        if stress["duplicate_baselines"] or stress["misplaced_baselines"]:
            failures.append("rollback stack corrupted by concurrent seeding")
        if load["workers_alive"] != load["workers"]:
            failures.append("load killed a worker thread")
        if args.smoke and load["shed"] > 0:
            failures.append(f"shed {load['shed']} sessions at nominal load")
        if not load["ok"]:
            failures.append("not every accepted session reached a terminal "
                            "state")

    if args.phase in ("sharded", "all"):
        sharded = run_sharded(shard_counts, args.shard_sessions,
                              args.tenants, args.train_steps,
                              args.recovery_sessions)
        payload["sharded"] = sharded

        recovery = sharded["recovery"]
        if recovery["lost"]:
            failures.append(f"shard kill lost acknowledged sessions: "
                            f"{recovery['lost']}")
        if not recovery["ok"]:
            failures.append("recovery drill failed (no respawn, no replay "
                            "or a missing session report)")
        for arm in sharded["throughput"]:
            if not arm["ok"]:
                failures.append(f"{arm['shards']}-shard arm lost sessions "
                                f"or workers")
        # The scaling gate only means something with cores to scale onto.
        by_shards = {arm["shards"]: arm for arm in sharded["throughput"]}
        if (os.cpu_count() or 1) >= 4 and 1 in by_shards and 4 in by_shards:
            speedup = (by_shards[4]["sessions_per_s"]
                       / max(by_shards[1]["sessions_per_s"], 1e-9))
            payload["sharded"]["speedup_4_vs_1"] = round(speedup, 2)
            if speedup < 2.0:
                failures.append(f"4-shard throughput only {speedup:.2f}x "
                                f"the single-process baseline")

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    print(f"wrote {args.out}")

    if failures:
        print("FAILED: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
