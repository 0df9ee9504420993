"""Multiprocess session sharding: placement, wire codec, crash recovery.

The process-level tests boot real forked shard processes, so they keep
budgets tiny (8/16-unit networks, a handful of training steps).  The
crash-recovery test SIGKILLs a shard with acknowledged sessions on it
and asserts the supervisor's audit replay loses none of them — the
system's availability contract.
"""

import collections
import os
import signal
import time

import pytest

from repro.core.tuner import CDBTune
from repro.dbsim.hardware import CDB_A, CDB_B
from repro.dbsim.workload import get_workload
from repro.reuse import WorkloadMix
from repro.service import (
    AuditLog,
    ConsistentHashRing,
    SessionState,
    ShardedTuningService,
    TuningRequest,
    TuningService,
)
from repro.service.shard import request_from_wire, request_to_wire

TRAIN_KWARGS = {"probe_every": 1000, "episode_length": 2,
                "warmup_steps": 1, "stop_on_convergence": False}


def _request(tenant, seed=0, train_steps=3, **overrides):
    kwargs = dict(hardware=CDB_A, workload="sysbench-rw", tenant=tenant,
                  train_steps=train_steps, tune_steps=1, seed=seed,
                  noise=0.0, train_kwargs=dict(TRAIN_KWARGS))
    kwargs.update(overrides)
    return TuningRequest(**kwargs)


def _shard_factory(index, audit):
    def tiny(request):
        return CDBTune(seed=request.seed, noise=request.noise,
                       actor_hidden=(8, 8), critic_hidden=(8, 8),
                       critic_branch_width=4, batch_size=4,
                       prioritized_replay=False)
    return TuningService(audit=audit, workers=1, tuner_factory=tiny)


def _sharded(tmp_path, shards=2, **overrides):
    kwargs = dict(shards=shards, shard_factory=_shard_factory,
                  audit_path=tmp_path / "audit.jsonl",
                  heartbeat_interval=0.2)
    kwargs.update(overrides)
    return ShardedTuningService(**kwargs)


def _trained_recommender(tmp_path):
    """Fit a tiny recommender on a synthetic corpus, checkpoint it."""
    import numpy as np

    from repro.dbsim.mysql_knobs import mysql_registry
    from repro.oneshot import OneShotRecommender

    registry = mysql_registry()
    rng = np.random.default_rng(0)
    base = get_workload("sysbench-rw").signature()
    examples = []
    for index in range(6):
        action = np.clip(
            0.5 + 0.1 * rng.standard_normal(registry.n_tunable), 0.0, 1.0)
        examples.append({
            "signature": {k: float(v) + 0.01 * index for k, v in base.items()},
            "config": registry.from_vector(action),
            "score": 100.0 + index,
            "hardware": "CDB-A",
        })
    recommender = OneShotRecommender(registry, hidden=(8, 8), seed=0)
    recommender.fit_corpus(examples, epochs=10, batch_size=4)
    path = tmp_path / "oneshot.npz"
    recommender.save(str(path))
    return path


def _oneshot_factory(model_path):
    """Shard factory whose child loads the recommender from disk — the
    deployment shape for sharded one-shot serving (each respawn reloads
    the checkpoint, so crash recovery keeps the prediction path)."""
    def factory(index, audit):
        from repro.dbsim.mysql_knobs import mysql_registry
        from repro.oneshot import OneShotRecommender

        recommender = OneShotRecommender.load(str(model_path),
                                              mysql_registry())

        def tiny(request):
            return CDBTune(seed=request.seed, noise=request.noise,
                           actor_hidden=(8, 8), critic_hidden=(8, 8),
                           critic_branch_width=4, batch_size=4,
                           prioritized_replay=False)

        return TuningService(audit=audit, workers=1, tuner_factory=tiny,
                             oneshot=recommender)
    return factory


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------
class TestConsistentHashRing:
    def test_deterministic_and_in_range(self):
        ring = ConsistentHashRing(4)
        again = ConsistentHashRing(4)
        for index in range(200):
            key = f"tenant-{index}"
            shard = ring.node_for(key)
            assert 0 <= shard < 4
            assert again.node_for(key) == shard    # stable across instances

    def test_reasonable_balance(self):
        ring = ConsistentHashRing(4)
        counts = collections.Counter(ring.node_for(f"tenant-{index}")
                                     for index in range(2000))
        assert set(counts) == {0, 1, 2, 3}         # every shard gets keys
        assert max(counts.values()) < 3 * min(counts.values())

    def test_scaling_moves_few_keys(self):
        """Consistent hashing: adding a shard remaps only a fraction."""
        before = ConsistentHashRing(4)
        after = ConsistentHashRing(5)
        keys = [f"tenant-{index}" for index in range(1000)]
        moved = sum(1 for key in keys
                    if before.node_for(key) != after.node_for(key))
        assert moved < 500                         # modulo would move ~80%

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(0)
        with pytest.raises(ValueError):
            ConsistentHashRing(2, replicas=0)


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------
class TestWireCodec:
    def test_named_workload_roundtrip(self):
        request = _request("t1", seed=7, priority=3, mode="refine",
                           current_config={"max_connections": 500})
        clone = request_from_wire(request_to_wire(request))
        assert clone.workload == request.workload
        assert clone.hardware == request.hardware
        assert clone.tenant == "t1"
        assert clone.priority == 3
        assert clone.seed == 7
        assert clone.mode == "refine"
        assert clone.current_config == {"max_connections": 500}
        assert clone.train_kwargs == request.train_kwargs

    def test_custom_spec_roundtrip(self):
        custom = get_workload("sysbench-rw").scaled(threads=99)
        request = _request("t1", workload=custom)
        wire = request_to_wire(request)
        assert wire["workload"]["kind"] == "spec"  # not a catalog workload
        clone = request_from_wire(wire)
        assert clone.workload == custom

    def test_mix_roundtrip(self):
        mix = WorkloadMix.single("sysbench-rw", name="tenant-mix")
        request = _request("t1", workload=mix)
        wire = request_to_wire(request)
        assert wire["workload"]["kind"] == "mix"
        clone = request_from_wire(wire)
        assert isinstance(clone.workload, WorkloadMix)
        assert clone.workload.signature() == mix.signature()

    def test_mode_roundtrip_and_legacy_default(self):
        """``mode`` survives the wire; pre-mode wire dicts read as full."""
        request = _request("t1", mode="oneshot")
        wire = request_to_wire(request)
        assert wire["mode"] == "oneshot"
        clone = request_from_wire(wire)
        assert clone.mode == "oneshot"
        legacy = dict(wire)
        legacy.pop("mode")                  # a wire dict from before PR 10
        assert request_from_wire(legacy).mode == "full"


# ---------------------------------------------------------------------------
# Sharded service end to end (forked worker processes)
# ---------------------------------------------------------------------------
class TestShardedService:
    def test_tenant_affinity_and_ordering(self, tmp_path):
        """One tenant's sessions land on one shard, in submission order."""
        with _sharded(tmp_path, shards=2) as service:
            tenants = [f"tenant-{index}" for index in range(4)]
            submitted = {}
            for round_index in range(2):
                for tenant in tenants:
                    sid = service.submit(_request(
                        tenant, seed=round_index, train_steps=2))
                    submitted.setdefault(tenant, []).append(sid)
            service.drain(timeout=300)
            statuses = {s["id"]: s for s in service.sessions()}
            assert len(statuses) == 8
            events = AuditLog.read_jsonl(service.audit_path)
            accepted_shard = {e["session"]: e["shard"] for e in events
                              if e["event"] == "shard-accepted"}
            started_order = [e["session"] for e in events
                             if e["event"] == "started"]
            for tenant, ids in submitted.items():
                # affinity: both sessions on the ring's shard for the tenant
                expected = service.shard_for(tenant)
                assert [accepted_shard[sid] for sid in ids] == [expected] * 2
                # ordering: started in submission order (1 worker per shard)
                first, second = (started_order.index(ids[0]),
                                 started_order.index(ids[1]))
                assert first < second
                for sid in ids:
                    assert statuses[sid]["state"] == SessionState.DEPLOYED

    def test_unknown_session_raises(self, tmp_path):
        service = _sharded(tmp_path, shards=1, autostart=False)
        with pytest.raises(KeyError, match="unknown session"):
            service.status("s9999")

    def test_kill_shard_replays_acknowledged_sessions(self, tmp_path):
        """SIGKILL a shard mid-work: every acknowledged session still
        reaches a terminal state under its original id, and the audit log
        shows the respawn replayed it."""
        with _sharded(tmp_path, shards=2) as service:
            ids = [service.submit(_request(f"tenant-{index}", seed=index,
                                           train_steps=4))
                   for index in range(6)]
            victim = service.shard_for("tenant-0")
            pid = service.shard_pid(victim)
            assert pid is not None
            os.kill(pid, signal.SIGKILL)

            # The acknowledged session answers (recovering placeholder or
            # live status), never a 404-style KeyError, during the outage.
            during = service.status(ids[0])
            assert during["id"] == ids[0]

            service.drain(timeout=300)
            finals = {sid: service.status(sid) for sid in ids}
            lost = [sid for sid, status in finals.items()
                    if status["state"] not in SessionState.TERMINAL]
            assert lost == []                     # the availability contract
            assert service.shard_pid(victim) != pid   # respawned

            events = AuditLog.read_jsonl(service.audit_path)
            kinds = collections.Counter(e["event"] for e in events)
            assert kinds["shard-accepted"] == 6
            assert kinds.get("shard-replayed", 0) >= 1
            # Replayed sessions kept their acknowledged ids.
            replayed = {e["session"] for e in events
                        if e["event"] == "shard-replayed"}
            assert replayed <= set(ids)
            reports = {e["session"] for e in events
                       if e["event"] == "session-report"}
            assert set(ids) <= reports            # every session reported

    def test_kill_shard_replays_predicted_oneshot_session(self, tmp_path):
        """SIGKILL a shard *after* the one-shot prediction but before the
        refinement finishes: the respawned shard — whose factory reloads
        the recommender checkpoint from disk — must replay the session
        through the one-shot path again and land it terminal under its
        original id, with source provenance in the relayed status."""
        model_path = _trained_recommender(tmp_path)
        with _sharded(tmp_path, shards=1,
                      shard_factory=_oneshot_factory(model_path)) as service:
            sid = service.submit(_request("tenant-one", train_steps=60,
                                          mode="oneshot"))
            deadline = time.monotonic() + 120
            while True:                   # wait for the provisional config
                events = AuditLog.read_jsonl(service.audit_path)
                if any(e["event"] == "oneshot-predicted"
                       and e["session"] == sid for e in events):
                    break
                assert time.monotonic() < deadline
                time.sleep(0.01)
            pid = service.shard_pid(0)
            os.kill(pid, signal.SIGKILL)

            service.drain(timeout=300)
            final = service.status(sid)
            assert final["id"] == sid
            assert final["state"] in SessionState.TERMINAL
            recommendation = final.get("recommendation")
            assert recommendation is not None
            assert recommendation["source"] in ("oneshot", "refined")
            assert recommendation["config"]

            events = AuditLog.read_jsonl(service.audit_path)
            kinds = collections.Counter(e["event"] for e in events)
            assert kinds.get("shard-replayed", 0) >= 1
            # Predicted once before the kill, again during the replay.
            assert kinds["oneshot-predicted"] >= 2

    def test_terminal_before_crash_answers_expired_after_respawn(
            self, tmp_path):
        """A session that finished *before* its shard died is rightly not
        replayed — but the fresh shard has never heard of it, so the
        parent must consult the audit log and answer an ``EXPIRED``
        marker, not a forever-``SUBMITTED`` recovering placeholder that
        would spin :meth:`wait` until timeout."""
        with _sharded(tmp_path, shards=1) as service:
            sid = service.submit(_request("tenant-x", train_steps=2))
            final = service.wait(sid, timeout=300)
            assert final["state"] in SessionState.TERMINAL
            pid = service.shard_pid(0)
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while True:
                status = service.status(sid)
                if status.get("expired"):
                    break
                assert time.monotonic() < deadline, status
                time.sleep(0.1)
            assert status["state"] == SessionState.EXPIRED
            # wait() terminates on the marker instead of polling forever.
            assert service.wait(sid, timeout=30)["state"] \
                == SessionState.EXPIRED

    def test_routing_meta_bounded_past_cap(self, tmp_path):
        """Parent-side routing metadata must not regrow the unbounded
        session table one layer up: past the cap the oldest entries
        degrade to ``EXPIRED`` markers."""
        service = _sharded(tmp_path, shards=1, session_retention=1,
                           autostart=False)
        assert service._meta_cap == 64
        with service._meta_lock:
            for index in range(service._meta_cap + 10):
                service._meta[f"s{index:04d}"] = {
                    "shard": 0, "trace": "t", "tenant": "x"}
                service._prune_meta_locked()
            assert len(service._meta) == service._meta_cap
        status = service.status("s0000")
        assert status == {"id": "s0000", "state": SessionState.EXPIRED,
                          "expired": True}
        with pytest.raises(KeyError, match="unknown session"):
            service.status("never-submitted")
        # No retention bound ⇒ unbounded routing metadata, matching the
        # shards themselves retaining every session record.
        unbounded = _sharded(tmp_path, shards=1, autostart=False,
                             audit_path=tmp_path / "audit2.jsonl")
        assert unbounded._meta_cap is None

    def test_fleet_queue_bound_is_split_across_shards(self, tmp_path):
        """A fleet-wide ``max_queue_depth`` sheds at the per-shard share."""
        from repro.service import QueueFullError

        with _sharded(tmp_path, shards=1) as service:
            # 1 shard, 1 worker; gate the worker by submitting a slow-ish
            # first session, then flood one tenant's queue.
            ids = [service.submit(_request("hot-tenant", seed=seed,
                                           train_steps=4))
                   for seed in range(3)]
            with pytest.raises(QueueFullError):
                for seed in range(3, 30):
                    ids.append(service.submit(
                        _request("hot-tenant", seed=seed, train_steps=4),
                        max_queue_depth=4))
            service.drain(timeout=300)
            for sid in ids:
                assert (service.status(sid)["state"]
                        in SessionState.TERMINAL)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedTuningService(shards=0)
        with pytest.raises(ValueError):
            ShardedTuningService(shards=1, workers_per_shard=0)
